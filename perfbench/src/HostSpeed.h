//===- HostSpeed.h - the host's speed, sampled through a run ----*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed reference computation, compiled into the benchmark and
/// independent of the library, timed in bursts through a run. On a
/// shared host the speed of a core moves with other tenants' load: on
/// the 4-core development VM the parse of the 26 Table 1 programs, one
/// thread's work, took 55 ms in one hour and 94 ms in another. The
/// reference moves with it, so the result line reports the metrics of
/// one thread's computation (Result::computeMetric) in reference time,
///
///   wall time * NominalBurstNs / (trimmed mean burst time of the run),
///
/// where a burst's time is the CPU time of the thread that ran it. That
/// keeps a change in the program apart from a change in the host. Every
/// metric's wall-time value goes into the context line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include "Stats.h"

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeed {
public:
  /// The burst time that defines one reference second per 1e9 ns: a
  /// burst is 1 ms of reference time.
  static constexpr double NominalBurstNs = 1e6;
  /// Share of the run's wall time keepUp() spends on bursts.
  static constexpr double Share = 0.04;

  HostSpeed();

  /// Runs \p N bursts.
  void sample(unsigned N);
  /// Runs bursts until they have taken Share of the wall time since
  /// construction. Call it between timed sections, never inside one.
  void keepUp();

  /// The factor a measured time is multiplied by: NominalBurstNs over
  /// the 10%-trimmed mean burst time (1 before any burst).
  double factor() const;
  /// The bursts' CPU times, in microseconds.
  Summary burstsUs() const;

private:
  uint64_t StartNs;
  uint64_t SpentNs = 0;
  std::vector<double> BurstNs;
};

/// The run's sampler.
HostSpeed &hostSpeed();

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
