//===- Bench.h - options and results shared by the workloads ----*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Stats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Commit the benchmark was built from ("unknown" outside git).
  std::string Commit = "unknown";
  /// Self-test hook: busy-waits this many microseconds on the
  /// benchmark's side of every timed launch call, so a known slowdown
  /// can be injected without touching the library.
  double InjectDelayUs = 0;
};

/// Complete set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 5;

/// An independent 64-bit seed for stream \p Stream of run seed \p Seed
/// (splitmix64 finaliser), so each random choice a workload makes has
/// its own reproducible sequence.
inline uint64_t seedFor(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream * 0xD1B54A32D192ED03ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Busy-waits \p Us microseconds (no-op for 0).
void injectDelay(double Us);

/// Everything one run reports: the gate tallies, the metrics of the
/// final line, and the summaries and notes printed before it.
class Result {
public:
  /// One more operation attempted.
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// A failed operation; \p Incorrect marks a missed verdict gate (as
  /// opposed to a refusal or an error the program reported).
  void fail(const std::string &Why, bool Incorrect);

  /// A metric of the final JSON line.
  void metric(const std::string &Name, const std::string &Unit,
              double Value);
  /// A time metric of one thread's computation, which moves with the
  /// speed of the core: the final line reports it in reference time
  /// (HostSpeed.h).
  void computeMetric(const std::string &Name, const std::string &Unit,
                     double Value);
  /// A sample summary printed as context (median, quartiles, tail).
  void summary(const std::string &Name, const std::string &Unit,
               const Summary &S);
  /// A free-form context entry; \p Json is a JSON value.
  void note(const std::string &Key, const std::string &Json);
  /// A line of the human-readable report (printed with a "# " prefix).
  void text(const std::string &Line) { Text.push_back(Line); }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the report: text lines, one context JSON line, and the
  /// final result line.
  void print(const Options &Opts) const;

private:
  struct Metric {
    std::string Name, Unit;
    double Value;
    bool ReferenceTime;
  };
  struct NamedSummary {
    std::string Name, Unit;
    Summary S;
  };
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;
  std::vector<NamedSummary> Summaries;
  std::vector<std::pair<std::string, std::string>> Notes;
  std::vector<std::string> Text;
};

/// JSON number text with every significant digit.
std::string jsonNumber(double V);
/// JSON array of \p V.
std::string jsonArray(const std::vector<double> &V);
/// JSON string literal.
std::string jsonString(const std::string &S);

/// Peak resident set of this process so far, in MB.
double peakRssMb();

int runTable1(const Options &Opts, Result &R);
int runRelaunch(const Options &Opts, Result &R);
int runServeMixed(const Options &Opts, Result &R);
int runTable1Serve(const Options &Opts, Result &R);
int runSyncDense(const Options &Opts, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
