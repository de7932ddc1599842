//===- ClosedLoop.h - programs of the closed-loop workloads -----*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLOSEDLOOP_H
#define PERFBENCH_CLOSEDLOOP_H

#include "Bench.h"
#include "Layers.h"
#include "Spans.h"

#include "runtime/Engine.h"
#include "sim/Machine.h"

#include <vector>

namespace barracuda {
class Session;
struct RunReport;
} // namespace barracuda

namespace perfbench {

/// One program a closed-loop pass launches, with the verdict it must
/// reach.
struct Program {
  std::string Name;
  std::string Ptx;
  std::string Kernel;
  barracuda::sim::Dim3 Grid, Block;
  /// A buffer of each size is allocated and passed, in order, followed
  /// by the scalar parameters.
  std::vector<uint64_t> BufferBytes;
  std::vector<uint64_t> Scalars;
  /// Expected race counts (Table 1's columns for the generated programs).
  uint64_t RacesShared = 0, RacesGlobal = 0;
  /// Checks the program's own output after an instrumented launch on a
  /// Session; returns an error message, empty when correct. Null: none.
  std::string (*CheckOutput)(barracuda::Session &S,
                             const barracuda::RunReport &Report,
                             const std::vector<uint64_t> &Args) = nullptr;

  uint64_t racesTotal() const { return RacesShared + RacesGlobal; }

  /// The launch arguments, its buffers allocated with \p Alloc.
  template <typename AllocFn> std::vector<uint64_t> args(AllocFn Alloc) const {
    std::vector<uint64_t> Out;
    for (uint64_t Bytes : BufferBytes)
      Out.push_back(Alloc(Bytes));
    Out.insert(Out.end(), Scalars.begin(), Scalars.end());
    return Out;
  }
};

/// The 26 generated Table 1 programs for run seed \p Seed, capped at the
/// measurement geometry.
std::vector<Program> generateTable1(uint64_t Seed);

/// Runs \p P natively through a fresh Session, checked into \p R.
void runNative(const Program &P, Result &R);

/// Traced passes over \p Programs on \p Engine for \p Seconds: composed
/// launches with spans into \p Spans, the same composed pass untraced,
/// and the Session pass, in rotating order; each composed launch is
/// checked against the Session path. Per-unit samples go into \p L.
void traceClosedLoop(const Options &Opts, double Seconds,
                     barracuda::runtime::Engine &Engine,
                     const std::vector<Program> &Programs,
                     SpanRecorder &Spans, LayerSamples &L, Result &R);

} // namespace perfbench

#endif // PERFBENCH_CLOSEDLOOP_H
