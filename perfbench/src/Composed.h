//===- Composed.h - a traced launch built from public pieces ----*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's launch path. It composes, from the library's public
/// pieces, the steps Session::loadModule and Session::launchKernel take
/// (parse, verify, instrument, lower, detector state, Engine::tryBegin,
/// Machine::launch through a SinkLogger, Launch::finish, report), with
/// the same options a default Session uses, and records one span around
/// each call. Its records and verdicts are checked against the untraced
/// Session path by the workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPOSED_H
#define PERFBENCH_COMPOSED_H

#include "Spans.h"

#include "instrument/Instrumenter.h"
#include "obs/Profiler.h"
#include "ptx/Ir.h"
#include "runtime/Engine.h"
#include "sim/Lower.h"
#include "sim/Machine.h"
#include "sim/Memory.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// What one composed launch produced.
struct ComposedLaunch {
  bool Ok = false;
  std::string Error;
  uint64_t RecordsLogged = 0;
  uint64_t SyncRecords = 0;
  uint64_t WarpInstructions = 0;
  uint64_t RacesShared = 0;
  uint64_t RacesGlobal = 0;
  bool Degraded = false;
  /// Processed + dropped == logged.
  bool LedgerBalanced = false;
  uint64_t QueueFullSpins = 0;
  uint64_t WatermarkWaitNs = 0;
};

/// One simulated device driven through the composed path.
class ComposedDevice {
public:
  ComposedDevice(barracuda::runtime::Engine &Engine, SpanRecorder &Spans);
  ComposedDevice(const ComposedDevice &) = delete;
  ComposedDevice &operator=(const ComposedDevice &) = delete;

  /// Parses, verifies, inlines, lays out and instruments \p Ptx under
  /// span \p Parent. Returns an error message, empty on success.
  std::string load(const std::string &Ptx, uint32_t Parent);

  uint64_t alloc(uint64_t Bytes) { return Memory.allocate(Bytes, 8); }

  /// Launches \p Kernel under span \p Parent.
  ComposedLaunch launch(const std::string &Kernel, barracuda::sim::Dim3 Grid,
                        barracuda::sim::Dim3 Block,
                        const std::vector<uint64_t> &Params,
                        uint32_t Parent);

  /// Static instructions the instrumenter logs (after pruning).
  uint64_t loggedInstructions() const;

private:
  barracuda::runtime::Engine &Engine;
  SpanRecorder &Spans;
  barracuda::obs::Profiler Profiler;
  barracuda::sim::GlobalMemory Memory;
  barracuda::sim::Machine Machine;
  std::unique_ptr<barracuda::ptx::Module> Mod;
  std::unique_ptr<barracuda::instrument::ModuleInstrumentation> Instr;
  std::unordered_map<const barracuda::ptx::Kernel *,
                     std::unique_ptr<barracuda::sim::LoweredKernel>>
      Lowered;
};

} // namespace perfbench

#endif // PERFBENCH_COMPOSED_H
