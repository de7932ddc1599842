//===- Machine.h - lockstep SIMT interpreter for PTX ----------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU execution substrate: a warp-lockstep PTX interpreter with a
/// hardware-style SIMT reconvergence stack. It produces exactly the
/// feasible traces of Section 3.1: every warp-level memory instruction
/// yields one consecutive group of per-lane operations (one record),
/// divergent branches push then/else active masks whose execution order
/// matches the paper's IF rule (the then path runs first), and
/// reconvergence happens at the branch's immediate post-dominator.
///
/// Blocks are co-scheduled in waves with round-robin warp issue, so
/// inter-block flag synchronization and whole-grid constructs make
/// progress. A watchdog instruction budget converts livelocks (e.g. a
/// spinlock whose releaser is not resident) into launch errors.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_SIM_MACHINE_H
#define BARRACUDA_SIM_MACHINE_H

#include "instrument/Instrumenter.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "ptx/Ir.h"
#include "sim/LaunchConfig.h"
#include "sim/Logger.h"
#include "sim/Memory.h"
#include "sim/WeakMemory.h"
#include "support/Cancel.h"
#include "support/Error.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace barracuda {
namespace fault {
class FaultInjector;
} // namespace fault

namespace sim {

struct LoweredKernel;

/// Tunables for the machine.
struct MachineOptions {
  /// Watchdog: abort the launch after this many warp instructions.
  /// Trips convert hung kernels (infinite loops, spins on flags that
  /// will never be set, divergent barriers with live peers) into
  /// KernelHang launch failures naming the blocking pc.
  uint64_t MaxWarpInstructions = 500000000;
  /// Maximum thread blocks resident (co-scheduled) at once.
  uint32_t MaxResidentBlocks = 2048;
  /// Device-side filtering of same-value intra-warp stores (Section
  /// 3.3.1): duplicate lanes writing identical values are dropped from
  /// the logged record.
  bool FilterSameValueWrites = true;
  /// Weak-memory architecture profile (litmus experiments only).
  WeakProfileKind WeakProfile = WeakProfileKind::None;
  uint64_t WeakSeed = 1;
  /// When set, every launch emits an execute-phase span on the "device"
  /// track (--trace-json). Must outlive the machine; null = off.
  obs::TraceRecorder *Tracer = nullptr;
  /// Continuous profiling sink: per-PC dynamic instruction, memory-op
  /// and divergence counts tallied launch-locally and merged once at the
  /// end of the run. Must outlive the machine; null = detached (the
  /// interpreter takes no per-PC counters at all).
  obs::Profiler *Profiler = nullptr;
  /// Device-side fault injection (kernel-spin / barrier-hang specs).
  /// Must outlive the machine; null = off.
  fault::FaultInjector *Faults = nullptr;
};

/// Outcome of one kernel launch.
struct LaunchResult {
  /// "No pc" sentinel for FailPc.
  static constexpr uint32_t InvalidPc = 0xFFFFFFFFu;

  bool Ok = true;
  std::string Error;
  /// Structured failure class (support::errorCodeName serializes it);
  /// ErrorCode::Ok on success. Error keeps the human message.
  support::ErrorCode Code = support::ErrorCode::Ok;
  /// For KernelHang/DeviceFault: the pc the failing/blocked warp was at
  /// (a barrier's pc for a divergent-barrier hang). InvalidPc when the
  /// failure has no program location.
  uint32_t FailPc = InvalidPc;
  uint64_t WarpInstructions = 0;
  uint64_t RecordsLogged = 0;
  /// Records the redundant-logging optimization elided at runtime.
  uint64_t RecordsPruned = 0;
  uint64_t ThreadsLaunched = 0;

  static LaunchResult failure(std::string Message) {
    return failure(support::ErrorCode::InvalidLaunch, std::move(Message));
  }

  static LaunchResult failure(support::ErrorCode Code, std::string Message,
                              uint32_t FailPc = InvalidPc) {
    LaunchResult Result;
    Result.Ok = false;
    Result.Code = Code;
    Result.Error = std::move(Message);
    Result.FailPc = FailPc;
    return Result;
  }

  /// The launch's outcome as a Status ("[KernelHang] ..." on failure).
  support::Status status() const {
    return Ok ? support::Status() : support::Status(Code, Error);
  }
};

/// The SIMT machine. One instance per device; memory is shared across
/// launches. The machine itself runs on the calling thread (the paper's
/// device executes kernels while host threads drain the queues; here the
/// caller plays the device and the detector supplies the host threads).
class Machine {
public:
  explicit Machine(GlobalMemory &Memory, MachineOptions Options = {});
  ~Machine();

  /// Assigns addresses to module-level .global variables and zeroes
  /// their storage. Must be called once per module before launches.
  static void layoutModuleGlobals(ptx::Module &M, GlobalMemory &Memory);

  /// Runs one kernel to completion.
  ///
  /// \param Instr instrumentation annotations for \p K; when null the
  ///        kernel runs native (no logging).
  /// \param Logger destination for log records; may be null (native).
  /// \param Low the kernel pre-lowered to micro-ops (see sim/Lower.h),
  ///        typically cached by the caller across launches. Every launch
  ///        runs the block dispatch loop over a lowering: when \p Low is
  ///        null, or does not match \p K's body or the \p Instr mode
  ///        (native vs instrumented), the machine lowers \p K itself for
  ///        this launch.
  /// \param Cancel cooperative cancellation token polled at scheduling
  ///        boundaries; a tripped token retires the launch with a typed
  ///        Cancelled/DeadlineExceeded failure (records logged so far
  ///        still drain through the normal watermark).
  LaunchResult launch(const ptx::Module &M, const ptx::Kernel &K,
                      const instrument::KernelInstrumentation *Instr,
                      const LaunchConfig &Config,
                      const std::vector<uint8_t> &ParamBuffer,
                      DeviceLogger *Logger,
                      const LoweredKernel *Low = nullptr,
                      const support::CancelToken *Cancel = nullptr);

  GlobalMemory &memory() { return Memory; }
  const MachineOptions &options() const { return Options; }

private:
  class LaunchContext;

  GlobalMemory &Memory;
  MachineOptions Options;
  /// Per-launch counter folded into the weak-memory seed so repeated
  /// litmus runs explore different interleavings. Atomic: concurrent
  /// streams may launch on the same machine simultaneously.
  std::atomic<uint64_t> LaunchSeq{0};
};

/// Helper to build a parameter buffer matching a kernel signature.
class ParamBuilder {
public:
  explicit ParamBuilder(const ptx::Kernel &K) : K(K) {
    Buffer.resize(K.ParamBytes, 0);
  }

  /// Sets parameter \p Index to \p Value (low bytes per param width).
  ParamBuilder &set(size_t Index, uint64_t Value);

  /// Sets parameter \p Index to a float value (f32/f64 params).
  ParamBuilder &setFloat(size_t Index, double Value);

  const std::vector<uint8_t> &bytes() const { return Buffer; }

private:
  const ptx::Kernel &K;
  std::vector<uint8_t> Buffer;
};

} // namespace sim
} // namespace barracuda

#endif // BARRACUDA_SIM_MACHINE_H
