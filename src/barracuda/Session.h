//===- Session.h - end-to-end BARRACUDA pipeline ---------------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: a Session owns a simulated device (global
/// memory + SIMT machine) and wires the full BARRACUDA pipeline —
/// parse PTX, instrument it, execute it on the machine with device-side
/// logging through a composable sink chain into the persistent runtime
/// Engine's lock-free queues, where a resident detector thread pool
/// race-checks the streams.
///
/// Typical use:
/// \code
///   barracuda::Session S;
///   S.loadModule(PtxText);
///   uint64_t Buf = S.alloc(4096);
///   S.launchKernel("kernel", {Blocks}, {Threads}, {Buf, 1024});
///   for (const auto &Race : S.races())
///     puts(Race.describe().c_str());
/// \endcode
///
/// Kernels can also run concurrently on streams (CUDA-stream stand-ins):
/// \code
///   runtime::Stream &A = S.createStream();
///   runtime::Stream &B = S.createStream();
///   auto RA = S.launchKernelAsync(A, "k1", {64}, {128}, {BufA});
///   auto RB = S.launchKernelAsync(B, "k2", {64}, {128}, {BufB});
///   S.synchronize();
/// \endcode
///
/// A Session constructed with Instrument=false runs kernels natively
/// (no logging, no detection) — the baseline for the overhead figure.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_BARRACUDA_SESSION_H
#define BARRACUDA_BARRACUDA_SESSION_H

#include "barracuda/RunReport.h"
#include "detector/Detector.h"
#include "fault/Fault.h"
#include "instrument/Instrumenter.h"
#include "obs/Exporter.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "ptx/Ir.h"
#include "runtime/Engine.h"
#include "runtime/Stream.h"
#include "sim/Lower.h"
#include "sim/Machine.h"
#include "trace/Queue.h"

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace barracuda {

/// Detector and simulator knobs for one run. Everything here is safe to
/// vary per request on a shared engine — the serve daemon keeps one of
/// these per tenant while the pool stays process-wide.
struct DetectOptions {
  /// Instrument kernels and run the race detector. When false the
  /// session executes natively.
  bool Instrument = true;
  instrument::InstrumenterOptions Instrumenter;
  sim::MachineOptions Machine;
  /// Collect PTVC format/memory statistics.
  bool CollectStats = true;
  /// Continuous profiling: per-PC kernel profiles from the interpreter,
  /// per-rule latency attribution from the detector and per-phase wall
  /// time from the engine (RunReport's "profile" section,
  /// --profile-folded). Off removes every profiling hook — zero added
  /// atomics on the detector hot path, one dead branch in the
  /// interpreter.
  bool Profile = true;
  /// Address-range shards for global shadow state (--shadow-shards).
  /// 0 = one shard per detector worker; 1 = the single-table oracle
  /// path (no mailboxes). Each shard is exclusively owned by one
  /// worker, so its hot path takes no granule locks and no table
  /// mutex; verdicts are identical at any count.
  unsigned ShadowShards = 0;
  /// Simulated warp width (32 = real hardware). Smaller values expose
  /// latent warp-synchronous bugs, per the paper's Section 3.1 note.
  uint32_t WarpSize = trace::WarpSize;
  /// When non-empty, every launch also records its trace to this file
  /// (replayable offline with barracuda-replay).
  std::string RecordTracePath;
  /// Wall-clock deadline applied to every launch (0 = none). When it
  /// expires the launch is retired cooperatively — the simulator stops
  /// at the next scheduling boundary, already-logged records drain (or
  /// drop) through the normal watermark, and the result carries the
  /// typed DeadlineExceeded code with the ledger still balanced.
  uint64_t DeadlineMs = 0;
  /// Deterministic fault plan (barracuda-run --inject). The session
  /// builds one FaultInjector from it and threads it through the
  /// machine, the trace writer and its owned engine. A SharedEngine
  /// keeps whatever injector it was created with — machine- and
  /// trace-side faults still apply.
  fault::FaultPlan Faults;
};

/// Process-lifetime knobs: the detector pool's shape, telemetry and
/// admission limits. One of these per engine (or per serve daemon), not
/// per request. Distinct from runtime::EngineOptions, which is the
/// engine's own lower-level config this one maps onto.
struct EngineOptions {
  /// Number of device-to-host queues (the paper found ~1.1-1.5 queues
  /// per SM optimal; each gets one persistent detector thread).
  unsigned NumQueues = 4;
  /// Per-queue capacity in records (power of two).
  size_t QueueCapacity = 1 << 14;
  /// When non-empty, a background obs::Exporter writes Prometheus
  /// text-exposition snapshots of the engine's live state (queue depths,
  /// watermark lag, leases, resilience counters, hot PCs) into this
  /// directory every MetricsIntervalMs while launches run.
  std::string MetricsOutDir;
  unsigned MetricsIntervalMs = 1000;
  /// Use this process-wide Engine instead of creating one per session
  /// (NumQueues/QueueCapacity are then the engine's, not the session's).
  /// The engine must outlive the session. Lets a driver running many
  /// short sessions — e.g. the 66-program suite — pay for the detector
  /// pool once.
  runtime::Engine *SharedEngine = nullptr;
  /// Phase tracer for --trace-json: when set, the session emits spans
  /// for parse/instrument, each launch, kernel execution ("device"
  /// track), each stream, each engine worker and each detector lease.
  /// Must outlive the session (and a SharedEngine, if both are used;
  /// the engine keeps the tracer it was created with). Null = off.
  obs::TraceRecorder *Tracer = nullptr;
  /// Admission control applied to every instrumented launch (0 =
  /// unlimited): refuse — typed Overloaded, never a stall — while this
  /// many detector leases are already open...
  uint32_t MaxLeasesInFlight = 0;
  /// ...or while this many records sit in the queues undrained.
  uint64_t MaxWatermarkLag = 0;
};

/// Session configuration: the per-run detector knobs plus the
/// process-lifetime engine knobs, flattened so existing call sites keep
/// writing `Options.NumQueues` next to `Options.Instrument`. APIs that
/// want only one half (the serve daemon) take the halves directly.
struct SessionOptions : DetectOptions, EngineOptions {};

/// What loadModule learned about the module it accepted.
struct ModuleInfo {
  /// Kernel names in declaration order.
  std::vector<std::string> Kernels;
  /// Wall time spent in the PTX front end (parse only), nanoseconds.
  uint64_t ParseNanos = 0;
};

/// An end-to-end BARRACUDA pipeline over one simulated device.
class Session {
public:
  explicit Session(SessionOptions Options = SessionOptions());
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Parses, verifies and (if enabled) instruments a PTX module, and
  /// lays out its module-level globals in device memory. On success the
  /// ModuleInfo names the kernels now launchable; failures carry
  /// ErrorCode::ModuleInvalid (error() keeps the message too).
  support::Result<ModuleInfo> loadModule(const std::string &PtxText);

  /// Deprecated bool shim for the pre-Result surface; gone next release.
  [[deprecated("use loadModule(), which returns Result<ModuleInfo>")]]
  bool loadModuleOk(const std::string &PtxText) {
    return loadModule(PtxText).ok();
  }

  const std::string &error() const { return ErrorMessage; }

  ptx::Module &module() {
    assert(Mod && "no module loaded");
    return *Mod;
  }
  const ptx::Module &module() const {
    assert(Mod && "no module loaded");
    return *Mod;
  }

  /// Instrumentation annotations (null for native sessions).
  const instrument::ModuleInstrumentation *instrumentation() const {
    return Instr.get();
  }

  // --- device memory (cudaMalloc / cudaMemcpy stand-ins) --------------
  uint64_t alloc(uint64_t Bytes, uint64_t Align = 8);
  void copyToDevice(uint64_t Addr, const void *Src, uint64_t Bytes);
  void copyFromDevice(void *Dst, uint64_t Addr, uint64_t Bytes);
  void fillDevice(uint64_t Addr, uint64_t Bytes, uint8_t Value);

  uint32_t readU32(uint64_t Addr);
  uint64_t readU64(uint64_t Addr);
  void writeU32(uint64_t Addr, uint32_t Value);
  void writeU64(uint64_t Addr, uint64_t Value);

  /// Address of a module-level .global variable.
  uint64_t globalAddress(const std::string &Name) const;

  sim::GlobalMemory &memory() { return Memory; }

  /// The session's detection runtime (created on first use, or the
  /// SharedEngine from the options). Instrumented launches lease an
  /// epoch from it; its thread pool persists across launches.
  runtime::Engine &engine();

  // --- launching --------------------------------------------------------
  /// Launches \p KernelName with scalar/pointer parameters \p Params
  /// (one value per declared parameter) and blocks until the detector
  /// has drained the launch. On instrumented sessions findings
  /// accumulate in races().
  ///
  /// Any failure is the Status, coded from the ErrorCode taxonomy:
  /// precondition violations (InvalidLaunch), admission refusals
  /// (Overloaded — nothing ran, retry later), trace I/O (TraceIo) and
  /// execution faults (KernelHang/DeviceFault/..., with the failing PC
  /// folded into the message and still available as report().Launch
  /// .FailPc). The value is the successful LaunchResult — Ok is always
  /// true there; detection findings land in races()/report().
  support::Result<sim::LaunchResult>
  launchKernel(const std::string &KernelName, sim::Dim3 Grid,
               sim::Dim3 Block, const std::vector<uint64_t> &Params = {});

  /// A new stream owned by the session. Launches on different streams
  /// run concurrently over the one engine; launches on one stream run
  /// in order. Streams live until the session is destroyed.
  runtime::Stream &createStream();

  /// Enqueues a launch on \p S and returns immediately. The future
  /// resolves when the launch and its detection complete, with the same
  /// Result semantics as launchKernel. Note the simulated device
  /// executes interpreter atomics non-atomically across streams, so
  /// concurrent kernels should work on disjoint buffers (or be tolerant
  /// of torn cross-kernel atomics).
  std::future<support::Result<sim::LaunchResult>>
  launchKernelAsync(runtime::Stream &S, const std::string &KernelName,
                    sim::Dim3 Grid, sim::Dim3 Block,
                    const std::vector<uint64_t> &Params = {});

  /// Handle to an in-flight asynchronous launch: the result future plus
  /// the lifecycle controls — the stream-scoped ticket that
  /// Stream::cancel accepts and the token that revokes it directly.
  struct AsyncLaunch {
    std::future<support::Result<sim::LaunchResult>> Future;
    uint64_t Ticket = 0;
    std::shared_ptr<support::CancelToken> Token;
  };

  /// launchKernelAsync with a full lifecycle: the launch is revocable
  /// (`S.cancel(handle.Ticket)` or `handle.Token->cancel()`) and, when
  /// \p DeadlineMs is nonzero (falling back to Options.DeadlineMs), the
  /// deadline clock starts at submission — queue wait counts against
  /// it. A launch revoked before completion resolves to a typed
  /// Cancelled/DeadlineExceeded failure; revoking after completion is a
  /// harmless no-op.
  ///
  /// \p Request carries per-request trace correlation from the serve
  /// stack: when active, the launch/drain/lease/shard spans all join
  /// that request's span tree (parented under Request.ParentSpan) and
  /// engine-side events are stamped with its id. The default inactive
  /// context traces exactly as before.
  AsyncLaunch submitKernel(runtime::Stream &S,
                           const std::string &KernelName, sim::Dim3 Grid,
                           sim::Dim3 Block,
                           const std::vector<uint64_t> &Params = {},
                           uint64_t DeadlineMs = 0,
                           obs::RequestContext Request = {});

  /// Waits for every stream created by this session (cudaDeviceSynchronize).
  void synchronize();

  // --- results -----------------------------------------------------------
  /// All distinct races found by launches so far. Synchronize streams
  /// before reading when async launches are in flight.
  const std::vector<detector::RaceReport> &races() const {
    return AllRaces;
  }
  const std::vector<detector::BarrierError> &barrierErrors() const {
    return AllBarrierErrors;
  }
  bool anyRaces() const { return !AllRaces.empty(); }

  /// The unified report: per-launch statistics from the most recent
  /// launch plus session-cumulative findings and the launch's metric
  /// snapshot. Safe to call from any thread once the launch's future has
  /// resolved (or synchronize() returned).
  RunReport report() const;

  /// Static instrumentation statistics for the loaded module.
  instrument::InstrumentationStats instrumentationStats() const;

  /// The session's continuous profiler (per-PC kernel profiles). Reset
  /// at the start of every launch so report() stays per-launch;
  /// meaningful only while SessionOptions::Profile is on.
  const obs::Profiler &profiler() const { return Profiler_; }

  /// The live metrics exporter, when MetricsOutDir is set and at least
  /// one instrumented launch ran. Null otherwise.
  obs::Exporter *exporter() { return Exporter_.get(); }

private:
  support::Result<sim::LaunchResult>
  runLaunch(const std::string &KernelName, sim::Dim3 Grid,
            sim::Dim3 Block, const std::vector<uint64_t> &Params,
            const std::string &TraceTrack,
            std::shared_ptr<support::CancelToken> Token = nullptr,
            obs::RequestContext Request = {});

  /// The kernel pre-lowered to micro-ops, lowering it on first use
  /// (never null: every verified kernel lowers). \p KI
  /// must be the kernel's instrumentation, or null for native sessions —
  /// the cached lowering is mode-specific, and the session's mode is
  /// fixed, so one cache entry per kernel suffices.
  const sim::LoweredKernel *
  loweredFor(const ptx::Kernel &K,
             const instrument::KernelInstrumentation *KI);

  /// Starts the background exporter over \p Eng once (no-op when
  /// MetricsOutDir is empty or it is already running).
  void ensureExporter(runtime::Engine &Eng);

  SessionOptions Options;
  /// Built from Options.Faults; referenced by the machine, the trace
  /// writer and the owned engine, so it is declared before all of them.
  std::unique_ptr<fault::FaultInjector> Injector;
  /// Declared before the machine, which holds a pointer to it.
  obs::Profiler Profiler_;
  sim::GlobalMemory Memory;
  sim::Machine Machine;
  std::unique_ptr<ptx::Module> Mod;
  std::unique_ptr<instrument::ModuleInstrumentation> Instr;
  std::string ErrorMessage;
  /// Wall time the front end spent parsing the current module (ns);
  /// surfaced as RunReport::ParseNanos.
  uint64_t ParseNanos = 0;

  /// Per-kernel lowering cache (keyed by kernel identity; cleared on
  /// loadModule). Every entry holds a lowering.
  std::mutex LowerMutex;
  std::unordered_map<const ptx::Kernel *,
                     std::unique_ptr<sim::LoweredKernel>>
      Lowered;

  /// Latest instrumented launch's shard set, retained for the live
  /// exporter's per-shard gauges (engine.live.shard_*). Null when
  /// sharding is off. Declared before Exporter_: the sampler must stop
  /// before the handle dies.
  mutable std::mutex ShardsMutex;
  std::shared_ptr<detector::ShardSet> LiveShards;

  /// Lazily created when no SharedEngine was supplied.
  std::mutex EngineMutex;
  std::unique_ptr<runtime::Engine> OwnedEngine;
  /// Declared after OwnedEngine: the sampler must stop (member
  /// destruction is reverse order) before the engine it reads dies.
  std::unique_ptr<obs::Exporter> Exporter_;

  /// Results may be appended from stream executor threads.
  mutable std::mutex ResultsMutex;
  std::vector<detector::RaceReport> AllRaces;
  std::vector<detector::BarrierError> AllBarrierErrors;
  /// Rebuilt from scratch every launch, so per-launch sections never
  /// accumulate across relaunches on a reused engine.
  RunReport LastReport;

  /// Streams declared last: they must drain (their work touches the
  /// machine, the engine and the result vectors) before anything else
  /// dies.
  std::mutex StreamsMutex;
  std::vector<std::unique_ptr<runtime::Stream>> Streams;
};

} // namespace barracuda

#endif // BARRACUDA_BARRACUDA_SESSION_H
