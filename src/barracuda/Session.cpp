//===- Session.cpp - end-to-end BARRACUDA pipeline -------------------------===//

#include "barracuda/Session.h"

#include "obs/FlightRecorder.h"
#include "ptx/Inliner.h"
#include "ptx/Parser.h"
#include "ptx/Verifier.h"
#include "support/Format.h"
#include "trace/Sink.h"
#include "trace/TraceFile.h"

#include <chrono>

using namespace barracuda;

namespace {

/// The machine inherits the session's tracer, fault injector and
/// profiler unless the caller wired its own into the machine options.
sim::MachineOptions machineOptions(const SessionOptions &Options,
                                   fault::FaultInjector *Injector,
                                   obs::Profiler *Profiler) {
  sim::MachineOptions MachineOpts = Options.Machine;
  if (!MachineOpts.Tracer)
    MachineOpts.Tracer = Options.Tracer;
  if (!MachineOpts.Faults)
    MachineOpts.Faults = Injector;
  if (!MachineOpts.Profiler && Options.Profile)
    MachineOpts.Profiler = Profiler;
  return MachineOpts;
}

/// Null when the plan is empty so the hardened hot paths skip their
/// injection polls entirely.
std::unique_ptr<fault::FaultInjector>
makeInjector(const SessionOptions &Options) {
  if (Options.Faults.empty())
    return nullptr;
  return std::make_unique<fault::FaultInjector>(Options.Faults);
}

} // namespace

Session::Session(SessionOptions Opts)
    : Options(std::move(Opts)), Injector(makeInjector(Options)),
      Machine(Memory,
              machineOptions(Options, Injector.get(), &Profiler_)) {}

Session::~Session() = default;

support::Result<ModuleInfo>
Session::loadModule(const std::string &PtxText) {
  // Failures keep the legacy error() message AND return a typed status,
  // so both the serve protocol and the old tools print the same thing.
  auto reject = [this](std::string Message) -> support::Result<ModuleInfo> {
    ErrorMessage = std::move(Message);
    return support::Status(support::ErrorCode::ModuleInvalid,
                           ErrorMessage);
  };
  obs::TraceRecorder *Tracer = Options.Tracer;
  uint32_t Track = Tracer ? Tracer->track("session") : 0;
  obs::Span ParseSpan(Tracer, Track, "parse", "session");
  {
    std::lock_guard<std::mutex> Lock(LowerMutex);
    Lowered.clear(); // lowerings are per-module
  }
  auto ParseStart = std::chrono::steady_clock::now();
  ptx::Parser Parser(PtxText);
  Mod = Parser.parseModule();
  ParseNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ParseStart)
          .count());
  if (!Mod)
    return reject(Parser.error());
  std::vector<std::string> Diags = ptx::verifyModule(*Mod);
  if (!Diags.empty()) {
    Mod.reset();
    return reject(Diags.front());
  }
  // Device functions are inlined into their call sites before anything
  // else sees the kernels (the paper's trace model inlines calls).
  std::string InlineError = ptx::inlineFunctions(*Mod);
  if (!InlineError.empty()) {
    Mod.reset();
    return reject(std::move(InlineError));
  }
  sim::Machine::layoutModuleGlobals(*Mod, Memory);
  ParseSpan.close();
  if (Options.Instrument) {
    obs::Span InstrumentSpan(Tracer, Track, "instrument", "session");
    Instr = std::make_unique<instrument::ModuleInstrumentation>(
        instrument::instrumentModule(*Mod, Options.Instrumenter));
    // Re-verify: the predication transform must keep the module valid.
    Diags = ptx::verifyModule(*Mod);
    if (!Diags.empty()) {
      Mod.reset();
      Instr.reset();
      return reject("after instrumentation: " + Diags.front());
    }
  }
  ErrorMessage.clear();
  ModuleInfo Info;
  Info.ParseNanos = ParseNanos;
  Info.Kernels.reserve(Mod->Kernels.size());
  for (const ptx::Kernel &K : Mod->Kernels)
    Info.Kernels.push_back(K.Name);
  return Info;
}

uint64_t Session::alloc(uint64_t Bytes, uint64_t Align) {
  return Memory.allocate(Bytes, Align);
}

void Session::copyToDevice(uint64_t Addr, const void *Src, uint64_t Bytes) {
  Memory.writeBytes(Addr, Src, Bytes);
}

void Session::copyFromDevice(void *Dst, uint64_t Addr, uint64_t Bytes) {
  Memory.readBytes(Addr, Dst, Bytes);
}

void Session::fillDevice(uint64_t Addr, uint64_t Bytes, uint8_t Value) {
  Memory.fill(Addr, Bytes, Value);
}

uint32_t Session::readU32(uint64_t Addr) {
  return static_cast<uint32_t>(Memory.read(Addr, 4));
}

uint64_t Session::readU64(uint64_t Addr) { return Memory.read(Addr, 8); }

void Session::writeU32(uint64_t Addr, uint32_t Value) {
  Memory.write(Addr, 4, Value);
}

void Session::writeU64(uint64_t Addr, uint64_t Value) {
  Memory.write(Addr, 8, Value);
}

uint64_t Session::globalAddress(const std::string &Name) const {
  assert(Mod && "no module loaded");
  int Index = Mod->findGlobal(Name);
  assert(Index >= 0 && "unknown global variable");
  return Mod->Globals[static_cast<size_t>(Index)].Address;
}

runtime::Engine &Session::engine() {
  if (Options.SharedEngine)
    return *Options.SharedEngine;
  std::lock_guard<std::mutex> Lock(EngineMutex);
  if (!OwnedEngine) {
    runtime::EngineOptions EngOpts;
    EngOpts.NumQueues = Options.NumQueues;
    EngOpts.QueueCapacity = Options.QueueCapacity;
    EngOpts.Tracer = Options.Tracer;
    EngOpts.Faults = Injector.get();
    OwnedEngine = std::make_unique<runtime::Engine>(EngOpts);
  }
  return *OwnedEngine;
}

const sim::LoweredKernel *
Session::loweredFor(const ptx::Kernel &K,
                    const instrument::KernelInstrumentation *KI) {
  std::lock_guard<std::mutex> Lock(LowerMutex);
  auto It = Lowered.find(&K);
  if (It == Lowered.end())
    It = Lowered.emplace(&K, sim::lowerKernel(*Mod, K, KI)).first;
  return It->second.get();
}

support::Result<sim::LaunchResult>
Session::launchKernel(const std::string &KernelName, sim::Dim3 Grid,
                      sim::Dim3 Block,
                      const std::vector<uint64_t> &Params) {
  return runLaunch(KernelName, Grid, Block, Params, "session");
}

runtime::Stream &Session::createStream() {
  engine(); // materialize the pool on the caller, not the executor
  std::lock_guard<std::mutex> Lock(StreamsMutex);
  Streams.push_back(std::make_unique<runtime::Stream>(
      support::formatString("stream %zu", Streams.size() + 1)));
  return *Streams.back();
}

std::future<support::Result<sim::LaunchResult>>
Session::launchKernelAsync(runtime::Stream &S,
                           const std::string &KernelName, sim::Dim3 Grid,
                           sim::Dim3 Block,
                           const std::vector<uint64_t> &Params) {
  return submitKernel(S, KernelName, Grid, Block, Params).Future;
}

Session::AsyncLaunch
Session::submitKernel(runtime::Stream &S, const std::string &KernelName,
                      sim::Dim3 Grid, sim::Dim3 Block,
                      const std::vector<uint64_t> &Params,
                      uint64_t DeadlineMs, obs::RequestContext Request) {
  // The deadline clock starts now, not when the stream gets around to
  // executing — queue wait is the caller's wall time too. An already
  // expired token simply trips at the first scheduling boundary.
  auto Token = std::make_shared<support::CancelToken>();
  Token->armDeadline(DeadlineMs ? DeadlineMs : Options.DeadlineMs);

  std::string Track = S.name();
  auto Task = std::make_shared<
      std::packaged_task<support::Result<sim::LaunchResult>()>>(
      [this, KernelName, Grid, Block, Params, Track, Token, Request] {
        return runLaunch(KernelName, Grid, Block, Params, Track, Token,
                         Request);
      });

  AsyncLaunch Handle;
  Handle.Future = Task->get_future();
  Handle.Token = Token;
  Handle.Ticket = S.registerCancel(Token);
  S.enqueue([Task] { (*Task)(); });
  return Handle;
}

void Session::synchronize() {
  std::lock_guard<std::mutex> Lock(StreamsMutex);
  for (auto &S : Streams)
    S->synchronize();
}

support::Result<sim::LaunchResult>
Session::runLaunch(const std::string &KernelName, sim::Dim3 Grid,
                   sim::Dim3 Block, const std::vector<uint64_t> &Params,
                   const std::string &TraceTrack,
                   std::shared_ptr<support::CancelToken> Token,
                   obs::RequestContext Request) {
  // Synchronous launches with a session-wide deadline get a token of
  // their own, armed here (submitKernel arms at submission instead, so
  // stream queue wait counts). armDeadline is first-arm-wins, so a
  // token that arrived already armed keeps its earlier deadline.
  if (!Token && Options.DeadlineMs)
    Token = std::make_shared<support::CancelToken>();
  if (Token)
    Token->armDeadline(Options.DeadlineMs);

  if (!Mod)
    return support::Status(support::ErrorCode::InvalidLaunch,
                           "no module loaded");
  ptx::Kernel *K = Mod->findKernel(KernelName);
  if (!K)
    return support::Status(
        support::ErrorCode::InvalidLaunch,
        support::formatString("unknown kernel '%s'", KernelName.c_str()));
  if (Params.size() != K->Params.size())
    return support::Status(
        support::ErrorCode::InvalidLaunch,
        support::formatString("kernel '%s' expects %zu params, got %zu",
                              KernelName.c_str(), K->Params.size(),
                              Params.size()));

  sim::ParamBuilder Builder(*K);
  for (size_t I = 0; I != Params.size(); ++I)
    Builder.set(I, Params[I]);

  sim::LaunchConfig Config;
  Config.Grid = Grid;
  Config.Block = Block;
  Config.WarpSize = Options.WarpSize;

  obs::TraceRecorder *Tracer = Options.Tracer;
  uint32_t Track = Tracer ? Tracer->track(TraceTrack) : 0;
  // When the launch arrived with request correlation (the serve path),
  // the launch span joins that request's tree under the serve frame;
  // with the default inactive context the ids are 0 and the span is the
  // plain standalone event it always was.
  obs::Span LaunchSpan(Tracer, Track, "launch " + KernelName, "session",
                       Request.RequestId, Request.ParentSpan);

  // Per-launch profile semantics: the profiler accumulates across
  // launches by design (continuous profiling), the report resets it so
  // each launch's section stands alone. Approximate when concurrent
  // streams launch simultaneously — the same caveat as the engine-wide
  // spin deltas below.
  if (Options.Profile)
    Profiler_.reset();

  if (!Options.Instrument) {
    const sim::LoweredKernel *Low = loweredFor(*K, nullptr);
    sim::LaunchResult Result =
        Machine.launch(*Mod, *K, nullptr, Config, Builder.bytes(), nullptr,
                       Low, Token.get());
    std::lock_guard<std::mutex> Lock(ResultsMutex);
    RunReport Native;
    Native.Launch.Kernel = KernelName;
    Native.ParseNanos = ParseNanos;
    Native.Launch.Ok = Result.Ok;
    Native.Launch.Error = Result.Error;
    Native.Launch.Code = Result.Code;
    Native.Launch.FailPc = Result.FailPc;
    Native.Launch.ThreadsLaunched = Result.ThreadsLaunched;
    Native.Launch.WarpInstructions = Result.WarpInstructions;
    if (Options.Profile) {
      Native.Profile.Enabled = true;
      Native.Profile.Kernels = Profiler_.profiles();
    }
    LastReport = std::move(Native);
    if (!Result.Ok)
      return Result.status();
    return Result;
  }

  size_t KernelIndex = static_cast<size_t>(K - Mod->Kernels.data());
  const instrument::KernelInstrumentation &KI =
      Instr->Kernels[KernelIndex];

  runtime::Engine &Eng = engine();

  // Optional trace recording: the sink chain tees every record into the
  // trace file before publishing it to the engine's queues.
  trace::TraceWriter Writer;
  Writer.setFaultInjector(Injector.get());
  bool Recording = !Options.RecordTracePath.empty();
  if (Recording) {
    trace::TraceHeader Header;
    Header.ThreadsPerBlock = Config.threadsPerBlock();
    Header.WarpsPerBlock = Config.warpsPerBlock();
    Header.WarpSize = Config.WarpSize;
    Header.KernelName = KernelName;
    support::Status Opened = Writer.open(Options.RecordTracePath, Header);
    if (!Opened.ok())
      return Opened.withContext(support::formatString(
          "cannot write trace '%s'", Options.RecordTracePath.c_str()));
  }

  detector::DetectorOptions DetOpts;
  DetOpts.Hier = sim::ThreadHierarchy(Config);
  DetOpts.CollectStats = Options.CollectStats;
  DetOpts.ProfileRules = Options.Profile;
  DetOpts.NumQueues = Eng.numQueues();
  // 0 = one shard per detector worker; 1 = the single-table oracle.
  DetOpts.ShadowShards =
      Options.ShadowShards ? Options.ShadowShards : Eng.numQueues();
  detector::SharedDetectorState State(DetOpts);
  if (State.shards()) {
    // Publish the shard set to the live exporter. The shared_ptr keeps
    // the counters alive after the launch ends (sampling post-launch
    // touches only the set's own atomics).
    std::lock_guard<std::mutex> ShardLock(ShardsMutex);
    LiveShards = State.shards();
  }

  ensureExporter(Eng);

  runtime::EngineCounters Before = Eng.counters();
  // Admission control: a refused launch runs nothing and enqueues
  // nothing — the typed Overloaded bubbles straight out (the serve
  // daemon maps it onto a retryable response; batch callers just see
  // the failure).
  runtime::Admission Limits;
  Limits.MaxLeasesInFlight = Options.MaxLeasesInFlight;
  Limits.MaxWatermarkLag = Options.MaxWatermarkLag;
  support::Result<std::shared_ptr<runtime::Launch>> Admitted =
      Eng.tryBegin(State, Limits);
  if (!Admitted.ok()) {
    if (Recording)
      Writer.close();
    return Admitted.status().withContext(
        support::formatString("launch '%s'", KernelName.c_str()));
  }
  std::shared_ptr<runtime::Launch> Lease = std::move(Admitted.value());
  // Attached before the first record is logged: the workers and the
  // drain watermark both consult the token, so a trip mid-drain flips
  // the remaining records onto the drop ledger instead of stalling.
  if (Token)
    Lease->setCancelToken(Token);
  // Also before the first record: workers read the request id off the
  // launch under the same commit/drain ordering as the cancel token.
  // The lease and shard spans parent under this launch span.
  if (Request.active()) {
    obs::RequestContext LeaseCtx = Request;
    LeaseCtx.ParentSpan = LaunchSpan.spanId();
    Lease->setRequest(LeaseCtx);
  }

  trace::TraceFileSink FileSink(Writer);
  trace::CountingSink Counts;
  trace::SinkList Sinks;
  Sinks.add(Recording ? &FileSink : nullptr);
  Sinks.add(&Counts);
  Sinks.add(&Lease->sink());

  sim::SinkLogger Logger(Sinks);
  const sim::LoweredKernel *Low = loweredFor(*K, &KI);
  sim::LaunchResult Result = Machine.launch(*Mod, *K, &KI, Config,
                                            Builder.bytes(), &Logger, Low,
                                            Token.get());

  {
    obs::Span DrainSpan(Tracer, Track, "drain " + KernelName, "session",
                        Request.RequestId,
                        Request.active() ? LaunchSpan.spanId() : 0);
    Lease->finish();
  }
  runtime::EngineCounters After = Eng.counters();
  runtime::LaunchResilience Leased = Lease->resilience();
  if (Token && Result.Ok) {
    // The machine finished but the token tripped while (or right
    // before) the drain retired the launch — the terminal state is the
    // revocation, not Ok. All counters above are already final, so the
    // ledger in the report still balances exactly.
    support::ErrorCode Tripped = Token->state();
    if (Tripped != support::ErrorCode::Ok) {
      sim::LaunchResult Revoked = sim::LaunchResult::failure(
          Tripped, Tripped == support::ErrorCode::Cancelled
                       ? "launch cancelled while draining"
                       : "deadline exceeded while draining");
      // The execution counters are real — the kernel did run — and the
      // ledger check needs RecordsLogged.
      Revoked.ThreadsLaunched = Result.ThreadsLaunched;
      Revoked.WarpInstructions = Result.WarpInstructions;
      Revoked.RecordsLogged = Result.RecordsLogged;
      Revoked.RecordsPruned = Result.RecordsPruned;
      Result = Revoked;
    }
  }
  if (Recording) {
    support::Status Closed = Writer.close();
    if (!Closed.ok() && Result.Ok)
      Result = sim::LaunchResult::failure(
          support::ErrorCode::TraceIo,
          Closed.withContext("while recording the trace").message());
  }

  // Assemble the launch's report outside the lock. Every field of every
  // per-launch section is filled from this launch's own state (a fresh
  // SharedDetectorState, the lease, engine-counter deltas), so relaunch
  // runs on a reused engine cannot accumulate stale numbers.
  RunReport Report;
  Report.Launch.Kernel = KernelName;
  Report.Launch.Instrumented = true;
  Report.ParseNanos = ParseNanos;
  Report.Launch.Ok = Result.Ok;
  Report.Launch.Error = Result.Error;
  Report.Launch.Code = Result.Code;
  Report.Launch.FailPc = Result.FailPc;
  Report.Launch.ThreadsLaunched = Result.ThreadsLaunched;
  Report.Launch.WarpInstructions = Result.WarpInstructions;
  Report.Launch.RecordsLogged = Result.RecordsLogged;
  Report.Launch.RecordsPruned = Result.RecordsPruned;
  Report.Records.Memory = Counts.memoryRecords();
  Report.Records.Sync = Counts.syncRecords();
  Report.Records.Control = Counts.controlRecords();
  Report.fillFromDetector(State);
  Report.Engine.NumQueues = Eng.numQueues();
  Report.Engine.QueueFullSpins = After.FullSpins - Before.FullSpins;
  Report.Engine.CommitStalls = After.CommitStalls - Before.CommitStalls;
  Report.Engine.DetectorEmptySpins = After.EmptySpins - Before.EmptySpins;
  Report.Engine.ParkedNanos = After.ParkedNanos - Before.ParkedNanos;
  Report.Engine.WatermarkWaitNanos = Lease->watermarkWaitNanos();
  Report.Resilience.RecordsDropped = Leased.RecordsDropped;
  Report.Resilience.RecordsRejected = Leased.RecordsRejected;
  Report.Resilience.RecordsCorrupted = Writer.recordsCorrupted();
  Report.Resilience.WorkerFailures = Leased.WorkerFailures;
  Report.Resilience.QueuesQuarantined = Leased.QueuesQuarantined;
  // Workers respawned by the self-healing supervisor while this launch
  // was being admitted or drained (a delta, like the spin counters: the
  // supervisor heals at epoch boundaries, so a respawn observed here
  // repaired damage from an earlier launch on this engine).
  Report.Resilience.WorkersRespawned =
      After.WorkersRespawned - Before.WorkersRespawned;
  // Absolute, not a delta: abandonment is permanent engine state (an
  // injected death can precede the lease). It is observability, not a
  // verdict — launches route around dead queues, so only this launch's
  // own losses (the lease's ledger) decide Degraded below.
  Report.Resilience.QueuesAbandoned = After.QueuesAbandoned;
  Report.Resilience.QueuesRerouted = Leased.QueuesRerouted;
  Report.Resilience.WatchdogTrips =
      Result.Code == support::ErrorCode::KernelHang ? 1 : 0;
  if (Injector) {
    Report.Resilience.FaultsInjected = Injector->faultsInjected();
    Report.Resilience.FaultsHit = Injector->faultsHit();
  }
  Report.Resilience.Degraded =
      Leased.Degraded || Report.Resilience.RecordsCorrupted != 0;
  if (!Leased.FirstError.ok())
    Report.Resilience.FirstError = Leased.FirstError.describe();
  else if (!Result.Ok)
    Report.Resilience.FirstError = Result.status().describe();

  // Incident blackbox: when the launch retired degraded or revoked, or
  // the pool healed itself underneath it, dump the engine's flight
  // recorder into the report so the operator sees the recent event
  // history that led here, not just the final tallies.
  const char *BlackboxReason =
      Report.Resilience.Degraded ? "degraded"
      : Result.Code == support::ErrorCode::Cancelled ? "cancelled"
      : Result.Code == support::ErrorCode::DeadlineExceeded
          ? "deadline-exceeded"
      : Report.Resilience.WorkersRespawned ? "worker-respawned"
      : Report.Resilience.QueuesQuarantined ? "queue-quarantined"
                                            : nullptr;
  if (BlackboxReason) {
    Report.Blackbox.Captured = true;
    Report.Blackbox.Reason = BlackboxReason;
    for (const obs::FlightEvent &E : Eng.flight().snapshot()) {
      RunReport::BlackboxSection::Event Out;
      Out.Seq = E.Seq;
      Out.TimeNs = E.TimeNs;
      Out.Code = obs::flightCodeName(static_cast<obs::FlightCode>(E.Code));
      Out.Ring = E.Ring;
      Out.Worker = E.Worker;
      Out.Epoch = E.Epoch;
      Out.RequestId = E.RequestId;
      Out.A = E.A;
      Out.B = E.B;
      Report.Blackbox.Events.push_back(std::move(Out));
    }
  }
  if (Options.Profile) {
    Report.Profile.Enabled = true;
    Report.Profile.Kernels = Profiler_.profiles();
    Report.Profile.DrainNanos = After.DrainNanos - Before.DrainNanos;
    Report.Profile.ParkedNanos = Report.Engine.ParkedNanos;
    Report.Profile.WatermarkWaitNanos = Report.Engine.WatermarkWaitNanos;
  }

  // Accumulate findings, mapping each race's pc back to its PTX source
  // line. Launches on concurrent streams land here from their executor
  // threads, hence the lock.
  std::lock_guard<std::mutex> Lock(ResultsMutex);
  for (detector::RaceReport Race : State.Reporter.races()) {
    if (Race.Pc < K->Body.size())
      Race.Line = K->Body[Race.Pc].Line;
    AllRaces.push_back(std::move(Race));
  }
  for (const detector::BarrierError &Error :
       State.Reporter.barrierErrors())
    AllBarrierErrors.push_back(Error);

  LastReport = std::move(Report);
  if (!Result.Ok) {
    // Execution failures surface as the machine's own code; the failing
    // PC folds into the message (and stays structured in
    // report().Launch.FailPc).
    support::Status Failed = Result.status();
    if (Result.FailPc != sim::LaunchResult::InvalidPc)
      Failed = support::Status(
          Failed.code(),
          Failed.message() +
              support::formatString(" (pc %u)", Result.FailPc));
    return Failed;
  }
  return Result;
}

void Session::ensureExporter(runtime::Engine &Eng) {
  if (Options.MetricsOutDir.empty())
    return;
  std::lock_guard<std::mutex> Lock(EngineMutex);
  if (Exporter_)
    return;

  obs::ExporterOptions ExpOpts;
  ExpOpts.Dir = Options.MetricsOutDir;
  ExpOpts.IntervalMs = Options.MetricsIntervalMs;
  auto Exp = std::make_unique<obs::Exporter>(std::move(ExpOpts));
  Exp->addRegistry(&Eng.metrics());

  // Live engine gauges. The sample buffer and the exporter-side
  // high-watermarks live in shared_ptrs captured by the callback; the
  // engine itself outlives the exporter (member declaration order, and
  // a SharedEngine outlives the session by contract).
  auto Live = std::make_shared<runtime::EngineLiveSample>();
  auto HighWater = std::make_shared<std::vector<uint64_t>>();
  runtime::Engine *EngPtr = &Eng;
  Exp->addSource([EngPtr, Live,
                  HighWater](std::vector<obs::Exporter::Sample> &Out) {
    EngPtr->sampleLive(*Live);
    HighWater->resize(Live->QueueDepths.size(), 0);
    for (size_t I = 0; I != Live->QueueDepths.size(); ++I) {
      uint64_t Depth = Live->QueueDepths[I];
      if (Depth > (*HighWater)[I])
        (*HighWater)[I] = Depth;
      std::string Label =
          support::formatString("queue=\"%zu\"", I);
      // "live" prefix: the registry already owns an engine.queue_depth
      // *histogram* family; a same-named gauge would clash in the
      // exposition's TYPE table.
      Out.push_back({"engine.live.queue_depth", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>(Depth)});
      Out.push_back({"engine.live.queue_high_watermark", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>((*HighWater)[I])});
    }
    Out.push_back({"engine.watermark_lag", "",
                   obs::MetricSample::Kind::Gauge,
                   static_cast<int64_t>(Live->WatermarkLag)});
    Out.push_back({"engine.leases_in_flight", "",
                   obs::MetricSample::Kind::Gauge,
                   static_cast<int64_t>(Live->LeasesInFlight)});
    Out.push_back({"engine.live.quarantined_queues", "",
                   obs::MetricSample::Kind::Gauge,
                   static_cast<int64_t>(Live->QuarantinedQueues)});
    Out.push_back({"engine.live.workers_respawned", "",
                   obs::MetricSample::Kind::Gauge,
                   static_cast<int64_t>(Live->WorkersRespawned)});
  });

  // Per-shard gauges from the most recent sharded launch (the shared_ptr
  // keeps the counters alive between launches). "this" is safe: the
  // exporter is declared after ShardsMutex/LiveShards, so the sampler
  // stops before they die.
  Exp->addSource([this](std::vector<obs::Exporter::Sample> &Out) {
    std::shared_ptr<detector::ShardSet> Shards;
    {
      std::lock_guard<std::mutex> ShardLock(ShardsMutex);
      Shards = LiveShards;
    }
    if (!Shards)
      return;
    std::vector<detector::ShardSet::Sample> Samples = Shards->sample();
    for (size_t I = 0; I != Samples.size(); ++I) {
      std::string Label = support::formatString("shard=\"%zu\"", I);
      Out.push_back({"engine.live.shard_backlog", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>(Samples[I].Backlog)});
      Out.push_back({"engine.live.shard_applied", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>(Samples[I].Applied)});
      Out.push_back({"engine.live.shard_shadow_bytes", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>(Samples[I].ShadowBytes)});
      Out.push_back({"engine.live.shard_producer_stalls", Label,
                     obs::MetricSample::Kind::Gauge,
                     static_cast<int64_t>(Samples[I].ProducerStalls)});
    }
  });

  // Hottest pc of every kernel profiled so far, labelled with its
  // source line — enough for barracuda-top to name the busy spot
  // without shipping whole profiles each tick.
  if (Options.Profile) {
    const obs::Profiler *Prof = &Profiler_;
    Exp->addSource([Prof](std::vector<obs::Exporter::Sample> &Out) {
      for (const obs::KernelProfile &P : Prof->profiles()) {
        std::vector<uint32_t> Hot = P.hotPcs();
        if (Hot.empty())
          continue;
        uint32_t Pc = Hot.front();
        Out.push_back({"profile.hottest_pc_executed",
                       support::formatString(
                           "kernel=\"%s\",pc=\"%u\",line=\"%u\"",
                           obs::Exporter::escapeLabelValue(P.Kernel)
                               .c_str(),
                           Pc, P.Lines[Pc]),
                       obs::MetricSample::Kind::Gauge,
                       static_cast<int64_t>(P.Executed[Pc])});
      }
    });
  }

  support::Status Started = Exp->start();
  if (!Started.ok()) {
    // Telemetry must never fail the launch; remember why it is off.
    ErrorMessage = Started.withContext("metrics exporter").message();
    return;
  }
  Exporter_ = std::move(Exp);
}

RunReport Session::report() const {
  std::lock_guard<std::mutex> Lock(ResultsMutex);
  RunReport Report = LastReport;
  // Findings are session-cumulative and may have grown since the last
  // launch assembled its report; static coverage is module-level.
  Report.Races = AllRaces;
  Report.BarrierErrors = AllBarrierErrors;
  if (Instr)
    Report.Static = Instr->totalStats();
  return Report;
}

instrument::InstrumentationStats Session::instrumentationStats() const {
  if (!Instr)
    return instrument::InstrumentationStats();
  return Instr->totalStats();
}
