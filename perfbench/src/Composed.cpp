//===- Composed.cpp - a traced launch built from public pieces ------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Composed.h"

#include "barracuda/RunReport.h"
#include "detector/Detector.h"
#include "ptx/Inliner.h"
#include "ptx/Parser.h"
#include "ptx/Verifier.h"
#include "sim/Logger.h"
#include "support/Json.h"
#include "trace/Sink.h"

#include <optional>

using namespace barracuda;

namespace perfbench {

namespace {

/// A default Session's machine: the session profiler attached.
sim::MachineOptions machineOptions(obs::Profiler &Profiler) {
  sim::MachineOptions Opts;
  Opts.Profiler = &Profiler;
  return Opts;
}

} // namespace

ComposedDevice::ComposedDevice(runtime::Engine &Engine, SpanRecorder &Spans)
    : Engine(Engine), Spans(Spans), Machine(Memory, machineOptions(Profiler)) {
}

std::string ComposedDevice::load(const std::string &Ptx, uint32_t Parent) {
  Lowered.clear();
  {
    SpanRecorder::Scope S(Spans, "ptx.parse", Parent);
    ptx::Parser Parser(Ptx);
    Mod = Parser.parseModule();
    if (!Mod)
      return Parser.error();
  }
  {
    SpanRecorder::Scope S(Spans, "ptx.verify", Parent);
    std::vector<std::string> Diags = ptx::verifyModule(*Mod);
    if (!Diags.empty())
      return Diags.front();
    std::string InlineError = ptx::inlineFunctions(*Mod);
    if (!InlineError.empty())
      return InlineError;
    sim::Machine::layoutModuleGlobals(*Mod, Memory);
  }
  {
    SpanRecorder::Scope S(Spans, "instrument", Parent);
    Instr = std::make_unique<instrument::ModuleInstrumentation>(
        instrument::instrumentModule(*Mod, instrument::InstrumenterOptions()));
  }
  {
    SpanRecorder::Scope S(Spans, "ptx.verify", Parent);
    std::vector<std::string> Diags = ptx::verifyModule(*Mod);
    if (!Diags.empty())
      return "after instrumentation: " + Diags.front();
  }
  return "";
}

uint64_t ComposedDevice::loggedInstructions() const {
  return Instr ? Instr->totalStats().InstrumentedOptimized : 0;
}

ComposedLaunch ComposedDevice::launch(const std::string &KernelName,
                                      sim::Dim3 Grid, sim::Dim3 Block,
                                      const std::vector<uint64_t> &Params,
                                      uint32_t Parent) {
  ComposedLaunch Out;
  ptx::Kernel *K = Mod ? Mod->findKernel(KernelName) : nullptr;
  if (!K || Params.size() != K->Params.size()) {
    Out.Error = "bad launch of '" + KernelName + "'";
    return Out;
  }
  sim::ParamBuilder Builder(*K);
  for (size_t I = 0; I != Params.size(); ++I)
    Builder.set(I, Params[I]);
  sim::LaunchConfig Config;
  Config.Grid = Grid;
  Config.Block = Block;
  Profiler.reset();

  const instrument::KernelInstrumentation &KI =
      Instr->Kernels[static_cast<size_t>(K - Mod->Kernels.data())];
  const sim::LoweredKernel *Low;
  {
    SpanRecorder::Scope S(Spans, "sim.lower", Parent);
    auto It = Lowered.find(K);
    if (It == Lowered.end())
      It = Lowered.emplace(K, sim::lowerKernel(*Mod, *K, &KI)).first;
    Low = It->second.get();
  }

  // Session's detector options with the default DetectOptions.
  detector::DetectorOptions DetOpts;
  DetOpts.Hier = sim::ThreadHierarchy(Config);
  DetOpts.CollectStats = true;
  DetOpts.HotPath = true;
  DetOpts.ProfileRules = true;
  DetOpts.NumQueues = Engine.numQueues();
  DetOpts.ShadowShards = Engine.numQueues();
  std::optional<detector::SharedDetectorState> State;
  {
    SpanRecorder::Scope S(Spans, "detector.state_build", Parent);
    State.emplace(DetOpts);
  }

  runtime::EngineCounters Before = Engine.counters();
  std::shared_ptr<runtime::Launch> Lease;
  {
    SpanRecorder::Scope S(Spans, "runtime.begin", Parent);
    support::Result<std::shared_ptr<runtime::Launch>> Admitted =
        Engine.tryBegin(*State, runtime::Admission());
    if (!Admitted.ok()) {
      Out.Error = Admitted.status().describe();
      return Out;
    }
    Lease = std::move(Admitted.value());
  }

  TimedSink Timed(Lease->sink());
  trace::CountingSink Counts;
  trace::SinkList Sinks;
  Sinks.add(&Counts);
  Sinks.add(Spans.enabled() ? static_cast<trace::EventSink *>(&Timed)
                            : &Lease->sink());
  sim::SinkLogger Logger(Sinks);
  sim::LaunchResult Result;
  {
    SpanRecorder::Scope S(Spans, "sim.launch", Parent);
    Result = Machine.launch(*Mod, *K, &KI, Config, Builder.bytes(), &Logger,
                            Low, nullptr);
    Spans.aggregate("trace.enqueue", S.id(), Timed.nanos());
  }
  {
    SpanRecorder::Scope S(Spans, "runtime.finish", Parent);
    Lease->finish();
  }
  runtime::EngineCounters After = Engine.counters();
  runtime::LaunchResilience Leased = Lease->resilience();

  {
    // The report Session assembles after every launch: per-launch
    // sections, findings mapped to source lines, the metrics snapshot
    // and the profile.
    SpanRecorder::Scope S(Spans, "report", Parent);
    RunReport Report;
    Report.Launch.Kernel = KernelName;
    Report.Launch.Instrumented = true;
    Report.Launch.SimLowered = Low != nullptr;
    Report.Launch.Ok = Result.Ok;
    Report.Launch.RecordsLogged = Result.RecordsLogged;
    Report.Launch.WarpInstructions = Result.WarpInstructions;
    Report.Records.Processed = State->recordsProcessed();
    Report.Records.Memory = Counts.memoryRecords();
    Report.Records.Sync = Counts.syncRecords();
    Report.Records.Control = Counts.controlRecords();
    Report.Detector.Formats = State->formatStats();
    Report.Detector.HotPath = State->hotPathStats();
    Report.Detector.PeakPtvcBytes = State->peakPtvcBytes();
    Report.Detector.GlobalShadowBytes = State->GlobalMem.shadowBytes();
    Report.Detector.SharedShadowBytes = State->sharedShadowBytes();
    if (const auto &Shards = State->shards()) {
      Report.Detector.GlobalShadowBytes += Shards->shadowBytes();
      for (const detector::ShardSet::Sample &Sample : Shards->sample()) {
        RunReport::DetectorSection::ShardStats Stats;
        Stats.Markers = Sample.Markers;
        Stats.TicketStalls = Sample.TicketStalls;
        Stats.ProducerStalls = Sample.ProducerStalls;
        Report.Detector.Shards.push_back(Stats);
      }
    }
    Report.Engine.QueueFullSpins = After.FullSpins - Before.FullSpins;
    Report.Engine.WatermarkWaitNanos = Lease->watermarkWaitNanos();
    Report.Resilience.RecordsDropped = Leased.RecordsDropped;
    Report.Resilience.Degraded = Leased.Degraded;
    support::json::Writer MetricsWriter;
    State->metrics().writeJson(MetricsWriter);
    Report.MetricsJson = MetricsWriter.take();
    Report.Profile.Enabled = true;
    Report.Profile.Kernels = Profiler.profiles();
    for (detector::RaceReport Race : State->Reporter.races()) {
      if (Race.Pc < K->Body.size())
        Race.Line = K->Body[Race.Pc].Line;
      Report.Races.push_back(std::move(Race));
    }

    Out.Ok = Result.Ok;
    Out.Error = Result.Error;
    Out.RecordsLogged = Result.RecordsLogged;
    Out.SyncRecords = Report.Records.Sync;
    Out.WarpInstructions = Result.WarpInstructions;
    for (const detector::RaceReport &Race : Report.Races)
      ++(Race.Space == trace::MemSpace::Shared ? Out.RacesShared
                                               : Out.RacesGlobal);
    Out.Degraded = Report.Resilience.Degraded;
    Out.LedgerBalanced = Report.Records.Processed +
                             Report.Resilience.RecordsDropped ==
                         Report.Launch.RecordsLogged;
    Out.QueueFullSpins = Report.Engine.QueueFullSpins;
    Out.WatermarkWaitNs = Report.Engine.WatermarkWaitNanos;
  }
  {
    SpanRecorder::Scope S(Spans, "detector.state_build", Parent);
    Lease.reset();
    State.reset();
  }
  return Out;
}

} // namespace perfbench
