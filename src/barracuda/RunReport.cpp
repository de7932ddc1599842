//===- RunReport.cpp - the unified per-run report ---------------------------===//

#include "barracuda/RunReport.h"

#include "detector/Json.h"
#include "support/Format.h"
#include "support/Json.h"

using namespace barracuda;
using support::formatBytes;
using support::json::Writer;

void RunReport::fillFromDetector(detector::SharedDetectorState &State) {
  Records.Processed = State.recordsProcessed();
  Detector.Formats = State.formatStats();
  Detector.HotPath = State.hotPathStats();
  Detector.PeakPtvcBytes = State.peakPtvcBytes();
  Detector.GlobalShadowBytes = State.GlobalMem.shadowBytes();
  Detector.SharedShadowBytes = State.sharedShadowBytes();
  Detector.SyncLocations = State.Syncs.size();
  if (const std::shared_ptr<detector::ShardSet> &Shards = State.shards()) {
    // Shard-owned pages live outside GlobalShadow; fold them in so the
    // reported footprint is the whole global shadow either way.
    Detector.GlobalShadowBytes += Shards->shadowBytes();
    std::vector<detector::ShardSet::Sample> Samples = Shards->sample();
    for (size_t I = 0; I != Samples.size(); ++I) {
      DetectorSection::ShardStats Stats;
      Stats.Index = static_cast<unsigned>(I);
      Stats.Posted = Samples[I].Posted;
      Stats.Applied = Samples[I].Applied;
      Stats.RunPieces = Samples[I].RunPieces;
      Stats.SyncMarks = Samples[I].SyncMarks;
      Stats.Markers = Samples[I].Markers;
      Stats.Pages = Samples[I].Pages;
      Stats.ShadowBytes = Samples[I].ShadowBytes;
      Stats.ProducerStalls = Samples[I].ProducerStalls;
      Stats.TicketStalls = Samples[I].TicketStalls;
      Stats.FastPathHits = Samples[I].FastPathHits;
      Detector.Shards.push_back(Stats);
    }
  }

  const detector::DetectorOptions &Options = State.options();
  // Snapshot before the rule read-back below: Registry lookups register
  // the names they miss.
  if (Options.CollectStats) {
    Writer MetricsWriter;
    State.metrics().writeJson(MetricsWriter);
    MetricsJson = MetricsWriter.take();
  }
  if (!Options.ProfileRules)
    return;
  // Rule attribution: each kind's exact count and its sampled-latency
  // histogram live in the run's registry as detector.rule.<kind>.*.
  for (unsigned Kind = 0; Kind != detector::RuleProfile::NumKinds; ++Kind) {
    const char *Name = trace::recordOpName(static_cast<trace::RecordOp>(Kind));
    obs::Counter &Count = State.metrics().counter(
        std::string("detector.rule.") + Name + ".records");
    if (!Count.value())
      continue;
    obs::Histogram &Ns = State.metrics().histogram(
        std::string("detector.rule.") + Name + ".ns");
    ProfileSection::RuleLatency Rule;
    Rule.Kind = Name;
    Rule.Records = Count.value();
    Rule.Samples = Ns.count();
    Rule.SampledNs = Ns.sum();
    Profile.Rules.push_back(std::move(Rule));
  }
}

std::string RunReport::toJson() const {
  Writer W;
  W.beginObject();
  W.key("schemaVersion").value(SchemaVersion);

  W.key("launch").beginObject();
  W.key("kernel").value(Launch.Kernel);
  W.key("instrumented").value(Launch.Instrumented);
  W.key("ok").value(Launch.Ok);
  W.key("error").value(Launch.Error);
  W.key("errorCode").value(std::string(support::errorCodeName(Launch.Code)));
  if (Launch.FailPc != sim::LaunchResult::InvalidPc)
    W.key("failPc").value(static_cast<uint64_t>(Launch.FailPc));
  W.key("threadsLaunched").value(Launch.ThreadsLaunched);
  W.key("warpInstructions").value(Launch.WarpInstructions);
  W.key("recordsLogged").value(Launch.RecordsLogged);
  W.key("recordsPruned").value(Launch.RecordsPruned);
  W.key("simLowered").value(Launch.SimLowered);
  W.endObject();

  W.key("records").beginObject();
  W.key("processed").value(Records.Processed);
  W.key("memory").value(Records.Memory);
  W.key("sync").value(Records.Sync);
  W.key("control").value(Records.Control);
  W.endObject();

  W.key("detector").beginObject();
  // Always true since the detector has one memory path; kept so the
  // schema-3 document is unchanged.
  W.key("hotPathEnabled").value(true);
  W.key("ptvcFormats").beginObject();
  for (size_t I = 0; I != Detector.Formats.Samples.size(); ++I)
    W.key(detector::ptvcFormatName(static_cast<detector::PtvcFormat>(I)))
        .value(Detector.Formats.Samples[I]);
  W.endObject();
  W.key("warpCompressibleFraction")
      .value(Detector.Formats.warpCompressibleFraction());
  W.key("fastPathHits").value(Detector.HotPath.FastPathHits);
  W.key("runsCoalesced").value(Detector.HotPath.RunsCoalesced);
  W.key("pageCacheHits").value(Detector.HotPath.PageCacheHits);
  W.key("pageCacheMisses").value(Detector.HotPath.PageCacheMisses);
  W.key("peakPtvcBytes").value(Detector.PeakPtvcBytes);
  W.key("globalShadowBytes").value(Detector.GlobalShadowBytes);
  W.key("sharedShadowBytes").value(Detector.SharedShadowBytes);
  W.key("syncLocations").value(Detector.SyncLocations);
  if (!Detector.Shards.empty()) {
    W.key("shards").beginArray();
    for (const DetectorSection::ShardStats &Shard : Detector.Shards) {
      W.beginObject();
      W.key("index").value(static_cast<uint64_t>(Shard.Index));
      W.key("posted").value(Shard.Posted);
      W.key("applied").value(Shard.Applied);
      W.key("runPieces").value(Shard.RunPieces);
      W.key("syncMarks").value(Shard.SyncMarks);
      W.key("markers").value(Shard.Markers);
      W.key("pages").value(Shard.Pages);
      W.key("shadowBytes").value(Shard.ShadowBytes);
      W.key("producerStalls").value(Shard.ProducerStalls);
      W.key("ticketStalls").value(Shard.TicketStalls);
      W.key("fastPathHits").value(Shard.FastPathHits);
      W.endObject();
    }
    W.endArray();
  }
  W.endObject();

  W.key("engine").beginObject();
  W.key("numQueues").value(Engine.NumQueues);
  W.key("queueFullSpins").value(Engine.QueueFullSpins);
  W.key("commitStalls").value(Engine.CommitStalls);
  W.key("detectorEmptySpins").value(Engine.DetectorEmptySpins);
  W.key("parkedNanos").value(Engine.ParkedNanos);
  W.key("watermarkWaitNanos").value(Engine.WatermarkWaitNanos);
  W.endObject();

  W.key("resilience").beginObject();
  W.key("degraded").value(Resilience.Degraded);
  W.key("recordsDropped").value(Resilience.RecordsDropped);
  W.key("recordsRejected").value(Resilience.RecordsRejected);
  W.key("recordsCorrupted").value(Resilience.RecordsCorrupted);
  W.key("recordsResynced").value(Resilience.RecordsResynced);
  W.key("workerFailures").value(Resilience.WorkerFailures);
  W.key("workersRespawned").value(Resilience.WorkersRespawned);
  W.key("queuesQuarantined").value(Resilience.QueuesQuarantined);
  W.key("queuesAbandoned").value(Resilience.QueuesAbandoned);
  W.key("queuesRerouted").value(Resilience.QueuesRerouted);
  W.key("watchdogTrips").value(Resilience.WatchdogTrips);
  W.key("faultsInjected").value(Resilience.FaultsInjected);
  W.key("faultsHit").value(Resilience.FaultsHit);
  W.key("firstError").value(Resilience.FirstError);
  W.endObject();

  if (Blackbox.Captured) {
    W.key("blackbox").beginObject();
    W.key("captured").value(true);
    W.key("reason").value(Blackbox.Reason);
    W.key("events").beginArray();
    for (const BlackboxSection::Event &E : Blackbox.Events) {
      W.beginObject();
      W.key("seq").value(E.Seq);
      W.key("tNs").value(E.TimeNs);
      W.key("code").value(E.Code);
      W.key("ring").value(static_cast<uint64_t>(E.Ring));
      W.key("worker").value(static_cast<uint64_t>(E.Worker));
      W.key("epoch").value(E.Epoch);
      W.key("requestId").value(E.RequestId);
      W.key("a").value(E.A);
      W.key("b").value(E.B);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }

  if (Profile.Enabled) {
    W.key("profile").beginObject();
    W.key("attributedFraction").value(Profile.attributedFraction());
    W.key("kernels").beginArray();
    for (const obs::KernelProfile &Kernel : Profile.Kernels) {
      W.beginObject();
      W.key("kernel").value(Kernel.Kernel);
      W.key("totalDynamic").value(Kernel.TotalDynamic);
      W.key("attributed").value(Kernel.totalAttributed());
      W.key("hotPcs").beginArray();
      std::vector<uint32_t> Pcs = Kernel.hotPcs();
      constexpr size_t MaxPcs = 32; // bound the document, not the data
      for (size_t I = 0; I != Pcs.size() && I != MaxPcs; ++I) {
        uint32_t Pc = Pcs[I];
        W.beginObject();
        W.key("pc").value(static_cast<uint64_t>(Pc));
        W.key("line").value(static_cast<uint64_t>(Kernel.Lines[Pc]));
        W.key("executed").value(Kernel.Executed[Pc]);
        W.key("memoryOps").value(Kernel.MemoryOps[Pc]);
        W.key("divergences").value(Kernel.Divergences[Pc]);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    W.key("rules").beginArray();
    for (const ProfileSection::RuleLatency &Rule : Profile.Rules) {
      W.beginObject();
      W.key("kind").value(Rule.Kind);
      W.key("records").value(Rule.Records);
      W.key("samples").value(Rule.Samples);
      W.key("sampledNs").value(Rule.SampledNs);
      W.endObject();
    }
    W.endArray();
    W.key("phases").beginObject();
    W.key("drainNs").value(Profile.DrainNanos);
    W.key("parkedNs").value(Profile.ParkedNanos);
    W.key("watermarkWaitNs").value(Profile.WatermarkWaitNanos);
    W.endObject();
    W.endObject();
  }

  W.key("instrumentation").beginObject();
  W.key("staticInsns").value(Static.StaticInsns);
  W.key("instrumentedUnoptimized").value(Static.InstrumentedUnoptimized);
  W.key("instrumentedOptimized").value(Static.InstrumentedOptimized);
  W.key("unoptimizedFraction").value(Static.unoptimizedFraction());
  W.key("optimizedFraction").value(Static.optimizedFraction());
  W.key("parseNanos").value(ParseNanos);
  W.endObject();

  detector::writeFindings(W, Races, BarrierErrors);

  if (!MetricsJson.empty())
    W.key("metrics").raw(MetricsJson);

  W.endObject();
  return W.take() + "\n";
}

void RunReport::printText(std::FILE *Out) const {
  std::fprintf(Out,
               "\nstatic: %llu insns, %.1f%% instrumented "
               "(%.1f%% before pruning)\n",
               static_cast<unsigned long long>(Static.StaticInsns),
               100.0 * Static.optimizedFraction(),
               100.0 * Static.unoptimizedFraction());
  std::fprintf(Out, "pruning: %llu records elided at runtime\n",
               static_cast<unsigned long long>(Launch.RecordsPruned));
  std::fprintf(Out,
               "detector: %llu records; ptvc warp-compressible %.1f%%; "
               "peak ptvc %s; shadow %s global + %s shared; "
               "%llu sync locations\n",
               static_cast<unsigned long long>(Records.Processed),
               100.0 * Detector.Formats.warpCompressibleFraction(),
               formatBytes(Detector.PeakPtvcBytes).c_str(),
               formatBytes(Detector.GlobalShadowBytes).c_str(),
               formatBytes(Detector.SharedShadowBytes).c_str(),
               static_cast<unsigned long long>(Detector.SyncLocations));
  std::fprintf(Out, "records: %llu memory + %llu sync + %llu control\n",
               static_cast<unsigned long long>(Records.Memory),
               static_cast<unsigned long long>(Records.Sync),
               static_cast<unsigned long long>(Records.Control));
  std::fprintf(Out,
               "hot path: %llu fast-path hits, %llu coalesced runs, "
               "page cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(Detector.HotPath.FastPathHits),
               static_cast<unsigned long long>(Detector.HotPath.RunsCoalesced),
               static_cast<unsigned long long>(Detector.HotPath.PageCacheHits),
               static_cast<unsigned long long>(
                   Detector.HotPath.PageCacheMisses));
  if (!Detector.Shards.empty()) {
    uint64_t Posted = 0, Pieces = 0, ProducerStalls = 0, TicketStalls = 0;
    for (const DetectorSection::ShardStats &Shard : Detector.Shards) {
      Posted += Shard.Posted;
      Pieces += Shard.RunPieces;
      ProducerStalls += Shard.ProducerStalls;
      TicketStalls += Shard.TicketStalls;
    }
    std::fprintf(Out,
                 "shards: %zu address-range shards; %llu messages posted, "
                 "%llu run pieces, %llu producer stalls, "
                 "%llu ticket stalls\n",
                 Detector.Shards.size(),
                 static_cast<unsigned long long>(Posted),
                 static_cast<unsigned long long>(Pieces),
                 static_cast<unsigned long long>(ProducerStalls),
                 static_cast<unsigned long long>(TicketStalls));
  }
  std::fprintf(Out,
               "runtime: %llu queue-full waits, %llu commit stalls, "
               "%llu detector-idle waits; detector lag %.3f ms, "
               "pool parked %.3f ms\n",
               static_cast<unsigned long long>(Engine.QueueFullSpins),
               static_cast<unsigned long long>(Engine.CommitStalls),
               static_cast<unsigned long long>(Engine.DetectorEmptySpins),
               static_cast<double>(Engine.WatermarkWaitNanos) / 1e6,
               static_cast<double>(Engine.ParkedNanos) / 1e6);
  if (Resilience.Degraded || Resilience.FaultsInjected ||
      Resilience.RecordsResynced || Resilience.WatchdogTrips)
    std::fprintf(
        Out,
        "resilience: %s; %llu dropped + %llu rejected records, "
        "%llu corrupted / %llu resynced, %llu worker failures "
        "(%llu respawned), "
        "%llu queues quarantined, %llu abandoned, %llu rerouted, "
        "%llu watchdog trips; faults %llu/%llu hit%s%s\n",
        Resilience.Degraded ? "DEGRADED" : "clean",
        static_cast<unsigned long long>(Resilience.RecordsDropped),
        static_cast<unsigned long long>(Resilience.RecordsRejected),
        static_cast<unsigned long long>(Resilience.RecordsCorrupted),
        static_cast<unsigned long long>(Resilience.RecordsResynced),
        static_cast<unsigned long long>(Resilience.WorkerFailures),
        static_cast<unsigned long long>(Resilience.WorkersRespawned),
        static_cast<unsigned long long>(Resilience.QueuesQuarantined),
        static_cast<unsigned long long>(Resilience.QueuesAbandoned),
        static_cast<unsigned long long>(Resilience.QueuesRerouted),
        static_cast<unsigned long long>(Resilience.WatchdogTrips),
        static_cast<unsigned long long>(Resilience.FaultsHit),
        static_cast<unsigned long long>(Resilience.FaultsInjected),
        Resilience.FirstError.empty() ? "" : "; first error: ",
        Resilience.FirstError.c_str());
  if (Blackbox.Captured)
    std::fprintf(Out, "blackbox: %zu flight-recorder events (%s)\n",
                 Blackbox.Events.size(), Blackbox.Reason.c_str());
  if (Profile.Enabled) {
    std::fprintf(Out,
                 "profile: %.1f%% of warp instructions attributed; "
                 "engine drain %.3f ms, parked %.3f ms\n",
                 100.0 * Profile.attributedFraction(),
                 static_cast<double>(Profile.DrainNanos) / 1e6,
                 static_cast<double>(Profile.ParkedNanos) / 1e6);
    constexpr size_t TopN = 5;
    for (const obs::KernelProfile &Kernel : Profile.Kernels) {
      std::vector<uint32_t> Pcs = Kernel.hotPcs();
      if (Pcs.empty())
        continue;
      std::fprintf(Out, "  hot pcs of %s:\n", Kernel.Kernel.c_str());
      std::fprintf(Out, "    %6s %6s %12s %10s %10s\n", "pc", "line",
                   "executed", "mem", "div");
      for (size_t I = 0; I != Pcs.size() && I != TopN; ++I) {
        uint32_t Pc = Pcs[I];
        std::fprintf(Out, "    %6u %6u %12llu %10llu %10llu\n", Pc,
                     Kernel.Lines[Pc],
                     static_cast<unsigned long long>(Kernel.Executed[Pc]),
                     static_cast<unsigned long long>(Kernel.MemoryOps[Pc]),
                     static_cast<unsigned long long>(
                         Kernel.Divergences[Pc]));
      }
    }
    for (const ProfileSection::RuleLatency &Rule : Profile.Rules)
      std::fprintf(Out,
                   "  rule %-8s %12llu records, mean sampled latency "
                   "%llu ns\n",
                   Rule.Kind.c_str(),
                   static_cast<unsigned long long>(Rule.Records),
                   static_cast<unsigned long long>(
                       Rule.Samples ? Rule.SampledNs / Rule.Samples : 0));
  }
}

std::string RunReport::foldedStacks() const {
  std::string Out;
  for (const obs::KernelProfile &Kernel : Profile.Kernels) {
    for (uint32_t Pc = 0; Pc != Kernel.Executed.size(); ++Pc) {
      if (!Kernel.Executed[Pc])
        continue;
      Out += Kernel.Kernel;
      Out += support::formatString(";pc_%u_line_%u %llu\n", Pc,
                                   Kernel.Lines[Pc],
                                   static_cast<unsigned long long>(
                                       Kernel.Executed[Pc]));
    }
  }
  return Out;
}
