//===- ClosedLoop.cpp - the table1 and syncdense batch workloads ----------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop with one caller. Each pass takes a fixed list of
/// programs and, for each, creates a fresh Session on one shared Engine,
/// loads the module, makes one instrumented launch and reads the
/// findings. The same pass also runs natively; passes alternate
/// instrumented, native.
///
///   * table1    - the 26 generated Table 1 programs, capped at the
///                 measurement geometry (the paper's Table 1 / Figure 10);
///   * syncdense - the benchmark's sync-dense kernel at 4x128, so the
///                 detector's sync path does most of the work.
///
//===----------------------------------------------------------------------===//

#include "ClosedLoop.h"
#include "Composed.h"
#include "HostSpeed.h"
#include "Kernels.h"

#include "barracuda/Session.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace barracuda;

namespace perfbench {

namespace {

/// Thread cap of the Table 1 measurement geometry: a pass then takes
/// about a second on a 4-core host, so a run holds many passes.
constexpr uint64_t Table1MaxThreads = 4096;

/// The syncdense launch: 16 warps, each logging one sync record and
/// SyncStores memory records per iteration of the kernel's loop. The
/// stores keep the detector computing while the shards order the syncs:
/// with one store per iteration the launch is nearly all backoff waits
/// for ticket order, whose length follows the host's wake-up latency
/// (README.md, "Steadiness and bounds").
const sim::Dim3 SyncGrid{4}, SyncBlock{128};
constexpr uint64_t SyncIters = 4, SyncStores = 1024;

} // namespace

std::vector<Program> generateTable1(uint64_t Seed) {
  workloads::GeneratorOptions Gen;
  Gen.MaxMeasureThreads = Table1MaxThreads;
  Gen.Seed = seedFor(Seed, 1);
  std::vector<Program> Out;
  for (const workloads::BenchmarkSpec &Spec : workloads::table1Specs()) {
    workloads::GeneratedBenchmark B = workloads::generateBenchmark(Spec, Gen);
    Program P;
    P.Name = Spec.Name;
    P.Ptx = std::move(B.Ptx);
    P.Kernel = B.KernelName;
    P.Grid = B.MeasureGrid;
    P.Block = B.Block;
    P.BufferBytes = {B.DataBytes};
    P.RacesShared = Spec.RacesShared;
    P.RacesGlobal = Spec.RacesGlobal;
    Out.push_back(std::move(P));
  }
  return Out;
}

namespace {

/// The syncdense program's output: every thread bumped the hot counter
/// once per iteration, and every warp logged one sync record per
/// iteration.
std::string checkSyncDense(Session &S, const RunReport &Report,
                           const std::vector<uint64_t> &Args) {
  uint64_t Threads = uint64_t(SyncGrid.X) * SyncBlock.X;
  uint64_t Counter = S.readU32(Args[1]);
  if (Counter != Threads * SyncIters)
    return "counter reads " + std::to_string(Counter) + ", expected " +
           std::to_string(Threads * SyncIters);
  uint64_t Sync = Report.Records.Sync;
  if (Sync != Threads / 32 * SyncIters)
    return std::to_string(Sync) + " sync records, expected " +
           std::to_string(Threads / 32 * SyncIters);
  return "";
}

std::vector<Program> syncDensePrograms(uint64_t) {
  Program P;
  P.Name = "syncdense";
  P.Ptx = syncDensePtx();
  P.Kernel = "syncdense";
  P.Grid = SyncGrid;
  P.Block = SyncBlock;
  P.BufferBytes = {uint64_t(SyncGrid.X) * SyncBlock.X * SyncStores * 4, 64};
  P.Scalars = {SyncIters, SyncStores};
  P.CheckOutput = checkSyncDense;
  return {P};
}

/// One program's run through the Session path.
struct SessionRun {
  double LaunchS = 0;
  double LoadS = 0, ReportS = 0, JsonS = 0;
  uint64_t Records = 0;
  uint64_t Shared = 0, Global = 0;
  RunReport Report;
};

/// Runs \p P through a fresh Session; checks every gate into \p R (when
/// non-null). Timings of the load, launch and report calls go into the
/// returned record.
SessionRun runSession(const Program &P, runtime::Engine *Shared,
                      bool Instrument, const Options &Opts, Result *R,
                      bool TimeReport) {
  SessionOptions SO;
  SO.Instrument = Instrument;
  SO.SharedEngine = Instrument ? Shared : nullptr;
  SessionRun Out;
  Session S(SO);
  uint64_t T0 = nowNs();
  support::Result<ModuleInfo> Loaded = S.loadModule(P.Ptx);
  Out.LoadS = static_cast<double>(nowNs() - T0) * 1e-9;
  if (R)
    R->attempt();
  if (!Loaded.ok()) {
    if (R)
      R->fail(P.Name + ": load failed: " + S.error(), true);
    return Out;
  }
  std::vector<uint64_t> Args = P.args([&S](uint64_t B) { return S.alloc(B); });
  uint64_t T1 = nowNs();
  support::Result<sim::LaunchResult> Launched =
      S.launchKernel(P.Kernel, P.Grid, P.Block, Args);
  injectDelay(Opts.InjectDelayUs);
  Out.LaunchS = static_cast<double>(nowNs() - T1) * 1e-9;
  if (!Launched.ok()) {
    if (R)
      R->fail(P.Name + ": launch failed: " + Launched.status().describe(),
              true);
    return Out;
  }
  if (!Instrument)
    return Out;
  for (const detector::RaceReport &Race : S.races())
    ++(Race.Space == trace::MemSpace::Shared ? Out.Shared : Out.Global);
  uint64_t T2 = nowNs();
  Out.Report = S.report();
  uint64_t T3 = nowNs();
  if (TimeReport) {
    std::string Json = Out.Report.toJson();
    Out.JsonS = static_cast<double>(nowNs() - T3) * 1e-9;
  }
  Out.ReportS = static_cast<double>(T3 - T2) * 1e-9;
  Out.Records = Out.Report.Launch.RecordsLogged;
  if (!R)
    return Out;
  std::string OutputError;
  if (Out.Shared != P.RacesShared || Out.Global != P.RacesGlobal)
    R->fail(P.Name + ": races " + std::to_string(Out.Shared) +
                " shared / " + std::to_string(Out.Global) +
                " global, expected " + std::to_string(P.RacesShared) +
                " / " + std::to_string(P.RacesGlobal),
            true);
  else if (Out.Report.Resilience.Degraded)
    R->fail(P.Name + ": launch degraded", true);
  else if (Out.Report.Records.Processed +
               Out.Report.Resilience.RecordsDropped !=
           Out.Report.Launch.RecordsLogged)
    R->fail(P.Name + ": resilience ledger does not balance", true);
  else if (P.CheckOutput &&
           !(OutputError = P.CheckOutput(S, Out.Report, Args)).empty())
    R->fail(P.Name + ": " + OutputError, true);
  return Out;
}

/// The shared engine and the programs, built once per set-up.
struct LoopSetup {
  std::vector<Program> Programs;
  std::unique_ptr<runtime::Engine> Engine;
};

/// A closed-loop workload: its programs and how many unchecked passes
/// warm each set-up (enough that a set-up is not one launch's noise).
struct LoopWorkload {
  std::vector<Program> (*MakePrograms)(uint64_t Seed);
  unsigned WarmupPasses;
};

LoopSetup setUp(const Options &Opts, const LoopWorkload &W) {
  LoopSetup S;
  S.Programs = W.MakePrograms(Opts.Seed);
  S.Engine = std::make_unique<runtime::Engine>(); // 4 queues of 16K
  // Warm-up: instrumented and native passes, unchecked.
  for (unsigned Pass = 0; Pass != W.WarmupPasses; ++Pass)
    for (const Program &P : S.Programs) {
      runSession(P, S.Engine.get(), true, Options(), nullptr, false);
      runSession(P, S.Engine.get(), false, Options(), nullptr, false);
    }
  return S;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / static_cast<double>(V.size()));
}

/// The untraced run: the end-to-end metrics.
void measure(const Options &Opts, LoopSetup &Setup, Result &R) {
  const size_t N = Setup.Programs.size();
  std::vector<double> PassS, NativePassS, LaunchUs, RecordsPerS, LaunchesPerS;
  std::vector<double> PassMeanLaunchUs;
  std::vector<std::vector<double>> InstrLaunchS(N), NativeLaunchS(N);
  uint64_t Start = nowNs();
  while (PassS.empty() ||
         static_cast<double>(nowNs() - Start) * 1e-9 < Opts.Seconds) {
    uint64_t P0 = nowNs();
    double LaunchTotalS = 0, Records = 0;
    for (size_t I = 0; I != N; ++I) {
      SessionRun Run = runSession(Setup.Programs[I], Setup.Engine.get(),
                                  true, Opts, &R, false);
      InstrLaunchS[I].push_back(Run.LaunchS);
      LaunchUs.push_back(Run.LaunchS * 1e6);
      LaunchTotalS += Run.LaunchS;
      Records += static_cast<double>(Run.Records);
    }
    uint64_t P1 = nowNs();
    hostSpeed().keepUp();
    uint64_t P2 = nowNs();
    for (size_t I = 0; I != N; ++I) {
      SessionRun Run = runSession(Setup.Programs[I], nullptr, false, Opts,
                                  &R, false);
      NativeLaunchS[I].push_back(Run.LaunchS);
    }
    uint64_t P3 = nowNs();
    hostSpeed().keepUp();
    PassS.push_back(static_cast<double>(P1 - P0) * 1e-9);
    NativePassS.push_back(static_cast<double>(P3 - P2) * 1e-9);
    RecordsPerS.push_back(Records / LaunchTotalS);
    PassMeanLaunchUs.push_back(LaunchTotalS / static_cast<double>(N) * 1e6);
    LaunchesPerS.push_back(static_cast<double>(N) / PassS.back());
  }

  // Figure 10: instrumented over native launch time, per program. A
  // derived figure, not gated: a faster simulator raises it.
  std::vector<double> Ratios;
  std::string Fig10 = "{";
  size_t Heaviest = 0;
  for (size_t I = 0; I != N; ++I) {
    double Ratio =
        medianOf(InstrLaunchS[I]) / std::max(medianOf(NativeLaunchS[I]), 1e-12);
    Ratios.push_back(Ratio);
    Fig10 += (I ? "," : "") + jsonString(Setup.Programs[I].Name) + ":" +
             jsonNumber(Ratio);
    if (medianOf(InstrLaunchS[I]) > medianOf(InstrLaunchS[Heaviest]))
      Heaviest = I;
  }
  Fig10 += "}";
  R.note("fig10OverheadRatio", Fig10);
  R.note("fig10OverheadGeomean", jsonNumber(geomean(Ratios)));
  R.note("heavyProgram", jsonString(Setup.Programs[Heaviest].Name));
  R.note("passes", std::to_string(PassS.size()));
  R.text("Figure 10 overhead (instrumented / native launch time), derived "
         "and not gated: geomean " +
         jsonNumber(geomean(Ratios)));

  Summary Launch = summarise(LaunchUs);
  R.summary("verdict_s", "s", summarise(PassS));
  R.summary("native_s", "s", summarise(NativePassS));
  R.summary("launch_us", "us", Launch);
  R.summary("heavy_ms", "ms", summarise([&] {
              std::vector<double> V;
              for (double X : InstrLaunchS[Heaviest])
                V.push_back(X * 1e3);
              return V;
            }()));
  R.metric("verdict_s", "s", medianOf(PassS));
  R.computeMetric("native_s", "s", medianOf(NativePassS));
  R.summary("records_per_s", "1/s", summarise(RecordsPerS));
  R.summary("launches_per_s", "1/s", summarise(LaunchesPerS));
  R.metric("records_per_s", "1/s", medianOf(RecordsPerS));
  R.metric("launches_per_s", "1/s", medianOf(LaunchesPerS));
  // The pooled median sits between two programs' clusters of launch
  // times, which differ a hundredfold, and jumps with noise; the median
  // over passes of the pass's mean launch time is the per-launch cost a
  // pass pays.
  R.summary("pass_mean_launch_us", "us", summarise(PassMeanLaunchUs));
  R.metric("launch_p50_us", "us", medianOf(PassMeanLaunchUs));
  // No launch_p99_us: a run's 55 to 700 launches support p75 to p95,
  // not p99 (README.md, "End-to-end metrics"); the launch_us summary
  // carries the supported tail.
  R.metric("heavy_p50_ms", "ms", medianOf(InstrLaunchS[Heaviest]) * 1e3);
  R.metric("max_rate_per_s", "1/s", medianOf(LaunchesPerS));
}

/// Sums of the detector counts over the reports of one pass.
struct ReportCounts {
  double Sync = 0, Markers = 0, Ticket = 0, Producer = 0, Shadow = 0;

  void add(const RunReport &Report) {
    Sync += static_cast<double>(Report.Records.Sync);
    for (const auto &Shard : Report.Detector.Shards) {
      Markers += static_cast<double>(Shard.Markers);
      Ticket += static_cast<double>(Shard.TicketStalls);
      Producer += static_cast<double>(Shard.ProducerStalls);
    }
    Shadow += static_cast<double>(Report.Detector.GlobalShadowBytes +
                                  Report.Detector.SharedShadowBytes);
  }
};

} // namespace

void traceClosedLoop(const Options &Opts, double Seconds,
                     runtime::Engine &Engine,
                     const std::vector<Program> &Programs,
                     SpanRecorder &Spans, LayerSamples &L, Result &R) {
  const size_t N = Programs.size();
  std::vector<double> TracedPassS, UntracedPassS, SessionPassS;
  std::vector<ComposedLaunch> Traced(N), Untraced(N);
  std::vector<SessionRun> Sessions(N);
  double Logged = 0;

  auto TracedPass = [&] {
    Logged = 0;
    uint32_t Pass = Spans.open("pass", SpanRecorder::NoParent);
    for (size_t I = 0; I != N; ++I) {
      const Program &P = Programs[I];
      uint32_t Launch = Spans.open("launch", Pass);
      ComposedDevice Dev(Engine, Spans);
      std::string Error = Dev.load(P.Ptx, Launch);
      R.attempt();
      Traced[I] = ComposedLaunch();
      if (!Error.empty()) {
        R.fail(P.Name + ": composed load failed: " + Error, true);
        Spans.close(Launch);
        continue;
      }
      Traced[I] = Dev.launch(P.Kernel, P.Grid, P.Block,
                             P.args([&](uint64_t B) { return Dev.alloc(B); }),
                             Launch);
      Logged += static_cast<double>(Dev.loggedInstructions());
      Spans.close(Launch);
      L.LaunchRoots.push_back(Launch);
      L.WatermarkWaitUs.push_back(
          static_cast<double>(Traced[I].WatermarkWaitNs) * 1e-3);
    }
    Spans.close(Pass);
    L.UnitRoots.push_back(Pass);
    L.LoadRoots.push_back(Pass);
    TracedPassS.push_back(static_cast<double>(Spans.durationNs(Pass)) * 1e-9);
  };
  // The same composed pass with spans off, for the tracing overhead.
  auto UntracedPass = [&] {
    SpanRecorder Off(/*Enabled=*/false);
    uint64_t U0 = nowNs();
    for (size_t I = 0; I != N; ++I) {
      const Program &P = Programs[I];
      ComposedDevice Dev(Engine, Off);
      R.attempt();
      Untraced[I] = ComposedLaunch();
      if (!Dev.load(P.Ptx, SpanRecorder::NoParent).empty()) {
        R.fail(P.Name + ": composed load failed", true);
        continue;
      }
      Untraced[I] =
          Dev.launch(P.Kernel, P.Grid, P.Block,
                     P.args([&](uint64_t B) { return Dev.alloc(B); }),
                     SpanRecorder::NoParent);
    }
    UntracedPassS.push_back(static_cast<double>(nowNs() - U0) * 1e-9);
  };
  auto SessionPass = [&] {
    uint64_t S0 = nowNs();
    for (size_t I = 0; I != N; ++I)
      Sessions[I] = runSession(Programs[I], &Engine, true, Opts, &R, true);
    SessionPassS.push_back(static_cast<double>(nowNs() - S0) * 1e-9);
  };

  uint64_t Start = nowNs();
  for (unsigned Iter = 0;
       TracedPassS.empty() ||
       static_cast<double>(nowNs() - Start) * 1e-9 < Seconds;
       ++Iter) {
    // Rotate the order so no pass always follows the same one.
    switch (Iter % 3) {
    case 0: TracedPass(); UntracedPass(); SessionPass(); break;
    case 1: UntracedPass(); SessionPass(); TracedPass(); break;
    default: SessionPass(); TracedPass(); UntracedPass(); break;
    }
    double Insns = 0, Records = 0, FullSpins = 0, LoadMs = 0;
    ReportCounts Counts;
    for (size_t I = 0; I != N; ++I) {
      const ComposedLaunch &C = Traced[I];
      const SessionRun &Run = Sessions[I];
      R.attempt();
      if (!C.Ok || C.RecordsLogged != Run.Records ||
          C.SyncRecords != Run.Report.Records.Sync ||
          C.RacesShared != Run.Shared || C.RacesGlobal != Run.Global ||
          !C.LedgerBalanced || C.Degraded ||
          Untraced[I].RecordsLogged != C.RecordsLogged)
        R.fail(Programs[I].Name + ": traced path disagrees with Session (" +
                   std::to_string(C.RecordsLogged) + " vs " +
                   std::to_string(Run.Records) + " records)",
               true);
      Insns += static_cast<double>(C.WarpInstructions);
      Records += static_cast<double>(C.RecordsLogged);
      FullSpins += static_cast<double>(C.QueueFullSpins);
      LoadMs += Run.LoadS * 1e3;
      L.SessionLaunchUs.push_back(Run.LaunchS * 1e6);
      L.ReportBuildUs.push_back(Run.ReportS * 1e6);
      L.ReportJsonUs.push_back(Run.JsonS * 1e6);
      Counts.add(Run.Report);
    }
    L.LoggedInsns.push_back(Logged);
    L.WarpInsns.push_back(Insns);
    L.Records.push_back(Records);
    L.QueueFullSpins.push_back(FullSpins);
    L.SyncRecords.push_back(Counts.Sync);
    L.ShardMarkers.push_back(Counts.Markers);
    L.TicketStalls.push_back(Counts.Ticket);
    L.ProducerStalls.push_back(Counts.Producer);
    L.ShadowBytes.push_back(Counts.Shadow);
    L.SessionLoadMs.push_back(LoadMs);
  }
  L.TracingOverheadPct =
      100.0 * (medianOf(TracedPassS) / medianOf(UntracedPassS) - 1.0);
  R.summary("traced_pass_s", "s", summarise(TracedPassS));
  R.summary("untraced_pass_s", "s", summarise(UntracedPassS));
  R.summary("session_pass_s", "s", summarise(SessionPassS));
}

void runNative(const Program &P, Result &R) {
  runSession(P, nullptr, false, Options(), &R, false);
}

namespace {

int runClosedLoop(const Options &Opts, Result &R, const LoopWorkload &W) {
  std::vector<double> SetupS;
  LoopSetup Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Setup = LoopSetup(); // tear the previous set-up down first
    uint64_t T0 = nowNs();
    Setup = setUp(Opts, W);
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    hostSpeed().keepUp();
  }
  R.note("programs", std::to_string(Setup.Programs.size()));
  if (Opts.Trace) {
    SpanRecorder Spans;
    LayerSamples L;
    traceClosedLoop(Opts, Opts.Seconds, *Setup.Engine, Setup.Programs, Spans,
                    L, R);
    emitLayerMetrics(Spans, L, R);
    return 0;
  }
  R.summary("setup_s", "s", summarise(SetupS));
  R.metric("setup_s", "s", medianOf(SetupS));
  measure(Opts, Setup, R);
  R.metric("peak_rss_mb", "MB", peakRssMb());
  return 0;
}

} // namespace

int runTable1(const Options &Opts, Result &R) {
  R.note("table1MaxThreads", std::to_string(Table1MaxThreads));
  return runClosedLoop(Opts, R, {generateTable1, 1});
}

int runSyncDense(const Options &Opts, Result &R) {
  R.note("syncIters", std::to_string(SyncIters));
  R.note("syncStores", std::to_string(SyncStores));
  return runClosedLoop(Opts, R, {syncDensePrograms, 2});
}

} // namespace perfbench
