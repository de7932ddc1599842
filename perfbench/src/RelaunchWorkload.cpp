//===- RelaunchWorkload.cpp - back-to-back launches on one Session --------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// relaunch: a closed loop with one caller, like `barracuda-run
/// --repeat`. One Session makes back-to-back launchKernel calls of the
/// safe histogram at 4x64 threads (about 20 records each), so the fixed
/// cost of a launch is almost all of its wall time. The module is
/// loaded in set-up and the lowering cache always hits. Every tenth
/// launch is followed by a native launch of the same kernel on a
/// native Session, timed apart.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Composed.h"
#include "HostSpeed.h"
#include "Kernels.h"
#include "Layers.h"

#include "barracuda/Session.h"

#include <memory>

using namespace barracuda;

namespace perfbench {

namespace {

const sim::Dim3 Grid{4}, Block{64};
constexpr uint64_t BinBytes = 64;
/// A native launch after every NativeEvery instrumented ones.
constexpr unsigned NativeEvery = 10;

struct RelaunchSetup {
  std::unique_ptr<Session> Instrumented, Native;
  uint64_t Bins = 0, NativeBins = 0;
};

RelaunchSetup setUp(Result &R) {
  RelaunchSetup S;
  S.Instrumented = std::make_unique<Session>();
  SessionOptions NativeOpts;
  NativeOpts.Instrument = false;
  S.Native = std::make_unique<Session>(NativeOpts);
  for (Session *Sess : {S.Instrumented.get(), S.Native.get()}) {
    support::Result<ModuleInfo> Loaded = Sess->loadModule(histogramSafePtx());
    if (!Loaded.ok())
      R.fail("histogram: load failed: " + Sess->error(), true);
  }
  S.Bins = S.Instrumented->alloc(BinBytes);
  S.NativeBins = S.Native->alloc(BinBytes);
  // Warm-up: engine threads, lowering cache, allocator.
  for (unsigned I = 0; I != 200; ++I) {
    (void)S.Instrumented->launchKernel("histogram", Grid, Block, {S.Bins});
    (void)S.Native->launchKernel("histogram", Grid, Block, {S.NativeBins});
  }
  return S;
}

/// Checks one instrumented launch's verdict and ledger.
void check(Session &S, const support::Result<sim::LaunchResult> &Launched,
           Result &R) {
  if (!Launched.ok()) {
    R.fail("histogram: launch failed: " + Launched.status().describe(),
           true);
    return;
  }
  if (!S.races().empty()) {
    R.fail("histogram: safe launch reported races", true);
    return;
  }
  RunReport Report = S.report();
  if (Report.Resilience.Degraded)
    R.fail("histogram: launch degraded", true);
  else if (Report.Records.Processed + Report.Resilience.RecordsDropped !=
           Report.Launch.RecordsLogged)
    R.fail("histogram: resilience ledger does not balance", true);
}

void measure(const Options &Opts, RelaunchSetup &S, Result &R) {
  // Every metric pools the run's launches. The run is also cut into
  // one-second windows, whose values are printed as context: this loop
  // is made of thread wake-ups, which host noise on a shared machine
  // stretches in bursts, and the windows show when that happened.
  std::vector<double> WinP50, WinP99, WinPerS, WinRecordsPerS, NativeS;
  std::vector<double> AllUs;
  double TotalRecords = 0, TotalLaunchS = 0, TotalLoopS = 0;
  uint64_t RunStart = nowNs();
  while (WinP50.empty() ||
         static_cast<double>(nowNs() - RunStart) * 1e-9 < Opts.Seconds) {
    std::vector<double> LaunchUs;
    uint64_t Records = 0;
    double LaunchS = 0, NativeTimeS = 0;
    uint64_t Start = nowNs(), End = Start;
    while (LaunchUs.size() < 100 ||
           static_cast<double>(End - Start) * 1e-9 - NativeTimeS < 1.0) {
      uint64_t T0 = nowNs();
      support::Result<sim::LaunchResult> Launched =
          S.Instrumented->launchKernel("histogram", Grid, Block, {S.Bins});
      injectDelay(Opts.InjectDelayUs);
      uint64_t T1 = nowNs();
      R.attempt();
      check(*S.Instrumented, Launched, R);
      if (Launched.ok())
        Records += Launched.value().RecordsLogged;
      LaunchUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
      LaunchS += static_cast<double>(T1 - T0) * 1e-9;
      if (LaunchUs.size() % NativeEvery == 0) {
        // Timed apart: the closed loop's clock stops around it.
        uint64_t N0 = nowNs();
        support::Result<sim::LaunchResult> Native =
            S.Native->launchKernel("histogram", Grid, Block, {S.NativeBins});
        uint64_t N1 = nowNs();
        R.attempt();
        if (!Native.ok())
          R.fail("histogram: native launch failed", true);
        NativeS.push_back(static_cast<double>(N1 - N0) * 1e-9);
        NativeTimeS += static_cast<double>(N1 - N0) * 1e-9;
      }
      End = nowNs();
    }
    Summary W = summarise(LaunchUs);
    WinP50.push_back(W.Median);
    WinP99.push_back(W.percentile(99));
    WinPerS.push_back(static_cast<double>(LaunchUs.size()) /
                      (static_cast<double>(End - Start) * 1e-9 - NativeTimeS));
    WinRecordsPerS.push_back(static_cast<double>(Records) / LaunchS);
    AllUs.insert(AllUs.end(), LaunchUs.begin(), LaunchUs.end());
    TotalRecords += static_cast<double>(Records);
    TotalLaunchS += LaunchS;
    TotalLoopS += static_cast<double>(End - Start) * 1e-9 - NativeTimeS;
    hostSpeed().keepUp();
  }
  Summary Launch = summarise(AllUs);
  double PerS = static_cast<double>(AllUs.size()) / TotalLoopS;
  R.summary("launch_us", "us", Launch);
  R.summary("native_s", "s", summarise(NativeS));
  R.note("launches", std::to_string(AllUs.size()));
  R.note("windowLaunchP50Us", jsonArray(WinP50));
  R.note("windowLaunchP99Us", jsonArray(WinP99));
  R.note("windowLaunchesPerS", jsonArray(WinPerS));
  R.note("windowRecordsPerS", jsonArray(WinRecordsPerS));
  R.metric("verdict_s", "s", Launch.Median * 1e-6);
  R.computeMetric("native_s", "s", medianOf(NativeS));
  R.metric("records_per_s", "1/s", TotalRecords / TotalLaunchS);
  R.metric("launches_per_s", "1/s", PerS);
  R.metric("launch_p50_us", "us", Launch.Median);
  R.metric("launch_p99_us", "us", Launch.percentile(99));
  R.metric("heavy_p50_ms", "ms", Launch.Median * 1e-3);
  R.metric("max_rate_per_s", "1/s", PerS);
}

/// The traced run: composed launches on one device (the module loaded
/// once), alternating with timed Session launches for the comparison.
void trace(const Options &Opts, RelaunchSetup &S, Result &R) {
  SpanRecorder Spans;
  LayerSamples L;
  runtime::Engine &Engine = S.Instrumented->engine();
  ComposedDevice Dev(Engine, Spans);
  uint32_t Load = Spans.open("load", SpanRecorder::NoParent);
  std::string Error = Dev.load(histogramSafePtx(), Load);
  Spans.close(Load);
  L.LoadRoots.push_back(Load);
  R.attempt();
  if (!Error.empty()) {
    R.fail("histogram: composed load failed: " + Error, true);
    return;
  }
  L.LoggedInsns.push_back(static_cast<double>(Dev.loggedInstructions()));
  {
    SessionOptions SO;
    SO.SharedEngine = &Engine;
    Session Fresh(SO);
    uint64_t T0 = nowNs();
    (void)Fresh.loadModule(histogramSafePtx());
    L.SessionLoadMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
  }
  uint64_t Bins = Dev.alloc(BinBytes);
  // The same composed path with spans off, for the tracing overhead.
  SpanRecorder Off(/*Enabled=*/false);
  ComposedDevice Plain(Engine, Off);
  (void)Plain.load(histogramSafePtx(), SpanRecorder::NoParent);
  uint64_t PlainBins = Plain.alloc(BinBytes);
  std::vector<double> TracedUs, PlainUs, SessionUs;
  ComposedLaunch C, PC;
  support::Result<sim::LaunchResult> Launched = sim::LaunchResult();
  RunReport Report;
  auto Traced = [&] {
    uint32_t Launch = Spans.open("launch", SpanRecorder::NoParent);
    C = Dev.launch("histogram", Grid, Block, {Bins}, Launch);
    Spans.close(Launch);
    L.UnitRoots.push_back(Launch);
    L.LaunchRoots.push_back(Launch);
    TracedUs.push_back(static_cast<double>(Spans.durationNs(Launch)) * 1e-3);
  };
  auto Untraced = [&] {
    uint64_t T0 = nowNs();
    PC = Plain.launch("histogram", Grid, Block, {PlainBins},
                      SpanRecorder::NoParent);
    PlainUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  };
  auto ViaSession = [&] {
    uint64_t T0 = nowNs();
    Launched = S.Instrumented->launchKernel("histogram", Grid, Block, {S.Bins});
    uint64_t T1 = nowNs();
    Report = S.Instrumented->report();
    uint64_t T2 = nowNs();
    std::string Json = Report.toJson();
    uint64_t T3 = nowNs();
    R.attempt();
    check(*S.Instrumented, Launched, R);
    SessionUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    L.SessionLaunchUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    L.ReportBuildUs.push_back(static_cast<double>(T2 - T1) * 1e-3);
    L.ReportJsonUs.push_back(static_cast<double>(T3 - T2) * 1e-3);
  };
  uint64_t Start = nowNs();
  for (unsigned Iter = 0;
       TracedUs.size() < 100 ||
       static_cast<double>(nowNs() - Start) * 1e-9 < Opts.Seconds;
       ++Iter) {
    // Rotate the order so no path always follows the same one.
    switch (Iter % 3) {
    case 0: Traced(); Untraced(); ViaSession(); break;
    case 1: Untraced(); ViaSession(); Traced(); break;
    default: ViaSession(); Traced(); Untraced(); break;
    }
    L.WarpInsns.push_back(static_cast<double>(C.WarpInstructions));
    L.Records.push_back(static_cast<double>(C.RecordsLogged));
    L.QueueFullSpins.push_back(static_cast<double>(C.QueueFullSpins));
    L.WatermarkWaitUs.push_back(static_cast<double>(C.WatermarkWaitNs) * 1e-3);
    uint64_t Records = Launched.ok() ? Launched.value().RecordsLogged : 0;
    R.attempt(2);
    if (!C.Ok || C.RacesShared + C.RacesGlobal != 0 || C.Degraded ||
        !C.LedgerBalanced || C.RecordsLogged != Records ||
        PC.RecordsLogged != Records)
      R.fail("histogram: traced path disagrees with Session (" +
                 std::to_string(C.RecordsLogged) + " vs " +
                 std::to_string(Records) + " records)",
             true);
    L.SyncRecords.push_back(static_cast<double>(Report.Records.Sync));
    double Markers = 0, Ticket = 0, Producer = 0;
    for (const auto &Shard : Report.Detector.Shards) {
      Markers += static_cast<double>(Shard.Markers);
      Ticket += static_cast<double>(Shard.TicketStalls);
      Producer += static_cast<double>(Shard.ProducerStalls);
    }
    L.ShardMarkers.push_back(Markers);
    L.TicketStalls.push_back(Ticket);
    L.ProducerStalls.push_back(Producer);
    L.ShadowBytes.push_back(
        static_cast<double>(Report.Detector.GlobalShadowBytes +
                            Report.Detector.SharedShadowBytes));
  }
  L.TracingOverheadPct =
      100.0 * (medianOf(TracedUs) / medianOf(PlainUs) - 1.0);
  R.summary("traced_launch_us", "us", summarise(TracedUs));
  R.summary("untraced_launch_us", "us", summarise(PlainUs));
  R.summary("session_launch_us", "us", summarise(SessionUs));
  emitLayerMetrics(Spans, L, R);
}

} // namespace

int runRelaunch(const Options &Opts, Result &R) {
  std::vector<double> SetupS;
  RelaunchSetup Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Setup = RelaunchSetup();
    uint64_t T0 = nowNs();
    Setup = setUp(R);
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    hostSpeed().keepUp();
  }
  if (Opts.Trace) {
    trace(Opts, Setup, R);
    return 0;
  }
  R.summary("setup_s", "s", summarise(SetupS));
  R.metric("setup_s", "s", medianOf(SetupS));
  measure(Opts, Setup, R);
  R.metric("peak_rss_mb", "MB", peakRssMb());
  return 0;
}

} // namespace perfbench
