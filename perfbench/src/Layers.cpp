//===- Layers.cpp - per-layer metrics of a traced run ---------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

double medianOf(const std::vector<double> &V) {
  return V.empty() ? 0.0 : summarise(V).Median;
}

namespace {

/// Per-root self time of span \p Name, in \p Scale units per ns.
std::vector<double>
perRoot(const std::vector<std::map<std::string, uint64_t>> &Self,
        const std::string &Name, double Scale) {
  std::vector<double> Out;
  for (const auto &Root : Self) {
    auto It = Root.find(Name);
    Out.push_back(It == Root.end() ? 0.0
                                   : static_cast<double>(It->second) * Scale);
  }
  return Out;
}

} // namespace

void emitLayerMetrics(const SpanRecorder &Spans, const LayerSamples &L,
                      Result &R) {
  auto Loads = Spans.selfTimesPerRoot(L.LoadRoots);
  auto Units = Spans.selfTimesPerRoot(L.UnitRoots);
  auto Launches = Spans.selfTimesPerRoot(L.LaunchRoots);
  const double Ms = 1e-6, Us = 1e-3, S = 1e-9;

  std::vector<double> SimSelfS = perRoot(Units, "sim.launch", S);
  std::vector<double> InsnsPerS;
  for (size_t I = 0; I != SimSelfS.size() && I != L.WarpInsns.size(); ++I)
    if (SimSelfS[I] > 0)
      InsnsPerS.push_back(L.WarpInsns[I] / SimSelfS[I]);

  auto M = [&R](const char *Name, const char *Unit,
                const std::vector<double> &V) {
    R.metric(Name, Unit, medianOf(V));
    if (!V.empty())
      R.summary(Name, Unit, summarise(V));
  };
  M("ptx.parse_ms", "ms", perRoot(Loads, "ptx.parse", Ms));
  M("ptx.verify_ms", "ms", perRoot(Loads, "ptx.verify", Ms));
  M("instrument.ms", "ms", perRoot(Loads, "instrument", Ms));
  M("instrument.logged_insns", "count", L.LoggedInsns);
  M("sim.lower_ms", "ms", perRoot(Units, "sim.lower", Ms));
  M("sim.self_s", "s", SimSelfS);
  M("sim.self_us", "us", perRoot(Launches, "sim.launch", Us));
  M("sim.warp_insns", "count", L.WarpInsns);
  M("sim.warp_insns_per_s", "1/s", InsnsPerS);
  M("trace.enqueue_s", "s", perRoot(Units, "trace.enqueue", S));
  M("trace.records", "count", L.Records);
  M("trace.queue_full_spins", "count", L.QueueFullSpins);
  M("detector.state_build_us", "us",
    perRoot(Launches, "detector.state_build", Us));
  M("detector.drain_s", "s", perRoot(Units, "runtime.finish", S));
  M("detector.sync_records", "count", L.SyncRecords);
  M("detector.shard_markers", "count", L.ShardMarkers);
  M("detector.ticket_stalls", "count", L.TicketStalls);
  M("detector.producer_stalls", "count", L.ProducerStalls);
  M("detector.shadow_bytes", "bytes", L.ShadowBytes);
  M("runtime.begin_us", "us", perRoot(Launches, "runtime.begin", Us));
  M("runtime.finish_us", "us", perRoot(Launches, "runtime.finish", Us));
  M("runtime.watermark_wait_us", "us", L.WatermarkWaitUs);
  M("report.compose_us", "us", perRoot(Launches, "report", Us));
  M("session.load_ms", "ms", L.SessionLoadMs);
  M("session.launch_us", "us", L.SessionLaunchUs);
  M("report.build_us", "us", L.ReportBuildUs);
  M("report.json_us", "us", L.ReportJsonUs);
  M("launch.unattributed_us", "us", perRoot(Launches, "launch", Us));
  M("serve.rtt_small_us", "us", L.RttSmallUs);
  M("serve.rtt_heavy_ms", "ms", L.RttHeavyMs);
  M("serve.codec_us", "us", L.CodecUs);
  R.metric("serve.self_us", "us", L.ServeSelfUs);
  R.metric("serve.overloaded", "count", L.Overloaded);
  R.metric("tracing.overhead_pct", "%", L.TracingOverheadPct);

  // The self-time table: every span name over the whole run, and its
  // share of the traced launches' wall time.
  uint64_t LaunchWall = 0;
  for (uint32_t Id : L.LaunchRoots)
    LaunchWall += Spans.durationNs(Id);
  R.text("per-layer self time over the traced run (spans recorded by the "
         "benchmark around each library call):");
  char Line[160];
  std::snprintf(Line, sizeof(Line), "  %-24s %10s %14s %9s", "span", "spans",
                "self ms", "% launch");
  R.text(Line);
  for (const auto &[Name, Time] : Spans.selfTimes()) {
    std::snprintf(Line, sizeof(Line), "  %-24s %10llu %14.3f %8.2f%%",
                  Name.c_str(), static_cast<unsigned long long>(Time.Spans),
                  static_cast<double>(Time.SelfNs) * 1e-6,
                  LaunchWall ? 100.0 * static_cast<double>(Time.SelfNs) /
                                   static_cast<double>(LaunchWall)
                             : 0.0);
    R.text(Line);
  }
  R.text("  ('launch' self time is the unattributed remainder of each "
         "launch's wall time)");
}

} // namespace perfbench
