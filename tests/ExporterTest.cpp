//===- ExporterTest.cpp - live exporter and continuous profiler ------------===//
//
// The telemetry layer's contract: Prometheus text exposition that obeys
// the name/label grammar and escaping rules, a sampler whose
// start/stop/double-stop are idempotent, an atomic-rename protocol that
// never leaves a torn document behind (every snapshot ends in "# EOF"),
// counters that stay monotone across Registry::reset(), snapshot reuse
// through Registry::snapshotInto(), and a profiler whose per-PC counts
// attribute the machine's dynamic instruction total deterministically.
//
//===----------------------------------------------------------------------===//

#include "barracuda/Session.h"
#include "obs/Exporter.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace barracuda;

namespace {

std::string tempDir(const char *Tag) {
  static int Counter = 0;
  return testing::TempDir() + "barracuda-exporter-" + Tag + "-" +
         std::to_string(++Counter);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Every non-comment line must be `name[{labels}] value` with the name
/// in the Prometheus grammar; the document must end with "# EOF".
void expectValidExposition(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line, Last;
  while (std::getline(In, Line)) {
    Last = Line;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t NameEnd = Line.find_first_of("{ ");
    ASSERT_NE(NameEnd, std::string::npos) << "bad line: " << Line;
    for (size_t I = 0; I != NameEnd; ++I) {
      char C = Line[I];
      bool Valid = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                   (C >= '0' && C <= '9') || C == '_' || C == ':';
      EXPECT_TRUE(Valid && !(I == 0 && C >= '0' && C <= '9'))
          << "bad metric name in: " << Line;
    }
    if (Line[NameEnd] == '{')
      EXPECT_NE(Line.find('}'), std::string::npos)
          << "unclosed labels: " << Line;
  }
  EXPECT_EQ(Last, "# EOF") << "document is not terminated";
}

TEST(Exporter, SanitizesMetricNames) {
  EXPECT_EQ(obs::Exporter::sanitizeMetricName("engine.records_drained"),
            "barracuda_engine_records_drained");
  EXPECT_EQ(obs::Exporter::sanitizeMetricName("detector.rule.atom.ns"),
            "barracuda_detector_rule_atom_ns");
  EXPECT_EQ(obs::Exporter::sanitizeMetricName("weird name-42%"),
            "barracuda_weird_name_42_");
}

TEST(Exporter, EscapesLabelValues) {
  EXPECT_EQ(obs::Exporter::escapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::Exporter::escapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::Exporter::escapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::Exporter::escapeLabelValue("a\nb"), "a\\nb");
}

TEST(Exporter, RendersRegistryAndLiveSources) {
  obs::Registry Registry;
  Registry.counter("engine.records_drained").add(41);
  Registry.histogram("engine.drain_batch").record(5);

  obs::ExporterOptions Options;
  Options.Dir = tempDir("render");
  obs::Exporter Exporter(Options);
  Exporter.addRegistry(&Registry);
  Exporter.addSource([](std::vector<obs::Exporter::Sample> &Out) {
    Out.push_back({"engine.live.queue_depth", "queue=\"0\"",
                   obs::MetricSample::Kind::Gauge, 7});
    Out.push_back({"engine.watermark_lag", "",
                   obs::MetricSample::Kind::Gauge, 3});
  });

  std::string Text = Exporter.renderExposition();
  expectValidExposition(Text);
  EXPECT_NE(Text.find("# TYPE barracuda_engine_records_drained counter"),
            std::string::npos);
  EXPECT_NE(Text.find("barracuda_engine_records_drained 41"),
            std::string::npos);
  EXPECT_NE(Text.find("barracuda_engine_drain_batch_count 1"),
            std::string::npos);
  EXPECT_NE(
      Text.find("barracuda_engine_live_queue_depth{queue=\"0\"} 7"),
      std::string::npos);
  EXPECT_NE(Text.find("barracuda_engine_watermark_lag 3"),
            std::string::npos);
  // The configured rate counter derives a gauge (zero on first scrape).
  EXPECT_NE(
      Text.find("barracuda_engine_records_drained_per_second"),
      std::string::npos);
}

TEST(Exporter, CountersStayMonotoneAcrossRegistryReset) {
  obs::Registry Registry;
  obs::Counter &C = Registry.counter("engine.records_drained");
  C.add(100);

  obs::ExporterOptions Options;
  Options.Dir = tempDir("monotone");
  obs::Exporter Exporter(Options);
  Exporter.addRegistry(&Registry);

  std::string First = Exporter.renderExposition();
  EXPECT_NE(First.find("barracuda_engine_records_drained 100"),
            std::string::npos);

  Registry.reset(); // per-launch zeroing must not rewind the scrape
  C.add(5);
  std::string Second = Exporter.renderExposition();
  EXPECT_NE(Second.find("barracuda_engine_records_drained 105"),
            std::string::npos);
}

TEST(Exporter, StartStopIdempotentAndLeavesTwoSnapshots) {
  obs::Registry Registry;
  Registry.counter("engine.leases").add(1);

  obs::ExporterOptions Options;
  Options.Dir = tempDir("lifecycle");
  Options.IntervalMs = 10000; // ticks never fire; start/stop write
  obs::Exporter Exporter(Options);
  Exporter.addRegistry(&Registry);

  ASSERT_TRUE(Exporter.start().ok());
  EXPECT_TRUE(Exporter.running());
  ASSERT_TRUE(Exporter.start().ok()) << "second start must be a no-op";
  EXPECT_EQ(Exporter.snapshotsWritten(), 1u);

  Exporter.stop();
  EXPECT_FALSE(Exporter.running());
  EXPECT_EQ(Exporter.snapshotsWritten(), 2u);
  Exporter.stop(); // double stop must be safe
  EXPECT_EQ(Exporter.snapshotsWritten(), 2u);

  // Both the numbered history and the stable latest file are complete
  // documents — the atomic rename never exposes a torn write.
  expectValidExposition(slurp(Options.Dir + "/metrics-000001.prom"));
  expectValidExposition(slurp(Options.Dir + "/metrics-000002.prom"));
  expectValidExposition(slurp(Options.Dir + "/barracuda.prom"));
}

TEST(Exporter, RetentionUnlinksOldSnapshots) {
  obs::Registry Registry;
  obs::ExporterOptions Options;
  Options.Dir = tempDir("retention");
  Options.KeepSnapshots = 2;
  obs::Exporter Exporter(Options);
  Exporter.addRegistry(&Registry);

  ASSERT_TRUE(Exporter.start().ok());
  for (int I = 0; I != 4; ++I)
    ASSERT_TRUE(Exporter.writeOnce().ok());
  Exporter.stop();

  // Only the two newest numbered snapshots survive.
  std::ifstream Gone(Options.Dir + "/metrics-000001.prom");
  EXPECT_FALSE(Gone.good());
  expectValidExposition(slurp(Options.Dir + "/barracuda.prom"));
}

TEST(Metrics, SnapshotIntoReusesBuffer) {
  obs::Registry Registry;
  Registry.counter("a").add(1);
  Registry.gauge("b").set(2);

  obs::Snapshot Buffer;
  Registry.snapshotInto(Buffer);
  ASSERT_EQ(Buffer.samples().size(), 2u);

  // No new instruments: the refill must not reallocate the sample
  // vector (the lock-free fast path reuses cached instrument indices).
  const obs::MetricSample *Data = Buffer.samples().data();
  Registry.counter("a").add(10);
  Registry.snapshotInto(Buffer);
  EXPECT_EQ(Buffer.samples().data(), Data);
  EXPECT_EQ(Buffer.samples()[0].Value, 11);

  // Growing the registry is picked up on the next snapshot.
  Registry.counter("c").add(7);
  Registry.snapshotInto(Buffer);
  EXPECT_EQ(Buffer.samples().size(), 3u);
}

//===----------------------------------------------------------------------===//
// Profiler determinism: per-PC counts must attribute the machine's own
// dynamic instruction totals, run after run.
//===----------------------------------------------------------------------===//

const char *ProfiledKernel = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry profiled(
    .param .u64 buf,
    .param .u32 n
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<7>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, %ctaid.x;
    mov.u32 %r4, %ntid.x;
    mad.lo.u32 %r5, %r3, %r4, %r2;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    cvt.u64.u32 %rd2, %r5;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
DONE:
    ret;
}
)";

TEST(Profiler, AttributesDynamicInstructionsExactly) {
  SessionOptions Options;
  Options.CollectStats = true;
  Session S(Options);
  ASSERT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
  uint64_t Buf = S.alloc(4096);
  support::Result<sim::LaunchResult> Result = S.launchKernel(
      "profiled", sim::Dim3(4), sim::Dim3(64), {Buf, 200});
  ASSERT_TRUE(Result.ok()) << Result.status().message();

  RunReport Report = S.report();
  ASSERT_TRUE(Report.Profile.Enabled);
  ASSERT_EQ(Report.Profile.Kernels.size(), 1u);
  const obs::KernelProfile &Profile = Report.Profile.Kernels.front();
  EXPECT_EQ(Profile.Kernel, "profiled");

  // Every dynamic warp instruction the machine counted carries a pc, so
  // attribution is exact (and trivially >= the 95% acceptance bar).
  EXPECT_EQ(Profile.TotalDynamic, Result.value().WarpInstructions);
  EXPECT_EQ(Profile.totalAttributed(), Result.value().WarpInstructions);
  EXPECT_DOUBLE_EQ(Report.Profile.attributedFraction(), 1.0);

  // The guarded store ran with live lanes -> memory ops recorded; the
  // @%p1 branch split warps beyond the round block count -> divergence.
  uint64_t MemOps = 0, Divergences = 0;
  for (uint64_t Count : Profile.MemoryOps)
    MemOps += Count;
  for (uint64_t Count : Profile.Divergences)
    Divergences += Count;
  EXPECT_GT(MemOps, 0u);
  EXPECT_GT(Divergences, 0u);

  // Determinism: an identical launch reproduces identical counters
  // (the report resets the profiler per launch).
  support::Result<sim::LaunchResult> Again = S.launchKernel(
      "profiled", sim::Dim3(4), sim::Dim3(64), {Buf, 200});
  ASSERT_TRUE(Again.ok()) << Again.status().message();
  RunReport Second = S.report();
  ASSERT_EQ(Second.Profile.Kernels.size(), 1u);
  EXPECT_EQ(Second.Profile.Kernels.front().Executed, Profile.Executed);
  EXPECT_EQ(Second.Profile.Kernels.front().MemoryOps, Profile.MemoryOps);
}

TEST(Profiler, FoldedStacksCoverEveryExecutedPc) {
  SessionOptions Options;
  Session S(Options);
  ASSERT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
  uint64_t Buf = S.alloc(4096);
  ASSERT_TRUE(S.launchKernel("profiled", sim::Dim3(2), sim::Dim3(32),
                             {Buf, 64})
                  .ok());

  RunReport Report = S.report();
  std::string Folded = Report.foldedStacks();
  ASSERT_FALSE(Folded.empty());

  // One "kernel;frame count" line per executed pc, counts summing to
  // the attributed total.
  uint64_t Sum = 0;
  size_t LineCount = 0;
  std::istringstream In(Folded);
  std::string Line;
  while (std::getline(In, Line)) {
    ASSERT_EQ(Line.rfind("profiled;pc_", 0), 0u) << Line;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos);
    Sum += std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
    ++LineCount;
  }
  const obs::KernelProfile &Profile = Report.Profile.Kernels.front();
  size_t ExecutedPcs = 0;
  for (uint64_t Count : Profile.Executed)
    ExecutedPcs += Count != 0;
  EXPECT_EQ(LineCount, ExecutedPcs);
  EXPECT_EQ(Sum, Profile.totalAttributed());
}

TEST(Profiler, FoldedStacksIdenticalUnderLowering) {
  // The micro-op path keeps uop indices == original PTX PCs (checked by
  // LowerCoverage.IdentityPcMapAndFusion), so hot-PC attribution joins
  // the line table unchanged: attribution stays near-complete, and the
  // folded flamegraph output is byte-identical from run to run.
  auto RunFolded = [](double &Fraction) {
    Session S;
    EXPECT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
    uint64_t Buf = S.alloc(4096);
    EXPECT_TRUE(S.launchKernel("profiled", sim::Dim3(4), sim::Dim3(64),
                               {Buf, 200})
                    .ok());
    RunReport Report = S.report();
    EXPECT_TRUE(Report.Launch.SimLowered);
    Fraction = Report.Profile.attributedFraction();
    return Report.foldedStacks();
  };
  double First = 0.0, Second = 0.0;
  std::string FirstFolded = RunFolded(First);
  std::string SecondFolded = RunFolded(Second);
  EXPECT_FALSE(FirstFolded.empty());
  EXPECT_EQ(FirstFolded, SecondFolded);
  EXPECT_GE(First, 0.95);
  EXPECT_DOUBLE_EQ(First, Second);
}

TEST(Profiler, DetachedSessionsCarryNoProfile) {
  SessionOptions Options;
  Options.Profile = false;
  Session S(Options);
  ASSERT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
  uint64_t Buf = S.alloc(4096);
  ASSERT_TRUE(S.launchKernel("profiled", sim::Dim3(2), sim::Dim3(32),
                             {Buf, 64})
                  .ok());
  RunReport Report = S.report();
  EXPECT_FALSE(Report.Profile.Enabled);
  EXPECT_TRUE(Report.Profile.Kernels.empty());
  EXPECT_TRUE(Report.foldedStacks().empty());
}

TEST(Profiler, RuleLatencySectionNamesKinds) {
  SessionOptions Options;
  Session S(Options);
  ASSERT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
  uint64_t Buf = S.alloc(4096);
  ASSERT_TRUE(S.launchKernel("profiled", sim::Dim3(4), sim::Dim3(64),
                             {Buf, 256})
                  .ok());
  RunReport Report = S.report();
  ASSERT_TRUE(Report.Profile.Enabled);
  ASSERT_FALSE(Report.Profile.Rules.empty());
  bool SawWrite = false;
  for (const auto &Rule : Report.Profile.Rules) {
    EXPECT_GT(Rule.Records, 0u);
    SawWrite |= Rule.Kind == "write";
  }
  EXPECT_TRUE(SawWrite);
}

TEST(Session, ExporterWritesLiveSnapshots) {
  SessionOptions Options;
  Options.MetricsOutDir = tempDir("session");
  Options.MetricsIntervalMs = 5;
  Session S(Options);
  ASSERT_TRUE(S.loadModule(ProfiledKernel)) << S.error();
  uint64_t Buf = S.alloc(4096);
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(S.launchKernel("profiled", sim::Dim3(4), sim::Dim3(64),
                               {Buf, 200})
                    .ok());
  obs::Exporter *Exporter = S.exporter();
  ASSERT_NE(Exporter, nullptr);
  EXPECT_TRUE(Exporter->running());
  Exporter->stop();
  EXPECT_GE(Exporter->snapshotsWritten(), 2u);

  std::string Text = slurp(Options.MetricsOutDir + "/barracuda.prom");
  expectValidExposition(Text);
  EXPECT_NE(Text.find("barracuda_engine_live_queue_depth{queue=\"0\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("barracuda_engine_watermark_lag"),
            std::string::npos);
  EXPECT_NE(Text.find("barracuda_engine_leases_in_flight"),
            std::string::npos);
  EXPECT_NE(Text.find("barracuda_profile_hottest_pc_executed"),
            std::string::npos);
}

} // namespace
