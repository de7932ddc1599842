//===- detector_hotpath.cpp - detector hot-path throughput ----------------===//
//
// Measures QueueProcessor memory-record throughput on the coalesced
// memory path (same-epoch fast paths, warp-coalesced shadow runs,
// granule locking, broadcast). Synthetic record streams go straight into
// one QueueProcessor, so the numbers isolate the detector from the
// simulator and queue transport. Each scenario's race keys must equal
// baseline::ReferenceDetector's on the same stream; the oracle runs
// outside the timed region. The scenarios:
//
//   coalesced-global : full-warp 4-byte accesses at consecutive
//                      addresses (the CUDA common case) over per-warp
//                      disjoint global buffers — runs coalesce, granule
//                      locks amortize, broadcasts fire.
//   strided-global   : 128-byte lane stride — every lane is its own
//                      run; measures fast-path overhead when coalescing
//                      never applies.
//   conflicting-atom : every lane hits the same 4-byte counter with an
//                      atomic — maximal contention on one granule,
//                      no coalescing, no races (atomics don't race).
//   coalesced-shared : the coalesced pattern against block-shared
//                      memory (no spinlocks).
//
// Environment:
//   BARRACUDA_HOTPATH_RECORDS  records per scenario (default 20000)
//   BARRACUDA_BENCH_SMOKE=1    few records, invariant checks only
//
//===----------------------------------------------------------------------===//

#include "baseline/Reference.h"
#include "detector/Detector.h"
#include "obs/Exporter.h"
#include "trace/Record.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <vector>

using namespace barracuda;
using namespace barracuda::detector;
using trace::LogRecord;
using trace::MemSpace;
using trace::RecordOp;
using trace::WarpSize;

namespace {

constexpr uint32_t WarpsPerBlock = 2;
constexpr uint32_t NumWarps = 4; // two blocks of two warps
constexpr uint64_t GlobalBase = 0x10000;
constexpr uint64_t WarpRegion = 1 << 16; // one shadow page per warp

sim::ThreadHierarchy hierarchy() {
  sim::ThreadHierarchy Hier;
  Hier.ThreadsPerBlock = WarpsPerBlock * WarpSize;
  Hier.WarpsPerBlock = WarpsPerBlock;
  return Hier;
}

struct Scenario {
  const char *Name;
  std::vector<LogRecord> Records;
  bool ExpectCoalesced = false;
};

LogRecord memRecord(RecordOp Op, uint32_t Warp, MemSpace Space,
                    uint16_t Size, uint64_t Base, uint64_t LaneStride) {
  LogRecord Record = trace::makeMemRecord(Op, Warp, /*Pc=*/1, Space, Size,
                                          /*ActiveMask=*/~0u);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
    Record.Addr[Lane] = Base + Lane * LaneStride;
  return Record;
}

/// Full-warp 4-byte accesses sweeping per-warp disjoint buffers;
/// alternates writes and reads like a compute kernel's load/store pairs.
Scenario coalesced(unsigned Count, MemSpace Space) {
  Scenario S;
  S.Name = Space == MemSpace::Global ? "coalesced-global"
                                     : "coalesced-shared";
  S.ExpectCoalesced = true;
  uint64_t Region = Space == MemSpace::Global ? WarpRegion : 4096;
  uint64_t Sweep = Region / (WarpSize * 4);
  for (unsigned I = 0; I != Count; ++I) {
    uint32_t Warp = I % NumWarps;
    uint64_t Base = (Space == MemSpace::Global ? GlobalBase : 0) +
                    Warp * Region + (I / NumWarps % Sweep) * WarpSize * 4;
    RecordOp Op = (I / NumWarps) % 2 ? RecordOp::Read : RecordOp::Write;
    S.Records.push_back(memRecord(Op, Warp, Space, 4, Base, 4));
  }
  return S;
}

/// 128-byte lane stride: no two lanes are contiguous, so every lane is
/// a singleton run and several shadow pages are live at once.
Scenario strided(unsigned Count) {
  Scenario S;
  S.Name = "strided-global";
  for (unsigned I = 0; I != Count; ++I) {
    uint32_t Warp = I % NumWarps;
    uint64_t Base = GlobalBase + Warp * (WarpRegion * 2) + (I % 16) * 4;
    S.Records.push_back(
        memRecord(RecordOp::Write, Warp, MemSpace::Global, 4, Base, 128));
  }
  return S;
}

/// Every lane of every warp atomically bumps the same counter.
Scenario conflicting(unsigned Count) {
  Scenario S;
  S.Name = "conflicting-atom";
  for (unsigned I = 0; I != Count; ++I)
    S.Records.push_back(memRecord(RecordOp::Atom, I % NumWarps,
                                  MemSpace::Global, 4, GlobalBase, 0));
  return S;
}

using RaceKey =
    std::tuple<uint32_t, AccessKind, AccessKind, MemSpace, RaceScopeKind,
               uint64_t>;

std::vector<RaceKey> keysOf(const RaceReporter &Reporter) {
  std::vector<RaceKey> Keys;
  for (const RaceReport &Race : Reporter.races())
    Keys.emplace_back(Race.Pc, Race.Current, Race.Previous, Race.Space,
                      Race.Scope, Race.Count);
  return Keys;
}

struct RunResult {
  double Seconds = 0;
  std::vector<RaceKey> Keys;
  HotPathStats Stats;
};

RunResult runScenario(const Scenario &S, bool CollectStats = true,
                      bool ProfileRules = false,
                      const char *MetricsDir = nullptr) {
  DetectorOptions Opts;
  Opts.Hier = hierarchy();
  Opts.CollectStats = CollectStats;
  Opts.ProfileRules = ProfileRules;
  SharedDetectorState State(Opts);
  QueueProcessor Processor(State);

  // Full observability load: a live exporter scraping the detector's
  // registry as fast as it can while records are processed.
  obs::Exporter *Exporter = nullptr;
  obs::Exporter ExporterStorage([&] {
    obs::ExporterOptions ExpOpts;
    ExpOpts.Dir = MetricsDir ? MetricsDir : ".";
    ExpOpts.IntervalMs = 50; // the acceptance test's live-scrape rate
    return ExpOpts;
  }());
  if (MetricsDir) {
    ExporterStorage.addRegistry(&State.metrics());
    if (ExporterStorage.start().ok())
      Exporter = &ExporterStorage;
  }

  auto Start = std::chrono::steady_clock::now();
  for (const LogRecord &Record : S.Records)
    Processor.process(Record);
  RunResult Result;
  Result.Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  Processor.finish();
  if (Exporter)
    Exporter->stop();
  Result.Keys = keysOf(State.Reporter);
  Result.Stats = State.hotPathStats();
  return Result;
}

void fail(const char *Scenario, const char *What) {
  std::fprintf(stderr, "FAIL [%s]: %s\n", Scenario, What);
  std::exit(1);
}

} // namespace

int main() {
  bool Smoke = false;
  if (const char *Env = std::getenv("BARRACUDA_BENCH_SMOKE"))
    Smoke = *Env && std::strcmp(Env, "0") != 0;
  unsigned Count = Smoke ? 400 : 20000;
  if (const char *Env = std::getenv("BARRACUDA_HOTPATH_RECORDS"))
    Count = static_cast<unsigned>(std::strtoul(Env, nullptr, 10));

  std::printf("Detector hot-path throughput: %u warp records/scenario "
              "(32 lanes x 4 bytes each)%s\n\n",
              Count, Smoke ? " [smoke]" : "");

  Scenario Scenarios[] = {
      coalesced(Count, MemSpace::Global),
      strided(Count),
      conflicting(Count),
      coalesced(Count, MemSpace::Shared),
  };

  std::printf("%-17s %14s   hot-path counters\n", "scenario", "rec/s");
  for (const Scenario &S : Scenarios) {
    baseline::ReferenceDetector Reference{hierarchy()};
    Reference.processAll(S.Records);
    if (!Smoke) // warm allocator and shadow pages
      runScenario(S);
    RunResult Hot = runScenario(S);

    if (Hot.Keys != keysOf(Reference.reporter()))
      fail(S.Name, "race keys differ from the reference detector");
    if (S.ExpectCoalesced &&
        (Hot.Stats.RunsCoalesced == 0 || Hot.Stats.FastPathHits == 0))
      fail(S.Name, "expected coalesced runs and fast-path hits");
    if (!S.ExpectCoalesced && Hot.Stats.RunsCoalesced != 0)
      fail(S.Name, "unexpected coalesced runs");

    std::printf("%-17s %14.0f   fast %llu, runs %llu, page %llu/%llu\n",
                S.Name, Count / Hot.Seconds,
                static_cast<unsigned long long>(Hot.Stats.FastPathHits),
                static_cast<unsigned long long>(Hot.Stats.RunsCoalesced),
                static_cast<unsigned long long>(Hot.Stats.PageCacheHits),
                static_cast<unsigned long long>(
                    Hot.Stats.PageCacheMisses));
  }

  std::printf("\nrec/s = warp records per second; every scenario's race "
              "keys match baseline::ReferenceDetector.\n");

  // Metrics overhead: the observability layer's promise is that stats
  // collection stays off the per-record path (processors tally plain
  // local counters; the registry is touched once per queue at finish).
  // Compare the hot path with CollectStats on vs off, best-of-3 each to
  // damp scheduler noise. Smoke mode enforces the bound.
  {
    unsigned OverheadCount = Count < 20000 ? 20000 : Count;
    Scenario S = coalesced(OverheadCount, MemSpace::Global);
    auto best = [&](bool CollectStats) {
      double Best = 1e9;
      for (int Rep = 0; Rep != 3; ++Rep) {
        double Seconds = runScenario(S, CollectStats).Seconds;
        if (Seconds < Best)
          Best = Seconds;
      }
      return Best;
    };
    best(true); // warm allocator and shadow pages
    double On = best(true);
    double Off = best(false);
    double OverheadPct = 100.0 * (Off > 0 ? On / Off - 1.0 : 0.0);
    std::printf("\nmetrics overhead (coalesced-global, %u records, "
                "best of 3): stats-on %.0f rec/s, stats-off %.0f rec/s "
                "(%+.1f%%)\n",
                OverheadCount, OverheadCount / On, OverheadCount / Off,
                OverheadPct);
    // Generous bound: the real overhead is ~0, the margin absorbs CI
    // timer noise.
    if (Smoke && OverheadPct > 30.0)
      fail("metrics-overhead",
           "stats collection slowed the hot path by more than 30%");
  }

  // Profiling overhead: rule attribution adds one branch and one plain
  // counter per record (a clock read only on every 64th of a kind), and
  // the live exporter samples from its own thread — the target is <= 3%
  // over the detached run. Best-of-5 each; smoke mode enforces a
  // noise-padded bound.
  {
    unsigned OverheadCount = Count < 20000 ? 20000 : Count;
    Scenario S = coalesced(OverheadCount, MemSpace::Global);
    char Dir[] = "/tmp/barracuda-hotpath-metrics-XXXXXX";
    const char *MetricsDir = ::mkdtemp(Dir);
    auto best = [&](bool Profiled) {
      double Best = 1e9;
      for (int Rep = 0; Rep != 5; ++Rep) {
        double Seconds =
            runScenario(S, true, Profiled, Profiled ? MetricsDir : nullptr)
                .Seconds;
        if (Seconds < Best)
          Best = Seconds;
      }
      return Best;
    };
    best(false); // warm allocator and shadow pages
    double Off = best(false);
    double On = best(true);
    double OverheadPct = 100.0 * (Off > 0 ? On / Off - 1.0 : 0.0);
    std::printf("\nprofiling overhead (coalesced-global, %u records, "
                "rule attribution + live exporter, best of 5): "
                "on %.0f rec/s, off %.0f rec/s (%+.1f%%)\n",
                OverheadCount, OverheadCount / On, OverheadCount / Off,
                OverheadPct);
    // The 3% target holds on quiet machines; the smoke bound pads it
    // for CI timer noise the same way the metrics bound does.
    if (Smoke && OverheadPct > 25.0)
      fail("profiling-overhead",
           "rule profiling + exporter slowed the hot path by more "
           "than 25%");
  }
  return 0;
}
