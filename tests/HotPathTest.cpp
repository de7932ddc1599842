//===- HotPathTest.cpp - detector hot-path equivalence and counters --------===//
//
// The coalesced hot path (same-epoch fast paths, run coalescing, granule
// locking, broadcast) must be an exact replay of the per-byte rules:
// identical race reports — including dynamic occurrence counts — and
// identical barrier verdicts. These tests drive seeded random record
// streams (coalesced, strided, conflicting and overlapping access mixes,
// all sizes, If/Else/Fi divergence, barriers and sync edges) through the
// production detector — single-table and address-sharded, at one and
// two queues — and through the uncompressed
// baseline::ReferenceDetector, and require them all to agree. Separate
// tests pin down the counters: coalesced streams must light up the fast
// paths, conflicting ones must leave them untouched.
//
//===----------------------------------------------------------------------===//

#include "baseline/Reference.h"
#include "detector/Detector.h"
#include "detector/Host.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

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
constexpr uint32_t NumWarps = 4; // two blocks

sim::ThreadHierarchy hierarchy() {
  sim::ThreadHierarchy Hier;
  Hier.ThreadsPerBlock = WarpsPerBlock * WarpSize;
  Hier.WarpsPerBlock = WarpsPerBlock;
  return Hier;
}

/// A seeded stream of warp records: memory accesses in coalesced,
/// strided, conflicting and overlapping patterns, with occasional
/// barriers, release/acquire edges and divergence bundles. Partial
/// active masks only ever arise the way the simulator produces them —
/// inside If/Else/Fi reconvergence bundles — because both detectors
/// model divergence through the reconvergence stack; a bare record
/// with a sub-warp mask is not a trace either machine can emit.
struct RandomStream {
  std::vector<LogRecord> Records;
  std::vector<uint32_t> BlockIds;
  uint32_t Ticket = 0;

  explicit RandomStream(uint64_t Seed, unsigned Length) {
    support::Rng Rng(Seed);
    for (unsigned I = 0; I != Length; ++I) {
      if (Rng.chance(6, 100)) {
        barrier(Rng);
        continue;
      }
      if (Rng.chance(8, 100)) {
        sync(Rng, warpOf(Rng), ~0u);
        continue;
      }
      if (Rng.chance(3, 20)) {
        divergence(Rng, warpOf(Rng), ~0u, /*Depth=*/2);
        continue;
      }
      memory(Rng, warpOf(Rng), ~0u);
    }
  }

  void push(const LogRecord &Record) {
    Records.push_back(Record);
    BlockIds.push_back(Record.Warp / WarpsPerBlock);
  }

  uint32_t warpOf(support::Rng &Rng) {
    return static_cast<uint32_t>(Rng.nextBelow(NumWarps));
  }

  /// A random nonzero proper subset of Mask (Mask needs >= 2 set bits).
  uint32_t splitMask(support::Rng &Rng, uint32_t Mask) {
    uint32_t Then;
    do
      Then = Mask & static_cast<uint32_t>(Rng.next());
    while (Then == 0 || Then == Mask);
    return Then;
  }

  /// An If/Else/Fi bundle shaped exactly like the simulator's: the If
  /// record carries the first path's mask with the suspended path's
  /// mask in the else slot, each path runs a few records (possibly
  /// nesting another bundle), and Fi restores the pre-branch mask.
  void divergence(support::Rng &Rng, uint32_t Warp, uint32_t Mask,
                  unsigned Depth) {
    uint32_t Then = splitMask(Rng, Mask);
    uint32_t Else = Mask & ~Then;
    LogRecord If = trace::makeControlRecord(RecordOp::If, Warp, 30, Then);
    If.setElseMask(Else);
    push(If);
    path(Rng, Warp, Then, Depth);
    push(trace::makeControlRecord(RecordOp::Else, Warp, 31, Else));
    path(Rng, Warp, Else, Depth);
    push(trace::makeControlRecord(RecordOp::Fi, Warp, 32, Mask));
  }

  void path(support::Rng &Rng, uint32_t Warp, uint32_t Mask,
            unsigned Depth) {
    unsigned Steps = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned I = 0; I != Steps; ++I) {
      // (Mask & (Mask - 1)) != 0 <=> at least two lanes to split.
      if (Depth > 1 && (Mask & (Mask - 1)) && Rng.chance(1, 4)) {
        divergence(Rng, Warp, Mask, Depth - 1);
        continue;
      }
      if (Rng.chance(1, 8)) {
        sync(Rng, Warp, Mask);
        continue;
      }
      memory(Rng, Warp, Mask);
    }
  }

  void memory(support::Rng &Rng, uint32_t Warp, uint32_t Mask) {
    static const RecordOp Ops[] = {RecordOp::Read, RecordOp::Write,
                                   RecordOp::Write, RecordOp::Atom};
    static const uint16_t Sizes[] = {1, 2, 4, 8};
    RecordOp Op = Ops[Rng.nextBelow(4)];
    uint16_t Size = Sizes[Rng.nextBelow(4)];
    bool Shared = Rng.chance(1, 4);
    MemSpace Space = Shared ? MemSpace::Shared : MemSpace::Global;

    // Overlap-heavy small arena most of the time; occasionally a far
    // page so the page cache sees churn. Odd bases exercise granule and
    // page splits.
    uint64_t Base;
    if (Shared)
      Base = Rng.nextBelow(256);
    else if (Rng.chance(3, 20))
      Base = 0x100000 + Rng.nextBelow(4) * 0x10000 + Rng.nextBelow(512);
    else
      Base = 0x1000 + Rng.nextBelow(512);

    // Lane address pattern: coalesced, conflicting, strided, or sparse.
    uint64_t Stride;
    switch (Rng.nextBelow(4)) {
    case 0:
      Stride = Size; // coalesced
      break;
    case 1:
      Stride = 0; // conflicting
      break;
    case 2:
      Stride = Size * 2; // gappy
      break;
    default:
      Stride = 128; // one lane per granule-neighbourhood
      break;
    }

    LogRecord Record = trace::makeMemRecord(Op, Warp, 1 + Rng.nextBelow(8),
                                            Space, Size, Mask);
    for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
      Record.Addr[Lane] = Base + Lane * Stride;
    push(Record);
  }

  void barrier(support::Rng &Rng) {
    // All resident warps of one block arrive back to back.
    uint32_t Block = static_cast<uint32_t>(Rng.nextBelow(2));
    for (uint32_t W = 0; W != WarpsPerBlock; ++W)
      push(trace::makeControlRecord(RecordOp::Bar, Block * WarpsPerBlock + W,
                                    9, ~0u));
  }

  void sync(support::Rng &Rng, uint32_t Warp, uint32_t Mask) {
    static const RecordOp Ops[] = {RecordOp::Acq, RecordOp::Rel,
                                   RecordOp::AcqRel};
    LogRecord Record = trace::makeMemRecord(Ops[Rng.nextBelow(3)], Warp, 20,
                                            MemSpace::Global, 4, Mask);
    Record.setScope(Rng.chance(1, 2) ? trace::SyncScope::Global
                                    : trace::SyncScope::Block);
    uint64_t Addr = 0x8000 + Rng.nextBelow(4) * 8;
    for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
      Record.Addr[Lane] = Addr;
    Record.SyncSeq = ++Ticket;
    push(Record);
  }
};

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

class HotPathDifferential : public ::testing::TestWithParam<uint64_t> {};

// The test name predates the sharded arm; it is kept so the 60 test IDs
// stay stable. The reference detector is the oracle for every arm.
TEST_P(HotPathDifferential, MatchesReferenceAndLegacy) {
  RandomStream Stream(GetParam(), 300);

  baseline::ReferenceDetector Reference{hierarchy()};
  Reference.processAll(Stream.Records);
  std::vector<RaceKey> Expected = keysOf(Reference.reporter());

  for (unsigned Shards : {1u, 3u}) {
    for (unsigned NumQueues : {1u, 2u}) {
      DetectorOptions Options;
      Options.Hier = hierarchy();
      Options.ShadowShards = Shards;
      Options.NumQueues = NumQueues;
      SharedDetectorState State(Options);
      processCollected(State, NumQueues, Stream.BlockIds, Stream.Records);

      EXPECT_EQ(keysOf(State.Reporter), Expected)
          << "seed " << GetParam() << ", " << Shards << " shards, "
          << NumQueues << " queues";
      EXPECT_EQ(State.Reporter.barrierErrors().size(),
                Reference.reporter().barrierErrors().size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, HotPathDifferential,
                         ::testing::Range<uint64_t>(1, 61));

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

LogRecord fullWarpRecord(RecordOp Op, uint64_t Base, uint64_t Stride) {
  LogRecord Record =
      trace::makeMemRecord(Op, 0, 1, MemSpace::Global, 4, ~0u);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
    Record.Addr[Lane] = Base + Lane * Stride;
  return Record;
}

HotPathStats statsFor(const std::vector<LogRecord> &Records) {
  DetectorOptions Options;
  Options.Hier = hierarchy();
  SharedDetectorState State(Options);
  QueueProcessor Processor(State);
  for (const LogRecord &Record : Records)
    Processor.process(Record);
  Processor.finish();
  return State.hotPathStats();
}

TEST(HotPathCounters, CoalescedStreamFiresFastPaths) {
  // A full-warp coalesced 4-byte write: one 128-byte run; 96 of the 128
  // bytes are broadcast copies of their lane's leader byte.
  HotPathStats Stats =
      statsFor({fullWarpRecord(RecordOp::Write, 0x1000, 4),
                fullWarpRecord(RecordOp::Read, 0x1000, 4)});
  EXPECT_GT(Stats.RunsCoalesced, 0u);
  EXPECT_GT(Stats.FastPathHits, 0u);
  EXPECT_GT(Stats.PageCacheHits, 0u);
}

TEST(HotPathCounters, ConflictingStreamStaysCold) {
  // Every lane writes the same address: singleton runs only — no
  // coalescing, no broadcasts, even though the addresses repeat.
  HotPathStats Stats =
      statsFor({fullWarpRecord(RecordOp::Write, 0x1000, 0),
                fullWarpRecord(RecordOp::Write, 0x1000, 0)});
  EXPECT_EQ(Stats.RunsCoalesced, 0u);
  EXPECT_EQ(Stats.FastPathHits, 0u);
}

//===----------------------------------------------------------------------===//
// Page-boundary straddling runs (the page is the sharding unit, so
// these are exactly the runs the sharded detector must split into
// per-shard pieces)
//===----------------------------------------------------------------------===//

std::vector<uint32_t> blockIdsOf(const std::vector<LogRecord> &Records) {
  std::vector<uint32_t> Ids;
  for (const LogRecord &Record : Records)
    Ids.push_back(Record.Warp / WarpsPerBlock);
  return Ids;
}

std::vector<RaceKey> shardedKeys(const std::vector<LogRecord> &Records,
                                 unsigned Shards) {
  DetectorOptions Options;
  Options.Hier = hierarchy();
  Options.ShadowShards = Shards;
  Options.NumQueues = 1;
  SharedDetectorState State(Options);
  processCollected(State, 1, blockIdsOf(Records), Records);
  return keysOf(State.Reporter);
}

TEST(PageBoundary, StraddlingRunSplitsAcrossShards) {
  // 32 lanes x 4 coalesced bytes starting 64 bytes below a page
  // boundary: the run covers [P-64, P+64), so its first and last byte
  // land on different pages — and, at any shard count > 1 where the
  // pages map differently, in different shards.
  constexpr uint64_t PageSize = GlobalShadow::PageSize;
  uint64_t Base = PageSize - 64;
  LogRecord First =
      trace::makeMemRecord(RecordOp::Write, 0, 1, MemSpace::Global, 4, ~0u);
  LogRecord Second =
      trace::makeMemRecord(RecordOp::Write, 2, 2, MemSpace::Global, 4, ~0u);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    First.Addr[Lane] = Base + Lane * 4;
    Second.Addr[Lane] = Base + Lane * 4;
  }
  std::vector<LogRecord> Records{First, Second};

  baseline::ReferenceDetector Reference{hierarchy()};
  Reference.processAll(Records);
  std::vector<RaceKey> Expected = keysOf(Reference.reporter());
  ASSERT_FALSE(Expected.empty());

  for (unsigned Shards : {1u, 2u, 3u, 16u})
    EXPECT_EQ(shardedKeys(Records, Shards), Expected)
        << Shards << " shards";
}

TEST(PageBoundary, SingleAccessStraddlingPageBoundary) {
  // One lane's 8-byte access covers the last four bytes of one page and
  // the first four of the next: the piece split point falls in the
  // middle of a single lane's access, and the conflicting-byte address
  // must survive the split.
  constexpr uint64_t PageSize = GlobalShadow::PageSize;
  LogRecord First =
      trace::makeMemRecord(RecordOp::Write, 0, 1, MemSpace::Global, 8, 1u);
  First.Addr[0] = PageSize - 4;
  LogRecord Second =
      trace::makeMemRecord(RecordOp::Write, 2, 2, MemSpace::Global, 8, 1u);
  Second.Addr[0] = PageSize - 4;
  std::vector<LogRecord> Records{First, Second};

  baseline::ReferenceDetector Reference{hierarchy()};
  Reference.processAll(Records);
  std::vector<RaceKey> Expected = keysOf(Reference.reporter());
  ASSERT_FALSE(Expected.empty());

  for (unsigned Shards : {1u, 2u, 7u}) {
    DetectorOptions Options;
    Options.Hier = hierarchy();
      Options.ShadowShards = Shards;
    Options.NumQueues = 1;
    SharedDetectorState State(Options);
    processCollected(State, 1, blockIdsOf(Records), Records);
    EXPECT_EQ(keysOf(State.Reporter), Expected) << Shards << " shards";
    ASSERT_EQ(State.Reporter.races().size(), 1u);
    EXPECT_EQ(State.Reporter.races()[0].Address, PageSize - 4)
        << Shards << " shards";
  }
}

TEST(PageBoundary, PiecesRouteToTheirOwningShards) {
  // A straddling run at two shards: pages P0 and P1 hash to shards 0
  // and 1, so each shard must apply exactly one piece of the run.
  constexpr uint64_t PageSize = GlobalShadow::PageSize;
  LogRecord Run =
      trace::makeMemRecord(RecordOp::Write, 0, 1, MemSpace::Global, 4, ~0u);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
    Run.Addr[Lane] = PageSize - 64 + Lane * 4;
  std::vector<LogRecord> Records{Run};

  DetectorOptions Options;
  Options.Hier = hierarchy();
  Options.ShadowShards = 2;
  Options.NumQueues = 1;
  SharedDetectorState State(Options);
  processCollected(State, 1, blockIdsOf(Records), Records);

  ASSERT_TRUE(State.shards());
  std::vector<ShardSet::Sample> Samples = State.shards()->sample();
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_EQ(Samples[0].RunPieces, 1u);
  EXPECT_EQ(Samples[1].RunPieces, 1u);
  EXPECT_EQ(Samples[0].Pages, 1u);
  EXPECT_EQ(Samples[1].Pages, 1u);
}

//===----------------------------------------------------------------------===//
// Race report addressing (multi-byte accesses)
//===----------------------------------------------------------------------===//

TEST(HotPathReports, RaceAddressIsTheConflictingByte) {
  // Thread 0 writes [0x1002, 0x1006); a thread in the other block then
  // writes [0x1000, 0x1004). The conflict is at bytes 0x1002-0x1003, and
  // the report must carry that byte address, not the second access's
  // base address 0x1000.
  LogRecord First =
      trace::makeMemRecord(RecordOp::Write, 0, 1, MemSpace::Global, 4, 1u);
  First.Addr[0] = 0x1002;
  LogRecord Second =
      trace::makeMemRecord(RecordOp::Write, 2, 2, MemSpace::Global, 4, 1u);
  Second.Addr[0] = 0x1000;

  DetectorOptions Options;
  Options.Hier = hierarchy();
  SharedDetectorState State(Options);
  QueueProcessor Processor(State);
  Processor.process(First);
  Processor.process(Second);
  Processor.finish();
  ASSERT_EQ(State.Reporter.races().size(), 1u);
  EXPECT_EQ(State.Reporter.races()[0].Address, 0x1002u);
}

} // namespace
