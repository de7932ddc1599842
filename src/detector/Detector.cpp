//===- Detector.cpp - the BARRACUDA race detection engine ------------------===//

#include "detector/Detector.h"

#include "detector/Rules.h"
#include "support/Backoff.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

using namespace barracuda;
using namespace barracuda::detector;
using trace::LogRecord;
using trace::RecordOp;
using trace::WarpSize;

//===----------------------------------------------------------------------===//
// SharedDetectorState
//===----------------------------------------------------------------------===//

SharedDetectorState::SharedDetectorState(DetectorOptions Options)
    : Options(Options) {
  if (Options.ShadowShards > 1)
    Shards_ = std::make_shared<ShardSet>(Options.ShadowShards,
                                         std::max(1u, Options.NumQueues),
                                         Options.Hier, Reporter);
  for (size_t I = 0; I != FormatCounters.size(); ++I)
    FormatCounters[I] = &Metrics.counter(
        std::string("detector.ptvc.") +
        ptvcFormatName(static_cast<PtvcFormat>(I)));
  FastPathHits = &Metrics.counter("detector.fastpath_hits");
  RunsCoalesced = &Metrics.counter("detector.runs_coalesced");
  PageCacheHits = &Metrics.counter("detector.page_cache_hits");
  PageCacheMisses = &Metrics.counter("detector.page_cache_misses");
  PeakPtvcBytes_ = &Metrics.counter("detector.peak_ptvc_bytes");
  SharedShadowBytes_ = &Metrics.counter("detector.shared_shadow_bytes");
  Records_ = &Metrics.counter("detector.records_processed");
}

void SharedDetectorState::mergeStats(const PtvcFormatStats &NewFormats,
                                     uint64_t PeakPtvc,
                                     uint64_t SharedShadow,
                                     uint64_t Records,
                                     const HotPathStats &HotPath) {
  for (size_t I = 0; I != FormatCounters.size(); ++I)
    FormatCounters[I]->add(NewFormats.Samples[I]);
  PeakPtvcBytes_->add(PeakPtvc);
  SharedShadowBytes_->add(SharedShadow);
  Records_->add(Records);
  FastPathHits->add(HotPath.FastPathHits);
  RunsCoalesced->add(HotPath.RunsCoalesced);
  PageCacheHits->add(HotPath.PageCacheHits);
  PageCacheMisses->add(HotPath.PageCacheMisses);
}

PtvcFormatStats SharedDetectorState::formatStats() const {
  PtvcFormatStats Stats;
  for (size_t I = 0; I != FormatCounters.size(); ++I)
    Stats.Samples[I] = FormatCounters[I]->value();
  return Stats;
}

uint64_t SharedDetectorState::peakPtvcBytes() const {
  return PeakPtvcBytes_->value();
}

uint64_t SharedDetectorState::sharedShadowBytes() const {
  return SharedShadowBytes_->value();
}

uint64_t SharedDetectorState::recordsProcessed() const {
  return Records_->value();
}

void SharedDetectorState::mergeRules(const RuleProfile &Rules) {
  for (unsigned Kind = 0; Kind != RuleProfile::NumKinds; ++Kind) {
    if (!Rules.Seen[Kind])
      continue;
    const char *Name = trace::recordOpName(static_cast<RecordOp>(Kind));
    Metrics.counter(std::string("detector.rule.") + Name + ".records")
        .add(Rules.Seen[Kind]);
    Metrics.histogram(std::string("detector.rule.") + Name + ".ns")
        .merge(Rules.Ns[Kind]);
  }
}

HotPathStats SharedDetectorState::hotPathStats() const {
  HotPathStats Stats;
  Stats.FastPathHits = FastPathHits->value();
  Stats.RunsCoalesced = RunsCoalesced->value();
  Stats.PageCacheHits = PageCacheHits->value();
  Stats.PageCacheMisses = PageCacheMisses->value();
  return Stats;
}

//===----------------------------------------------------------------------===//
// QueueProcessor::LocalShadow
//===----------------------------------------------------------------------===//

QueueProcessor::LocalShadow::~LocalShadow() {
  for (auto &[PageId, Cells] : Pages)
    for (uint64_t I = 0; I != PageSize; ++I)
      delete Cells[I].Readers;
}

ShadowCell *QueueProcessor::LocalShadow::pageFor(uint64_t Addr) {
  uint64_t PageId = Addr >> PageBits;
  auto It = Pages.find(PageId);
  if (It == Pages.end())
    It = Pages.emplace(PageId, std::make_unique<ShadowCell[]>(PageSize))
             .first;
  return It->second.get();
}

//===----------------------------------------------------------------------===//
// QueueProcessor
//===----------------------------------------------------------------------===//

QueueProcessor::QueueProcessor(SharedDetectorState &Shared,
                               unsigned QueueIndex)
    : Shared(Shared), Opts(Shared.options()), QueueIndex(QueueIndex),
      Shards(Shared.shards().get()) {
  if (Opts.ProfileRules)
    Rules = std::make_unique<RuleProfile>();
}

QueueProcessor::~QueueProcessor() = default;

QueueProcessor::BlockState &QueueProcessor::blockState(uint32_t BlockId) {
  auto [It, Inserted] = Blocks.try_emplace(BlockId);
  if (Inserted) {
    It->second.BlockId = BlockId;
    It->second.LiveWarps = Opts.Hier.WarpsPerBlock;
  }
  return It->second;
}

uint32_t QueueProcessor::residentMask(uint32_t GlobalWarp) const {
  return Opts.Hier.residentMask(GlobalWarp);
}

QueueProcessor::WarpEntry &
QueueProcessor::warpEntry(BlockState &BS, uint32_t GlobalWarp) {
  auto It = BS.Warps.find(GlobalWarp);
  if (It == BS.Warps.end()) {
    It = BS.Warps
             .emplace(std::piecewise_construct,
                      std::forward_as_tuple(GlobalWarp),
                      std::forward_as_tuple(GlobalWarp,
                                            residentMask(GlobalWarp),
                                            Opts.Hier))
             .first;
    It->second.LastBytes = It->second.Clocks.memoryBytes();
    CurrentPtvcBytes += It->second.LastBytes;
  }
  return It->second;
}

ShadowCell *QueueProcessor::globalPage(uint64_t Addr) {
  uint64_t PageId = Addr >> GlobalShadow::PageBits;
  PageCacheEntry &Slot = PageCache[PageId & (PageCacheSlots - 1)];
  if (Slot.PageId == PageId) {
    ++HotPath.PageCacheHits;
    return Slot.Page;
  }
  ++HotPath.PageCacheMisses;
  Slot.Page = Shared.GlobalMem.page(Addr);
  Slot.PageId = PageId;
  return Slot.Page;
}

ClockVal QueueProcessor::cachedEntryFor(const WarpClocks &W, uint32_t Lane,
                                        Tid Other) {
  for (unsigned I = 0; I != EntryMemoCount; ++I)
    if (EntryMemo[I].Other == Other)
      return EntryMemo[I].Value;
  ClockVal Value = W.entryFor(Lane, Other, Opts.Hier.blockOf(Other));
  unsigned Slot;
  if (EntryMemoCount < EntryMemoSlots) {
    Slot = EntryMemoCount++;
  } else {
    Slot = EntryMemoNext;
    EntryMemoNext = (EntryMemoNext + 1) % EntryMemoSlots;
  }
  EntryMemo[Slot] = {Other, Value};
  return Value;
}

void QueueProcessor::afterClockChange(BlockState &BS, WarpEntry &WE) {
  BS.MaxClock = std::max(BS.MaxClock, WE.Clocks.selfClock());
  if (!Opts.CollectStats)
    return;
  ++Formats.Samples[static_cast<size_t>(WE.Clocks.format())];
  size_t Bytes = WE.Clocks.memoryBytes();
  CurrentPtvcBytes += Bytes - WE.LastBytes;
  WE.LastBytes = Bytes;
  PeakPtvcBytes = std::max(PeakPtvcBytes, CurrentPtvcBytes);
}

void QueueProcessor::waitForTicket(uint32_t Ticket) {
  assert(Ticket != 0 && "sync record without a ticket");
  // Latency matters here (every sync record on every queue serializes
  // through this), so cap the sleep tier low.
  support::Backoff Wait(/*SpinPauses=*/64, /*YieldPauses=*/64,
                        /*MaxSleepMicros=*/64);
  while (Shared.SyncProcessed.load(std::memory_order_acquire) !=
         Ticket - 1) {
    // The ticket holder may itself be blocked posting into a mailbox one
    // of our shards owns; keep our consumers live while we wait.
    if (stallService())
      continue;
    Wait.pause();
  }
}

bool QueueProcessor::stallService() {
  if (StallHook)
    return StallHook();
  return Shards && Shards->serviceOwned(QueueIndex);
}

void QueueProcessor::finishTicket(uint32_t Ticket) {
  Shared.SyncProcessed.store(Ticket, std::memory_order_release);
}

void QueueProcessor::process(const LogRecord &Record) {
  if (Rules) {
    unsigned Kind = static_cast<unsigned>(Record.op());
    if (Kind < RuleProfile::NumKinds &&
        ++Rules->Seen[Kind] % RuleProfile::SampleEvery == 0) {
      auto Start = std::chrono::steady_clock::now();
      processImpl(Record);
      auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
      Rules->Ns[Kind].record(static_cast<uint64_t>(Ns));
      return;
    }
  }
  processImpl(Record);
}

void QueueProcessor::processImpl(const LogRecord &Record) {
  ++Records;
  uint32_t BlockId = Record.Warp / Opts.Hier.WarpsPerBlock;
  BlockState &BS = blockState(BlockId);

  switch (Record.op()) {
  case RecordOp::Read:
  case RecordOp::Write:
  case RecordOp::Atom:
    handleMemory(BS, warpEntry(BS, Record.Warp), Record);
    break;
  case RecordOp::Acq:
  case RecordOp::Rel:
  case RecordOp::AcqRel:
    handleSync(BS, warpEntry(BS, Record.Warp), Record);
    break;
  case RecordOp::If: {
    WarpEntry &WE = warpEntry(BS, Record.Warp);
    WE.Clocks.branchIf(Record.ActiveMask, Record.elseMask());
    afterClockChange(BS, WE);
    break;
  }
  case RecordOp::Else: {
    WarpEntry &WE = warpEntry(BS, Record.Warp);
    WE.Clocks.branchElse(Record.ActiveMask);
    afterClockChange(BS, WE);
    break;
  }
  case RecordOp::Fi: {
    WarpEntry &WE = warpEntry(BS, Record.Warp);
    WE.Clocks.branchFi(Record.ActiveMask);
    afterClockChange(BS, WE);
    break;
  }
  case RecordOp::Bar:
    handleBarrier(BS, warpEntry(BS, Record.Warp), Record);
    break;
  case RecordOp::WarpEnd:
    handleWarpEnd(BS, Record);
    break;
  case RecordOp::BlockEnd:
    handleBlockEnd(BS);
    break;
  case RecordOp::Invalid:
    assert(false && "invalid record");
    break;
  }
}

/// Binds the processor's live clock state to the shared rule templates
/// (Rules.h): epochs and entries come from the warp's live WarpClocks
/// through the processor's per-record memo, counters are the
/// processor-private plain tallies.
struct QueueProcessor::RuleCtx {
  QueueProcessor &P;
  WarpClocks &W;

  Epoch epochOf(unsigned Lane) const { return W.epochOf(Lane); }
  ClockVal entryFor(unsigned Lane, Tid Other) {
    return P.cachedEntryFor(W, Lane, Other);
  }
  const sim::ThreadHierarchy &hier() const { return P.Opts.Hier; }
  void reportRace(uint32_t Pc, AccessKind Current, AccessKind Previous,
                  trace::MemSpace Space, RaceScopeKind Scope, Tid Me,
                  Tid Other, uint64_t Addr) {
    P.Shared.Reporter.reportRace(Pc, Current, Previous, Space, Scope, Me,
                                 Other, Addr);
  }
  void countFastPath() { ++P.HotPath.FastPathHits; }
};

const std::shared_ptr<const WarpKnowledge> &
QueueProcessor::knowledgeFor(WarpEntry &WE) {
  uint64_t Version = WE.Clocks.knowledgeVersion();
  if (!WE.Pub || WE.PubVersion != Version) {
    WE.Pub = WE.Clocks.publishKnowledge();
    WE.PubVersion = Version;
  }
  return WE.Pub;
}

void QueueProcessor::handleMemory(BlockState &BS, WarpEntry &WE,
                                  const LogRecord &Record) {
  AccessKind Kind;
  switch (Record.op()) {
  case RecordOp::Read:
    Kind = AccessKind::Read;
    break;
  case RecordOp::Write:
    Kind = AccessKind::Write;
    break;
  default:
    Kind = AccessKind::Atomic;
    break;
  }
  bool IsShared = Record.space() == trace::MemSpace::Shared;
  unsigned Size = Record.AccessSize ? Record.AccessSize : 1;
  resetEntryMemo();

  // Group active lanes into maximal runs of ascending-contiguous
  // addresses (lane L+1 starting exactly where lane L's span ends).
  // Coalesced warp accesses — the common case — collapse into one run;
  // within a run the shadow page is resolved per page instead of per
  // byte, spinlocks are taken per granule instead of per byte, and
  // identical-state granule bytes are settled by broadcast. Processing
  // order is unchanged: the old loop visited bytes lane-major and
  // byte-minor, which inside a contiguous run is exactly ascending
  // address order.
  AccessRun Run;
  bool Open = false;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Record.ActiveMask >> Lane) & 1))
      continue;
    uint64_t Addr = Record.Addr[Lane];
    if (Open &&
        Addr == Run.Start + static_cast<uint64_t>(Run.LaneCount) * Size) {
      ++Run.LaneCount;
      continue;
    }
    if (Open)
      processRun(BS, WE, Run, Kind, Size, Record.Pc, IsShared);
    Run = AccessRun{Addr, Lane, 1};
    Open = true;
  }
  if (Open)
    processRun(BS, WE, Run, Kind, Size, Record.Pc, IsShared);

  WE.Clocks.endInsn();
  afterClockChange(BS, WE);
}

void QueueProcessor::processRun(BlockState &BS, WarpEntry &WE,
                                const AccessRun &Run, AccessKind Kind,
                                unsigned Size, uint32_t Pc,
                                bool IsShared) {
  trace::MemSpace Space =
      IsShared ? trace::MemSpace::Shared : trace::MemSpace::Global;
  const uint64_t PageMask =
      (IsShared ? LocalShadow::PageSize : GlobalShadow::PageSize) - 1;
  uint64_t SpanEnd =
      Run.Start + static_cast<uint64_t>(Run.LaneCount) * Size;
  if (Run.LaneCount >= 2)
    ++HotPath.RunsCoalesced;

  // Split the run at shadow-page boundaries and walk (or post) one piece
  // per page. Pages are also the sharding unit, so a piece always lands
  // wholly inside one shard, and the sharded and inline detectors walk
  // identical pieces in identical per-cell order. Shared memory is
  // processor-private and always applied inline.
  bool Posting = Shards && !IsShared;
  RuleCtx Ctx{*this, WE.Clocks};
  uint64_t PieceStart = Run.Start;
  while (PieceStart < SpanEnd) {
    uint64_t PieceEnd =
        std::min(SpanEnd, (PieceStart & ~PageMask) + PageMask + 1);
    if (Posting) {
      ShardMsg Msg;
      Msg.MsgKind = ShardMsg::Kind::RunPiece;
      Msg.RequestId = RequestId;
      Msg.Access = Kind;
      Msg.Size = static_cast<uint8_t>(Size);
      Msg.FirstLane = static_cast<uint8_t>(Run.FirstLane);
      Msg.LaneCount = static_cast<uint8_t>(Run.LaneCount);
      Msg.Pc = Pc;
      Msg.SelfClock = WE.Clocks.selfClock();
      Msg.RunStart = Run.Start;
      Msg.PieceStart = PieceStart;
      Msg.PieceEnd = PieceEnd;
      Msg.Know = knowledgeFor(WE);
      Shards->post(QueueIndex, Shards->shardOf(PieceStart),
                   std::move(Msg),
                   [this] { stallService(); });
    } else {
      ShadowCell *Page = IsShared ? BS.Shared.pageFor(PieceStart)
                                  : globalPage(PieceStart);
      walkRunPiece(Ctx, Page, PageMask, Run.Start, Run.FirstLane,
                   Run.LaneCount, Size, PieceStart, PieceEnd, Kind, Pc,
                   Space, /*Locked=*/!IsShared);
    }
    PieceStart = PieceEnd;
  }
}

void QueueProcessor::handleSync(BlockState &BS, WarpEntry &WE,
                                const LogRecord &Record) {
  waitForTicket(Record.SyncSeq);
  bool GlobalScope = Record.scope() == trace::SyncScope::Global;
  bool IsShared = Record.space() == trace::MemSpace::Shared;
  RecordOp Op = Record.op();

  // Phase 1: the active lanes acquire in lockstep. Their sources are
  // combined into one join (the endi at the end of the instruction would
  // propagate each lane's acquisition across the group anyway; combining
  // first keeps warp-level semantics deterministic).
  if (Op == RecordOp::Acq || Op == RecordOp::AcqRel) {
    CompactClock Incoming;
    for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
      if (!((Record.ActiveMask >> Lane) & 1))
        continue;
      SyncKey Key{Record.space(), IsShared ? BS.BlockId : 0,
                  Record.Addr[Lane]};
      Shared.Syncs.with(Key, [&](SyncLocation &Loc) {
        if (GlobalScope)
          Loc.readAll(Incoming);
        else
          Loc.readBlock(BS.BlockId, Incoming);
      });
    }
    WE.Clocks.acquire(Incoming);
  }

  // Phase 2: releases assign each lane's (post-acquire) clock snapshot.
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Record.ActiveMask >> Lane) & 1))
      continue;
    uint64_t Addr = Record.Addr[Lane];
    SyncKey Key{Record.space(), IsShared ? BS.BlockId : 0, Addr};

    // Mark the location in shadow memory for statistics/diagnostics.
    // With shards active the cell belongs to its owner, so the mark is
    // posted like any other mutation of that page.
    if (IsShared) {
      BS.Shared.cell(Addr).set(ShadowCell::FlagSyncLoc);
    } else if (Shards) {
      ShardMsg Msg;
      Msg.MsgKind = ShardMsg::Kind::MarkSyncLoc;
      Msg.RequestId = RequestId;
      Msg.PieceStart = Addr;
      Shards->post(QueueIndex, Shards->shardOf(Addr), std::move(Msg),
                   [this] { stallService(); });
    } else {
      ShadowCell *Page = globalPage(Addr);
      uint64_t Off = Addr & (GlobalShadow::PageSize - 1);
      CellGuard Guard(Page[ShadowCell::lockCellIndex(Off)],
                      /*Locked=*/true);
      Page[Off].set(ShadowCell::FlagSyncLoc);
    }

    if (Op == RecordOp::Rel || Op == RecordOp::AcqRel) {
      Shared.Syncs.with(Key, [&](SyncLocation &Loc) {
        CompactClock Snapshot;
        WE.Clocks.releaseSnapshot(Lane, Snapshot);
        if (GlobalScope)
          Loc.assignAll(std::move(Snapshot));
        else
          Loc.assignBlock(BS.BlockId, std::move(Snapshot));
      });
    }
  }

  // The instruction boundary (endi), plus the extra increment the REL*
  // and ACQREL* rules perform after publishing.
  WE.Clocks.endInsn();
  if (Op != RecordOp::Acq)
    WE.Clocks.endInsn();
  afterClockChange(BS, WE);
  // Fence every shard on this ticket while we still hold it: markers
  // land in each mailbox in global ticket order, which (with per-mailbox
  // FIFO) keeps each shard's application order happens-before
  // equivalent to the single-table order.
  if (Shards)
    Shards->postMarkerAll(QueueIndex, Record.SyncSeq,
                          [this] { stallService(); }, RequestId);
  finishTicket(Record.SyncSeq);
}

void QueueProcessor::handleBarrier(BlockState &BS, WarpEntry &WE,
                                   const LogRecord &Record) {
  uint32_t Resident = residentMask(Record.Warp);
  if (Record.ActiveMask != Resident)
    Shared.Reporter.reportBarrierDivergence(Record.Pc, Record.Warp,
                                            Record.ActiveMask, Resident);
  BS.ArrivedWarps.push_back(Record.Warp);
  afterClockChange(BS, WE);
  if (BS.ArrivedWarps.size() >= BS.LiveWarps)
    releaseBarrier(BS);
}

void QueueProcessor::releaseBarrier(BlockState &BS) {
  ClockVal BlockMax = BS.MaxClock;
  // The BAR rule joins full vector clocks, so knowledge of *other*
  // blocks that any arrived warp picked up via a global acquire must
  // reach every warp; the scalar block max cannot carry it. Knowledge
  // of this block needs no such pass: it is subsumed by BlockMax.
  CompactClock CrossBlock;
  for (uint32_t GlobalWarp : BS.ArrivedWarps)
    warpEntry(BS, GlobalWarp).Clocks.crossBlockKnowledge(CrossBlock);
  for (uint32_t GlobalWarp : BS.ArrivedWarps) {
    WarpEntry &WE = warpEntry(BS, GlobalWarp);
    WE.Clocks.barrierJoin(BlockMax);
    WE.Clocks.acquire(CrossBlock);
    afterClockChange(BS, WE);
  }
  BS.MaxClock = BlockMax + 1;
  BS.ArrivedWarps.clear();
}

void QueueProcessor::handleWarpEnd(BlockState &BS,
                                   const LogRecord &Record) {
  auto It = BS.Warps.find(Record.Warp);
  if (It != BS.Warps.end()) {
    CurrentPtvcBytes -= It->second.LastBytes;
    BS.Warps.erase(It);
  }
  assert(BS.LiveWarps != 0 && "warp-end accounting underflow");
  --BS.LiveWarps;
  // A warp exit can complete a barrier the remaining warps are parked at.
  if (BS.LiveWarps && BS.ArrivedWarps.size() >= BS.LiveWarps)
    releaseBarrier(BS);
}

void QueueProcessor::handleBlockEnd(BlockState &BS) {
  if (!BS.ArrivedWarps.empty()) {
    // Warps were still parked at a barrier when the block died: a hung
    // barrier (divergence across warps).
    Shared.Reporter.reportBarrierDivergence(0, BS.ArrivedWarps.front(), 0,
                                            0);
  }
  SharedShadowBytes += BS.Shared.bytes();
  Blocks.erase(BS.BlockId);
}

void QueueProcessor::finish() {
  if (Finished)
    return;
  Finished = true;
  for (const auto &[BlockId, BS] : Blocks)
    SharedShadowBytes += BS.Shared.bytes();
  Shared.mergeStats(Formats, PeakPtvcBytes, SharedShadowBytes, Records,
                    HotPath);
  if (Rules)
    Shared.mergeRules(*Rules);
}
