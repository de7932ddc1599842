//===- Shard.cpp - address-range-sharded global shadow state ---------------===//

#include "detector/Shard.h"

#include "detector/Detector.h"
#include "detector/Rules.h"

using namespace barracuda;
using namespace barracuda::detector;

//===----------------------------------------------------------------------===//
// Shard
//===----------------------------------------------------------------------===//

Shard::Shard(unsigned Index, unsigned NumQueues,
             const sim::ThreadHierarchy &Hier, RaceReporter &Reporter,
             std::atomic<uint64_t> &CompletedTotal,
             const std::atomic<bool> &Degraded)
    : Index(Index), Mailboxes(NumQueues), Hier(Hier), Reporter(Reporter),
      CompletedTotal(CompletedTotal), Degraded(Degraded) {
  (void)this->Index;
}

Shard::~Shard() {
  for (auto &[PageId, Cells] : Pages)
    for (uint64_t I = 0; I != GlobalShadow::PageSize; ++I)
      delete Cells[I].Readers;
}

ShadowCell *Shard::pageFor(uint64_t Addr) {
  uint64_t PageId = Addr >> GlobalShadow::PageBits;
  PageCacheEntry &Slot = PageCache[PageId & (PageCacheSlots - 1)];
  if (Slot.PageId == PageId) {
    Counters.PageCacheHits.fetch_add(1, std::memory_order_relaxed);
    return Slot.Page;
  }
  Counters.PageCacheMisses.fetch_add(1, std::memory_order_relaxed);
  auto [It, Inserted] = Pages.try_emplace(PageId);
  if (Inserted) {
    It->second = std::make_unique<ShadowCell[]>(GlobalShadow::PageSize);
    for (uint64_t I = 0; I != GlobalShadow::PageSize; ++I)
      It->second[I].set(ShadowCell::FlagGlobalMem);
    Counters.Pages.fetch_add(1, std::memory_order_relaxed);
  }
  Slot.PageId = PageId;
  Slot.Page = It->second.get();
  return Slot.Page;
}

/// Binds an immutable clock publication to the shared detection rules.
struct Shard::RuleCtx {
  Shard &S;
  const WarpKnowledge &Know;
  ClockVal SelfClock;
  uint64_t LocalFastPath = 0;

  Epoch epochOf(unsigned Lane) const {
    return Know.epochOf(SelfClock, Lane);
  }
  ClockVal entryFor(unsigned Lane, Tid Other) {
    for (unsigned I = 0; I != S.EntryMemoCount; ++I)
      if (S.EntryMemo[I].Other == Other)
        return S.EntryMemo[I].Value;
    ClockVal Value =
        Know.entryFor(SelfClock, Lane, Other, S.Hier.blockOf(Other));
    unsigned Slot;
    if (S.EntryMemoCount < EntryMemoSlots) {
      Slot = S.EntryMemoCount++;
    } else {
      Slot = S.EntryMemoNext;
      S.EntryMemoNext = (S.EntryMemoNext + 1) % EntryMemoSlots;
    }
    S.EntryMemo[Slot] = {Other, Value};
    return Value;
  }
  const sim::ThreadHierarchy &hier() const { return S.Hier; }
  void reportRace(uint32_t Pc, AccessKind Current, AccessKind Previous,
                  trace::MemSpace Space, RaceScopeKind Scope, Tid Me,
                  Tid Other, uint64_t Addr) {
    S.Reporter.reportRace(Pc, Current, Previous, Space, Scope, Me, Other,
                          Addr);
  }
  void countFastPath() { ++LocalFastPath; }
};

void Shard::apply(const ShardMsg &Msg) {
  if (Msg.MsgKind == ShardMsg::Kind::MarkSyncLoc) {
    ShadowCell *Page = pageFor(Msg.PieceStart);
    Page[Msg.PieceStart & (GlobalShadow::PageSize - 1)].set(
        ShadowCell::FlagSyncLoc);
    Counters.SyncMarks.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  assert(Msg.Know && "run piece without a clock publication");
  EntryMemoCount = 0;
  EntryMemoNext = 0;
  RuleCtx Ctx{*this, *Msg.Know, Msg.SelfClock};
  ShadowCell *Page = pageFor(Msg.PieceStart);
  walkRunPiece(Ctx, Page, GlobalShadow::PageSize - 1, Msg.RunStart,
               Msg.FirstLane, Msg.LaneCount, Msg.Size, Msg.PieceStart,
               Msg.PieceEnd, Msg.Access, Msg.Pc, trace::MemSpace::Global,
               /*Locked=*/false);
  Counters.RunPieces.fetch_add(1, std::memory_order_relaxed);
  if (Ctx.LocalFastPath)
    Counters.FastPathHits.fetch_add(Ctx.LocalFastPath,
                                    std::memory_order_relaxed);
}

bool Shard::service() {
  bool Any = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (ShardMailbox &Mail : Mailboxes) {
      while (ShardMsg *Msg = Mail.front()) {
        if (Msg->MsgKind == ShardMsg::Kind::SyncMarker) {
          uint32_t Ticket = Msg->Ticket;
          if (Ticket != NextTicket &&
              !Degraded.load(std::memory_order_acquire)) {
            // A future ticket: this mailbox is fenced until the shard's
            // cursor catches up through the other mailboxes.
            Counters.TicketStalls.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          NextTicket = std::max(NextTicket, Ticket) + 1;
          Counters.Markers.fetch_add(1, std::memory_order_relaxed);
        } else {
          apply(*Msg);
        }
        Mail.popFront();
        Counters.Applied.fetch_add(1, std::memory_order_relaxed);
        // Release so a finisher that observes completed == posted also
        // observes every cell this shard wrote.
        CompletedTotal.fetch_add(1, std::memory_order_release);
        Progress = true;
        Any = true;
      }
    }
  }
  return Any;
}

//===----------------------------------------------------------------------===//
// ShardSet
//===----------------------------------------------------------------------===//

ShardSet::ShardSet(unsigned NumShards, unsigned NumQueues,
                   const sim::ThreadHierarchy &Hier,
                   RaceReporter &Reporter)
    : NumQueues_(NumQueues) {
  assert(NumShards != 0 && NumQueues != 0 && "degenerate shard layout");
  Shards_.reserve(NumShards);
  for (unsigned I = 0; I != NumShards; ++I)
    Shards_.push_back(std::make_unique<Shard>(
        I, NumQueues, Hier, Reporter, CompletedTotal, Degraded_));
}

void ShardSet::mergeFinalInto(SharedDetectorState &State) {
  if (Merged.exchange(true, std::memory_order_acq_rel))
    return;
  HotPathStats HP;
  for (const auto &S : Shards_) {
    const ShardCounters &C = S->counters();
    HP.FastPathHits += C.FastPathHits.load(std::memory_order_relaxed);
    HP.PageCacheHits += C.PageCacheHits.load(std::memory_order_relaxed);
    HP.PageCacheMisses +=
        C.PageCacheMisses.load(std::memory_order_relaxed);
  }
  // Runs are counted queue-side when posted; shards only add the
  // cell-level counters they own.
  State.mergeStats(PtvcFormatStats{}, /*PeakPtvc=*/0, /*SharedShadow=*/0,
                   /*Records=*/0, HP);
}

std::vector<ShardSet::Sample> ShardSet::sample() const {
  std::vector<Sample> Out;
  Out.reserve(Shards_.size());
  for (const auto &S : Shards_) {
    const ShardCounters &C = S->counters();
    Sample Row;
    Row.Posted = C.Posted.load(std::memory_order_relaxed);
    Row.Applied = C.Applied.load(std::memory_order_relaxed);
    Row.RunPieces = C.RunPieces.load(std::memory_order_relaxed);
    Row.SyncMarks = C.SyncMarks.load(std::memory_order_relaxed);
    Row.Markers = C.Markers.load(std::memory_order_relaxed);
    Row.Pages = C.Pages.load(std::memory_order_relaxed);
    Row.ShadowBytes = S->shadowBytes();
    Row.ProducerStalls =
        C.ProducerStalls.load(std::memory_order_relaxed);
    Row.TicketStalls = C.TicketStalls.load(std::memory_order_relaxed);
    Row.FastPathHits = C.FastPathHits.load(std::memory_order_relaxed);
    Row.Backlog = S->backlog();
    Out.push_back(Row);
  }
  return Out;
}
