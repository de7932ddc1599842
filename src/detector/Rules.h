//===- Rules.h - shared FastTrack cell rules and run walking ---------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The detection rules proper (Figures 2 and 3), factored out of
/// QueueProcessor so the address-sharded detector applies the *same*
/// implementation. Both consumers instantiate the templates with a
/// context supplying the per-thread clock view:
///
///   * the inline path binds a live WarpClocks (plus the processor's
///     entryFor memo and hot-path counters);
///   * a shadow shard binds an immutable WarpKnowledge snapshot and the
///     epoch stamp carried by the mailbox message.
///
/// The context concept:
///
///   Epoch    epochOf(unsigned Lane)
///   ClockVal entryFor(unsigned Lane, Tid Other)   // memoized C_t(Other)
///   const sim::ThreadHierarchy &hier()
///   void     reportRace(Pc, Current, Previous, Space, Scope, Me, Other,
///                       Addr)
///   void     countFastPath()
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_DETECTOR_RULES_H
#define BARRACUDA_DETECTOR_RULES_H

#include "detector/Report.h"
#include "detector/Shadow.h"
#include "sim/LaunchConfig.h"

#include <algorithm>

namespace barracuda {
namespace detector {

/// Runs the full FastTrack-style rules on one byte cell. Returns true
/// iff a race was reported (disables broadcasting for the run).
template <typename CtxT>
inline bool applyAccess(CtxT &Ctx, ShadowCell &Cell, AccessKind Kind,
                        unsigned Lane, uint32_t Pc, trace::MemSpace Space,
                        uint64_t Addr) {
  Epoch E = Ctx.epochOf(Lane);
  Tid Me = E.Thread;

  // Same-epoch fast paths (the FastTrack O(1) common case, Section 3.3):
  // when the cell already records this thread at this very epoch, the
  // full rules would re-derive the exact state the cell holds, so skip
  // them before taking any clock lookups.
  if (Kind == AccessKind::Read) {
    // READ SAME EPOCH: our own exclusive read at this epoch. Writes
    // clear read metadata, so the write epoch cannot have changed
    // since that read checked it — an exact no-op.
    if (!Cell.has(ShadowCell::FlagReadShared) && Cell.ReadClock == E.Clock &&
        Cell.ReadTid == static_cast<uint32_t>(Me)) {
      Ctx.countFastPath();
      return false;
    }
  } else {
    // WRITE SAME EPOCH: our own write at this epoch with bottom read
    // state and a matching atomic flag — the write rule would store
    // identical state.
    if (Cell.WriteClock == E.Clock &&
        Cell.WriteTid == static_cast<uint32_t>(Me) &&
        !Cell.has(ShadowCell::FlagReadShared) && Cell.ReadClock == 0 &&
        Cell.has(ShadowCell::FlagAtomic) == (Kind == AccessKind::Atomic)) {
      Ctx.countFastPath();
      return false;
    }
  }

  bool Raced = false;
  auto orderedBefore = [&](uint32_t Clock, Tid Other) {
    if (Clock == 0 || Other == Me)
      return true;
    return Clock <= Ctx.entryFor(Lane, Other);
  };
  auto classify = [&](Tid Other) {
    if (Ctx.hier().warpOf(Other) == Ctx.hier().warpOf(Me))
      return RaceScopeKind::IntraWarp;
    if (Ctx.hier().blockOf(Other) == Ctx.hier().blockOf(Me))
      return RaceScopeKind::IntraBlock;
    return RaceScopeKind::InterBlock;
  };
  auto race = [&](AccessKind PrevKind, Tid Other) {
    Raced = true;
    Ctx.reportRace(Pc, Kind, PrevKind, Space, classify(Other), Me, Other,
                   Addr);
  };

  AccessKind PrevWriteKind =
      Cell.has(ShadowCell::FlagAtomic) ? AccessKind::Atomic
                                       : AccessKind::Write;

  switch (Kind) {
  case AccessKind::Read: {
    // READ*: check the last write, then record the read.
    if (!orderedBefore(Cell.WriteClock, Cell.WriteTid))
      race(PrevWriteKind, Cell.WriteTid);
    if (Cell.has(ShadowCell::FlagReadShared)) {
      Cell.Readers->raiseEntry(Me, E.Clock); // READSHARED
    } else if (orderedBefore(Cell.ReadClock, Cell.ReadTid)) {
      Cell.ReadClock = E.Clock; // READEXCL
      Cell.ReadTid = static_cast<uint32_t>(Me);
    } else {
      auto *Readers = new CompactClock(); // READINFLATE
      Readers->raiseEntry(Cell.ReadTid, Cell.ReadClock);
      Readers->raiseEntry(Me, E.Clock);
      Cell.Readers = Readers;
      Cell.set(ShadowCell::FlagReadShared);
    }
    break;
  }
  case AccessKind::Write:
  case AccessKind::Atomic: {
    // WRITE* / INITATOM* / ATOM*: atomics elide the check against a
    // previous atomic write (atomics do not race with each other, nor
    // synchronize).
    bool SkipWriteCheck =
        Kind == AccessKind::Atomic && Cell.has(ShadowCell::FlagAtomic);
    if (!SkipWriteCheck && !orderedBefore(Cell.WriteClock, Cell.WriteTid))
      race(PrevWriteKind, Cell.WriteTid);
    if (Cell.has(ShadowCell::FlagReadShared)) {
      for (const auto &[Other, Clock] : Cell.Readers->entries())
        if (Other != Me && Clock > Ctx.entryFor(Lane, Other))
          race(AccessKind::Read, Other);
    } else if (!orderedBefore(Cell.ReadClock, Cell.ReadTid)) {
      race(AccessKind::Read, Cell.ReadTid);
    }
    Cell.clearReads();
    Cell.WriteClock = E.Clock;
    Cell.WriteTid = static_cast<uint32_t>(Me);
    if (Kind == AccessKind::Atomic)
      Cell.set(ShadowCell::FlagAtomic);
    else
      Cell.clearFlag(ShadowCell::FlagAtomic);
    break;
  }
  }
  return Raced;
}

/// Applies the piece [PieceStart, PieceEnd) of a coalesced run against
/// one resolved shadow page, granule by granule with leader-check +
/// broadcast. Pieces never straddle a page: the caller splits runs at
/// page boundaries (which is also where shadow shards split, so both the
/// inline and the sharded detector walk identical pieces in identical
/// order). \p Locked selects the granule-spinlock protocol: the inline
/// global path locks; processor-private shared memory and exclusively
/// owned shard pages do not.
template <typename CtxT>
inline void walkRunPiece(CtxT &Ctx, ShadowCell *Page, uint64_t PageMask,
                         uint64_t RunStart, unsigned FirstLane,
                         unsigned LaneCount, unsigned Size,
                         uint64_t PieceStart, uint64_t PieceEnd,
                         AccessKind Kind, uint32_t Pc,
                         trace::MemSpace Space, bool Locked) {
  // Broadcasting needs lanes to corroborate each other; a singleton run
  // (uncoalesced or conflicting access) always takes the full rules.
  bool MultiLane = LaneCount >= 2;

  // Walk the piece granule by granule (granules never straddle a page).
  uint64_t GranuleBase = PieceStart & ~(ShadowCell::LockGranuleBytes - 1);
  for (uint64_t G = GranuleBase; G < PieceEnd;
       G += ShadowCell::LockGranuleBytes) {
    uint64_t ChunkStart = std::max(G, PieceStart);
    uint64_t ChunkEnd =
        std::min(G + ShadowCell::LockGranuleBytes, PieceEnd);

    // One spinlock acquire covers every byte of the granule.
    CellGuard Guard(Page[ShadowCell::lockCellIndex(ChunkStart & PageMask)],
                    Locked);

    // Split the chunk into per-lane segments: broadcast is only valid
    // among bytes written by the same thread (the stored tid differs
    // across lanes even when everything else matches).
    uint64_t A = ChunkStart;
    while (A < ChunkEnd) {
      unsigned Lane =
          FirstLane + static_cast<unsigned>((A - RunStart) / Size);
      uint64_t LaneEnd =
          RunStart + static_cast<uint64_t>(Lane - FirstLane + 1) * Size;
      uint64_t SegEnd = std::min(LaneEnd, ChunkEnd);
      unsigned SegLen = static_cast<unsigned>(SegEnd - A);
      ShadowCell *Cells = Page + (A & PageMask);

      if (!MultiLane || SegLen < 2) {
        for (unsigned B = 0; B != SegLen; ++B)
          applyAccess(Ctx, Cells[B], Kind, Lane, Pc, Space, A + B);
        A = SegEnd;
        continue;
      }

      // Leader byte runs the full rules; followers whose prior state
      // matches the leader's prior state would take the exact same
      // transition, so the leader's post state is broadcast instead.
      // Three conditions keep this an exact replay of the per-byte
      // rules: the leader must not have raced (followers must emit the
      // same report sequence, i.e. none), and neither prior nor post
      // state may hold a shared-readers clock (broadcasting would alias
      // the owned CompactClock; prior-flag equality then guarantees the
      // followers' Readers pointers are null too).
      ShadowCell &Leader = Cells[0];
      uint32_t PW = Leader.WriteClock, PWT = Leader.WriteTid;
      uint32_t PR = Leader.ReadClock, PRT = Leader.ReadTid;
      uint8_t PF = Leader.Flags;
      bool PriorShared = (PF & ShadowCell::FlagReadShared) != 0;
      bool Raced = applyAccess(Ctx, Leader, Kind, Lane, Pc, Space, A);
      bool CanBroadcast = !Raced && !PriorShared &&
                          !Leader.has(ShadowCell::FlagReadShared);
      for (unsigned B = 1; B != SegLen; ++B) {
        ShadowCell &Cell = Cells[B];
        if (CanBroadcast && Cell.WriteClock == PW &&
            Cell.WriteTid == PWT && Cell.ReadClock == PR &&
            Cell.ReadTid == PRT && Cell.Flags == PF) {
          Cell.WriteClock = Leader.WriteClock;
          Cell.WriteTid = Leader.WriteTid;
          Cell.ReadClock = Leader.ReadClock;
          Cell.ReadTid = Leader.ReadTid;
          Cell.Flags = Leader.Flags;
          Ctx.countFastPath();
        } else {
          applyAccess(Ctx, Cell, Kind, Lane, Pc, Space, A + B);
        }
      }
      A = SegEnd;
    }
  }
}

} // namespace detector
} // namespace barracuda

#endif // BARRACUDA_DETECTOR_RULES_H
