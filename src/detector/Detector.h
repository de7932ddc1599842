//===- Detector.h - the BARRACUDA race detection engine --------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-side race detector: implements the operational semantics of
/// Figures 2 and 3 over streams of warp-level log records.
///
/// A QueueProcessor consumes one queue's records. Because every thread
/// block routes to exactly one queue, all of a block's per-warp clock
/// state and its shared-memory shadow are processor-private (no locks);
/// only the global-memory shadow (per-cell spinlocks), the
/// synchronization-location map (mutex) and the race reporter are shared.
/// Synchronization records carry a device-issued ticket and are processed
/// in ticket order across queues, so release/acquire edges are observed
/// in their true order; data records need no such ordering (accesses
/// connected by a sync chain are transitively ordered through their
/// queue's FIFO and the tickets, and unordered accesses race either way).
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_DETECTOR_DETECTOR_H
#define BARRACUDA_DETECTOR_DETECTOR_H

#include "detector/Ptvc.h"
#include "detector/Report.h"
#include "detector/Shadow.h"
#include "detector/Shard.h"
#include "obs/Metrics.h"
#include "sim/LaunchConfig.h"
#include "trace/Record.h"

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace barracuda {
namespace detector {

/// Configuration shared by all processors of one kernel run.
struct DetectorOptions {
  sim::ThreadHierarchy Hier;
  /// Collect PTVC format and memory statistics (cheap; on by default).
  bool CollectStats = true;
  /// Unread: every memory record takes the coalesced path. Kept only
  /// because perfbench/src/Composed.cpp still assigns it.
  bool HotPath = true;
  /// Collect per-rule (record-kind) latency histograms. Sampled: every
  /// 64th record of each kind is timed, so the overhead stays within the
  /// profiling budget. Off (the default) adds one predicted branch per
  /// record and zero atomics.
  bool ProfileRules = false;
  /// Address-range shards for the global-memory shadow. 1 = the single
  /// locked GlobalShadow table (the oracle); >1 activates the sharded
  /// detector. See Shard.h.
  unsigned ShadowShards = 1;
  /// Number of record queues feeding the run (producers per mailbox
  /// row). Must match the trace layout when sharding is active.
  unsigned NumQueues = 1;
};

/// Per-rule latency attribution: one histogram of sampled dispatch
/// latencies (ns) plus an exact record count per RecordOp kind.
/// Processor-private (plain counters, local histograms); merged into the
/// shared registry once per queue at finish() as
/// "detector.rule.<kind>.ns" / "detector.rule.<kind>.records".
struct RuleProfile {
  static constexpr unsigned NumKinds = 13; ///< RecordOp enumerators
  static constexpr unsigned SampleEvery = 64;

  std::array<uint64_t, NumKinds> Seen = {};
  std::array<obs::Histogram, NumKinds> Ns;
};

/// Counters for the detector hot path. All monotone; merged per queue.
struct HotPathStats {
  /// Byte-cells settled without running the full FastTrack rules: the
  /// same-epoch guards plus granule-broadcast copies.
  uint64_t FastPathHits = 0;
  /// Multi-lane contiguous address runs formed by warp coalescing (each
  /// covers >= 2 lanes of one record).
  uint64_t RunsCoalesced = 0;
  /// Shadow-page cache hits/misses (global memory, per run or byte).
  uint64_t PageCacheHits = 0;
  uint64_t PageCacheMisses = 0;

  void merge(const HotPathStats &Other) {
    FastPathHits += Other.FastPathHits;
    RunsCoalesced += Other.RunsCoalesced;
    PageCacheHits += Other.PageCacheHits;
    PageCacheMisses += Other.PageCacheMisses;
  }
};

/// PTVC format census: how often (per processed record) each warp's
/// clocks were representable in each format.
struct PtvcFormatStats {
  std::array<uint64_t, 4> Samples = {};

  uint64_t total() const {
    uint64_t Sum = 0;
    for (uint64_t Count : Samples)
      Sum += Count;
    return Sum;
  }
  double fraction(PtvcFormat Format) const {
    uint64_t Sum = total();
    return Sum ? static_cast<double>(
                     Samples[static_cast<size_t>(Format)]) /
                     static_cast<double>(Sum)
               : 0.0;
  }
  /// Fraction representable with at most two clock values per warp
  /// (CONVERGED or DIVERGED) — the paper's "roughly 90%" observation.
  double warpCompressibleFraction() const {
    uint64_t Sum = total();
    if (!Sum)
      return 0.0;
    return static_cast<double>(
               Samples[static_cast<size_t>(PtvcFormat::Converged)] +
               Samples[static_cast<size_t>(PtvcFormat::Diverged)]) /
           static_cast<double>(Sum);
  }

  void merge(const PtvcFormatStats &Other) {
    for (size_t I = 0; I != Samples.size(); ++I)
      Samples[I] += Other.Samples[I];
  }
};

/// State shared across every QueueProcessor of a run. Aggregate
/// statistics live in an obs::Registry ("detector.*" counters) and the
/// historical accessors (hotPathStats() &c.) are views over it, so the
/// same numbers feed the ad-hoc structs, the RunReport and any metrics
/// exporter without a second bookkeeping path. Processors still tally
/// into their private plain counters on the hot path and merge here once
/// per queue at finish().
class SharedDetectorState {
public:
  explicit SharedDetectorState(DetectorOptions Options);

  const DetectorOptions &options() const { return Options; }

  GlobalShadow GlobalMem;
  SyncMap Syncs;
  RaceReporter Reporter;
  /// Count of synchronization tickets fully processed.
  std::atomic<uint32_t> SyncProcessed{0};

  /// The shard partition, present iff ShadowShards > 1. Held by
  /// shared_ptr so an engine launch can keep the mailboxes alive for
  /// idle workers that outlast this state (they only touch mailbox
  /// atomics once quiescent).
  const std::shared_ptr<ShardSet> &shards() const { return Shards_; }

  /// Aggregated statistics (merged in by QueueProcessor::finish()).
  void mergeStats(const PtvcFormatStats &Formats, uint64_t PeakPtvc,
                  uint64_t SharedShadow, uint64_t Records,
                  const HotPathStats &HotPath);

  /// Folds one processor's rule-latency profile into the registry
  /// ("detector.rule.*"). Cold path (finish only); registers the
  /// instruments on first use.
  void mergeRules(const RuleProfile &Rules);

  /// The run's metric registry. Per-launch by construction: every launch
  /// builds a fresh SharedDetectorState, so counters never leak across
  /// launches on a reused engine.
  obs::Registry &metrics() { return Metrics; }
  const obs::Registry &metrics() const { return Metrics; }

  // Views over the registry (the pre-observability stats structs).
  PtvcFormatStats formatStats() const;
  uint64_t peakPtvcBytes() const;
  uint64_t sharedShadowBytes() const;
  uint64_t recordsProcessed() const;
  HotPathStats hotPathStats() const;

private:
  DetectorOptions Options;
  std::shared_ptr<ShardSet> Shards_;
  obs::Registry Metrics;
  /// Instruments resolved once at construction; mergeStats is plain
  /// relaxed adds.
  std::array<obs::Counter *, 4> FormatCounters{};
  obs::Counter *FastPathHits = nullptr;
  obs::Counter *RunsCoalesced = nullptr;
  obs::Counter *PageCacheHits = nullptr;
  obs::Counter *PageCacheMisses = nullptr;
  obs::Counter *PeakPtvcBytes_ = nullptr;
  obs::Counter *SharedShadowBytes_ = nullptr;
  obs::Counter *Records_ = nullptr;
};

/// Consumes one queue's records and applies the detection rules.
class QueueProcessor {
public:
  /// \p QueueIndex identifies this processor's queue within the run's
  /// layout; the sharded detector uses it as the mailbox row and the
  /// worker identity for servicing owned shards.
  explicit QueueProcessor(SharedDetectorState &Shared,
                          unsigned QueueIndex = 0);
  ~QueueProcessor();

  /// Processes one record (records of one queue, in order). With
  /// ProfileRules on, every RuleProfile::SampleEvery-th record of each
  /// kind is timed into the processor-local rule profile.
  void process(const trace::LogRecord &Record);

  /// Flushes statistics into the shared state. Call once, at end.
  void finish();

  /// Installs the stall-time service hook, invoked while this processor
  /// spins (full shard mailbox, sync-ticket wait). It must drain every
  /// shard this processor's worker owns and return whether any message
  /// was applied. An engine multiplexing several launches over one pool
  /// must service ALL live launches' shards here, or cross-launch
  /// mailbox cycles can deadlock; the default services this detector
  /// state's own shards.
  void setStallHook(std::function<bool()> Hook) {
    StallHook = std::move(Hook);
  }

  /// Stamps every shard message this processor posts with the serve
  /// request id (0 = not request-scoped). Set before records flow.
  void setRequestId(uint64_t Id) { RequestId = Id; }

  uint64_t recordsProcessed() const { return Records; }

private:
  /// Lazily-grown unlocked shadow for one block's shared memory.
  class LocalShadow {
  public:
    static constexpr uint64_t PageBits = 12; // 4 KB of shared mem per page
    static constexpr uint64_t PageSize = 1ULL << PageBits;

    ~LocalShadow();
    /// The page array covering \p Addr (creating it if needed); indexed
    /// by Addr % PageSize. Runs resolve the page once instead of hashing
    /// per byte.
    ShadowCell *pageFor(uint64_t Addr);
    ShadowCell &cell(uint64_t Addr) {
      return pageFor(Addr)[Addr & (PageSize - 1)];
    }
    uint64_t bytes() const {
      return Pages.size() * PageSize * sizeof(ShadowCell);
    }

  private:
    std::unordered_map<uint64_t, std::unique_ptr<ShadowCell[]>> Pages;
  };

  struct WarpEntry {
    WarpClocks Clocks;
    size_t LastBytes = 0;
    /// Cached clock publication for shard fan-out, rebuilt lazily when
    /// the warp's knowledge version moves (see WarpKnowledge).
    std::shared_ptr<const WarpKnowledge> Pub;
    uint64_t PubVersion = ~0ULL;

    WarpEntry(uint32_t GlobalWarp, uint32_t Resident,
              const sim::ThreadHierarchy &Hier)
        : Clocks(GlobalWarp, Resident, Hier) {}
  };

  struct BlockState {
    uint32_t BlockId = 0;
    std::unordered_map<uint32_t, WarpEntry> Warps;
    ClockVal MaxClock = 1;
    uint32_t LiveWarps = 0;
    std::vector<uint32_t> ArrivedWarps;
    LocalShadow Shared;
  };

  /// A maximal stretch of one record resolved against one shadow page:
  /// ascending-contiguous addresses of consecutive active lanes (the
  /// coalesced-access common case), or a single lane's span otherwise.
  struct AccessRun {
    uint64_t Start = 0;      ///< first byte address
    unsigned FirstLane = 0;  ///< lane issuing the first Size bytes
    unsigned LaneCount = 0;  ///< consecutive active lanes in the run
  };

  /// The record dispatch proper (process() adds the sampling wrapper).
  void processImpl(const trace::LogRecord &Record);

  BlockState &blockState(uint32_t BlockId);
  WarpEntry &warpEntry(BlockState &BS, uint32_t GlobalWarp);
  uint32_t residentMask(uint32_t GlobalWarp) const;

  /// Global shadow page lookup through the direct-mapped page cache.
  ShadowCell *globalPage(uint64_t Addr);

  void handleMemory(BlockState &BS, WarpEntry &WE,
                    const trace::LogRecord &Record);
  /// Applies one coalesced run, split at shadow-page boundaries: each
  /// piece is walked inline (page resolution, granule locking,
  /// leader-check + broadcast) or posted to its owning shard.
  void processRun(BlockState &BS, WarpEntry &WE, const AccessRun &Run,
                  AccessKind Kind, unsigned Size, uint32_t Pc,
                  bool IsShared);
  /// WE's clock publication, republished if knowledge moved.
  const std::shared_ptr<const WarpKnowledge> &
  knowledgeFor(WarpEntry &WE);
  void handleSync(BlockState &BS, WarpEntry &WE,
                  const trace::LogRecord &Record);
  void handleBarrier(BlockState &BS, WarpEntry &WE,
                     const trace::LogRecord &Record);
  void releaseBarrier(BlockState &BS);
  void handleWarpEnd(BlockState &BS, const trace::LogRecord &Record);
  void handleBlockEnd(BlockState &BS);

  /// entryFor memoized per record: PTVC clocks are frozen while a memory
  /// record's bytes are processed, and entryFor is lane-independent for
  /// Other != self, so one (Other -> value) cache serves every byte and
  /// lane of the record. Callers must exclude Other == self.
  ClockVal cachedEntryFor(const WarpClocks &W, uint32_t Lane, Tid Other);
  void resetEntryMemo() { EntryMemoCount = 0; }

  void afterClockChange(BlockState &BS, WarpEntry &WE);
  void waitForTicket(uint32_t Ticket);
  void finishTicket(uint32_t Ticket);
  /// Services the worker's shard consumers while spinning (see
  /// setStallHook). Returns true if any message was applied.
  bool stallService();

  /// Binds this processor's live clock state to the shared rule
  /// templates (Rules.h); defined in the .cpp.
  struct RuleCtx;
  friend struct RuleCtx;

  SharedDetectorState &Shared;
  const DetectorOptions &Opts;
  unsigned QueueIndex;
  /// Request correlation for shard posts (see setRequestId).
  uint64_t RequestId = 0;
  /// The run's shard partition, or null when detection is inline.
  ShardSet *Shards;
  std::function<bool()> StallHook;
  std::unordered_map<uint32_t, BlockState> Blocks;

  // Direct-mapped cache of recently-touched global shadow pages
  // (replaces the old single cached-page slot; strided accesses touch
  // neighbouring pages, which map to distinct slots).
  static constexpr unsigned PageCacheSlots = 8;
  struct PageCacheEntry {
    uint64_t PageId = ~0ULL;
    ShadowCell *Page = nullptr;
  };
  std::array<PageCacheEntry, PageCacheSlots> PageCache;

  // Per-record entryFor memo (reset at every memory record).
  static constexpr unsigned EntryMemoSlots = 8;
  struct EntryMemoSlot {
    Tid Other = 0;
    ClockVal Value = 0;
  };
  std::array<EntryMemoSlot, EntryMemoSlots> EntryMemo;
  unsigned EntryMemoCount = 0;
  unsigned EntryMemoNext = 0;

  // Local statistics, merged at finish().
  PtvcFormatStats Formats;
  HotPathStats HotPath;
  /// Allocated iff DetectorOptions::ProfileRules; null = detached.
  std::unique_ptr<RuleProfile> Rules;
  size_t CurrentPtvcBytes = 0;
  size_t PeakPtvcBytes = 0;
  uint64_t SharedShadowBytes = 0;
  uint64_t Records = 0;
  bool Finished = false;
};

} // namespace detector
} // namespace barracuda

#endif // BARRACUDA_DETECTOR_DETECTOR_H
