//===- RunReport.h - the unified per-run report -----------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One versioned report for everything a run produces: launch outcome,
/// record tallies, detector statistics, engine backpressure, static
/// instrumentation coverage, the findings themselves, and a raw metric
/// snapshot, behind a single schema:
///
///   RunReport R = Session.report();
///   R.printText(stdout);              // the old --stats block
///   puts(R.toJson().c_str());        // {"schemaVersion": 2, ...}
///
/// Scalar sections are per-launch (the most recent instrumented launch;
/// relaunches on a reused engine restart from zero). Findings are
/// session-cumulative and deduplicated, matching what races() always
/// returned. The JSON schema is versioned by schemaVersion; additive
/// changes keep the version, field renames or removals bump it.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_BARRACUDA_RUNREPORT_H
#define BARRACUDA_BARRACUDA_RUNREPORT_H

#include "detector/Detector.h"
#include "detector/Report.h"
#include "instrument/Instrumenter.h"
#include "obs/Profiler.h"
#include "sim/Machine.h"
#include "support/Error.h"

#include <cstdio>
#include <string>
#include <vector>

namespace barracuda {

/// The unified report for one session run. Produced by Session::report().
struct RunReport {
  /// Bumped on any non-additive schema change to the JSON form.
  /// v2: added the "profile" section (continuous profiling) and made
  /// consumers version-check rather than assume v1.
  /// v3: added the "blackbox" section (flight-recorder dump on degraded
  /// or revoked launches).
  static constexpr unsigned SchemaVersion = 3;

  /// Outcome of the most recent launch.
  struct LaunchSection {
    std::string Kernel;
    bool Instrumented = false;
    bool Ok = true;
    std::string Error;
    /// Structured failure code ("Ok" when the launch succeeded);
    /// serialized by name so the schema is toolchain-stable.
    support::ErrorCode Code = support::ErrorCode::Ok;
    /// PC the kernel was blocked at when a KernelHang fired;
    /// LaunchResult::InvalidPc when not applicable.
    uint32_t FailPc = sim::LaunchResult::InvalidPc;
    uint64_t ThreadsLaunched = 0;
    uint64_t WarpInstructions = 0;
    uint64_t RecordsLogged = 0;
    uint64_t RecordsPruned = 0;
    /// Always true: every launch runs the pre-lowered micro-op dispatch
    /// loop. Kept so the "simLowered" JSON key stays in the schema.
    bool SimLowered = true;
  } Launch;

  /// Record-class tallies for the launch (from the counting sink and the
  /// detector's drained count).
  struct RecordsSection {
    uint64_t Processed = 0;
    uint64_t Memory = 0;
    uint64_t Sync = 0;
    uint64_t Control = 0;
  } Records;

  /// Detector-side statistics for the launch ("detector.*" metrics).
  struct DetectorSection {
    detector::PtvcFormatStats Formats;
    detector::HotPathStats HotPath;
    uint64_t PeakPtvcBytes = 0;
    uint64_t GlobalShadowBytes = 0;
    uint64_t SharedShadowBytes = 0;
    uint64_t SyncLocations = 0;

    /// One address-range shard's counters (--shadow-shards > 1 only;
    /// empty when the detector ran single-table). Serialized as the
    /// "shards" array; additive, so the schema version is unchanged.
    struct ShardStats {
      unsigned Index = 0;
      uint64_t Posted = 0;
      uint64_t Applied = 0;
      uint64_t RunPieces = 0;
      uint64_t SyncMarks = 0;
      uint64_t Markers = 0;
      uint64_t Pages = 0;
      uint64_t ShadowBytes = 0;
      uint64_t ProducerStalls = 0;
      uint64_t TicketStalls = 0;
      uint64_t FastPathHits = 0;
    };
    std::vector<ShardStats> Shards;
  } Detector;

  /// Runtime backpressure/idle numbers for the launch. Spin counts are
  /// engine-wide deltas, approximate when other streams run concurrently;
  /// WatermarkWaitNanos is exact (from this launch's lease).
  struct EngineSection {
    unsigned NumQueues = 0;
    uint64_t QueueFullSpins = 0;
    uint64_t CommitStalls = 0;
    uint64_t DetectorEmptySpins = 0;
    uint64_t ParkedNanos = 0;
    uint64_t WatermarkWaitNanos = 0;
  } Engine;

  /// Fault-and-recovery accounting for the launch (or replay). A
  /// degraded run completed — every record is accounted for — but some
  /// were dropped rather than processed, so findings are best-effort.
  /// The ledger always balances: Records.Processed + RecordsDropped +
  /// RecordsRejected == Launch.RecordsLogged.
  struct ResilienceSection {
    /// Any records lost by THIS launch (dropped, rejected or corrupted)
    /// or any worker failure while processing it. Per-launch truth: a
    /// launch that routed around a previously abandoned queue and lost
    /// nothing is clean, whatever the engine suffered earlier.
    bool Degraded = false;
    /// Records drained in drop mode (quarantined slice or abandoned
    /// queue) — never processed by the detector.
    uint64_t RecordsDropped = 0;
    /// Producer operations refused at abandoned queues: emitted by the
    /// device (so part of Launch.RecordsLogged) but refused before
    /// entering the ring, hence never processable.
    uint64_t RecordsRejected = 0;
    /// Trace-file entries deliberately corrupted by fault injection
    /// (writer side) or recovered by skip-and-resync (reader side).
    uint64_t RecordsCorrupted = 0;
    uint64_t RecordsResynced = 0;
    /// Detector worker exceptions caught and quarantined.
    uint64_t WorkerFailures = 0;
    /// Replacement workers the self-healing supervisor spawned for
    /// failed queue slices while this launch was admitted or drained
    /// (an engine-wide delta, like the spin counts — the heal repairs
    /// damage from an earlier launch on this engine).
    uint64_t WorkersRespawned = 0;
    /// Per-launch processor slices quarantined after a failure.
    uint64_t QueuesQuarantined = 0;
    /// Queues closed with an error by a dying consumer. Absolute engine
    /// state, not a per-launch delta: abandonment is permanent, and the
    /// count tells an operator the pool is running short. It no longer
    /// implies Degraded — new launches route around dead queues.
    uint64_t QueuesAbandoned = 0;
    /// Queues this launch routed around because their consumer had died
    /// before it began (lossless; the launch stays clean).
    uint64_t QueuesRerouted = 0;
    /// Machine watchdog / barrier-deadlock trips this launch (0 or 1).
    uint64_t WatchdogTrips = 0;
    /// Fault-plan accounting: specs armed vs. specs that fired.
    uint64_t FaultsInjected = 0;
    uint64_t FaultsHit = 0;
    /// First structured error observed ("[Code] message"); empty when
    /// the run was clean.
    std::string FirstError;
  } Resilience;

  /// Flight-recorder dump (schemaVersion 3): the engine's recent
  /// structured events, captured when a launch retires Degraded,
  /// Cancelled or DeadlineExceeded, or when the run respawned or
  /// quarantined a worker. Empty (Captured=false) for clean launches —
  /// the blackbox explains incidents, it is not a per-launch log.
  struct BlackboxSection {
    bool Captured = false;
    /// Why the dump was taken ("degraded", "cancelled", ...).
    std::string Reason;
    /// One flight-recorder event, oldest first. Ring numQueues() is the
    /// supervisor/lease-lifecycle ring; lower rings belong to workers.
    struct Event {
      uint64_t Seq = 0;
      uint64_t TimeNs = 0;
      std::string Code;
      unsigned Ring = 0;
      uint32_t Worker = 0;
      uint64_t Epoch = 0;
      uint64_t RequestId = 0;
      uint64_t A = 0;
      uint64_t B = 0;
    };
    std::vector<Event> Events;
  } Blackbox;

  /// Continuous-profiling attribution for the launch (schemaVersion 2).
  /// Where the run's time and instructions went: per-PC kernel profiles
  /// from the interpreter, per-rule latency attribution from the
  /// detector, and per-phase wall time from the engine.
  struct ProfileSection {
    bool Enabled = false;

    /// Per-kernel per-PC profiles (reset at launch start, so per-launch
    /// like every other scalar section).
    std::vector<obs::KernelProfile> Kernels;

    /// One detector rule's latency attribution. SampledNs sums every
    /// 1-in-64 sampled dispatch; Records is the exact per-kind count.
    struct RuleLatency {
      std::string Kind;
      uint64_t Records = 0;
      uint64_t Samples = 0;
      uint64_t SampledNs = 0;
    };
    std::vector<RuleLatency> Rules;

    /// Engine phase wall-time attribution (engine-wide deltas for the
    /// launch, like EngineSection's spin counts).
    uint64_t DrainNanos = 0;
    uint64_t ParkedNanos = 0;
    uint64_t WatermarkWaitNanos = 0;

    /// Fraction of dynamic warp instructions attributed to pcs across
    /// every kernel (1.0 when nothing executed).
    double attributedFraction() const {
      uint64_t Total = 0, Attributed = 0;
      for (const obs::KernelProfile &Profile : Kernels) {
        Total += Profile.TotalDynamic;
        Attributed += Profile.totalAttributed();
      }
      return Total ? static_cast<double>(Attributed) /
                         static_cast<double>(Total)
                   : 1.0;
    }
  } Profile;

  /// Static instrumentation coverage for the loaded module.
  instrument::InstrumentationStats Static;

  /// Wall time loadModule spent in the PTX front end (parse only), in
  /// nanoseconds. Serialized as "parseNanos" in the "instrumentation"
  /// section; the module-load microbench bounds it against regressions.
  uint64_t ParseNanos = 0;

  /// Session-cumulative deduplicated findings (what races() returns).
  std::vector<detector::RaceReport> Races;
  std::vector<detector::BarrierError> BarrierErrors;

  /// The launch's raw metric snapshot ("detector.*" names), already
  /// rendered as a JSON object; empty when stats collection is off.
  std::string MetricsJson;

  /// Fills everything a run's detector state owns: Records.Processed,
  /// the Detector section (shard samples included), MetricsJson when
  /// the state collected stats, and Profile.Rules when it profiled
  /// rules. Session launches and offline replay both report through
  /// this, so their detector sections cannot drift apart.
  void fillFromDetector(detector::SharedDetectorState &State);

  bool anyFindings() const {
    return !Races.empty() || !BarrierErrors.empty();
  }

  /// The full document: {"schemaVersion": 2, "launch": {...}, ...,
  /// "races": [...], "barrierErrors": [...], "metrics": {...}}.
  std::string toJson() const;

  /// Human-readable statistics block (the former --stats output),
  /// including a top-N hot-PC table when the profile section is on.
  void printText(std::FILE *Out) const;

  /// Flamegraph-compatible folded stacks, one line per hot pc:
  /// "kernel;pc_<pc>_line_<line> <executed>\n". Feed straight into
  /// flamegraph.pl. Empty when profiling was off or nothing executed.
  std::string foldedStacks() const;
};

} // namespace barracuda

#endif // BARRACUDA_BARRACUDA_RUNREPORT_H
