//===- Engine.cpp - persistent detection runtime ---------------------------===//

#include "runtime/Engine.h"

#include "fault/Fault.h"
#include "obs/Log.h"
#include "support/Backoff.h"
#include "support/Format.h"

#include <cassert>
#include <chrono>
#include <stdexcept>

using namespace barracuda;
using namespace barracuda::runtime;

namespace {

/// Structured diagnostics for the pool lifecycle (failures, wounds,
/// respawns, quarantines). Hot paths never log.
const obs::Logger ELog("engine");

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// Launch
//===----------------------------------------------------------------------===//

Launch::Launch(Engine &Eng, uint32_t Epoch,
               detector::SharedDetectorState &State)
    : Eng(Eng), Epoch(Epoch), State(State), Shards(State.shards()),
      Quarantined(Eng.numQueues()) {
  // Fix the block->queue routes for the whole launch: identity when the
  // nominal queue's consumer is alive, else the next live queue. A pool
  // that lost a consumer keeps serving new launches Clean (the records
  // never meet the dead ring); only when every queue is dead do we fall
  // through to the nominal queue and take the reject path.
  unsigned N = Eng.numQueues();
  Routes.resize(N);
  for (unsigned Q = 0; Q != N; ++Q) {
    Routes[Q] = Q;
    if (!Eng.Queues.queue(Q).abandoned())
      continue;
    for (unsigned Step = 1; Step != N; ++Step) {
      unsigned Alt = (Q + Step) % N;
      if (!Eng.Queues.queue(Alt).abandoned()) {
        Routes[Q] = Alt;
        ++Rerouted;
        break;
      }
    }
  }
  for (unsigned I = 0; I != Eng.numQueues(); ++I) {
    Processors.push_back(
        std::make_unique<detector::QueueProcessor>(State, I));
    // Stall-time servicing must cover every launch multiplexed over the
    // pool, not just this one (see Engine::serviceShardsFor).
    Processors.back()->setStallHook(
        [&EngRef = Eng, I] { return EngRef.serviceShardsFor(I); });
  }
  if (obs::TraceRecorder *Tracer = Eng.tracer()) {
    LeaseTrack = Tracer->track(
        support::formatString("detector lease e%u", Epoch));
    LeaseStartUs = Tracer->nowUs();
  }
}

Launch::~Launch() { finish(); }

void Launch::setRequest(const obs::RequestContext &Ctx) {
  Request = Ctx;
  // Shard posts carry the request id from here on (the sink is not yet
  // logging, so every message of the launch is stamped).
  for (auto &Processor : Processors)
    Processor->setRequestId(Ctx.RequestId);
  if (Request.active() && Eng.tracer()) {
    // The lease span id is allocated now so the watermark/shard child
    // spans recorded at finish() can parent to it; a flow step on the
    // lease track draws the serve-frame -> lease arrow in Perfetto.
    LeaseSpanId = Eng.tracer()->newSpan();
    Eng.tracer()->flow('t', LeaseTrack, "request", "serve",
                       Request.RequestId);
  }
}

void Launch::EpochQueueSink::accept(uint32_t BlockId,
                                    const trace::LogRecord &Record) {
  unsigned Nominal = BlockId % Owner.Eng.numQueues();
  trace::EventQueue &Queue = Owner.Eng.Queues.queue(Owner.Routes[Nominal]);
  uint64_t Index = Queue.reserve();
  if (Index == trace::EventQueue::InvalidIndex) {
    // Abandoned queue (its consumer died): the record is rejected, not
    // logged, so the watermark stays exact — the launch just completes
    // degraded with the loss on the books.
    Owner.Rejected.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  trace::LogRecord &Slot = Queue.slot(Index);
  Slot = Record;
  Slot.Epoch = Owner.Epoch;
  if (Queue.commit(Index))
    ++Owner.Logged;
  else
    Owner.Rejected.fetch_add(1, std::memory_order_relaxed);
}

void Launch::finish() {
  if (Finished)
    return;
  Finished = true;
  // Watermark: wait for the pool to drain everything this launch logged.
  // The release increments in workerMain form a release sequence, so the
  // final acquire load here orders all detector mutations before the
  // statistics flush below.
  uint64_t WaitStart = nowNanos();
  support::Backoff Wait;
  while (Drained.load(std::memory_order_acquire) != Logged) {
    // Cooperative cancellation at the drain boundary: state() latches a
    // newly expired deadline; DropRest then flips the workers into
    // retiring this launch's remaining records through the drop ledger,
    // so a cancelled launch still meets the watermark exactly — early
    // retirement, never record loss.
    if (Cancel && !DropRest.load(std::memory_order_relaxed) &&
        Cancel->state() != support::ErrorCode::Ok)
      DropRest.store(1, std::memory_order_release);
    Wait.pause();
  }
  if (Shards) {
    // Stage two: the watermark says every record was processed, i.e.
    // every shard posting has happened; now wait for the owners (idle
    // workers service shards of active launches) to apply them all.
    // Degradation is latched first: dropped records may have swallowed
    // sync tickets, and a gated marker would otherwise never unblock.
    if (degraded())
      Shards->setDegraded();
    support::Backoff ShardWait;
    while (!Shards->quiescent())
      ShardWait.pause();
    Shards->mergeFinalInto(State);
  }
  WatermarkWaitNanos = nowNanos() - WaitStart;
  Eng.CWatermarkWaitNanos->add(WatermarkWaitNanos);
  for (auto &Processor : Processors)
    Processor->finish();
  uint64_t DroppedNow = Dropped.load(std::memory_order_relaxed);
  if (DropRest.load(std::memory_order_relaxed))
    Eng.Flight.record(Eng.numQueues(), obs::FlightCode::CancelTrip, 0,
                      Epoch, Request.RequestId, DroppedNow);
  Eng.Flight.record(Eng.numQueues(), obs::FlightCode::LeaseClose, 0,
                    Epoch, Request.RequestId, Logged, DroppedNow);
  if (obs::TraceRecorder *Tracer = Eng.tracer()) {
    uint64_t End = Tracer->nowUs();
    uint64_t WaitUs = WatermarkWaitNanos / 1000;
    uint64_t Req = Request.RequestId;
    Tracer->complete(LeaseTrack, "watermark wait", "engine",
                     End >= WaitUs ? End - WaitUs : 0, End, Req,
                     Req ? Tracer->newSpan() : 0, LeaseSpanId);
    // One span per shard that saw this launch's traffic, parented to
    // the lease — the deepest layer of the request's span tree. Safe
    // here: quiescent() held above, so the relaxed counter reads are
    // final for this launch.
    if (Req && Shards) {
      std::vector<detector::ShardSet::Sample> Samples = Shards->sample();
      for (unsigned S = 0; S != Samples.size(); ++S) {
        if (!Samples[S].Applied)
          continue;
        Tracer->complete(
            Tracer->track(support::formatString("detector shard %u", S)),
            support::formatString(
                "shard %u apply e%u (%llu msgs)", S, Epoch,
                static_cast<unsigned long long>(Samples[S].Applied)),
            "detector", LeaseStartUs, End, Req, Tracer->newSpan(),
            LeaseSpanId);
      }
    }
    Tracer->complete(LeaseTrack,
                     support::formatString("lease e%u", Epoch), "engine",
                     LeaseStartUs, End, Req, LeaseSpanId,
                     Request.ParentSpan);
  }
  Eng.endLaunch(Epoch);
}

LaunchResilience Launch::resilience() const {
  LaunchResilience R;
  R.RecordsDropped = Dropped.load(std::memory_order_relaxed);
  R.RecordsRejected = Rejected.load(std::memory_order_relaxed);
  R.WorkerFailures = WorkerFailures.load(std::memory_order_relaxed);
  for (const auto &Flag : Quarantined)
    R.QueuesQuarantined += Flag.load(std::memory_order_relaxed) ? 1 : 0;
  R.QueuesRerouted = Rerouted;
  R.CancelledDuringDrain = DropRest.load(std::memory_order_relaxed) != 0;
  R.Degraded = R.RecordsDropped != 0 || R.RecordsRejected != 0 ||
               R.WorkerFailures != 0;
  {
    std::lock_guard<std::mutex> Lock(FirstErrorMutex);
    R.FirstError = FirstWorkerError;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

Engine::Engine(EngineOptions Options)
    : Options(Options), Queues(Options.NumQueues, Options.QueueCapacity),
      Flight(Options.NumQueues + 1) {
  CEmptySpins = &Metrics.counter("engine.empty_spins");
  CParkedNanos = &Metrics.counter("engine.parked_ns");
  CWatermarkWaitNanos = &Metrics.counter("engine.watermark_wait_ns");
  CLeases = &Metrics.counter("engine.leases");
  CRecordsDrained = &Metrics.counter("engine.records_drained");
  CDrainNanos = &Metrics.counter("engine.drain_ns");
  CWorkerFailures = &Metrics.counter("engine.worker_failures");
  CRecordsDropped = &Metrics.counter("engine.records_dropped");
  CQueuesAbandoned = &Metrics.counter("engine.queues_abandoned");
  CWorkersRespawned = &Metrics.counter("engine.workers_respawned");
  HDrainBatch = &Metrics.histogram("engine.drain_batch");
  HQueueDepth = &Metrics.histogram("engine.queue_depth");
  Health = std::make_unique<QueueHealth[]>(Options.NumQueues);
  Threads.reserve(Options.NumQueues);
  for (unsigned I = 0; I != Options.NumQueues; ++I) {
    Threads.emplace_back([this, I] { workerMain(I); });
    ThreadsStarted.fetch_add(1, std::memory_order_relaxed);
  }
  // Wait for every worker's first fault poll before returning. A plan
  // like consumer-death@0 then deterministically abandons its queue
  // before the first launch fixes its routes — pre-launch death means
  // rerouted-and-Clean, never a race between poll and route.
  std::unique_lock<std::mutex> Lock(ParkMutex);
  ParkCV.wait(Lock, [this] {
    return ReadyWorkers.load(std::memory_order_acquire) ==
           this->Options.NumQueues;
  });
}

Engine::~Engine() {
  assert(ActiveLaunches.empty() && "engine destroyed with live launches");
  {
    std::lock_guard<std::mutex> Lock(ParkMutex);
    ShuttingDown.store(true, std::memory_order_release);
  }
  Queues.closeAll();
  ParkCV.notify_all();
  // A permanently quarantined queue's thread was already retired and
  // joined by the supervisor; everything else is live.
  for (std::thread &Thread : Threads)
    if (Thread.joinable())
      Thread.join();
}

std::shared_ptr<Launch>
Engine::begin(detector::SharedDetectorState &State) {
  // Unlimited admission never refuses.
  return tryBegin(State, Admission{}).value();
}

support::Result<std::shared_ptr<Launch>>
Engine::tryBegin(detector::SharedDetectorState &State,
                 const Admission &Limits) {
  // Heal wounded queue slices before admitting more work: respawns only
  // happen at an epoch boundary (no leases in flight), so the new
  // launch starts on a fully live pool whenever possible.
  healPool();
  {
    // Admission check and the epoch-count reservation share ParkMutex
    // (where every ActiveEpochs transition happens), so the in-flight
    // bound is exact: two racing tryBegins cannot both pass one free
    // slot. Raising the count here — before the queues see records —
    // also keeps a worker that just saw an empty queue from parking
    // past this launch.
    std::lock_guard<std::mutex> Lock(ParkMutex);
    uint32_t InFlight = ActiveEpochs.load(std::memory_order_relaxed);
    if (Limits.MaxLeasesInFlight &&
        InFlight >= Limits.MaxLeasesInFlight)
      return support::Status(
          support::ErrorCode::Overloaded,
          support::formatString("%u launches in flight (limit %u)",
                                InFlight, Limits.MaxLeasesInFlight));
    if (Limits.MaxWatermarkLag) {
      uint64_t Lag = 0;
      for (unsigned I = 0; I != Queues.size(); ++I)
        Lag += Queues.queue(I).pendingApprox();
      if (Lag >= Limits.MaxWatermarkLag)
        return support::Status(
            support::ErrorCode::Overloaded,
            support::formatString(
                "%llu records queued behind the detector (limit %llu)",
                static_cast<unsigned long long>(Lag),
                static_cast<unsigned long long>(Limits.MaxWatermarkLag)));
    }
    ActiveEpochs.fetch_add(1, std::memory_order_release);
  }
  ParkCV.notify_all();
  uint32_t Epoch = NextEpoch.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Launch> Handle(new Launch(*this, Epoch, State));
  Flight.record(numQueues(), obs::FlightCode::LeaseOpen, 0, Epoch, 0,
                numQueues());
  CLeases->add(1);
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    ActiveLaunches.emplace(Epoch, Handle);
  }
  return Handle;
}

void Engine::endLaunch(uint32_t Epoch) {
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    ActiveLaunches.erase(Epoch);
  }
  ActiveEpochs.fetch_sub(1, std::memory_order_release);
}

void Engine::woundQueue(unsigned QueueIndex) {
  QueueHealth &H = Health[QueueIndex];
  uint8_t Expected = QueueHealth::Live;
  H.St.compare_exchange_strong(Expected, QueueHealth::Wounded,
                               std::memory_order_acq_rel,
                               std::memory_order_acquire);
  if (Expected != QueueHealth::Perm)
    AnyWounded.store(true, std::memory_order_release);
}

void Engine::healPool() {
  if (!AnyWounded.load(std::memory_order_acquire))
    return;
  bool AllHealed = true;
  for (unsigned Q = 0; Q != Queues.size(); ++Q) {
    QueueHealth &H = Health[Q];
    {
      // The claim shares ParkMutex with every ActiveEpochs transition:
      // a wounded slice is only retired at a true epoch boundary, when
      // no launch can be logging into (or waiting on) its queue.
      std::lock_guard<std::mutex> Lock(ParkMutex);
      if (ActiveEpochs.load(std::memory_order_relaxed) != 0)
        return; // not a boundary; heal at the next one
      uint8_t Expected = QueueHealth::Wounded;
      if (!H.St.compare_exchange_strong(Expected, QueueHealth::Respawning,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        continue;
      H.Retire.store(1, std::memory_order_release);
    }
    // Retire the old worker outside ParkMutex (it needs the lock to
    // wake from park), then either respawn or escalate.
    ParkCV.notify_all();
    if (Threads[Q].joinable())
      Threads[Q].join();
    H.Retire.store(0, std::memory_order_release);
    if (H.Respawns >= Options.MaxWorkerRespawns) {
      // Repeated failures: the slice is beyond healing. Close the queue
      // with a typed reason so later launches route around it losslessly
      // (rejects at a closed ring never count toward a watermark).
      Queues.queue(Q).closeWithError(support::Status(
          support::ErrorCode::WorkerFailed,
          support::formatString(
              "queue %u permanently quarantined after %u worker respawns",
              Q, H.Respawns)));
      CQueuesAbandoned->add(1);
      H.St.store(QueueHealth::Perm, std::memory_order_release);
      Flight.record(numQueues(), obs::FlightCode::QueueQuarantined,
                    static_cast<uint16_t>(Q), 0, 0, H.Respawns);
      ELog.error("queue-quarantined")
          .kv("queue", Q)
          .kv("respawns", H.Respawns);
      if (obs::TraceRecorder *Tracer = Options.Tracer)
        Tracer->instant(Tracer->track(support::formatString(
                            "engine worker %u", Q)),
                        "heal: escalated to permanent quarantine",
                        "resilience");
      continue;
    }
    ++H.Respawns;
    Threads[Q] = std::thread([this, Q] { workerMain(Q); });
    ThreadsStarted.fetch_add(1, std::memory_order_relaxed);
    CWorkersRespawned->add(1);
    H.St.store(QueueHealth::Live, std::memory_order_release);
    Flight.record(numQueues(), obs::FlightCode::WorkerRespawn,
                  static_cast<uint16_t>(Q), 0, 0, H.Respawns);
    ELog.warn("worker-respawned")
        .kv("queue", Q)
        .kv("respawns", H.Respawns)
        .kv("budget", Options.MaxWorkerRespawns);
    if (obs::TraceRecorder *Tracer = Options.Tracer)
      Tracer->instant(Tracer->track(support::formatString(
                          "engine worker %u", Q)),
                      "heal: worker respawned", "resilience");
  }
  // Perm slices stay quarantined forever; stop sweeping for them.
  for (unsigned Q = 0; Q != Queues.size(); ++Q)
    if (Health[Q].St.load(std::memory_order_acquire) ==
        QueueHealth::Wounded)
      AllHealed = false;
  if (AllHealed)
    AnyWounded.store(false, std::memory_order_release);
}

uint32_t Engine::quarantinedQueues() const {
  uint32_t Count = 0;
  for (unsigned Q = 0; Q != Queues.size(); ++Q)
    Count += Health[Q].St.load(std::memory_order_acquire) !=
                     QueueHealth::Live
                 ? 1
                 : 0;
  return Count;
}

bool Engine::serviceShardsFor(unsigned WorkerIndex) {
  // Snapshot the shard sets under the registry lock, service outside it
  // (applying messages reports races and can briefly spin; holding the
  // lock would serialize epoch lookups behind that).
  std::vector<std::shared_ptr<detector::ShardSet>> Sets;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    Sets.reserve(ActiveLaunches.size());
    for (const auto &[Epoch, Handle] : ActiveLaunches)
      if (Handle->Shards)
        Sets.push_back(Handle->Shards);
  }
  bool Any = false;
  for (const auto &Shards : Sets)
    Any |= Shards->serviceOwned(WorkerIndex);
  return Any;
}

std::shared_ptr<Launch> Engine::lookupEpoch(uint32_t Epoch) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto It = ActiveLaunches.find(Epoch);
  assert(It != ActiveLaunches.end() &&
         "record for an unregistered epoch: launch finished early?");
  return It->second;
}

void Engine::workerMain(unsigned QueueIndex) {
  trace::EventQueue &Queue = Queues.queue(QueueIndex);
  constexpr size_t BatchSize = 64;
  trace::LogRecord Batch[BatchSize];
  // Consecutive records usually belong to one launch; cache the last
  // epoch's handle to skip the registry on the fast path. The shared_ptr
  // keeps the Launch alive across the lookup-free hits.
  std::shared_ptr<Launch> Cached;
  support::Backoff Wait;
  fault::FaultInjector *Faults = Options.Faults;
  // Set once this worker abandoned its queue (injected consumer death):
  // it keeps draining so every launch's watermark still completes, but
  // records go to the drop ledger instead of the detector.
  bool Abandoned = false;
  // Sticky once a slow-consumer fault claims this worker: every
  // non-empty batch is followed by a delay. Lossless — records are all
  // still processed — but a launch deadline deterministically expires
  // during the drain.
  bool SlowMode = false;
  // Ready handshake with the constructor (see ReadyWorkers): signalled
  // once, after the first fault poll below.
  bool SignaledReady = false;
  // Records this worker has drained — the index base for engine fault
  // specs ("worker-throw@100" = the 100th record drained here).
  uint64_t DrainedHere = 0;
  // Drain-phase wall time, accumulated locally per batch and flushed to
  // the engine.drain_ns counter at empty-queue boundaries so trickling
  // queues don't pay an atomic per batch.
  uint64_t BatchStartNs = 0;
  uint64_t DrainNsLocal = 0;
  obs::TraceRecorder *Tracer = Options.Tracer;
  uint32_t Track = 0;
  if (Tracer)
    Track = Tracer->track(
        support::formatString("engine worker %u", QueueIndex));
  // Per-batch spans would swamp the trace; group contiguous non-empty
  // drains into one "drain" episode per queue-empty-to-empty stretch.
  bool EpisodeOpen = false;
  uint64_t EpisodeStartUs = 0;
  uint64_t EpisodeRecords = 0;
  auto closeEpisode = [&] {
    if (!EpisodeOpen)
      return;
    EpisodeOpen = false;
    Tracer->complete(
        Track,
        support::formatString("drain %llu",
                              static_cast<unsigned long long>(
                                  EpisodeRecords)),
        "engine", EpisodeStartUs, Tracer->nowUs());
    EpisodeRecords = 0;
  };
  for (;;) {
    // Retirement signal from the self-healing supervisor: leave so the
    // replacement thread can take over this queue. Only raised at an
    // epoch boundary, so no launch is mid-drain here.
    if (Health[QueueIndex].Retire.load(std::memory_order_acquire))
      break;
    if (Faults) {
      if (!Abandoned &&
          Faults->fire(fault::FaultKind::ConsumerDeath, DrainedHere,
                       QueueIndex)) {
        // The consumer "dies": producers blocked on this ring unblock
        // with QueueAbandoned and new records are refused. The thread
        // itself survives in drain-and-drop mode so nothing already
        // committed can stall a watermark.
        Queue.closeWithError(support::Status(
            support::ErrorCode::QueueAbandoned,
            support::formatString(
                "injected consumer death on queue %u", QueueIndex)));
        Abandoned = true;
        CQueuesAbandoned->add(1);
        Flight.record(QueueIndex, obs::FlightCode::FaultInjected,
                      static_cast<uint16_t>(QueueIndex), 0, 0,
                      static_cast<uint64_t>(
                          fault::FaultKind::ConsumerDeath));
        ELog.warn("queue-abandoned")
            .kv("queue", QueueIndex)
            .kv("cause", "injected consumer death");
        if (Tracer)
          Tracer->instant(Track, "fault: consumer death (queue abandoned)",
                          "resilience");
      }
      if (Faults->fire(fault::FaultKind::QueueStall, DrainedHere,
                       QueueIndex)) {
        // Backpressure only: producers wait out the stall on the full
        // ring's backoff ladder. Lossless — the fault is hit but no
        // record is dropped.
        Flight.record(QueueIndex, obs::FlightCode::FaultInjected,
                      static_cast<uint16_t>(QueueIndex), 0, 0,
                      static_cast<uint64_t>(fault::FaultKind::QueueStall));
        if (Tracer)
          Tracer->instant(Track, "fault: queue stall", "resilience");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!SlowMode &&
          Faults->fire(fault::FaultKind::SlowConsumer, DrainedHere,
                       QueueIndex)) {
        SlowMode = true;
        Flight.record(QueueIndex, obs::FlightCode::FaultInjected,
                      static_cast<uint16_t>(QueueIndex), 0, 0,
                      static_cast<uint64_t>(
                          fault::FaultKind::SlowConsumer));
        if (Tracer)
          Tracer->instant(Track, "fault: slow consumer", "resilience");
      }
    }
    if (!SignaledReady) {
      SignaledReady = true;
      {
        std::lock_guard<std::mutex> Lock(ParkMutex);
        ReadyWorkers.fetch_add(1, std::memory_order_release);
      }
      ParkCV.notify_all();
    }
    size_t Count = Queue.drain(Batch, BatchSize);
    if (Count) {
      HDrainBatch->record(Count);
      HQueueDepth->record(Queue.pendingApprox());
      CRecordsDrained->add(Count);
      if (Tracer && !EpisodeOpen) {
        EpisodeOpen = true;
        EpisodeStartUs = Tracer->nowUs();
      }
      EpisodeRecords += Count;
      BatchStartNs = nowNanos();
    }
    uint64_t DropsThisBatch = 0;
    for (size_t I = 0; I != Count; ++I) {
      const trace::LogRecord &Record = Batch[I];
      assert(Record.Epoch != 0 && "unstamped record in engine queue");
      if (!Cached || Cached->epoch() != Record.Epoch)
        Cached = lookupEpoch(Record.Epoch);
      bool Drop = Abandoned || Cached->quarantined(QueueIndex) ||
                  Cached->dropRest();
      if (!Drop) {
        // A throwing processor must never take the pool down: the
        // exception quarantines this launch's slice of the queue and
        // the worker keeps serving (other launches get a fresh
        // processor — the failure does not outlive its lease).
        bool Threw = false;
        std::string What;
        try {
          if (Faults && Faults->fire(fault::FaultKind::WorkerThrow,
                                     DrainedHere, QueueIndex))
            throw std::runtime_error(
                "injected detector worker exception");
          Cached->Processors[QueueIndex]->process(Record);
        } catch (const std::exception &E) {
          Threw = true;
          What = E.what();
        } catch (...) {
          Threw = true;
          What = "unknown exception";
        }
        if (Threw) {
          Cached->quarantine(
              QueueIndex,
              support::Status(support::ErrorCode::WorkerFailed, What)
                  .withContext(support::formatString(
                      "detector worker %u", QueueIndex)));
          CWorkerFailures->add(1);
          woundQueue(QueueIndex);
          Flight.record(QueueIndex, obs::FlightCode::WorkerFailure,
                        static_cast<uint16_t>(QueueIndex), Record.Epoch,
                        Cached->Request.RequestId);
          ELog.error("worker-failure")
              .kv("queue", QueueIndex)
              .kv("epoch", Record.Epoch)
              .kv("requestId", Cached->Request.RequestId)
              .kv("error", What);
          if (Tracer)
            Tracer->instant(Track, "worker failure: queue quarantined",
                            "resilience", Cached->Request.RequestId);
          Drop = true;
        }
      }
      if (Drop) {
        Cached->Dropped.fetch_add(1, std::memory_order_relaxed);
        CRecordsDropped->add(1);
        ++DropsThisBatch;
        // Dropped records may have carried sync tickets whose shard
        // markers will now never be posted; relax the marker gate so no
        // shard waits forever on a hole in the ticket sequence.
        if (Cached->Shards)
          Cached->Shards->setDegraded();
      }
      ++DrainedHere;
      Cached->Drained.fetch_add(1, std::memory_order_release);
    }
    // One black-box event per dropping batch — not per record — keeps
    // the ring's history window wide even under a full drop storm.
    if (DropsThisBatch && Cached)
      Flight.record(QueueIndex, obs::FlightCode::RecordsDropped,
                    static_cast<uint16_t>(QueueIndex), Cached->epoch(),
                    Cached->Request.RequestId, DropsThisBatch);
    // Batch boundary: drain what other queues posted into this worker's
    // shards of the launch just served.
    if (Count && Cached && Cached->Shards)
      Cached->Shards->serviceOwned(QueueIndex);
    if (Count)
      DrainNsLocal += nowNanos() - BatchStartNs;
    if (Count && SlowMode)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (Count == 0) {
      if (DrainNsLocal) {
        CDrainNanos->add(DrainNsLocal);
        DrainNsLocal = 0;
      }
      if (Tracer)
        closeEpisode();
      // An abandoned queue reads as exhausted immediately (it was
      // closed at the moment of death), but this worker must stay
      // resident in drain-and-drop mode: a producer that had already
      // reserved a slot may still publish a record, and only the pool
      // can retire it from the watermark. It leaves at shutdown.
      if (Queue.exhausted() &&
          (!Abandoned || ShuttingDown.load(std::memory_order_acquire)))
        break;
      if (ActiveEpochs.load(std::memory_order_acquire) == 0) {
        // Nothing in flight: park. Records only exist between begin()
        // and the drained watermark, so empty-queue + zero epochs means
        // there is nothing to miss; begin() wakes us under ParkMutex.
        Cached.reset();
        uint64_t ParkStart = nowNanos();
        {
          std::unique_lock<std::mutex> Lock(ParkMutex);
          ParkCV.wait(Lock, [this, QueueIndex] {
            return ShuttingDown.load(std::memory_order_acquire) ||
                   ActiveEpochs.load(std::memory_order_acquire) != 0 ||
                   Health[QueueIndex].Retire.load(
                       std::memory_order_acquire) != 0;
          });
        }
        uint64_t Parked = nowNanos() - ParkStart;
        CParkedNanos->add(Parked);
        if (Tracer) {
          uint64_t End = Tracer->nowUs();
          uint64_t ParkedUs = Parked / 1000;
          Tracer->complete(Track, "parked", "engine",
                           End >= ParkedUs ? End - ParkedUs : 0, End);
        }
      } else {
        // Epochs are active but our queue is idle: other queues may be
        // filling this worker's shards (a finishing launch spins on
        // shard quiescence here), so service them before backing off.
        if (serviceShardsFor(QueueIndex))
          Wait.reset();
        else
          Wait.pause();
      }
    } else if (Wait.waits()) {
      CEmptySpins->add(Wait.waits());
      Wait.reset();
    }
  }
  if (Tracer)
    closeEpisode();
  if (DrainNsLocal)
    CDrainNanos->add(DrainNsLocal);
  CEmptySpins->add(Wait.waits());
}

void Engine::sampleLive(EngineLiveSample &Out) const {
  Out.QueueDepths.resize(Queues.size());
  Out.WatermarkLag = 0;
  for (unsigned I = 0; I != Queues.size(); ++I) {
    uint64_t Depth = Queues.queue(I).pendingApprox();
    Out.QueueDepths[I] = Depth;
    Out.WatermarkLag += Depth;
  }
  Out.LeasesInFlight = ActiveEpochs.load(std::memory_order_relaxed);
  Out.RecordsDrained = CRecordsDrained->value();
  Out.RecordsDropped = CRecordsDropped->value();
  Out.WorkerFailures = CWorkerFailures->value();
  Out.QueuesAbandoned = CQueuesAbandoned->value();
  Out.QuarantinedQueues = quarantinedQueues();
  Out.WorkersRespawned = CWorkersRespawned->value();
}

EngineCounters Engine::counters() const {
  EngineCounters Counters;
  Counters.EmptySpins = CEmptySpins->value();
  Counters.FullSpins = Queues.totalFullSpins();
  Counters.CommitStalls = Queues.totalCommitStalls();
  Counters.ParkedNanos = CParkedNanos->value();
  Counters.DrainNanos = CDrainNanos->value();
  Counters.WatermarkWaitNanos = CWatermarkWaitNanos->value();
  Counters.WorkerFailures = CWorkerFailures->value();
  Counters.RecordsDropped = CRecordsDropped->value();
  Counters.RecordsRejected = Queues.totalRejected();
  Counters.QueuesAbandoned = CQueuesAbandoned->value();
  Counters.WorkersRespawned = CWorkersRespawned->value();
  return Counters;
}
