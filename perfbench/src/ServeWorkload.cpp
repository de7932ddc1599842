//===- ServeWorkload.cpp - open-loop multi-tenant serving -----------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mixed: an open loop against an in-process serve::Server over
/// its unix socket, from this process with at most four connections.
/// Send times come from a seeded Poisson arrival schedule, stepped
/// through a fixed ladder of offered rates. Each request's class is
/// drawn from a seeded mix:
///
///   * small  - the safe histogram at 4x64 from one of three tenants;
///   * heavy  - the sync-dense kernel at 1x128 from a fourth tenant;
///   * racy   - the racy histogram at 4x64 (control launches).
///
/// Latency is timed from when each request was due, so a stalled
/// connection charges its wait to every request queued behind it.
///
//===----------------------------------------------------------------------===//

#include "Composed.h"
#include "HostSpeed.h"
#include "Kernels.h"
#include "ClosedLoop.h"

#include "barracuda/Session.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Rng.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace barracuda;
using support::json::Value;

namespace perfbench {

namespace {

/// Connections the open loop sends over (the host's four cores).
constexpr unsigned Connections = 4;

/// The offered-rate ladder in requests per second, all classes
/// together, and each step's share of the run. The nominal step holds
/// most of the run: about 3400 small requests in a 25-s run. The top
/// step is at or past the pool's capacity, so the ladder brackets the
/// knee. See README.md for the measurements these were chosen from.
struct Step {
  double Rate;
  double Share;
};
constexpr Step Ladder[] = {
    {100, 0.05}, {200, 0.7}, {400, 0.15}, {1200, 0.1}};
constexpr size_t NominalStep = 1;

/// Small-class p99 latency limit (timed from due), microseconds. About
/// three times the nominal p99, which heavy launches set (a small launch
/// that lands on a busy detector pool waits out the heavy one), so the
/// limit trips where lateness takes off, not on that interference.
constexpr double LatencyLimitUs = 50000;
/// Backlog: a step whose median send lateness exceeds LatenessLimitUs,
/// or whose lateness grows by more than BacklogGrowthUs between its
/// first and last quarter, is not keeping up with its schedule.
constexpr double LatenessLimitUs = 5000;
constexpr double BacklogGrowthUs = 5000;
/// A step falling further behind than this stops sending (the rest of
/// its schedule is skipped and the step is disqualified).
constexpr double GiveUpLatenessUs = 1e6;

/// The nominal step is also cut into windows of this many small
/// requests (so each window's p99 has ten samples beyond it); the
/// per-window values are printed as context next to the pooled metrics.
constexpr size_t WindowSmall = 1000;

/// Class mix: of every MixBlock consecutive requests, HeavyPerBlock are
/// heavy and RacyPerBlock racy, at seeded positions. Exact shares keep
/// the heavy launches, which set the small-class tail, from varying in
/// number between seeds.
constexpr unsigned MixBlock = 100, HeavyPerBlock = 2, RacyPerBlock = 1;

enum class Class : uint8_t { Small, Heavy, Racy };

const sim::Dim3 SmallGrid{4}, SmallBlock{64};
const sim::Dim3 HeavyGrid{1}, HeavyBlock{128};
constexpr uint64_t HeavyIters = 16;
constexpr unsigned SmallTenants = 3;

/// Each class's kernel and launch shape, indexed by Class.
struct ClassKernel {
  const std::string &(*Ptx)();
  const char *Kernel;
  sim::Dim3 Grid, Block;
};
const ClassKernel ClassKernels[] = {
    {histogramSafePtx, "histogram", SmallGrid, SmallBlock},
    {syncDensePtx, "syncdense", HeavyGrid, HeavyBlock},
    {histogramRacyPtx, "histogram", SmallGrid, SmallBlock}};
constexpr size_t NumClasses = std::size(ClassKernels);

/// Launch arguments of class \p C, its buffers allocated with \p Alloc.
template <typename AllocFn>
std::vector<uint64_t> classArgs(Class C, AllocFn Alloc) {
  if (C == Class::Heavy)
    return {Alloc(HeavyBlock.X * HeavyGrid.X * 4), Alloc(64), HeavyIters, 1};
  return {Alloc(64)};
}

struct Tenants {
  uint64_t SmallBins[SmallTenants] = {};
  uint64_t HeavySlots = 0, HeavyCounter = 0;
  uint64_t RacyBins = 0;
};

std::string smallTenant(unsigned I) { return "small-" + std::to_string(I); }

/// One running daemon plus its connections and tenants.
struct ServeSetup {
  std::string SocketPath;
  std::unique_ptr<serve::Server> Server;
  std::vector<std::unique_ptr<serve::Client>> Clients;
  Tenants T;
  /// The racy tenant's cumulative race total so far.
  uint64_t RacyTotal = 0;

  ~ServeSetup() {
    Clients.clear();
    if (Server)
      Server->stop();
    Server.reset();
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
  }
};

/// Run-scoped directory (inside the working directory) for the sockets.
const char *SocketDir = ".perfbench-run";

std::string failText(const support::Status &S) { return S.describe(); }

/// Starts the daemon on a fresh socket and opens \p Clients connections.
bool startServer(ServeSetup &S, unsigned Rep, unsigned Clients) {
  ::mkdir(SocketDir, 0700);
  S.SocketPath = std::string(SocketDir) + "/serve-" +
                 std::to_string(::getpid()) + "-" + std::to_string(Rep) +
                 ".sock";
  serve::ServerOptions SO; // default admission, 4 queues, sampling 0.05
  SO.SocketPath = S.SocketPath;
  S.Server = std::make_unique<serve::Server>(SO);
  support::Status Started = S.Server->start();
  if (!Started.ok()) {
    std::fprintf(stderr, "perfbench: server did not start: %s\n",
                 failText(Started).c_str());
    return false;
  }
  for (unsigned I = 0; I != Clients; ++I) {
    auto C = std::make_unique<serve::Client>();
    support::Status Connected = C->connect(S.SocketPath);
    if (!Connected.ok()) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n",
                   failText(Connected).c_str());
      return false;
    }
    S.Clients.push_back(std::move(C));
  }
  return true;
}

bool setUp(ServeSetup &S, unsigned Rep, Result &R) {
  if (!startServer(S, Rep, Connections))
    return false;
  serve::Client &C = *S.Clients[0];
  auto Load = [&](const std::string &Tenant, const std::string &Ptx) {
    auto Loaded = C.loadModule(Tenant, Ptx);
    if (!Loaded.ok())
      R.fail(Tenant + ": load_module failed: " + failText(Loaded.status()),
             true);
    return Loaded.ok();
  };
  auto Alloc = [&](const std::string &Tenant, uint64_t Bytes) -> uint64_t {
    auto Addr = C.alloc(Tenant, Bytes);
    if (!Addr.ok()) {
      R.fail(Tenant + ": alloc failed: " + failText(Addr.status()), true);
      return 0;
    }
    return Addr.value();
  };
  bool Ok = true;
  for (unsigned I = 0; I != SmallTenants; ++I) {
    Ok &= Load(smallTenant(I), histogramSafePtx());
    S.T.SmallBins[I] = Alloc(smallTenant(I), 64);
  }
  Ok &= Load("heavy", syncDensePtx());
  S.T.HeavySlots = Alloc("heavy", HeavyBlock.X * HeavyGrid.X * 4);
  S.T.HeavyCounter = Alloc("heavy", 64);
  Ok &= Load("racy", histogramRacyPtx());
  S.T.RacyBins = Alloc("racy", 64);
  if (!Ok)
    return false;
  // Warm-up: every tenant's first launches (lowering, engine threads).
  for (unsigned Round = 0; Round != 20; ++Round)
    for (unsigned I = 0; I != SmallTenants; ++I)
      (void)C.launch(smallTenant(I), "histogram", SmallGrid, SmallBlock,
                     {S.T.SmallBins[I]});
  for (unsigned Round = 0; Round != 3; ++Round) {
    (void)C.launch("heavy", "syncdense", HeavyGrid, HeavyBlock,
                   {S.T.HeavySlots, S.T.HeavyCounter, HeavyIters, 1});
    auto Racy = C.launch("racy", "histogram", SmallGrid, SmallBlock,
                         {S.T.RacyBins});
    if (Racy.ok())
      S.RacyTotal = Racy.value().getU64("racesTotal");
  }
  return true;
}

struct Request {
  uint64_t DueNs = 0;
  Class C = Class::Small;
  uint8_t Tenant = 0;
  // Filled by the sender.
  uint64_t SentNs = 0, DoneNs = 0;
  uint64_t Records = 0;
  bool Sent = false, Ok = false;
};

/// Poisson arrivals at \p Rate for \p Seconds, classes from the mix.
std::vector<Request> schedule(double Rate, double Seconds,
                              support::Rng &Arrivals, support::Rng &Mix) {
  std::vector<Request> Out;
  std::vector<Class> Block;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - Arrivals.nextDouble()) / Rate;
    if (T >= Seconds)
      return Out;
    if (Block.empty()) {
      Block.assign(MixBlock, Class::Small);
      std::fill_n(Block.begin(), HeavyPerBlock, Class::Heavy);
      std::fill_n(Block.begin() + HeavyPerBlock, RacyPerBlock, Class::Racy);
      for (size_t I = Block.size() - 1; I > 0; --I) // Fisher-Yates
        std::swap(Block[I], Block[Mix.nextBelow(I + 1)]);
    }
    Request Q;
    Q.DueNs = static_cast<uint64_t>(T * 1e9);
    Q.C = Block.back();
    Block.pop_back();
    Q.Tenant = static_cast<uint8_t>(Mix.nextBelow(SmallTenants));
    Out.push_back(Q);
  }
}

/// Counts read from the reports of heavy launches.
struct HeavyCounts {
  std::vector<double> Sync, Markers, Ticket, Producer, Shadow;
};

/// Shared state of one step's senders.
struct StepState {
  uint64_t StartNs = 0;
  std::atomic<size_t> Next{0};
  std::atomic<bool> GaveUp{false};
  std::mutex Mutex; // guards the fields below and R
  uint64_t LastRacyTotal = 0;
  uint64_t Refused = 0;
  HeavyCounts Heavy;
};

/// Processed + dropped == logged in a rendered RunReport.
bool ledgerBalances(const Value &Report) {
  const Value *Launch = Report.get("launch");
  const Value *Records = Report.get("records");
  const Value *Res = Report.get("resilience");
  return Launch && Records && Res &&
         Records->getU64("processed") + Res->getU64("recordsDropped") ==
             Launch->getU64("recordsLogged");
}

/// Verifies one response against its class's gates.
void checkResponse(const Request &Q, const support::Result<Value> &Resp,
                   StepState &St, Result &R) {
  const char *Name = Q.C == Class::Small   ? "small"
                     : Q.C == Class::Heavy ? "heavy"
                                           : "racy";
  if (!Resp.ok()) {
    if (Resp.status().code() == support::ErrorCode::Overloaded)
      ++St.Refused;
    R.fail(std::string(Name) + ": " + failText(Resp.status()), false);
    return;
  }
  const Value &V = Resp.value();
  if (!V.getBool("ok")) {
    R.fail(std::string(Name) + ": launch failed", true);
    return;
  }
  uint64_t Races = V.getU64("racesTotal");
  if (V.getBool("degraded")) {
    R.fail(std::string(Name) + ": launch degraded", true);
    return;
  }
  if (Q.C == Class::Racy) {
    // Racy launches run one at a time (the caller holds the lock), so
    // the tenant's cumulative total must grow on every one.
    if (Races <= St.LastRacyTotal)
      R.fail("racy: control launch reported no new races", true);
    St.LastRacyTotal = Races;
  } else if (Races != 0) {
    R.fail(std::string(Name) + ": safe launch reported races", true);
    return;
  }
  if (const Value *Report = V.get("report")) {
    if (!ledgerBalances(*Report)) {
      R.fail(std::string(Name) + ": resilience ledger does not balance",
             true);
      return;
    }
    if (Q.C == Class::Heavy) {
      double Markers = 0, Ticket = 0, Producer = 0;
      if (const Value *Det = Report->get("detector")) {
        if (const Value *Shards = Det->get("shards"))
          for (const Value &Shard : Shards->items()) {
            Markers += static_cast<double>(Shard.getU64("markers"));
            Ticket += static_cast<double>(Shard.getU64("ticketStalls"));
            Producer += static_cast<double>(Shard.getU64("producerStalls"));
          }
        St.Heavy.Shadow.push_back(
            static_cast<double>(Det->getU64("globalShadowBytes") +
                                Det->getU64("sharedShadowBytes")));
      }
      St.Heavy.Sync.push_back(static_cast<double>(
          Report->get("records")->getU64("sync")));
      St.Heavy.Markers.push_back(Markers);
      St.Heavy.Ticket.push_back(Ticket);
      St.Heavy.Producer.push_back(Producer);
    }
  }
}

/// Sends one request on \p C; fills its timing fields.
void sendOne(serve::Client &C, const Tenants &T, Request &Q, StepState &St,
             std::mutex &RacyLock, const Options &Opts, Result &R) {
  support::Result<Value> Resp = Value::object();
  std::unique_lock<std::mutex> Racy(RacyLock, std::defer_lock);
  if (Q.C == Class::Racy)
    Racy.lock();
  Q.SentNs = nowNs();
  switch (Q.C) {
  case Class::Small:
    Resp = C.launch(smallTenant(Q.Tenant), "histogram", SmallGrid,
                    SmallBlock, {T.SmallBins[Q.Tenant]});
    break;
  case Class::Heavy:
    Resp = C.launch("heavy", "syncdense", HeavyGrid, HeavyBlock,
                    {T.HeavySlots, T.HeavyCounter, HeavyIters, 1},
                    /*WantReport=*/true);
    break;
  case Class::Racy:
    Resp = C.launch("racy", "histogram", SmallGrid, SmallBlock, {T.RacyBins},
                    /*WantReport=*/true);
    break;
  }
  injectDelay(Opts.InjectDelayUs);
  Q.DoneNs = nowNs();
  Q.Sent = true;
  Q.Ok = Resp.ok() && Resp.value().getBool("ok");
  if (Q.Ok)
    Q.Records = Resp.value().getU64("recordsLogged");
  std::lock_guard<std::mutex> Lock(St.Mutex);
  R.attempt();
  checkResponse(Q, Resp, St, R);
}

/// Runs one ladder step's schedule over every connection.
void runStep(ServeSetup &S, std::vector<Request> &Schedule, StepState &St,
             const Options &Opts, Result &R) {
  St.StartNs = nowNs() + 2000000; // 2 ms for the senders to start
  std::mutex RacyLock;
  std::vector<std::thread> Senders;
  for (unsigned I = 0; I != S.Clients.size(); ++I)
    Senders.emplace_back([&, I] {
      serve::Client &C = *S.Clients[I];
      for (;;) {
        size_t Index = St.Next.fetch_add(1);
        if (Index >= Schedule.size())
          return;
        Request &Q = Schedule[Index];
        uint64_t Due = St.StartNs + Q.DueNs;
        uint64_t Now = nowNs();
        if (Now < Due)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
        else if (static_cast<double>(Now - Due) * 1e-3 > GiveUpLatenessUs)
          St.GaveUp.store(true);
        if (St.GaveUp.load())
          continue;
        sendOne(C, S.T, Q, St, RacyLock, Opts, R);
      }
    });
  for (std::thread &T : Senders)
    T.join();
}

/// One step's outcome.
struct StepResult {
  double OfferedRate = 0; ///< arrivals / scheduled duration
  Summary SmallUs, HeavyMs, AllS, LatenessUs, RttSmallUs, RttHeavyMs;
  double LatenessGrowthUs = 0;
  double LaunchesPerS = 0;
  /// Records logged per second of summed latency, all classes.
  double RecordsPerS = 0;
  bool Qualifies = false;
  /// Per window of WindowSmall small requests: small p50 and p99 (us),
  /// all-class p50 (s), heavy p50 (ms), records per second of latency.
  std::vector<double> WinSmallP50, WinSmallP99, WinAllP50, WinHeavyP50,
      WinRecordsPerS;
};

/// Closes one window of a step's requests into \p Out.
void closeWindow(const std::vector<double> &Small,
                 const std::vector<double> &All,
                 const std::vector<double> &Heavy, double Records,
                 StepResult &Out) {
  Summary S = summarise(Small);
  Out.WinSmallP50.push_back(S.Median);
  Out.WinSmallP99.push_back(S.percentile(99));
  Summary A = summarise(All);
  Out.WinAllP50.push_back(A.Median);
  if (!Heavy.empty())
    Out.WinHeavyP50.push_back(medianOf(Heavy));
  double LatencySum = std::accumulate(All.begin(), All.end(), 0.0);
  Out.WinRecordsPerS.push_back(LatencySum > 0 ? Records / LatencySum : 0);
}

StepResult evaluate(const std::vector<Request> &Schedule, double Seconds,
                    bool GaveUp, uint64_t StartNs) {
  StepResult Out;
  Out.OfferedRate = static_cast<double>(Schedule.size()) / Seconds;
  std::vector<double> Small, Heavy, All, Late, RttSmall, RttHeavy;
  std::vector<double> WinSmall, WinAll, WinHeavy;
  double WinRecords = 0, TotalRecords = 0;
  uint64_t Completed = 0, LastDone = StartNs;
  size_t SmallLeft = std::count_if(Schedule.begin(), Schedule.end(),
                                   [](const Request &Q) {
                                     return Q.Sent && Q.C == Class::Small;
                                   });
  for (const Request &Q : Schedule) {
    if (!Q.Sent)
      continue;
    uint64_t Due = StartNs + Q.DueNs;
    double FromDue = static_cast<double>(Q.DoneNs - Due);
    double Rtt = static_cast<double>(Q.DoneNs - Q.SentNs);
    Late.push_back(static_cast<double>(Q.SentNs - std::min(Q.SentNs, Due)) *
                   1e-3);
    All.push_back(FromDue * 1e-9);
    WinAll.push_back(FromDue * 1e-9);
    WinRecords += static_cast<double>(Q.Records);
    TotalRecords += static_cast<double>(Q.Records);
    if (Q.C == Class::Small) {
      // A failed or refused request misses the limit.
      Small.push_back(Q.Ok ? FromDue * 1e-3 : 1e12);
      WinSmall.push_back(Small.back());
      RttSmall.push_back(Rtt * 1e-3);
      --SmallLeft;
    } else if (Q.C == Class::Heavy) {
      Heavy.push_back(FromDue * 1e-6);
      WinHeavy.push_back(Heavy.back());
      RttHeavy.push_back(Rtt * 1e-6);
    }
    ++Completed;
    LastDone = std::max(LastDone, Q.DoneNs);
    // A short tail joins the last full window.
    if (WinSmall.size() >= WindowSmall && SmallLeft >= WindowSmall) {
      closeWindow(WinSmall, WinAll, WinHeavy, WinRecords, Out);
      WinSmall.clear();
      WinAll.clear();
      WinHeavy.clear();
      WinRecords = 0;
    }
  }
  if (!WinSmall.empty())
    closeWindow(WinSmall, WinAll, WinHeavy, WinRecords, Out);
  Out.SmallUs = summarise(Small);
  Out.HeavyMs = summarise(Heavy);
  Out.AllS = summarise(All);
  Out.LatenessUs = summarise(Late);
  Out.RttSmallUs = summarise(RttSmall);
  Out.RttHeavyMs = summarise(RttHeavy);
  if (Late.size() >= 8) {
    size_t Q4 = Late.size() / 4;
    std::vector<double> First(Late.begin(), Late.begin() + Q4);
    std::vector<double> Last(Late.end() - Q4, Late.end());
    Out.LatenessGrowthUs = medianOf(Last) - medianOf(First);
  }
  double LatencySum = std::accumulate(All.begin(), All.end(), 0.0);
  Out.RecordsPerS = LatencySum > 0 ? TotalRecords / LatencySum : 0;
  Out.LaunchesPerS = static_cast<double>(Completed) /
                     std::max(Seconds, static_cast<double>(LastDone - StartNs) * 1e-9);
  Out.Qualifies = !GaveUp && Out.SmallUs.Count != 0 &&
                  Out.SmallUs.percentile(99) <= LatencyLimitUs &&
                  Out.LatenessUs.Median <= LatenessLimitUs &&
                  Out.LatenessGrowthUs <= BacklogGrowthUs;
  return Out;
}

/// Codec cost of the benchmark's own frames: parseRequest on a launch
/// frame plus okResponse on a launch payload, microseconds per pair.
std::vector<double> codecSamples(const Tenants &T) {
  Value Req = Value::object();
  Req.set("schemaVersion", Value::number(serve::SchemaVersion));
  Req.set("op", Value::string("launch"));
  Req.set("tenant", Value::string(smallTenant(0)));
  Req.set("kernel", Value::string("histogram"));
  Value Grid = Value::array(), Block = Value::array(), Params = Value::array();
  for (uint64_t D : {4, 1, 1})
    Grid.push(Value::number(D));
  for (uint64_t D : {64, 1, 1})
    Block.push(Value::number(D));
  Params.push(Value::number(T.SmallBins[0]));
  Req.set("grid", std::move(Grid));
  Req.set("block", std::move(Block));
  Req.set("params", std::move(Params));
  std::string Frame = Req.dump();
  Value Payload = Value::object();
  Payload.set("ok", Value::boolean(true));
  Payload.set("threads", Value::number(uint64_t(256)));
  Payload.set("warpInstructions", Value::number(uint64_t(88)));
  Payload.set("recordsLogged", Value::number(uint64_t(20)));
  Payload.set("racesTotal", Value::number(uint64_t(0)));
  Payload.set("barrierErrorsTotal", Value::number(uint64_t(0)));
  Payload.set("degraded", Value::boolean(false));
  Payload.set("queuesRerouted", Value::number(uint64_t(0)));
  std::vector<double> Out;
  for (unsigned I = 0; I != 2000; ++I) {
    uint64_t T0 = nowNs();
    support::Result<serve::Request> Parsed = serve::parseRequest(Frame);
    std::string Response =
        serve::okResponse(serve::Op::Launch, Payload, 0x1234 + I);
    Out.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
    if (!Parsed.ok() || Response.empty())
      return {};
  }
  return Out;
}

/// In-process rounds (one launch per class) on the server's engine:
/// the composed path traced and untraced, and the Session path, for the
/// per-layer numbers of the kernels this workload serves.
void inProcessRounds(ServeSetup &S, const Options &Opts, SpanRecorder &Spans,
                     LayerSamples &L, std::vector<double> &SmallTracedUs,
                     Result &R) {
  runtime::Engine &Engine = S.Server->engine();
  SpanRecorder Off(/*Enabled=*/false);
  struct Device {
    std::unique_ptr<ComposedDevice> Traced, Plain;
    std::unique_ptr<Session> Sess;
    std::vector<uint64_t> TracedArgs, PlainArgs, SessArgs;
  };
  std::vector<Device> Devs;
  uint32_t Load = Spans.open("load", SpanRecorder::NoParent);
  double LoadMs = 0, Logged = 0;
  for (const ClassKernel &K : ClassKernels) {
    Device D;
    D.Traced = std::make_unique<ComposedDevice>(Engine, Spans);
    D.Plain = std::make_unique<ComposedDevice>(Engine, Off);
    SessionOptions SO;
    SO.SharedEngine = &Engine;
    D.Sess = std::make_unique<Session>(SO);
    R.attempt();
    std::string Error = D.Traced->load(K.Ptx(), Load);
    if (Error.empty())
      Error = D.Plain->load(K.Ptx(), SpanRecorder::NoParent);
    uint64_t T0 = nowNs();
    if (Error.empty() && !D.Sess->loadModule(K.Ptx()).ok())
      Error = D.Sess->error();
    LoadMs += static_cast<double>(nowNs() - T0) * 1e-6;
    if (!Error.empty()) {
      R.fail(std::string(K.Kernel) + ": in-process load failed: " + Error,
             true);
      Spans.close(Load);
      return;
    }
    Logged += static_cast<double>(D.Traced->loggedInstructions());
    Class C = static_cast<Class>(Devs.size());
    D.TracedArgs = classArgs(C, [&](uint64_t B) { return D.Traced->alloc(B); });
    D.PlainArgs = classArgs(C, [&](uint64_t B) { return D.Plain->alloc(B); });
    D.SessArgs = classArgs(C, [&](uint64_t B) { return D.Sess->alloc(B); });
    Devs.push_back(std::move(D));
  }
  Spans.close(Load);
  L.LoadRoots.push_back(Load);
  L.LoggedInsns.push_back(Logged);
  L.SessionLoadMs.push_back(LoadMs);

  std::vector<double> TracedRoundS, PlainRoundS;
  std::vector<ComposedLaunch> Traced(Devs.size()), Plain(Devs.size());
  std::vector<support::Result<sim::LaunchResult>> Launched(
      Devs.size(), sim::LaunchResult());
  std::vector<uint64_t> SessRaces(Devs.size());
  auto TracedRound = [&] {
    uint32_t Round = Spans.open("round", SpanRecorder::NoParent);
    double Insns = 0, Records = 0, FullSpins = 0;
    for (size_t I = 0; I != Devs.size(); ++I) {
      const ClassKernel &K = ClassKernels[I];
      uint32_t Launch = Spans.open("launch", Round);
      Traced[I] = Devs[I].Traced->launch(K.Kernel, K.Grid, K.Block,
                                         Devs[I].TracedArgs, Launch);
      Spans.close(Launch);
      L.LaunchRoots.push_back(Launch);
      if (I == 0)
        SmallTracedUs.push_back(static_cast<double>(Spans.durationNs(Launch)) *
                                1e-3);
      Insns += static_cast<double>(Traced[I].WarpInstructions);
      Records += static_cast<double>(Traced[I].RecordsLogged);
      FullSpins += static_cast<double>(Traced[I].QueueFullSpins);
      L.WatermarkWaitUs.push_back(
          static_cast<double>(Traced[I].WatermarkWaitNs) * 1e-3);
    }
    Spans.close(Round);
    L.UnitRoots.push_back(Round);
    TracedRoundS.push_back(static_cast<double>(Spans.durationNs(Round)) * 1e-9);
    L.WarpInsns.push_back(Insns);
    L.Records.push_back(Records);
    L.QueueFullSpins.push_back(FullSpins);
  };
  auto PlainRound = [&] {
    uint64_t P0 = nowNs();
    for (size_t I = 0; I != Devs.size(); ++I)
      Plain[I] = Devs[I].Plain->launch(
          ClassKernels[I].Kernel, ClassKernels[I].Grid, ClassKernels[I].Block,
          Devs[I].PlainArgs, SpanRecorder::NoParent);
    PlainRoundS.push_back(static_cast<double>(nowNs() - P0) * 1e-9);
  };
  auto SessionRound = [&] {
    for (size_t I = 0; I != Devs.size(); ++I) {
      Session &Sess = *Devs[I].Sess;
      size_t RacesBefore = Sess.races().size();
      uint64_t T0 = nowNs();
      Launched[I] = Sess.launchKernel(ClassKernels[I].Kernel,
                                      ClassKernels[I].Grid,
                                      ClassKernels[I].Block, Devs[I].SessArgs);
      uint64_t T1 = nowNs();
      RunReport Report = Sess.report();
      uint64_t T2 = nowNs();
      std::string Json = Report.toJson();
      uint64_t T3 = nowNs();
      L.SessionLaunchUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
      L.ReportBuildUs.push_back(static_cast<double>(T2 - T1) * 1e-3);
      L.ReportJsonUs.push_back(static_cast<double>(T3 - T2) * 1e-3);
      SessRaces[I] = Sess.races().size() - RacesBefore;
    }
  };

  uint64_t Start = nowNs();
  double Budget = std::max(2.0, Opts.Seconds * 0.2);
  for (unsigned Iter = 0;
       TracedRoundS.size() < 10 ||
       static_cast<double>(nowNs() - Start) * 1e-9 < Budget;
       ++Iter) {
    // Rotate the order so no round always follows the same one.
    switch (Iter % 3) {
    case 0: TracedRound(); PlainRound(); SessionRound(); break;
    case 1: PlainRound(); SessionRound(); TracedRound(); break;
    default: SessionRound(); TracedRound(); PlainRound(); break;
    }
    for (size_t I = 0; I != Devs.size(); ++I) {
      R.attempt(3);
      const ComposedLaunch &C = Traced[I];
      bool RacesOk = static_cast<Class>(I) == Class::Racy
                         ? SessRaces[I] != 0 && C.RacesShared + C.RacesGlobal != 0
                         : SessRaces[I] == 0 && C.RacesShared + C.RacesGlobal == 0;
      if (!Launched[I].ok() || !C.Ok || !Plain[I].Ok || !RacesOk ||
          C.Degraded || !C.LedgerBalanced ||
          C.RecordsLogged != Launched[I].value().RecordsLogged ||
          Plain[I].RecordsLogged != C.RecordsLogged)
        R.fail(std::string(ClassKernels[I].Kernel) +
                   ": traced path disagrees with Session",
               true);
    }
  }
  L.TracingOverheadPct =
      100.0 * (medianOf(TracedRoundS) / medianOf(PlainRoundS) - 1.0);
  R.summary("traced_round_s", "s", summarise(TracedRoundS));
  R.summary("untraced_round_s", "s", summarise(PlainRoundS));
}

/// Native in-process runs of each class's kernel, the simulator alone:
/// 200 rounds of one launch per class. Returns per-class launch times
/// in seconds (small, heavy, racy).
std::array<std::vector<double>, NumClasses> nativeRounds(Result &R) {
  SessionOptions SO;
  SO.Instrument = false;
  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<std::vector<uint64_t>> Args;
  for (const ClassKernel &K : ClassKernels) {
    Sessions.push_back(std::make_unique<Session>(SO));
    Session &S = *Sessions.back();
    R.attempt();
    if (!S.loadModule(K.Ptx()).ok())
      R.fail(std::string(K.Kernel) + ": native load failed", true);
    Args.push_back(classArgs(static_cast<Class>(Args.size()),
                             [&S](uint64_t B) { return S.alloc(B); }));
  }
  std::array<std::vector<double>, NumClasses> Out;
  for (unsigned Round = 0; Round != 200; ++Round)
    for (size_t I = 0; I != NumClasses; ++I) {
      uint64_t T0 = nowNs();
      support::Result<sim::LaunchResult> Launched = Sessions[I]->launchKernel(
          ClassKernels[I].Kernel, ClassKernels[I].Grid, ClassKernels[I].Block, Args[I]);
      uint64_t T1 = nowNs();
      R.attempt();
      if (!Launched.ok())
        R.fail(std::string(ClassKernels[I].Kernel) + ": native launch failed", true);
      if (Round >= 5) // the first rounds warm the lowering caches
        Out[I].push_back(static_cast<double>(T1 - T0) * 1e-9);
    }
  return Out;
}

std::string ladderJson() {
  std::string Out = "[";
  for (size_t I = 0; I != std::size(Ladder); ++I)
    Out += (I ? "," : "") + std::string("{\"rate\":") +
           jsonNumber(Ladder[I].Rate) + ",\"share\":" +
           jsonNumber(Ladder[I].Share) + "}";
  return Out + "]";
}

} // namespace

int runServeMixed(const Options &Opts, Result &R) {
  std::vector<double> SetupS;
  std::unique_ptr<ServeSetup> Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Setup.reset();
    uint64_t T0 = nowNs();
    Setup = std::make_unique<ServeSetup>();
    if (!setUp(*Setup, Rep, R))
      return 1;
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    hostSpeed().keepUp();
  }

  support::Rng Arrivals(seedFor(Opts.Seed, 2)), Mix(seedFor(Opts.Seed, 3));
  std::vector<StepResult> Steps;
  HeavyCounts Heavy;
  uint64_t Refused = 0;
  R.text("serve-mixed ladder (latency from due; limit p99 small <= " +
         jsonNumber(LatencyLimitUs) + " us):");
  for (size_t I = 0; I != std::size(Ladder); ++I) {
    double Seconds = Opts.Seconds * Ladder[I].Share;
    std::vector<Request> Schedule =
        schedule(Ladder[I].Rate, Seconds, Arrivals, Mix);
    StepState St;
    St.LastRacyTotal = Setup->RacyTotal;
    runStep(*Setup, Schedule, St, Opts, R);
    Setup->RacyTotal = St.LastRacyTotal;
    StepResult SR = evaluate(Schedule, Seconds, St.GaveUp.load(), St.StartNs);
    char Line[240];
    std::snprintf(Line, sizeof(Line),
                  "  rate %6.1f/s: %5zu small p50 %9.1f us p99 %10.1f us, "
                  "heavy p50 %7.2f ms, lateness p50 %8.1f us growth %9.1f us"
                  "%s%s",
                  SR.OfferedRate, SR.SmallUs.Count, SR.SmallUs.Median,
                  SR.SmallUs.percentile(99), SR.HeavyMs.Median,
                  SR.LatenessUs.Median, SR.LatenessGrowthUs,
                  SR.Qualifies ? "" : "  [over the limit]",
                  I == NominalStep ? "  (nominal)" : "");
    R.text(Line);
    Steps.push_back(SR);
    Refused += St.Refused;
    for (auto [Dst, Src] :
         {std::pair{&Heavy.Sync, &St.Heavy.Sync},
          {&Heavy.Markers, &St.Heavy.Markers},
          {&Heavy.Ticket, &St.Heavy.Ticket},
          {&Heavy.Producer, &St.Heavy.Producer},
          {&Heavy.Shadow, &St.Heavy.Shadow}})
      Dst->insert(Dst->end(), Src->begin(), Src->end());
  }
  const StepResult &Nominal = Steps[NominalStep];
  double MaxRate = 0;
  for (const StepResult &SR : Steps)
    if (SR.Qualifies)
      MaxRate = SR.OfferedRate;
    else
      break;

  R.note("ladder", ladderJson());
  R.note("nominalRate", jsonNumber(Ladder[NominalStep].Rate));
  R.note("latencyLimitUs", jsonNumber(LatencyLimitUs));
  R.note("generatorLatenessP50Us", jsonNumber(Nominal.LatenessUs.Median));
  R.note("generatorLatenessMaxUs", jsonNumber(Nominal.LatenessUs.Max));
  R.note("smallP99Supported",
         percentileSupported(99, Nominal.SmallUs.Count) ? "true" : "false");
  R.note("overloaded", std::to_string(Refused));

  if (Opts.Trace) {
    SpanRecorder Spans;
    LayerSamples L;
    std::vector<double> SmallTracedUs;
    inProcessRounds(*Setup, Opts, Spans, L, SmallTracedUs, R);
    L.SyncRecords = Heavy.Sync;
    L.ShardMarkers = Heavy.Markers;
    L.TicketStalls = Heavy.Ticket;
    L.ProducerStalls = Heavy.Producer;
    L.ShadowBytes = Heavy.Shadow;
    L.RttSmallUs = Nominal.RttSmallUs.Sorted;
    L.RttHeavyMs = Nominal.RttHeavyMs.Sorted;
    L.CodecUs = codecSamples(Setup->T);
    L.ServeSelfUs = Nominal.RttSmallUs.Median - medianOf(SmallTracedUs);
    L.Overloaded = static_cast<double>(Refused);
    emitLayerMetrics(Spans, L, R);
    Setup.reset();
    ::rmdir(SocketDir);
    return 0;
  }

  std::array<std::vector<double>, NumClasses> Native = nativeRounds(R);
  Setup.reset();
  ::rmdir(SocketDir);

  R.summary("setup_s", "s", summarise(SetupS));
  R.summary("small_us", "us", Nominal.SmallUs);
  R.summary("heavy_ms", "ms", Nominal.HeavyMs);
  R.summary("verdict_s", "s", Nominal.AllS);
  R.summary("lateness_us", "us", Nominal.LatenessUs);
  R.summary("native_small_s", "s", summarise(Native[0]));
  R.summary("native_heavy_s", "s", summarise(Native[1]));
  R.summary("native_racy_s", "s", summarise(Native[2]));
  // Native time per request of the nominal mix, the classes weighted by
  // their exact shares.
  double NativePerRequest =
      (medianOf(Native[0]) * (MixBlock - HeavyPerBlock - RacyPerBlock) +
       medianOf(Native[1]) * HeavyPerBlock +
       medianOf(Native[2]) * RacyPerBlock) /
      MixBlock;
  // Per-window values are context only: they show whether host noise
  // came in bursts.
  R.note("windowSmallP50Us", jsonArray(Nominal.WinSmallP50));
  R.note("windowSmallP99Us", jsonArray(Nominal.WinSmallP99));
  R.note("windowHeavyP50Ms", jsonArray(Nominal.WinHeavyP50));
  R.note("windowVerdictS", jsonArray(Nominal.WinAllP50));
  R.note("windowRecordsPerS", jsonArray(Nominal.WinRecordsPerS));
  R.metric("setup_s", "s", medianOf(SetupS));
  R.metric("verdict_s", "s", Nominal.AllS.Median);
  R.computeMetric("native_s", "s", NativePerRequest);
  R.metric("records_per_s", "1/s", Nominal.RecordsPerS);
  R.metric("launches_per_s", "1/s", Nominal.LaunchesPerS);
  R.metric("launch_p50_us", "us", Nominal.SmallUs.Median);
  R.metric("launch_p99_us", "us", Nominal.SmallUs.percentile(99));
  R.metric("heavy_p50_ms", "ms", Nominal.HeavyMs.Median);
  R.metric("max_rate_per_s", "1/s", MaxRate);
  R.metric("peak_rss_mb", "MB", peakRssMb());
  return 0;
}

namespace {

/// table1-serve: the Table 1 pass through the daemon. One tenant per
/// program, one connection, one caller: the socket, codec, tenant and
/// admission layers on every launch, on traffic whose time the
/// detector's compute sets, so host noise on wake-ups is a small share.
struct Table1ServeSetup {
  std::vector<Program> Programs;
  std::unique_ptr<ServeSetup> Serve;
  std::vector<std::vector<uint64_t>> Args;
  /// Each tenant's cumulative race total so far.
  std::vector<uint64_t> Races;
};

/// A native pass follows every NativeEvery-th pass through the daemon,
/// timed apart. The serve path has no native mode, so native_s is the
/// same in-process native pass table1 measures: every workload prints
/// every metric, and sampling it through the run, as table1 does, keeps
/// it as steady as table1's.
constexpr unsigned NativeEvery = 2;

std::string table1Tenant(const Program &P) { return "t1-" + P.Name; }

/// One pass over every program; per-launch RTTs (s) and records into the
/// out-parameters. When \p R is non-null every response is checked into
/// it, and each launch's report is fetched with the report op, outside
/// the timed round trip, for the ledger check.
void servePass(Table1ServeSetup &S, const Options &Opts, Result *R,
               std::vector<double> &RttS, std::vector<double> &Records,
               uint64_t &Refused) {
  serve::Client &C = *S.Serve->Clients[0];
  for (size_t I = 0; I != S.Programs.size(); ++I) {
    const Program &P = S.Programs[I];
    uint64_t T0 = nowNs();
    support::Result<Value> Resp = C.launch(table1Tenant(P), P.Kernel, P.Grid,
                                           P.Block, S.Args[I]);
    injectDelay(Opts.InjectDelayUs);
    RttS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    uint64_t Total = Resp.ok() ? Resp.value().getU64("racesTotal") : 0;
    uint64_t NewRaces = Total - std::min(Total, S.Races[I]);
    S.Races[I] = std::max(S.Races[I], Total);
    Records.push_back(Resp.ok() ? static_cast<double>(
                                      Resp.value().getU64("recordsLogged"))
                                : 0.0);
    if (!R)
      continue;
    R->attempt();
    if (!Resp.ok()) {
      if (Resp.status().code() == support::ErrorCode::Overloaded)
        ++Refused;
      R->fail(P.Name + ": " + failText(Resp.status()), false);
      continue;
    }
    if (!Resp.value().getBool("ok")) {
      R->fail(P.Name + ": launch failed", true);
      continue;
    }
    if (Resp.value().getBool("degraded")) {
      R->fail(P.Name + ": launch degraded", true);
      continue;
    }
    if (NewRaces != P.racesTotal()) {
      R->fail(P.Name + ": " + std::to_string(NewRaces) +
                  " races, Table 1 says " + std::to_string(P.racesTotal()),
              true);
      continue;
    }
    support::Result<Value> Report = C.report(table1Tenant(P));
    const Value *Doc = Report.ok() ? Report.value().get("report") : nullptr;
    if (!Doc || !ledgerBalances(*Doc))
      R->fail(P.Name + ": resilience ledger does not balance", true);
  }
}

bool setUpTable1Serve(Table1ServeSetup &S, const Options &Opts, unsigned Rep,
                      Result &R) {
  S.Programs = generateTable1(Opts.Seed);
  S.Serve = std::make_unique<ServeSetup>();
  if (!startServer(*S.Serve, Rep, 1))
    return false;
  serve::Client &C = *S.Serve->Clients[0];
  for (const Program &P : S.Programs) {
    std::string Tenant = table1Tenant(P);
    bool Ok = C.loadModule(Tenant, P.Ptx).ok();
    S.Args.push_back(P.args([&](uint64_t Bytes) -> uint64_t {
      support::Result<uint64_t> Addr = C.alloc(Tenant, Bytes);
      Ok &= Addr.ok();
      return Addr.ok() ? Addr.value() : 0;
    }));
    if (!Ok) {
      R.fail(P.Name + ": tenant set-up failed", true);
      return false;
    }
  }
  S.Races.assign(S.Programs.size(), 0);
  // Warm-up pass, unchecked.
  std::vector<double> RttS, Records;
  uint64_t Refused = 0;
  servePass(S, Opts, nullptr, RttS, Records, Refused);
  return true;
}

} // namespace

int runTable1Serve(const Options &Opts, Result &R) {
  std::vector<double> SetupS;
  std::unique_ptr<Table1ServeSetup> Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Setup.reset();
    uint64_t T0 = nowNs();
    Setup = std::make_unique<Table1ServeSetup>();
    if (!setUpTable1Serve(*Setup, Opts, Rep, R))
      return 1;
    SetupS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    hostSpeed().keepUp();
  }
  const size_t N = Setup->Programs.size();
  // A pass's time is the sum of its 26 round trips; the untimed report
  // fetches between them are left out.
  std::vector<double> PassS, NativePassS, RecordsPerS, LaunchesPerS,
      PassMeanUs, AllRttUs;
  std::vector<std::vector<double>> ProgramRttS(N);
  uint64_t Refused = 0;
  double Seconds = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  uint64_t Start = nowNs();
  while (PassS.empty() ||
         static_cast<double>(nowNs() - Start) * 1e-9 < Seconds) {
    std::vector<double> RttS, Records;
    servePass(*Setup, Opts, &R, RttS, Records, Refused);
    double RttSum = 0, RecordSum = 0;
    for (size_t I = 0; I != N; ++I) {
      ProgramRttS[I].push_back(RttS[I]);
      AllRttUs.push_back(RttS[I] * 1e6);
      RttSum += RttS[I];
      RecordSum += Records[I];
    }
    PassS.push_back(RttSum);
    RecordsPerS.push_back(RecordSum / RttSum);
    LaunchesPerS.push_back(static_cast<double>(N) / RttSum);
    PassMeanUs.push_back(RttSum / static_cast<double>(N) * 1e6);
    hostSpeed().keepUp();
    if (Opts.Trace || PassS.size() % NativeEvery != 1)
      continue;
    uint64_t N0 = nowNs();
    for (const Program &P : Setup->Programs)
      runNative(P, R);
    NativePassS.push_back(static_cast<double>(nowNs() - N0) * 1e-9);
    hostSpeed().keepUp();
  }
  size_t Heaviest = 0;
  for (size_t I = 0; I != N; ++I)
    if (medianOf(ProgramRttS[I]) > medianOf(ProgramRttS[Heaviest]))
      Heaviest = I;
  Summary Rtt = summarise(AllRttUs);
  R.note("programs", std::to_string(N));
  R.note("passes", std::to_string(PassS.size()));
  R.note("heavyProgram", jsonString(Setup->Programs[Heaviest].Name));
  R.note("overloaded", std::to_string(Refused));

  if (Opts.Trace) {
    SpanRecorder Spans;
    LayerSamples L;
    traceClosedLoop(Opts, Opts.Seconds / 2, Setup->Serve->Server->engine(),
                    Setup->Programs, Spans, L, R);
    L.RttSmallUs = AllRttUs;
    for (double S : ProgramRttS[Heaviest])
      L.RttHeavyMs.push_back(S * 1e3);
    L.CodecUs = codecSamples(Setup->Serve->T);
    L.ServeSelfUs = Rtt.Median - medianOf(L.SessionLaunchUs);
    L.Overloaded = static_cast<double>(Refused);
    emitLayerMetrics(Spans, L, R);
    Setup.reset();
    ::rmdir(SocketDir);
    return 0;
  }
  Setup.reset();
  ::rmdir(SocketDir);

  R.summary("setup_s", "s", summarise(SetupS));
  R.summary("verdict_s", "s", summarise(PassS));
  R.summary("native_s", "s", summarise(NativePassS));
  R.summary("rtt_us", "us", Rtt);
  R.summary("records_per_s", "1/s", summarise(RecordsPerS));
  R.summary("launches_per_s", "1/s", summarise(LaunchesPerS));
  R.summary("pass_mean_rtt_us", "us", summarise(PassMeanUs));
  R.metric("setup_s", "s", medianOf(SetupS));
  R.metric("verdict_s", "s", medianOf(PassS));
  R.computeMetric("native_s", "s", medianOf(NativePassS));
  R.metric("records_per_s", "1/s", medianOf(RecordsPerS));
  R.metric("launches_per_s", "1/s", medianOf(LaunchesPerS));
  R.metric("launch_p50_us", "us", medianOf(PassMeanUs));
  // No launch_p99_us, as on table1: the rtt_us summary carries the
  // supported tail.
  R.metric("heavy_p50_ms", "ms", medianOf(ProgramRttS[Heaviest]) * 1e3);
  R.metric("max_rate_per_s", "1/s", medianOf(LaunchesPerS));
  R.metric("peak_rss_mb", "MB", peakRssMb());
  return 0;
}

} // namespace perfbench
