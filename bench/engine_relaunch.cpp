//===- engine_relaunch.cpp - persistent-engine relaunch overhead -----------===//
//
// Measures the fixed per-launch cost of the detection pipeline for many
// back-to-back launches of a small kernel — the regime where the seed
// reproduction's create-everything-per-launch design hurt most. Two
// configurations run the same kernel the same number of times:
//
//   per-launch pool : the seed pipeline — a fresh QueueSet (ring
//                     allocation) plus HostDetector thread spawn/join
//                     for every launch.
//   persistent pool : a Session over the runtime Engine — queues and
//                     detector threads created once, launches leased as
//                     epochs; idle workers park between launches.
//
// Environment: BARRACUDA_RELAUNCH_COUNT sets the launch count
// (default 100).
//
//===----------------------------------------------------------------------===//

#include "barracuda/Session.h"
#include "detector/Host.h"
#include "instrument/Instrumenter.h"
#include "ptx/Parser.h"
#include "sim/Logger.h"
#include "sim/Lower.h"
#include "sim/Machine.h"
#include "trace/Queue.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace barracuda;

namespace {

const char *HistogramPtx = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry histogram(
    .param .u64 bins
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [bins];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    and.b32 %r5, %r4, 7;
    cvt.u64.u32 %rd2, %r5;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    atom.global.add.u32 %r6, [%rd3], 1;
    ret;
}
)";

constexpr unsigned NumQueues = 4;
constexpr size_t QueueCapacity = 1 << 14;
const sim::Dim3 Grid(4), Block(64);

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The seed path: module state built once, but every launch allocates a
/// QueueSet and spawns/joins a HostDetector pool.
double runPerLaunchPool(unsigned Launches) {
  ptx::Parser Parser(HistogramPtx);
  std::unique_ptr<ptx::Module> Mod = Parser.parseModule();
  if (!Mod) {
    std::fprintf(stderr, "parse error: %s\n", Parser.error().c_str());
    std::exit(1);
  }
  instrument::InstrumenterOptions InstrOpts;
  instrument::ModuleInstrumentation Instr =
      instrument::instrumentModule(*Mod, InstrOpts);

  sim::GlobalMemory Memory;
  sim::Machine::layoutModuleGlobals(*Mod, Memory);
  sim::Machine Machine(Memory);
  ptx::Kernel &K = Mod->Kernels.front();
  uint64_t Bins = Memory.allocate(64);
  sim::ParamBuilder Builder(K);
  Builder.set(0, Bins);

  sim::LaunchConfig Config;
  Config.Grid = Grid;
  Config.Block = Block;
  // Lowered once, as the Session caches it, so per-launch lowering stays
  // out of the timed loop.
  std::unique_ptr<sim::LoweredKernel> Low =
      sim::lowerKernel(*Mod, K, &Instr.Kernels.front());

  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Launches; ++I) {
    trace::QueueSet Queues(NumQueues, QueueCapacity);
    detector::DetectorOptions DetOpts;
    DetOpts.Hier = sim::ThreadHierarchy(Config);
    detector::SharedDetectorState State(DetOpts);
    detector::HostDetector Host(Queues, State);
    Host.start();
    sim::QueueLogger Logger(Queues);
    sim::LaunchResult Result = Machine.launch(
        *Mod, K, &Instr.Kernels.front(), Config, Builder.bytes(), &Logger,
        Low.get());
    Queues.closeAll();
    Host.join();
    if (!Result.Ok) {
      std::fprintf(stderr, "launch failed: %s\n", Result.Error.c_str());
      std::exit(1);
    }
  }
  return secondsSince(Start);
}

/// The runtime path: one Session, whose Engine owns the queues and the
/// detector pool for all launches.
double runPersistentPool(unsigned Launches) {
  SessionOptions Options;
  Options.NumQueues = NumQueues;
  Options.QueueCapacity = QueueCapacity;
  Session S(Options);
  if (!S.loadModule(HistogramPtx)) {
    std::fprintf(stderr, "parse error: %s\n", S.error().c_str());
    std::exit(1);
  }
  uint64_t Bins = S.alloc(64);

  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Launches; ++I) {
    support::Result<sim::LaunchResult> Result =
        S.launchKernel("histogram", Grid, Block, {Bins});
    if (!Result.ok()) {
      std::fprintf(stderr, "launch failed: %s\n", Result.status().message().c_str());
      std::exit(1);
    }
  }
  double Elapsed = secondsSince(Start);
  if (S.engine().threadsEverStarted() != NumQueues) {
    std::fprintf(stderr, "pool was rebuilt mid-run\n");
    std::exit(1);
  }
  return Elapsed;
}

} // namespace

int main() {
  unsigned Launches = 100;
  bool Smoke = false;
  if (const char *Env = std::getenv("BARRACUDA_BENCH_SMOKE"))
    Smoke = *Env && *Env != '0';
  if (Smoke)
    Launches = 5;
  if (const char *Env = std::getenv("BARRACUDA_RELAUNCH_COUNT"))
    Launches = static_cast<unsigned>(std::strtoul(Env, nullptr, 10));

  std::printf("Per-launch pipeline cost over %u back-to-back launches "
              "(histogram, grid 4 x block 64, %u queues)%s\n\n",
              Launches, NumQueues, Smoke ? " [smoke]" : "");

  // Warm both paths (thread stacks, allocator, code) before measuring.
  if (!Smoke) {
    runPerLaunchPool(4);
    runPersistentPool(4);
  }

  double PerLaunchPool = runPerLaunchPool(Launches);
  double Persistent = runPersistentPool(Launches);

  double PerLaunchUs = 1e6 * PerLaunchPool / Launches;
  double PersistentUs = 1e6 * Persistent / Launches;
  std::printf("per-launch pool : %8.3f s total, %9.1f us/launch\n",
              PerLaunchPool, PerLaunchUs);
  std::printf("persistent pool : %8.3f s total, %9.1f us/launch\n",
              Persistent, PersistentUs);
  std::printf("\nspeedup: %.2fx lower per-launch overhead with the "
              "persistent engine\n",
              PerLaunchUs / PersistentUs);
  return 0;
}
