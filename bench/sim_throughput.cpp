//===- sim_throughput.cpp - simulator hot-loop throughput -----------------===//
//
// Measures the simulator's dynamic warp-instructions/second on the
// pre-lowered micro-op dispatch loop. Each kernel is lowered once, outside
// the timed loop. Four kernel classes isolate the hot-loop shapes that
// matter:
//
//   compute-heavy : a tight ALU loop (mad/xor/shl/and + setp/bra) — the
//                   micro-op decode win plus setp+bra fusion.
//   memory-heavy  : a load-modify-store sweep over a global buffer —
//                   the pre-resolved space/width and page-cache win.
//   divergent     : a branchy loop splitting every warp each iteration
//                   — reconvergence-stack traffic under lowering.
//   sync-heavy    : a loop crossing bar.sync twice per iteration with
//                   shared-memory traffic — barrier scheduling.
//
// Every launch must retire exactly the dynamic instruction count the
// per-instruction interpreter retired for the same kernel and launch
// shape — fusion changes scheduling slots, not the count.
//
// A module-load microbench rides along: it times the arena/interned PTX
// front end via the RunReport's parseNanos counter and (in smoke mode)
// enforces a floor on parse throughput.
//
// Environment:
//   BARRACUDA_SIM_REPEATS   timed launches per scenario (default 30)
//   BARRACUDA_BENCH_SMOKE=1 few launches, invariant checks only
//
//===----------------------------------------------------------------------===//

#include "barracuda/Session.h"
#include "ptx/Parser.h"
#include "sim/Lower.h"
#include "sim/Machine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace barracuda;

namespace {

constexpr char ComputeHeavy[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry compute_heavy(
    .param .u64 p0
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mov.u32 %r5, 0;
    mov.u32 %r6, 0;
LOOP:
    mad.lo.u32 %r5, %r5, 33, %r4;
    xor.b32 %r5, %r5, %r6;
    and.b32 %r7, %r5, 1023;
    add.u32 %r5, %r5, %r7;
    sub.u32 %r8, %r5, %r4;
    max.u32 %r5, %r5, %r8;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, 256;
    @%p1 bra LOOP;
    cvt.u64.u32 %rd2, %r4;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
    ret;
}
)";

constexpr char MemoryHeavy[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry memory_heavy(
    .param .u64 p0
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mov.u32 %r6, 0;
LOOP:
    add.u32 %r7, %r4, %r6;
    and.b32 %r7, %r7, 4095;
    cvt.u64.u32 %rd2, %r7;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r8, [%rd3];
    add.u32 %r8, %r8, 1;
    st.global.u32 [%rd3], %r8;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, 256;
    @%p1 bra LOOP;
    ret;
}
)";

constexpr char Divergent[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry divergent(
    .param .u64 p0
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mad.lo.u32 %r4, %r2, %r3, %r1;
    mov.u32 %r5, 0;
    mov.u32 %r6, 0;
LOOP:
    add.u32 %r7, %r1, %r6;
    and.b32 %r7, %r7, 3;
    setp.eq.u32 %p2, %r7, 0;
    @%p2 bra THEN;
    mad.lo.u32 %r5, %r5, 5, %r4;
    xor.b32 %r5, %r5, %r6;
    bra.uni JOIN;
THEN:
    add.u32 %r5, %r5, %r4;
    and.b32 %r5, %r5, 65535;
JOIN:
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, 256;
    @%p1 bra LOOP;
    cvt.u64.u32 %rd2, %r4;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
    ret;
}
)";

constexpr char SyncHeavy[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry sync_heavy(
    .param .u64 p0
)
{
    .reg .u64 %rd<8>;
    .reg .u32 %r<10>;
    .reg .pred %p<2>;
    .shared .align 4 .b8 tile[512];
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    mov.u64 %rd5, tile;
    cvt.u64.u32 %rd3, %r1;
    shl.b64 %rd3, %rd3, 2;
    add.u64 %rd6, %rd5, %rd3;
    mov.u32 %r6, 0;
LOOP:
    st.shared.u32 [%rd6], %r6;
    bar.sync 0;
    add.u32 %r7, %r1, 1;
    and.b32 %r7, %r7, 127;
    cvt.u64.u32 %rd3, %r7;
    shl.b64 %rd3, %rd3, 2;
    add.u64 %rd7, %rd5, %rd3;
    ld.shared.u32 %r8, [%rd7];
    bar.sync 0;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, 128;
    @%p1 bra LOOP;
    ret;
}
)";

struct Scenario {
  const char *Name;
  const char *Ptx;
  const char *Kernel;
  sim::Dim3 Grid;
  sim::Dim3 Block;
  /// Fusion shapes the scenario must exercise under lowering.
  bool ExpectFusedBranches = false;
  /// Warp instructions one launch retires (the interpreter's count).
  uint64_t WarpInstructionsPerLaunch = 0;
};

struct Timing {
  double Seconds = 0;
  uint64_t WarpInstructions = 0;
  uint32_t FusedPairs = 0;
  uint32_t FusedBranches = 0;
};

void fail(const char *Scenario, const char *What) {
  std::fprintf(stderr, "FAIL [%s]: %s\n", Scenario, What);
  std::exit(1);
}

/// Runs \p S natively (no instrumentation, no logger — the pure
/// simulator hot loop) for \p Repeats timed launches after one warmup.
Timing runScenario(const Scenario &S, unsigned Repeats) {
  ptx::Parser Parser(S.Ptx);
  std::unique_ptr<ptx::Module> Mod = Parser.parseModule();
  if (!Mod)
    fail(S.Name, "parse error");
  const ptx::Kernel *K = Mod->findKernel(S.Kernel);
  if (!K)
    fail(S.Name, "missing kernel");

  sim::GlobalMemory Memory;
  sim::Machine::layoutModuleGlobals(*Mod, Memory);
  sim::Machine Machine(Memory);
  sim::ParamBuilder Builder(*K);
  Builder.set(0, Memory.allocate(1 << 16));
  sim::LaunchConfig Config;
  Config.Grid = S.Grid;
  Config.Block = S.Block;

  Timing Out;
  std::unique_ptr<sim::LoweredKernel> Low =
      sim::lowerKernel(*Mod, *K, nullptr);
  Out.FusedPairs = Low->FusedPairs;
  Out.FusedBranches = Low->FusedBranches;

  auto launchOnce = [&] {
    sim::LaunchResult Result = Machine.launch(
        *Mod, *K, nullptr, Config, Builder.bytes(), nullptr, Low.get());
    if (!Result.Ok)
      fail(S.Name, Result.Error.c_str());
    if (Result.WarpInstructions != S.WarpInstructionsPerLaunch)
      fail(S.Name, "retired instruction count differs from the "
                   "interpreter's");
    return Result.WarpInstructions;
  };
  launchOnce(); // warm the allocator, page tables and branch caches

  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Repeats; ++I)
    Out.WarpInstructions += launchOnce();
  Out.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  return Out;
}

} // namespace

int main() {
  bool Smoke = false;
  if (const char *Env = std::getenv("BARRACUDA_BENCH_SMOKE"))
    Smoke = *Env && std::strcmp(Env, "0") != 0;
  unsigned Repeats = Smoke ? 2 : 30;
  if (const char *Env = std::getenv("BARRACUDA_SIM_REPEATS"))
    Repeats = static_cast<unsigned>(std::strtoul(Env, nullptr, 10));

  std::printf("Simulator hot-loop throughput: %u launches/scenario, native "
              "(no instrumentation)%s\n\n",
              Repeats, Smoke ? " [smoke]" : "");

  Scenario Scenarios[] = {
      {"compute-heavy", ComputeHeavy, "compute_heavy", sim::Dim3(4),
       sim::Dim3(128), /*ExpectFusedBranches=*/true, 37056},
      {"memory-heavy", MemoryHeavy, "memory_heavy", sim::Dim3(4),
       sim::Dim3(128), /*ExpectFusedBranches=*/true, 45168},
      {"divergent", Divergent, "divergent", sim::Dim3(4), sim::Dim3(128),
       /*ExpectFusedBranches=*/false, 49344},
      {"sync-heavy", SyncHeavy, "sync_heavy", sim::Dim3(4),
       sim::Dim3(128), /*ExpectFusedBranches=*/false, 24704},
  };

  std::printf("%-14s %16s %12s   lowering\n", "scenario", "insn/s",
              "insn/launch");
  for (const Scenario &S : Scenarios) {
    Timing Lowered = runScenario(S, Repeats);
    if (S.ExpectFusedBranches && Lowered.FusedBranches == 0)
      fail(S.Name, "expected setp+bra fusion");
    if (Lowered.FusedPairs == 0 && Lowered.FusedBranches == 0)
      fail(S.Name, "no fusion at all");

    std::printf("%-14s %16.0f %12llu   %u pairs, %u setp+bra\n", S.Name,
                Lowered.WarpInstructions / Lowered.Seconds,
                static_cast<unsigned long long>(S.WarpInstructionsPerLaunch),
                Lowered.FusedPairs, Lowered.FusedBranches);
  }

  std::printf("\nevery launch retired the interpreter's instruction "
              "count.\n");

  // Module-load microbench: the arena/interned front end, measured by
  // the session's parseNanos counter (the same number RunReport
  // serializes in its "instrumentation" section).
  {
    SessionOptions Options;
    Options.Instrument = false;
    Options.Profile = false;
    uint64_t BestNanos = ~0ull;
    unsigned Loads = Smoke ? 3 : 20;
    for (unsigned I = 0; I != Loads; ++I) {
      Session S(Options);
      if (!S.loadModule(ComputeHeavy))
        fail("module-load", "parse failed");
      uint64_t Buf = S.alloc(1 << 16);
      if (!S.launchKernel("compute_heavy", sim::Dim3(1), sim::Dim3(32),
                          {Buf})
               .ok())
        fail("module-load", "launch failed");
      uint64_t Nanos = S.report().ParseNanos;
      if (Nanos == 0)
        fail("module-load", "ParseNanos not populated");
      if (Nanos < BestNanos)
        BestNanos = Nanos;
    }
    double BytesPerSec =
        std::strlen(ComputeHeavy) / (BestNanos * 1e-9);
    std::printf("\nmodule load (best of %u): %llu ns for %zu bytes of "
                "PTX (%.1f MB/s front end)\n",
                Loads, static_cast<unsigned long long>(BestNanos),
                std::strlen(ComputeHeavy), BytesPerSec / 1e6);
    // Floor well under any healthy run (the arena front end parses
    // tens of MB/s); catches an accidental quadratic or a lost arena.
    if (Smoke && BytesPerSec < 1e6)
      fail("module-load",
           "front end parses below 1 MB/s — parse-time regression");
  }
  return 0;
}
