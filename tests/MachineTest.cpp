//===- MachineTest.cpp - SIMT interpreter unit tests -------------------------===//

#include "instrument/Instrumenter.h"
#include "ptx/Parser.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace barracuda;
using namespace barracuda::sim;

namespace {

/// Runs a single-kernel module natively and returns the memory object
/// for inspection.
class MachineHarness {
public:
  explicit MachineHarness(const std::string &Ptx)
      : Mod(ptx::parseOrDie(Ptx)), Machine(Memory) {
    sim::Machine::layoutModuleGlobals(*Mod, Memory);
  }

  LaunchResult run(const std::string &Kernel, Dim3 Grid, Dim3 Block,
                   const std::vector<uint64_t> &Params = {},
                   DeviceLogger *Logger = nullptr,
                   const instrument::KernelInstrumentation *Instr =
                       nullptr) {
    const ptx::Kernel *K = Mod->findKernel(Kernel);
    if (!K)
      return LaunchResult::failure("no kernel");
    ParamBuilder Builder(*K);
    for (size_t I = 0; I != Params.size(); ++I)
      Builder.set(I, Params[I]);
    LaunchConfig Config;
    Config.Grid = Grid;
    Config.Block = Block;
    return Machine.launch(*Mod, *K, Instr, Config, Builder.bytes(),
                          Logger);
  }

  GlobalMemory Memory;
  std::unique_ptr<ptx::Module> Mod;
  sim::Machine Machine;
};

std::string arithKernel(const std::string &Ops) {
  return ".version 4.3\n.target sm_35\n.address_size 64\n"
         ".visible .entry k(\n    .param .u64 out,\n    .param .u32 a,\n"
         "    .param .u32 b\n)\n{\n"
         "    .reg .u64 %rd<6>;\n    .reg .u32 %r<10>;\n"
         "    .reg .s32 %s<6>;\n    .reg .u64 %w<4>;\n"
         "    .reg .pred %p<4>;\n    .reg .f32 %f<6>;\n"
         "    ld.param.u64 %rd1, [out];\n"
         "    ld.param.u32 %r1, [a];\n"
         "    ld.param.u32 %r2, [b];\n" +
         Ops +
         "    st.global.u32 [%rd1], %r3;\n"
         "    ret;\n}\n";
}

uint32_t evalArith(const std::string &Ops, uint32_t A, uint32_t B) {
  MachineHarness H(arithKernel(Ops));
  uint64_t Out = H.Memory.allocate(64);
  LaunchResult Result = H.run("k", Dim3(1), Dim3(1), {Out, A, B});
  EXPECT_TRUE(Result.Ok) << Result.Error;
  return static_cast<uint32_t>(H.Memory.read(Out, 4));
}

//===--- arithmetic (parameterized over operations) ---------------------===//

struct ArithCase {
  const char *Name;
  const char *Ops;
  uint32_t A, B;
  uint32_t Expected;
};

// gtest names each case after what this prints; the default dumps the
// struct's bytes, pointers included, so the name would change per process.
void PrintTo(const ArithCase &Case, std::ostream *OS) {
  *OS << "a=" << Case.A << " b=" << Case.B << " expect=" << Case.Expected;
}

class ArithSemantics : public ::testing::TestWithParam<ArithCase> {};

TEST_P(ArithSemantics, Matches) {
  const ArithCase &Case = GetParam();
  EXPECT_EQ(evalArith(Case.Ops, Case.A, Case.B), Case.Expected);
}

const ArithCase ArithCases[] = {
    {"add", "add.u32 %r3, %r1, %r2;\n", 7, 5, 12},
    {"add_wrap", "add.u32 %r3, %r1, %r2;\n", 0xFFFFFFFF, 2, 1},
    {"sub", "sub.u32 %r3, %r1, %r2;\n", 5, 7, 0xFFFFFFFE},
    {"mul_lo", "mul.lo.u32 %r3, %r1, %r2;\n", 100000, 100000,
     0x540BE400}, // 10^10 mod 2^32
    {"mul_hi_u", "mul.hi.u32 %r3, %r1, %r2;\n", 0x80000000, 4, 2},
    {"div_u", "div.u32 %r3, %r1, %r2;\n", 17, 5, 3},
    {"div_zero", "div.u32 %r3, %r1, %r2;\n", 17, 0, 0},
    {"rem_u", "rem.u32 %r3, %r1, %r2;\n", 17, 5, 2},
    {"min_u", "min.u32 %r3, %r1, %r2;\n", 3, 0xFFFFFFFF, 3},
    {"max_u", "max.u32 %r3, %r1, %r2;\n", 3, 0xFFFFFFFF, 0xFFFFFFFF},
    {"and", "and.b32 %r3, %r1, %r2;\n", 0xF0F0, 0xFF00, 0xF000},
    {"or", "or.b32 %r3, %r1, %r2;\n", 0xF0F0, 0x0F00, 0xFFF0},
    {"xor", "xor.b32 %r3, %r1, %r2;\n", 0xFF, 0x0F, 0xF0},
    {"not", "not.b32 %r3, %r1;\n", 0, 0, 0xFFFFFFFF},
    {"shl", "shl.b32 %r3, %r1, %r2;\n", 1, 31, 0x80000000},
    {"shl_over", "shl.b32 %r3, %r1, %r2;\n", 1, 40, 0},
    {"shr_u", "shr.u32 %r3, %r1, %r2;\n", 0x80000000, 31, 1},
    {"mad", "mad.lo.u32 %r3, %r1, %r2, %r1;\n", 3, 4, 15},
    {"neg", "neg.s32 %s1, %r1;\ncvt.u32.s32 %r3, %s1;\n", 5, 0,
     0xFFFFFFFB},
    {"abs", "cvt.s32.u32 %s1, %r1;\nabs.s32 %s2, %s1;\n"
            "cvt.u32.s32 %r3, %s2;\n",
     0xFFFFFFFB, 0, 5},
    {"selp_true",
     "setp.lt.u32 %p1, %r1, %r2;\nselp.u32 %r3, 111, 222, %p1;\n", 1, 2,
     111},
    {"selp_false",
     "setp.lt.u32 %p1, %r1, %r2;\nselp.u32 %r3, 111, 222, %p1;\n", 2, 1,
     222},
    {"setp_signed",
     // -1 < 1 signed (but not unsigned)
     "cvt.s32.u32 %s1, %r1;\nsetp.lt.s32 %p1, %s1, 1;\n"
     "selp.u32 %r3, 1, 0, %p1;\n",
     0xFFFFFFFF, 0, 1},
    {"shr_signed",
     "cvt.s32.u32 %s1, %r1;\nshr.s32 %s2, %s1, 4;\n"
     "cvt.u32.s32 %r3, %s2;\n",
     0xFFFFFF00, 0, 0xFFFFFFF0},
    {"div_signed",
     "cvt.s32.u32 %s1, %r1;\ncvt.s32.u32 %s2, %r2;\n"
     "div.s32 %s3, %s1, %s2;\ncvt.u32.s32 %r3, %s3;\n",
     0xFFFFFFF8, 2, 0xFFFFFFFC}, // -8 / 2 = -4
    {"mul_wide",
     "mul.wide.u32 %w1, %r1, %r2;\nshr.u64 %w2, %w1, 32;\n"
     "cvt.u32.u64 %r3, %w2;\n",
     0x80000000, 8, 4},
    {"popc", "popc.b32 %r3, %r1;\n", 0xF0F01234, 0, 13},
    {"clz", "clz.b32 %r3, %r1;\n", 0x00010000, 0, 15},
    {"clz_zero", "clz.b32 %r3, %r1;\n", 0, 0, 32},
    {"brev", "brev.b32 %r3, %r1;\n", 0x80000001, 0, 0x80000001},
    {"brev_asym", "brev.b32 %r3, %r1;\n", 0x00000001, 0, 0x80000000},
    {"fadd",
     "cvt.rn.f32.u32 %f1, %r1;\ncvt.rn.f32.u32 %f2, %r2;\n"
     "add.f32 %f3, %f1, %f2;\ncvt.u32.f32 %r3, %f3;\n",
     10, 32, 42},
    {"fmul_imm",
     "cvt.rn.f32.u32 %f1, %r1;\nmul.f32 %f2, %f1, 0f40000000;\n"
     "cvt.u32.f32 %r3, %f2;\n",
     21, 0, 42},
    {"fdiv",
     "cvt.rn.f32.u32 %f1, %r1;\ncvt.rn.f32.u32 %f2, %r2;\n"
     "div.f32 %f3, %f1, %f2;\ncvt.u32.f32 %r3, %f3;\n",
     84, 2, 42},
};

std::string arithName(const ::testing::TestParamInfo<ArithCase> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Ops, ArithSemantics,
                         ::testing::ValuesIn(ArithCases), arithName);

//===--- atomics ----------------------------------------------------------===//

struct AtomCase {
  const char *Name;
  const char *Insn;
  uint32_t Init;
  uint32_t Operand;
  uint32_t ExpectedMem;
  uint32_t ExpectedOld;
};

void PrintTo(const AtomCase &Case, std::ostream *OS) {
  *OS << "init=" << Case.Init << " operand=" << Case.Operand
      << " mem=" << Case.ExpectedMem << " old=" << Case.ExpectedOld;
}

class AtomSemantics : public ::testing::TestWithParam<AtomCase> {};

TEST_P(AtomSemantics, Matches) {
  const AtomCase &Case = GetParam();
  std::string Ptx = ".version 4.3\n.target sm_35\n.address_size 64\n"
                    ".visible .entry k(\n    .param .u64 out,\n"
                    "    .param .u32 b\n)\n{\n"
                    "    .reg .u64 %rd<4>;\n    .reg .u32 %r<6>;\n"
                    "    ld.param.u64 %rd1, [out];\n"
                    "    ld.param.u32 %r1, [b];\n" +
                    std::string(Case.Insn) +
                    "    st.global.u32 [%rd1+4], %r2;\n"
                    "    ret;\n}\n";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  H.Memory.write(Out, 4, Case.Init);
  LaunchResult Result = H.run("k", Dim3(1), Dim3(1), {Out, Case.Operand});
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(H.Memory.read(Out, 4), Case.ExpectedMem);
  EXPECT_EQ(H.Memory.read(Out + 4, 4), Case.ExpectedOld);
}

const AtomCase AtomCases[] = {
    {"exch", "atom.global.exch.b32 %r2, [%rd1], %r1;\n", 5, 9, 9, 5},
    {"add", "atom.global.add.u32 %r2, [%rd1], %r1;\n", 5, 9, 14, 5},
    {"cas_hit", "atom.global.cas.b32 %r2, [%rd1], 5, 77;\n", 5, 0, 77, 5},
    {"cas_miss", "atom.global.cas.b32 %r2, [%rd1], 6, 77;\n", 5, 0, 5, 5},
    {"min", "atom.global.min.u32 %r2, [%rd1], %r1;\n", 5, 3, 3, 5},
    {"max", "atom.global.max.u32 %r2, [%rd1], %r1;\n", 5, 3, 5, 5},
    {"and", "atom.global.and.b32 %r2, [%rd1], %r1;\n", 0xFF, 0x0F, 0x0F,
     0xFF},
    {"or", "atom.global.or.b32 %r2, [%rd1], %r1;\n", 0xF0, 0x0F, 0xFF,
     0xF0},
    {"xor", "atom.global.xor.b32 %r2, [%rd1], %r1;\n", 0xFF, 0x0F, 0xF0,
     0xFF},
    {"inc_below", "atom.global.inc.u32 %r2, [%rd1], %r1;\n", 5, 9, 6, 5},
    {"inc_wrap", "atom.global.inc.u32 %r2, [%rd1], %r1;\n", 9, 9, 0, 9},
    {"dec", "atom.global.dec.u32 %r2, [%rd1], %r1;\n", 5, 9, 4, 5},
    {"dec_wrap", "atom.global.dec.u32 %r2, [%rd1], %r1;\n", 0, 9, 9, 0},
};

std::string atomName(const ::testing::TestParamInfo<AtomCase> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Ops, AtomSemantics,
                         ::testing::ValuesIn(AtomCases), atomName);

//===--- control flow, divergence, barriers -----------------------------===//

TEST(Machine, DivergenceReconverges) {
  // Each lane takes a different amount of work in a divergent loop; all
  // must still produce their results.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, 0;
    mov.u32 %r3, 0;
LOOP:
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra FIN;
    add.u32 %r3, %r3, %r2;
    add.u32 %r2, %r2, 1;
    bra.uni LOOP;
FIN:
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(4 * 32);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(32), {Out}).Ok);
  for (uint32_t Lane = 0; Lane != 32; ++Lane)
    EXPECT_EQ(H.Memory.read(Out + 4 * Lane, 4), Lane * (Lane - 1) / 2)
        << "lane " << Lane;
}

TEST(Machine, BarrierOrdersWarps) {
  // Warp 1 reads what warp 0 wrote before the barrier.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<6>;
    .reg .pred %p<3>;
    .shared .align 4 .b8 tile[256];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    setp.ge.u32 %p1, %r1, 32;
    @%p1 bra WAITSIDE;
    mov.u64 %rd2, tile;
    cvt.u64.u32 %rd3, %r1;
    shl.b64 %rd3, %rd3, 2;
    add.u64 %rd2, %rd2, %rd3;
    add.u32 %r2, %r1, 100;
    st.shared.u32 [%rd2], %r2;
WAITSIDE:
    bar.sync 0;
    setp.lt.u32 %p2, %r1, 32;
    @%p2 bra DONE;
    sub.u32 %r3, %r1, 32;
    mov.u64 %rd2, tile;
    cvt.u64.u32 %rd3, %r3;
    shl.b64 %rd3, %rd3, 2;
    add.u64 %rd2, %rd2, %rd3;
    ld.shared.u32 %r4, [%rd2];
    cvt.u64.u32 %rd3, %r3;
    shl.b64 %rd3, %rd3, 2;
    add.u64 %rd2, %rd1, %rd3;
    st.global.u32 [%rd2], %r4;
DONE:
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(4 * 32);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(64), {Out}).Ok);
  for (uint32_t I = 0; I != 32; ++I)
    EXPECT_EQ(H.Memory.read(Out + 4 * I, 4), I + 100);
}

TEST(Machine, GenericAddressingRoundTrip) {
  // cvta.shared to generic, store through generic, read back shared.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<6>;
    .reg .u32 %r<4>;
    .shared .align 4 .b8 tile[64];
    ld.param.u64 %rd1, [out];
    mov.u64 %rd2, tile;
    cvta.shared.u64 %rd3, %rd2;
    st.u32 [%rd3+8], 4242;
    ld.shared.u32 %r1, [tile+8];
    cvta.to.shared.u64 %rd4, %rd3;
    ld.shared.u32 %r2, [%rd4+8];
    add.u32 %r1, %r1, %r2;
    st.global.u32 [%rd1], %r1;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(1), {Out}).Ok);
  EXPECT_EQ(H.Memory.read(Out, 4), 8484u);
}

TEST(Machine, LocalMemoryIsThreadPrivate) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    .local .align 4 .b8 scratch[16];
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    st.local.u32 [scratch], %r1;
    bar.sync 0;
    ld.local.u32 %r2, [scratch];
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(4 * 64);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(64), {Out}).Ok);
  for (uint32_t Tid = 0; Tid != 64; ++Tid)
    EXPECT_EQ(H.Memory.read(Out + 4 * Tid, 4), Tid);
}

TEST(Machine, SpecialRegisters) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<8>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra SKIP;
    setp.ne.u32 %p1, %r2, 1;
    @%p1 bra SKIP;
    mov.u32 %r3, %ntid.x;
    st.global.u32 [%rd1], %r3;
    mov.u32 %r4, %nctaid.x;
    st.global.u32 [%rd1+4], %r4;
    mov.u32 %r5, %laneid;
    st.global.u32 [%rd1+8], %r5;
    mov.u32 %r6, %WARP_SZ;
    st.global.u32 [%rd1+12], %r6;
SKIP:
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  ASSERT_TRUE(H.run("k", Dim3(3), Dim3(48), {Out}).Ok);
  EXPECT_EQ(H.Memory.read(Out, 4), 48u);
  EXPECT_EQ(H.Memory.read(Out + 4, 4), 3u);
  EXPECT_EQ(H.Memory.read(Out + 8, 4), 0u);
  EXPECT_EQ(H.Memory.read(Out + 12, 4), 32u);
}

TEST(Machine, MultiDimensionalLaunch) {
  // 2-D block and grid: flatten coordinates into a unique slot.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<10>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %tid.y;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %ctaid.y;
    // local linear id = tid.y * ntid.x + tid.x
    mad.lo.u32 %r5, %r2, %r3, %r1;
    // unique slot = (ctaid.y * 2 + local) -- grid is 1x2
    mov.u32 %r6, %ntid.y;
    mul.lo.u32 %r7, %r3, %r6;
    mad.lo.u32 %r8, %r4, %r7, %r5;
    cvt.u64.u32 %rd2, %r8;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r8;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(4 * 64);
  ASSERT_TRUE(H.run("k", Dim3(1, 2), Dim3(4, 4), {Out}).Ok);
  for (uint32_t I = 0; I != 32; ++I)
    EXPECT_EQ(H.Memory.read(Out + 4 * I, 4), I);
}

TEST(Machine, WatchdogCatchesInfiniteLoop) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [out];
SPIN:
    bra.uni SPIN;
}
)";
  GlobalMemory Memory;
  MachineOptions Options;
  Options.MaxWarpInstructions = 10000;
  auto Mod = ptx::parseOrDie(Ptx);
  sim::Machine Machine(Memory, Options);
  ParamBuilder Builder(Mod->Kernels[0]);
  Builder.set(0, Memory.allocate(64));
  LaunchConfig Config;
  Config.Grid = Dim3(1);
  Config.Block = Dim3(32);
  LaunchResult Result = Machine.launch(*Mod, Mod->Kernels[0], nullptr,
                                       Config, Builder.bytes(), nullptr);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("watchdog"), std::string::npos);
  EXPECT_EQ(Result.Code, support::ErrorCode::KernelHang);
  EXPECT_NE(Result.FailPc, LaunchResult::InvalidPc);
}

TEST(Machine, DivergentBarrierHangTripsWatchdog) {
  // Warp 0 reaches bar.sync while warp 1 spins on a flag that is never
  // set: the barrier can never be satisfied, yet the spinning warp
  // keeps the machine "making progress". Only the watchdog can end
  // this, and it must surface a structured KernelHang naming the
  // barrier pc the stuck warp is parked at — not loop forever and not
  // report a generic failure.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 flag
)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<4>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [flag];
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 32;
    @%p1 bra SYNC;
WAIT:
    ld.volatile.global.u32 %r2, [%rd1];
    setp.eq.u32 %p2, %r2, 0;
    @%p2 bra WAIT;
SYNC:
    bar.sync 0;
    ret;
}
)";
  GlobalMemory Memory;
  MachineOptions Options;
  Options.MaxWarpInstructions = 20000;
  auto Mod = ptx::parseOrDie(Ptx);
  sim::Machine Machine(Memory, Options);
  uint64_t Flag = Memory.allocate(64); // zeroed: the wait never ends
  ParamBuilder Builder(Mod->Kernels[0]);
  Builder.set(0, Flag);
  LaunchConfig Config;
  Config.Grid = Dim3(1);
  Config.Block = Dim3(64); // two warps: one at the barrier, one waiting
  LaunchResult Result = Machine.launch(*Mod, Mod->Kernels[0], nullptr,
                                       Config, Builder.bytes(), nullptr);
  ASSERT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Code, support::ErrorCode::KernelHang);
  // The reported pc is the blocked barrier, the most useful place to
  // start debugging a divergent bar.sync.
  const ptx::Kernel &K = Mod->Kernels[0];
  ASSERT_LT(Result.FailPc, K.Body.size());
  EXPECT_EQ(K.Body[Result.FailPc].Op, ptx::Opcode::Bar);
}

TEST(Machine, SharedOutOfBoundsFailsCleanly) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<2>;
    .reg .u32 %r<2>;
    .shared .align 4 .b8 tile[16];
    ld.param.u64 %rd1, [out];
    ld.shared.u32 %r1, [tile+64];
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  LaunchResult Result = H.run("k", Dim3(1), Dim3(1), {Out});
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("out of bounds"), std::string::npos);
}

TEST(Machine, WavesCoverLargeGrids) {
  // More blocks than the resident cap: waves must still cover them all.
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<4>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %ctaid.x;
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    red.global.add.u32 [%rd3], 1;
    ret;
}
)";
  GlobalMemory Memory;
  MachineOptions Options;
  Options.MaxResidentBlocks = 4;
  auto Mod = ptx::parseOrDie(Ptx);
  sim::Machine Machine(Memory, Options);
  uint64_t Out = Memory.allocate(4 * 64);
  ParamBuilder Builder(Mod->Kernels[0]);
  Builder.set(0, Out);
  LaunchConfig Config;
  Config.Grid = Dim3(17);
  Config.Block = Dim3(32);
  LaunchResult Result = Machine.launch(*Mod, Mod->Kernels[0], nullptr,
                                       Config, Builder.bytes(), nullptr);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  for (uint32_t Block = 0; Block != 17; ++Block)
    EXPECT_EQ(Memory.read(Out + 4 * Block, 4), 32u) << Block;
}

TEST(Machine, ModuleGlobalsZeroedAndAddressed) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .global .u32 counter;
.visible .global .align 4 .b8 table[16];
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<3>;
    .reg .u32 %r<4>;
    ld.param.u64 %rd1, [out];
    ld.global.u32 %r1, [counter];
    st.global.u32 [%rd1], %r1;
    st.global.u32 [table+4], 7;
    ld.global.u32 %r2, [table+4];
    st.global.u32 [%rd1+4], %r2;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(1), {Out}).Ok);
  EXPECT_EQ(H.Memory.read(Out, 4), 0u);     // zero-initialized
  EXPECT_EQ(H.Memory.read(Out + 4, 4), 7u); // round trip
}

TEST(Machine, VectorLoadStore) {
  const char *Ptx = R"(
.version 4.3
.target sm_35
.visible .entry k(
    .param .u64 out
)
{
    .reg .u64 %rd<3>;
    .reg .u32 %r<8>;
    ld.param.u64 %rd1, [out];
    mov.u32 %r1, 11;
    mov.u32 %r2, 22;
    mov.u32 %r3, 33;
    mov.u32 %r4, 44;
    st.global.v4.u32 [%rd1], {%r1, %r2, %r3, %r4};
    ld.global.v2.u32 {%r5, %r6}, [%rd1+8];
    add.u32 %r7, %r5, %r6;
    st.global.u32 [%rd1+16], %r7;
    ret;
}
)";
  MachineHarness H(Ptx);
  uint64_t Out = H.Memory.allocate(64);
  ASSERT_TRUE(H.run("k", Dim3(1), Dim3(1), {Out}).Ok);
  EXPECT_EQ(H.Memory.read(Out, 4), 11u);
  EXPECT_EQ(H.Memory.read(Out + 4, 4), 22u);
  EXPECT_EQ(H.Memory.read(Out + 8, 4), 33u);
  EXPECT_EQ(H.Memory.read(Out + 12, 4), 44u);
  EXPECT_EQ(H.Memory.read(Out + 16, 4), 77u);
}

TEST(Memory, PagedSparseAccess) {
  GlobalMemory Memory;
  Memory.write(0x10000000, 4, 0xAABBCCDD);
  Memory.write(0x7FFF0000000, 8, 0x1122334455667788ULL);
  EXPECT_EQ(Memory.read(0x10000000, 4), 0xAABBCCDDu);
  EXPECT_EQ(Memory.read(0x7FFF0000000, 8), 0x1122334455667788ULL);
  EXPECT_EQ(Memory.read(0x999999, 4), 0u); // untouched reads zero
  // Cross-page access.
  uint64_t Boundary = (1ULL << GlobalMemory::PageBits) - 2;
  Memory.write(Boundary, 4, 0xDEADBEEF);
  EXPECT_EQ(Memory.read(Boundary, 4), 0xDEADBEEFu);
}

TEST(Memory, AllocatorAlignsAndAdvances) {
  GlobalMemory Memory;
  uint64_t A = Memory.allocate(10, 8);
  uint64_t B = Memory.allocate(1, 64);
  EXPECT_EQ(A % 8, 0u);
  EXPECT_EQ(B % 64, 0u);
  EXPECT_GE(B, A + 10);
}

} // namespace
