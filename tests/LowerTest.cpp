//===- LowerTest.cpp - micro-op dispatch oracles --------------------------===//
//
// Every launch runs the block dispatch loop over lowered micro-ops, so
// the simulator is checked against two oracles that do not share its
// specialised executors:
//
//   * the generic-row oracle: the same dispatch loop over a lowering this
//     test rewrites so every instruction runs on the library's generic
//     rows (LegacyLanes / LegacyMem, the per-operand executeLanes and
//     executeMemory executors) with fusion cleared. Specialised rows,
//     folded operands, baked trace records and fused pairs must be
//     observationally identical to it: byte-identical trace records,
//     block order, LaunchResult counters and memory output.
//   * golden digests: FNV-1a digests of those same observations,
//     captured from the per-instruction interpreter the dispatch loop
//     replaced, at the last revision that carried both paths (where the
//     interpreter and the lowered path gave equal digests).
//
// We sweep the full 66-program concurrency suite (instrumented and
// native), a batch of random generator seeds and the failure paths,
// lock in the arena determinism the resume/memcmp story depends on, and
// check end-to-end Session verdicts against the suite's expectations.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "barracuda/Session.h"
#include "instrument/Instrumenter.h"
#include "ptx/Parser.h"
#include "runtime/Engine.h"
#include "sim/Lower.h"
#include "sim/Machine.h"
#include "suite/Suite.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace barracuda;
using barracuda::tests::RandomProgram;

namespace {

/// Which executors a run's lowering uses.
enum class Rows {
  Production, ///< lowerKernel's selection, fusion included
  Generic,    ///< every instruction on a generic row, fusion cleared
};

/// Rewrites \p Low so every instruction runs on the uop library's
/// generic rows: specialised ALU executors become LegacyLanes,
/// specialised memory executors LegacyMem, a fused setp+bra goes back
/// to a plain setp (on LegacyLanes) followed by its branch, and pairing
/// is cleared. Control uops (bra, ret/exit, bar, membar) have no generic
/// row and stay as lowered.
void useGenericRows(sim::LoweredKernel &Low) {
  for (sim::Uop &U : Low.Uops) {
    switch (static_cast<sim::UopExec>(U.Exec)) {
    case sim::UopExec::Bra:
    case sim::UopExec::RetExit:
    case sim::UopExec::Bar:
    case sim::UopExec::Membar:
      break;
    case sim::UopExec::Ld:
    case sim::UopExec::St:
    case sim::UopExec::Atom:
      U.Exec = static_cast<uint8_t>(sim::UopExec::LegacyMem);
      break;
    case sim::UopExec::LegacyMem:
      break;
    default:
      U.Exec = static_cast<uint8_t>(sim::UopExec::LegacyLanes);
      break;
    }
    U.Flags &= static_cast<uint16_t>(~sim::UF_FuseNext);
  }
  Low.FusedPairs = 0;
  Low.FusedBranches = 0;
}

/// Everything observable about one Machine-level execution.
struct Observed {
  sim::LaunchResult Result;
  std::vector<uint32_t> Blocks;
  std::vector<trace::LogRecord> Records;
  /// Post-run contents of every buffer parameter, in parameter order.
  std::vector<std::vector<uint8_t>> Buffers;
  /// Uops lowered to a specialised (non-generic, non-control) executor.
  size_t SpecialisedUops = 0;
};

/// Executes \p Ptx once on a fresh machine with the kernel lowered per
/// \p R. \p Instrument selects the full logging pipeline; \p Watchdog
/// overrides MaxWarpInstructions when non-zero. The allocation sequence
/// is deterministic, so two calls observe identical address layouts.
Observed runOnce(const std::string &Ptx, const std::string &KernelName,
                 sim::Dim3 Grid, sim::Dim3 Block,
                 const std::vector<suite::ParamSpec> &Params, Rows R,
                 bool Instrument, uint64_t Watchdog = 0) {
  Observed Out;
  std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(Ptx);
  const ptx::Kernel *K = Mod->findKernel(KernelName);
  if (!K) {
    Out.Result = sim::LaunchResult::failure("missing kernel");
    return Out;
  }
  size_t KernelIndex = static_cast<size_t>(K - Mod->Kernels.data());

  instrument::ModuleInstrumentation Instrumented;
  const instrument::KernelInstrumentation *KI = nullptr;
  if (Instrument) {
    Instrumented = instrument::instrumentModule(
        *Mod, instrument::InstrumenterOptions());
    KI = &Instrumented.Kernels[KernelIndex];
  }

  sim::GlobalMemory Memory;
  sim::Machine::layoutModuleGlobals(*Mod, Memory);
  sim::MachineOptions Options;
  if (Watchdog)
    Options.MaxWarpInstructions = Watchdog;
  sim::Machine Machine(Memory, Options);

  sim::ParamBuilder Builder(*K);
  std::vector<std::pair<uint64_t, uint64_t>> BufferSpans;
  size_t Index = 0;
  for (const suite::ParamSpec &Spec : Params) {
    if (Spec.K == suite::ParamSpec::Kind::Value) {
      Builder.set(Index++, Spec.Value);
      continue;
    }
    uint64_t Addr = Memory.allocate(Spec.BufferBytes);
    if (Spec.HasInitWord)
      Memory.write(Addr, 4, Spec.InitWord);
    BufferSpans.emplace_back(Addr, Spec.BufferBytes);
    Builder.set(Index++, Addr);
  }

  std::unique_ptr<sim::LoweredKernel> Low = sim::lowerKernel(*Mod, *K, KI);
  for (const sim::Uop &U : Low->Uops) {
    auto Exec = static_cast<sim::UopExec>(U.Exec);
    if (Exec > sim::UopExec::LegacyMem && Exec < sim::UopExec::Bra)
      ++Out.SpecialisedUops;
  }
  if (R == Rows::Generic)
    useGenericRows(*Low);

  sim::LaunchConfig Config;
  Config.Grid = Grid;
  Config.Block = Block;
  sim::CollectingLogger Logger;
  Out.Result =
      Machine.launch(*Mod, *K, KI, Config, Builder.bytes(),
                     Instrument ? &Logger : nullptr, Low.get());
  Out.Blocks = std::move(Logger.Blocks);
  Out.Records = std::move(Logger.Records);
  for (const auto &Span : BufferSpans) {
    std::vector<uint8_t> Bytes(Span.second);
    for (uint64_t I = 0; I != Span.second; ++I)
      Bytes[I] =
          static_cast<uint8_t>(Memory.read(Span.first + I, 1));
    Out.Buffers.push_back(std::move(Bytes));
  }
  return Out;
}

/// FNV-1a over everything expectSameOutcome compares: a failed run
/// digests its error code only; a successful one its counters, record
/// bytes (LogRecord is padding-free), block order and buffers.
uint64_t digest(const Observed &O) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto bytes = [&](const void *Data, size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  };
  auto word = [&](uint64_t V) { bytes(&V, sizeof(V)); };
  word(O.Result.Ok);
  word(static_cast<uint64_t>(O.Result.Code));
  if (!O.Result.Ok)
    return H;
  word(O.Result.ThreadsLaunched);
  word(O.Result.WarpInstructions);
  word(O.Result.RecordsLogged);
  word(O.Result.RecordsPruned);
  word(O.Records.size());
  bytes(O.Records.data(), O.Records.size() * sizeof(trace::LogRecord));
  word(O.Blocks.size());
  bytes(O.Blocks.data(), O.Blocks.size() * sizeof(uint32_t));
  word(O.Buffers.size());
  for (const std::vector<uint8_t> &Buffer : O.Buffers) {
    word(Buffer.size());
    bytes(Buffer.data(), Buffer.size());
  }
  return H;
}

/// Finds the first record index where two streams differ (SIZE_MAX when
/// equal), for readable failure output.
size_t firstRecordDivergence(const Observed &A, const Observed &B) {
  size_t Limit = std::min(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != Limit; ++I)
    if (std::memcmp(&A.Records[I], &B.Records[I],
                    sizeof(trace::LogRecord)) != 0)
      return I;
  return A.Records.size() == B.Records.size() ? SIZE_MAX : Limit;
}

std::string describeRecord(const Observed &O, size_t I) {
  if (I >= O.Records.size())
    return "(end of stream)";
  const trace::LogRecord &R = O.Records[I];
  return support::formatString(
      "op=%s pc=%u warp=%u mask=0x%x size=%u space=%u seq=%u",
      trace::recordOpName(R.op()), R.Pc, R.Warp, R.ActiveMask,
      R.AccessSize, static_cast<unsigned>(R.space()), R.SyncSeq);
}

/// The generic-row oracle. Successful runs must match exactly —
/// records, counters, memory. Failed runs compare the structured error
/// code only: fusion retires both halves of a pair in one scheduler
/// slot, so a watchdog threshold can trip one pass earlier and shift
/// FailPc/WarpInstructions without changing the verdict.
void expectSameOutcome(const Observed &Lowered, const Observed &Generic,
                       const std::string &Context) {
  ASSERT_EQ(Lowered.Result.Ok, Generic.Result.Ok)
      << Context << "\nlowered: " << Lowered.Result.Error
      << "\ngeneric: " << Generic.Result.Error;
  if (!Generic.Result.Ok) {
    EXPECT_EQ(Lowered.Result.Code, Generic.Result.Code) << Context;
    return;
  }
  EXPECT_EQ(Lowered.Result.ThreadsLaunched,
            Generic.Result.ThreadsLaunched)
      << Context;
  EXPECT_EQ(Lowered.Result.WarpInstructions,
            Generic.Result.WarpInstructions)
      << Context;
  EXPECT_EQ(Lowered.Result.RecordsLogged, Generic.Result.RecordsLogged)
      << Context;
  EXPECT_EQ(Lowered.Result.RecordsPruned, Generic.Result.RecordsPruned)
      << Context;

  size_t Diff = firstRecordDivergence(Lowered, Generic);
  EXPECT_EQ(Diff, SIZE_MAX)
      << Context << "\nfirst divergent record at index " << Diff
      << "\nlowered: " << describeRecord(Lowered, Diff)
      << "\ngeneric: " << describeRecord(Generic, Diff);
  EXPECT_EQ(Lowered.Blocks, Generic.Blocks) << Context;

  ASSERT_EQ(Lowered.Buffers.size(), Generic.Buffers.size()) << Context;
  for (size_t I = 0; I != Lowered.Buffers.size(); ++I)
    EXPECT_EQ(Lowered.Buffers[I], Generic.Buffers[I])
        << Context << "\nbuffer parameter " << I << " differs";
}

//===----------------------------------------------------------------------===//
// Golden digests (see the file comment for their provenance).
//===----------------------------------------------------------------------===//

struct SuiteDigest {
  const char *Name;
  uint64_t Instrumented;
  uint64_t Native;
};

const SuiteDigest SuiteDigests[] = {
    {"g_ww_same_slot",
     0xf916ca1e06c83a56ull, 0xa92efc06e5ed543aull},
    {"g_disjoint_slots",
     0xaf0abfda1f2db82bull, 0x519c042ee2a9f417ull},
    {"g_wr_flag_unsync",
     0x47660ec1b5664b47ull, 0x469c629a5de4b011ull},
    {"g_same_value_across_blocks",
     0x984ac48f1044d09aull, 0x7d142418314c9e2cull},
    {"g_atomic_counter",
     0x6bfda251ea9b4be5ull, 0xe884415db02113b9ull},
    {"g_atomic_plain_mix",
     0x73a3d807cde899dcull, 0x20c80fcc9b1bac59ull},
    {"g_read_only",
     0x0a0cfbf7c90fbc4full, 0xad580aa4e3a59e3full},
    {"g_partials_read_unsync",
     0xcdcc5308fbbcca25ull, 0xa6c9e8f1fa812249ull},
    {"g_intrablock_ww",
     0x1ff704e7ef1a57f4ull, 0x766dbc12bbdafb32ull},
    {"g_intrablock_sync_free",
     0x72998c25443bff10ull, 0xdefe38f6771a2ab5ull},
    {"g_intrablock_wr_race",
     0x2ac4b0d2f121b27cull, 0x63261d488f941424ull},
    {"g_neighbor_after_barrier",
     0xc8217bcf11da97b5ull, 0xfba4a60ac56e666cull},
    {"g_intrablock_atomics",
     0xe3329d543e5e5d0dull, 0x1e76eca90d1a8614ull},
    {"g_own_slot_rw",
     0xb4c209588bf358d5ull, 0xc9006fe73b978364ull},
    {"s_ww_same_slot",
     0x0cf5a9a228c44015ull, 0x85099e620807bc33ull},
    {"s_disjoint",
     0x976cca37b7d00366ull, 0x85099e620807bc33ull},
    {"s_producer_consumer_barrier",
     0x27f13460a58d3ae8ull, 0x6b3a4f272ec8f9c1ull},
    {"s_producer_consumer_nosync",
     0x8f84aa72d9d12c11ull, 0x95f6a3d4e235a379ull},
    {"s_atomics_only",
     0x303a6ea6db3b00caull, 0x6e7841c8e51fdd2bull},
    {"s_atomic_plain_mix",
     0x3af4726cf8c99ed0ull, 0x7f65473bbf4dc471ull},
    {"s_broadcast_read",
     0x228b5883a5924c20ull, 0x7ebac8b400968dd0ull},
    {"s_warp_private_rows",
     0xe33912a9e04d283aull, 0x7682fd73c03ce945ull},
    {"w_branch_order_ww",
     0x01f61e96de0bcaaaull, 0xe11d0ff627a608a1ull},
    {"w_branch_order_same_value",
     0x1741b772432ed2c8ull, 0x7333e70f216592abull},
    {"w_lockstep_wr",
     0xa24b12326c835787ull, 0x14540e777938f155ull},
    {"w_divergence_wr",
     0x74303288975adae6ull, 0x55fc2270890c10a9ull},
    {"w_intra_instruction_ww",
     0x1f9c97ca3820c8b2ull, 0x079e61745a48623dull},
    {"w_nested_disjoint",
     0x25f444119e594a9aull, 0x6efb952e492ada17ull},
    {"f_mp_global_fences",
     0xa8f0ca61108cf77dull, 0x29d94c92a332c06full},
    {"f_mp_cta_fences",
     0xf3bf0740ff2bb507ull, 0x29d94c92a332c06full},
    {"f_mp_no_fences",
     0xc9b3571684e591c7ull, 0x4563914d57a24bedull},
    {"f_mp_writer_only_fence",
     0xe5a90058ce86fd7cull, 0x3add282916ac53acull},
    {"f_mp_sys_fences",
     0xa8f0ca61108cf77dull, 0x29d94c92a332c06full},
    {"f_flag_intrablock_cta",
     0x0367304f38ed94baull, 0x29d94c92a332c06full},
    {"f_flag_intrablock_nofence",
     0x9fa7d351f78f045cull, 0x4563914d57a24bedull},
    {"f_grid_handshake",
     0xd6f2389d30740a40ull, 0xbc61339686a83d58ull},
    {"f_shared_flag_cta",
     0xa536fa070a8839e8ull, 0x95f6a3d4e235a379ull},
    {"f_threadfence_reduction",
     0xf216f177acc45c62ull, 0x3eabc017f32b9fa1ull},
    {"l_spinlock_correct",
     0x84a9b47a0691c4b3ull, 0xd9f3f0fb634f43c9ull},
    {"l_cas_no_fence",
     0xb93fad57171498f7ull, 0x660aa6cfb52fe54full},
    {"l_unlock_plain_store",
     0x1e4d9e4399f74e68ull, 0x660aa6cfb52fe54full},
    {"l_unlock_store_release",
     0x84a9b47a0691c4b3ull, 0xd9f3f0fb634f43c9ull},
    {"l_fine_grained_buckets",
     0xe7efdb5b255495d1ull, 0x61faf3e4852271a8ull},
    {"l_data_outside_critical",
     0xfb174731ad9e7d83ull, 0xed2b4a5cdd5ccd2aull},
    {"l_shared_lock_cta",
     0xc62d1265a4a016b8ull, 0x703427c5b8cbbae2ull},
    {"l_lock_wrong_scope",
     0xecda86548e9ef6bdull, 0xd9f3f0fb634f43c9ull},
    {"l_exch_sandwich_lock",
     0x90e982f8bfde67afull, 0xc0960267b8d7d5d4ull},
    {"l_trylock_fail_both_write",
     0xfef84fa8cef96f66ull, 0x8e6b8b872190d150ull},
    {"a_atomic_mixed_ops",
     0x108c7d51ecbf916aull, 0xe1b3c01f9d443c88ull},
    {"a_atomic_then_plain_read",
     0x8f6c59f78467b59full, 0x5237129d862eadf0ull},
    {"a_atomic_flag_no_fence",
     0xfeeb18c6f61ed246ull, 0x4563914d57a24bedull},
    {"a_ticket_slots",
     0x9d2d0aa9c0788ae9ull, 0xa51961ce9fce5739ull},
    {"a_cas_retry_loop",
     0x9c633979e0e5777bull, 0x62bf30c0ace96680ull},
    {"a_red_reduction",
     0xcbc2706d2db311e4ull, 0xc0e549104ce4ce46ull},
    {"b_divergent_barrier",
     0xc7a003af7b0015a8ull, 0x996336d6bd31ddecull},
    {"b_uniform_conditional_barrier",
     0x2b8342b50235a016ull, 0x90524cae997babb7ull},
    {"b_barrier_loop",
     0x07a901025454748bull, 0x5ff1a0da9d550a3dull},
    {"b_missing_barrier_stencil",
     0xed259a8858f8bac9ull, 0x7c27549a08f6e107ull},
    {"p_partial_warp",
     0xfe49bd9a033a75fcull, 0x5f7f53fdd71d1d8bull},
    {"p_partial_last_warp",
     0x419d209d066258efull, 0xf3547cce108bfdc7ull},
    {"p_grid_stride_disjoint",
     0xa635342511553868ull, 0x9afb3c597a096f7dull},
    {"p_grid_stride_overlap",
     0xf6be19e141c720cbull, 0x92d1de1e1ff7d665ull},
    {"m_read_only_everywhere",
     0xace04942a82503adull, 0xd107ab40b59b95ccull},
    {"m_local_memory",
     0xb65510a0d0701e38ull, 0xab3668eb18dad90dull},
    {"m_param_scaled_slots",
     0x745f423bbce064d6ull, 0xab1b05b8cc07bcc3ull},
    {"m_mixed_spaces",
     0x527b47cef4ec6eceull, 0xab97b19f58f78503ull},
};

/// Instrumented runs of RandomProgram seeds 1..45, in seed order.
const uint64_t RandomDigests[] = {
    0xd33e3dbab9745b62ull, 0xebb9dff555447efbull, 0xc0a1405530399b96ull,
    0x0806f5bcb5087029ull, 0xd0b09356f31c949aull, 0xc35cdba44a426f87ull,
    0x930bed5b4643f9ccull, 0xa264cf80a98529e9ull, 0xdfb634c9dc4032bcull,
    0x46fd5a918beaf875ull, 0xe69b5cc5e8186819ull, 0xf9bae11336600f41ull,
    0x27fd1a54dc3a1af9ull, 0x4a497a6372ed7bf0ull, 0x31daa426bfb67df1ull,
    0x950eb3f9101624c7ull, 0xee681de3d7287036ull, 0xcd48a99101ec3655ull,
    0x1d6e4f1b538b470eull, 0xf14393127e61301dull, 0xeb7c2bb81732e824ull,
    0xab8cd3170e5ae28full, 0x98f3d80c26bf196eull, 0xcf3ed850f90c943eull,
    0x02a8020ad2ad544eull, 0x23fde720b48d1077ull, 0x04aca5f9e5990089ull,
    0x46662bb6fae8bbd7ull, 0x2aed552f7b30ac5aull, 0x3153e90e85049067ull,
    0xb7c367d71d65d10bull, 0x33916d95d6190a3dull, 0x67aed8ae5bfb7e5dull,
    0x6272647fbc283eb9ull, 0x97d9b14167e1b51full, 0xe191a9f2fb993188ull,
    0x3f9e1ebcb002bcd8ull, 0xd32a95e1d2a46345ull, 0xcaffe8a485ae6a9eull,
    0xde33fe28ad7b6d8bull, 0xb0e2f90dbee0f622ull, 0xc151bb34fdc24607ull,
    0x54721357d7858b6bull, 0x74e34ecad7899432ull, 0x2d3a9911094a7d7cull,
};

const SuiteDigest *suiteDigest(const std::string &Name) {
  for (const SuiteDigest &D : SuiteDigests)
    if (Name == D.Name)
      return &D;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Machine-level oracles: the 66-program suite.
//===----------------------------------------------------------------------===//

class SuiteLoweredDifferential
    : public ::testing::TestWithParam<suite::SuiteProgram> {};

TEST_P(SuiteLoweredDifferential, InstrumentedTraceIdentical) {
  const suite::SuiteProgram &Program = GetParam();
  Observed Lowered =
      runOnce(Program.Ptx, Program.KernelName, Program.Grid,
              Program.Block, Program.Params, Rows::Production,
              /*Instrument=*/true);
  Observed Generic =
      runOnce(Program.Ptx, Program.KernelName, Program.Grid,
              Program.Block, Program.Params, Rows::Generic,
              /*Instrument=*/true);
  expectSameOutcome(Lowered, Generic, "program: " + Program.Name);
  const SuiteDigest *Golden = suiteDigest(Program.Name);
  ASSERT_NE(Golden, nullptr) << "no golden digest for " << Program.Name;
  EXPECT_EQ(digest(Lowered), Golden->Instrumented) << Program.Name;
}

TEST_P(SuiteLoweredDifferential, NativeMemoryIdentical) {
  const suite::SuiteProgram &Program = GetParam();
  Observed Lowered =
      runOnce(Program.Ptx, Program.KernelName, Program.Grid,
              Program.Block, Program.Params, Rows::Production,
              /*Instrument=*/false);
  Observed Generic =
      runOnce(Program.Ptx, Program.KernelName, Program.Grid,
              Program.Block, Program.Params, Rows::Generic,
              /*Instrument=*/false);
  expectSameOutcome(Lowered, Generic,
                    "program: " + Program.Name + " (native)");
  const SuiteDigest *Golden = suiteDigest(Program.Name);
  ASSERT_NE(Golden, nullptr) << "no golden digest for " << Program.Name;
  EXPECT_EQ(digest(Lowered), Golden->Native) << Program.Name;
}

std::string suiteName(
    const ::testing::TestParamInfo<suite::SuiteProgram> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Suite66, SuiteLoweredDifferential,
                         ::testing::ValuesIn(suite::concurrencySuite()),
                         suiteName);

//===----------------------------------------------------------------------===//
// Machine-level oracles: random generator seeds.
//===----------------------------------------------------------------------===//

class RandomLoweredDifferential
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomLoweredDifferential, InstrumentedTraceIdentical) {
  RandomProgram Program(GetParam());
  std::vector<suite::ParamSpec> Params = {
      suite::ParamSpec::buffer(4096)};
  sim::Dim3 Grid(Program.Blocks), Block(Program.ThreadsPerBlock);
  Observed Lowered = runOnce(Program.Ptx, "rand", Grid, Block, Params,
                             Rows::Production, /*Instrument=*/true);
  Observed Generic = runOnce(Program.Ptx, "rand", Grid, Block, Params,
                             Rows::Generic, /*Instrument=*/true);
  std::string Context =
      support::formatString("seed %llu", static_cast<unsigned long long>(
                                             GetParam())) +
      "\n" + Program.Ptx;
  // The generator emits opcodes with specialised executors: if lowering
  // stopped selecting them, the generic-row oracle would be vacuous.
  EXPECT_GT(Lowered.SpecialisedUops, 0u) << Context;
  expectSameOutcome(Lowered, Generic, Context);
  ASSERT_LE(GetParam(), std::size(RandomDigests));
  EXPECT_EQ(digest(Lowered), RandomDigests[GetParam() - 1]) << Context;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RandomLoweredDifferential,
                         ::testing::Range<uint64_t>(1, 46));

//===----------------------------------------------------------------------===//
// Failure paths: watchdog and divergent-barrier deadlock. The golden
// value is the error code the interpreter reported.
//===----------------------------------------------------------------------===//

TEST(LoweredFailurePaths, WatchdogCodeMatches) {
  std::string Ptx = suite::makeTestKernel("spin", ".param .u64 p0", R"(
    ld.param.u64 %rd1, [p0];
loop:
    bra loop;
)");
  std::vector<suite::ParamSpec> Params = {suite::ParamSpec::buffer(64)};
  Observed Lowered =
      runOnce(Ptx, "spin", sim::Dim3(1), sim::Dim3(32), Params,
              Rows::Production, /*Instrument=*/true, /*Watchdog=*/2000);
  Observed Generic =
      runOnce(Ptx, "spin", sim::Dim3(1), sim::Dim3(32), Params,
              Rows::Generic, /*Instrument=*/true, /*Watchdog=*/2000);
  EXPECT_FALSE(Lowered.Result.Ok);
  EXPECT_EQ(Lowered.Result.Code, support::ErrorCode::KernelHang);
  expectSameOutcome(Lowered, Generic, "watchdog spin kernel");
}

TEST(LoweredFailurePaths, DivergentBarrierDeadlockCodeMatches) {
  // Two warps: warp 0 branches around the barrier and retires, warp 1
  // arrives at it. A retired warp counts as arrived, so the barrier
  // releases and the launch completes — as it did under the
  // interpreter — and every row selection must agree on that.
  std::string Ptx = suite::makeTestKernel("halfbar", ".param .u64 p0", R"(
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 32;
    @%p1 bra skip;
    bar.sync 0;
skip:
    ret;
)");
  std::vector<suite::ParamSpec> Params = {suite::ParamSpec::buffer(64)};
  Observed Lowered =
      runOnce(Ptx, "halfbar", sim::Dim3(1), sim::Dim3(64), Params,
              Rows::Production, /*Instrument=*/true);
  Observed Generic =
      runOnce(Ptx, "halfbar", sim::Dim3(1), sim::Dim3(64), Params,
              Rows::Generic, /*Instrument=*/true);
  EXPECT_EQ(Lowered.Result.Code, support::ErrorCode::Ok);
  expectSameOutcome(Lowered, Generic, "divergent barrier kernel");
}

//===----------------------------------------------------------------------===//
// Register indices beyond 16 bits.
//===----------------------------------------------------------------------===//

// 70000 .u32 registers push %rd and %p past index 65535; %r65600 and
// %r69999 are used directly, the guards %p1/%p2 (indices 70005/70006)
// predicate an add and a branch (which fuses with its setp natively).
constexpr char HighRegisterPtx[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry highreg(
    .param .u64 p0
)
{
    .reg .u32 %r<70000>;
    .reg .u64 %rd<4>;
    .reg .pred %p<3>;
    ld.param.u64 %rd1, [p0];
    mov.u32 %r65600, %tid.x;
    mul.lo.u32 %r69999, %r65600, 3;
    add.u32 %r1, %r69999, 7;
    setp.lt.u32 %p1, %r65600, 16;
    @%p1 add.u32 %r1, %r1, 100;
    setp.eq.u32 %p2, %r65600, 5;
    @%p2 bra SKIP;
    xor.b32 %r1, %r1, 65536;
SKIP:
    cvt.u64.u32 %rd2, %r65600;
    shl.b64 %rd2, %rd2, 2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    ret;
}
)";

/// Thread t's word: 3t + 7, +100 below t = 16, bit 16 flipped unless
/// t = 5 — what the interpreter wrote for this kernel.
uint32_t highRegisterWord(uint32_t Thread) {
  uint32_t V = 3 * Thread + 7;
  if (Thread < 16)
    V += 100;
  if (Thread != 5)
    V ^= 65536;
  return V;
}

const uint64_t HighRegisterDigestInstrumented = 0xcdbded4a1056c108ull;
const uint64_t HighRegisterDigestNative = 0x02c4d34acd587702ull;

TEST(LowerHighRegisters, LowersAndMatchesInterpreterDigest) {
  std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(HighRegisterPtx);
  const ptx::Kernel *K = Mod->findKernel("highreg");
  ASSERT_NE(K, nullptr);
  ASSERT_GT(K->Regs.size(), 0x10000u);
  std::unique_ptr<sim::LoweredKernel> Low =
      sim::lowerKernel(*Mod, *K, nullptr);
  ASSERT_NE(Low, nullptr);
  EXPECT_EQ(Low->FusedBranches, 1u);

  std::vector<suite::ParamSpec> Params = {suite::ParamSpec::buffer(128)};
  for (bool Instrument : {true, false}) {
    Observed Lowered =
        runOnce(HighRegisterPtx, "highreg", sim::Dim3(1), sim::Dim3(32),
                Params, Rows::Production, Instrument);
    Observed Generic =
        runOnce(HighRegisterPtx, "highreg", sim::Dim3(1), sim::Dim3(32),
                Params, Rows::Generic, Instrument);
    std::string Context = Instrument ? "instrumented" : "native";
    ASSERT_TRUE(Lowered.Result.Ok) << Lowered.Result.Error;
    expectSameOutcome(Lowered, Generic, Context);
    EXPECT_EQ(digest(Lowered), Instrument ? HighRegisterDigestInstrumented
                                          : HighRegisterDigestNative)
        << Context;
    ASSERT_EQ(Lowered.Buffers.size(), 1u);
    for (uint32_t T = 0; T != 32; ++T) {
      uint32_t Word;
      std::memcpy(&Word, Lowered.Buffers[0].data() + 4 * T, sizeof(Word));
      EXPECT_EQ(Word, highRegisterWord(T)) << Context << " thread " << T;
    }
  }
}

TEST(LowerHighRegisters, SessionReportsLowered) {
  Session S;
  ASSERT_TRUE(S.loadModule(HighRegisterPtx)) << S.error();
  uint64_t Buf = S.alloc(128);
  support::Result<sim::LaunchResult> Result =
      S.launchKernel("highreg", sim::Dim3(1), sim::Dim3(32), {Buf});
  ASSERT_TRUE(Result.ok()) << Result.status().message();
  EXPECT_TRUE(S.report().Launch.SimLowered);
  EXPECT_NE(S.report().toJson().find("\"simLowered\": true"),
            std::string::npos);
  for (uint32_t T = 0; T != 32; ++T)
    EXPECT_EQ(S.readU32(Buf + 4 * T), highRegisterWord(T)) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Integer ALU results reach memory.
//===----------------------------------------------------------------------===//

// Every specialised integer executor writes a value that is stored, so a
// wrong lane result shows up in the buffer: thread t stores 13 words at
// out[16t..16t+12]. A = t * 0x9e3779b1 sets the sign bit for most
// threads (signed shr/max differ from unsigned), B = t + 4660, and the
// shl amount is t itself.
constexpr char AluPtx[] = R"(
.version 4.3
.target sm_35
.address_size 64

.visible .entry alu(
    .param .u64 p0
)
{
    .reg .u32 %r<16>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [p0];
    mov.u32 %r1, %tid.x;
    mul.lo.u32 %r2, %r1, -1640531535;
    add.u32 %r3, %r1, 4660;
    xor.b32 %r4, %r2, %r3;
    and.b32 %r5, %r2, %r3;
    or.b32 %r6, %r2, %r3;
    not.b32 %r7, %r2;
    shl.b32 %r8, %r2, %r1;
    shr.u32 %r9, %r2, 7;
    shr.s32 %r10, %r2, 7;
    sub.u32 %r11, %r3, %r2;
    mad.lo.u32 %r12, %r2, %r3, %r1;
    min.u32 %r13, %r2, %r3;
    max.s32 %r14, %r2, %r3;
    cvt.u64.u32 %rd2, %r1;
    shl.b64 %rd2, %rd2, 6;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    st.global.u32 [%rd3+4], %r3;
    st.global.u32 [%rd3+8], %r4;
    st.global.u32 [%rd3+12], %r5;
    st.global.u32 [%rd3+16], %r6;
    st.global.u32 [%rd3+20], %r7;
    st.global.u32 [%rd3+24], %r8;
    st.global.u32 [%rd3+28], %r9;
    st.global.u32 [%rd3+32], %r10;
    st.global.u32 [%rd3+36], %r11;
    st.global.u32 [%rd3+40], %r12;
    st.global.u32 [%rd3+44], %r13;
    st.global.u32 [%rd3+48], %r14;
    ret;
}
)";

constexpr unsigned AluWords = 13;
constexpr const char *AluWordNames[AluWords] = {
    "mul.lo", "add", "xor", "and", "or", "not", "shl", "shr.u", "shr.s",
    "sub", "mad.lo", "min.u", "max.s"};

/// Thread t's words, computed on the host in the kernel's store order.
std::vector<uint32_t> aluWords(uint32_t Thread) {
  uint32_t A = Thread * 0x9e3779b1u;
  uint32_t B = Thread + 4660;
  int32_t SA = static_cast<int32_t>(A), SB = static_cast<int32_t>(B);
  return {A,
          B,
          A ^ B,
          A & B,
          A | B,
          ~A,
          A << Thread,
          A >> 7,
          static_cast<uint32_t>(SA >> 7),
          B - A,
          A * B + Thread,
          std::min(A, B),
          static_cast<uint32_t>(std::max(SA, SB))};
}

TEST(LowerAluResults, SpecialisedIntegerRowsReachMemory) {
  std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(AluPtx);
  const ptx::Kernel *K = Mod->findKernel("alu");
  ASSERT_NE(K, nullptr);
  std::unique_ptr<sim::LoweredKernel> Low =
      sim::lowerKernel(*Mod, *K, nullptr);
  ASSERT_NE(Low, nullptr);
  // The kernel must exercise each specialised integer row, or the
  // oracles below would compare generic rows against themselves.
  const sim::UopExec IntRows[] = {
      sim::UopExec::IntAdd, sim::UopExec::IntSub, sim::UopExec::IntMul,
      sim::UopExec::IntMad, sim::UopExec::IntMin, sim::UopExec::IntMax,
      sim::UopExec::IntAnd, sim::UopExec::IntOr,  sim::UopExec::IntXor,
      sim::UopExec::IntNot, sim::UopExec::IntShl, sim::UopExec::IntShr};
  for (sim::UopExec Row : IntRows) {
    bool Found = false;
    for (const sim::Uop &U : Low->Uops)
      Found |= static_cast<sim::UopExec>(U.Exec) == Row;
    EXPECT_TRUE(Found) << "no uop lowered to row "
                       << static_cast<unsigned>(Row);
  }

  std::vector<suite::ParamSpec> Params = {
      suite::ParamSpec::buffer(32 * 16 * 4)};
  for (bool Instrument : {true, false}) {
    Observed Lowered = runOnce(AluPtx, "alu", sim::Dim3(1), sim::Dim3(32),
                               Params, Rows::Production, Instrument);
    Observed Generic = runOnce(AluPtx, "alu", sim::Dim3(1), sim::Dim3(32),
                               Params, Rows::Generic, Instrument);
    std::string Context = Instrument ? "instrumented" : "native";
    ASSERT_TRUE(Lowered.Result.Ok) << Lowered.Result.Error;
    expectSameOutcome(Lowered, Generic, Context);
    ASSERT_EQ(Lowered.Buffers.size(), 1u);
    for (uint32_t T = 0; T != 32; ++T) {
      std::vector<uint32_t> Expected = aluWords(T);
      for (unsigned I = 0; I != AluWords; ++I) {
        uint32_t Word;
        std::memcpy(&Word, Lowered.Buffers[0].data() + 4 * (16 * T + I),
                    sizeof(Word));
        EXPECT_EQ(Word, Expected[I])
            << Context << " thread " << T << " " << AluWordNames[I];
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Lowering determinism and fusion coverage.
//===----------------------------------------------------------------------===//

TEST(LowerDeterminism, ByteIdenticalArenas) {
  for (const suite::SuiteProgram &Program : suite::concurrencySuite()) {
    std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(Program.Ptx);
    const ptx::Kernel *K = Mod->findKernel(Program.KernelName);
    ASSERT_NE(K, nullptr) << Program.Name;
    size_t KernelIndex = static_cast<size_t>(K - Mod->Kernels.data());
    instrument::ModuleInstrumentation Instr = instrument::instrumentModule(
        *Mod, instrument::InstrumenterOptions());

    const instrument::KernelInstrumentation *Variants[] = {
        nullptr, &Instr.Kernels[KernelIndex]};
    for (const instrument::KernelInstrumentation *KI : Variants) {
      std::unique_ptr<sim::LoweredKernel> First =
          sim::lowerKernel(*Mod, *K, KI);
      std::unique_ptr<sim::LoweredKernel> Second =
          sim::lowerKernel(*Mod, *K, KI);
      ASSERT_NE(First, nullptr) << Program.Name;
      ASSERT_NE(Second, nullptr) << Program.Name;
      ASSERT_EQ(First->Uops.size(), Second->Uops.size()) << Program.Name;
      EXPECT_EQ(std::memcmp(First->Uops.data(), Second->Uops.data(),
                            First->byteSize()),
                0)
          << "lowering " << Program.Name << " twice differs";
      EXPECT_EQ(First->BlockStarts, Second->BlockStarts) << Program.Name;
      EXPECT_EQ(First->FusedPairs, Second->FusedPairs) << Program.Name;
      EXPECT_EQ(First->FusedBranches, Second->FusedBranches)
          << Program.Name;
    }
  }
}

TEST(LowerCoverage, IdentityPcMapAndFusion) {
  uint64_t FusedPairs = 0, FusedBranches = 0;
  for (const suite::SuiteProgram &Program : suite::concurrencySuite()) {
    std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(Program.Ptx);
    const ptx::Kernel *K = Mod->findKernel(Program.KernelName);
    ASSERT_NE(K, nullptr) << Program.Name;
    std::unique_ptr<sim::LoweredKernel> Low =
        sim::lowerKernel(*Mod, *K, nullptr);
    ASSERT_NE(Low, nullptr) << Program.Name;
    FusedPairs += Low->FusedPairs;
    FusedBranches += Low->FusedBranches;
    // The identity PC map is what lets branch targets, profiler arrays
    // and trace records skip translation entirely.
    ASSERT_EQ(Low->Uops.size(), K->Body.size()) << Program.Name;
    for (size_t Pc = 0; Pc != Low->Uops.size(); ++Pc)
      ASSERT_EQ(Low->Uops[Pc].Pc, Pc) << Program.Name;
    ASSERT_FALSE(Low->BlockStarts.empty()) << Program.Name;
    EXPECT_EQ(Low->BlockStarts.front(), 0u) << Program.Name;
  }
  // Both fusion kinds must fire somewhere in the suite.
  EXPECT_GT(FusedPairs, 0u);
  EXPECT_GT(FusedBranches, 0u);
}

//===----------------------------------------------------------------------===//
// Session-level check: end-to-end verdicts with the full pipeline
// (engine, queues, detector) in the loop.
//===----------------------------------------------------------------------===//

runtime::Engine &lowerTestEngine() {
  static runtime::Engine Engine;
  return Engine;
}

struct SessionOutcome {
  bool Ok = false;
  bool SimLowered = false;
  std::vector<std::string> Races;
  size_t BarrierErrors = 0;
};

SessionOutcome runSession(const suite::SuiteProgram &Program) {
  SessionOutcome Out;
  SessionOptions Opts;
  Opts.SharedEngine = &lowerTestEngine();
  Session S(Opts);
  if (!S.loadModule(Program.Ptx))
    return Out;
  std::vector<uint64_t> Params;
  for (const suite::ParamSpec &Spec : Program.Params) {
    if (Spec.K == suite::ParamSpec::Kind::Value) {
      Params.push_back(Spec.Value);
      continue;
    }
    uint64_t Addr = S.alloc(Spec.BufferBytes);
    if (Spec.HasInitWord)
      S.writeU32(Addr, Spec.InitWord);
    Params.push_back(Addr);
  }
  support::Result<sim::LaunchResult> Result = S.launchKernel(
      Program.KernelName, Program.Grid, Program.Block, Params);
  Out.Ok = Result.ok();
  Out.SimLowered = S.report().Launch.SimLowered;
  for (const detector::RaceReport &Race : S.races())
    Out.Races.push_back(Race.describe());
  Out.BarrierErrors = S.barrierErrors().size();
  return Out;
}

TEST(LowerSession, SuiteVerdictsMatchEndToEnd) {
  // The full pipeline's race *attribution* (which thread pair and pc a
  // race is first pinned to, occurrence counts) depends on detector
  // worker interleaving and varies run to run, so the end-to-end check
  // is at verdict granularity — the record streams themselves are
  // checked byte-for-byte at the Machine level above, where execution
  // is deterministic.
  for (const suite::SuiteProgram &Program : suite::concurrencySuite()) {
    SessionOutcome Lowered = runSession(Program);
    ASSERT_TRUE(Lowered.Ok) << Program.Name;
    EXPECT_TRUE(Lowered.SimLowered) << Program.Name;
    bool Problem = !Lowered.Races.empty() || Lowered.BarrierErrors != 0;
    EXPECT_EQ(Problem, Program.expectProblem()) << Program.Name;
  }
}

} // namespace
