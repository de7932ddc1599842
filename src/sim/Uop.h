//===- Uop.h - pre-lowered kernel micro-ops --------------------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-lowered kernel IR executed by the simulator's fast path. Each
/// ptx::Instruction is compiled once, at launch-prepare time, into a Uop:
/// a fixed-size, pre-decoded micro-op with resolved register indices,
/// folded immediates (including float bit patterns and symbol addresses),
/// pre-resolved memory space/width, baked trace-record opcodes, and branch
/// targets expressed as micro-op indices.
///
/// Uop indices are identical to original PTX PCs: the lowered array has
/// exactly one Uop per instruction, so branch targets, reconvergence
/// points, trace-record PCs, profiler arrays and failure PCs all map
/// 1:1 without a translation table. Fusion does not compact the array;
/// a fused pair executes both micro-ops in one dispatch (the second one
/// in place) and the warp then skips one scheduler slot, keeping the
/// instruction-count accounting identical to an unfused schedule.
///
/// The Uop layout is padding-free by construction (explicit pad fields,
/// static_asserts below) so that lowering the same kernel twice yields
/// byte-identical arenas — the determinism test memcmps them.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_SIM_UOP_H
#define BARRACUDA_SIM_UOP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace barracuda {
namespace ptx {
struct Instruction;
struct Kernel;
} // namespace ptx

namespace sim {

/// Where a pre-decoded source operand comes from at execution time.
enum class UopSrcKind : uint8_t {
  Reg,     ///< read register Reg
  Imm,     ///< literal: folded integer, float bit pattern or symbol address
  Special, ///< read special register Special (%tid.x, ...)
};

/// A pre-decoded source operand. Immediates are folded at lowering time
/// with the exact conversion the generic rows apply at read time (float
/// immediates via floatToBits with the instruction's type), so execution
/// is a 3-way switch instead of the full operand decode.
struct UopSrc {
  uint8_t Kind = 0;    ///< UopSrcKind
  uint8_t Special = 0; ///< ptx::SpecialReg when Kind == Special
  uint16_t Pad = 0;
  uint32_t Reg = 0;    ///< register index when Kind == Reg
  uint64_t Imm = 0;    ///< folded literal when Kind == Imm
};

static_assert(sizeof(UopSrc) == 16, "UopSrc layout changed");
static_assert(offsetof(UopSrc, Imm) == 8, "UopSrc has implicit padding");

/// Selectable micro-op executors. Each value indexes the machine's handler
/// table; which executor a given instruction gets is decided at lowering
/// time by the uop kernel library (see UopKernelInfo). LegacyLanes and
/// LegacyMem are the generic rows: they decode the original instruction's
/// operands per execution and cover the opcodes without a specialized
/// handler.
enum class UopExec : uint8_t {
  LegacyLanes, ///< executeLanes on the original instruction
  LegacyMem,   ///< executeMemory on the original instruction
  Nop,
  Mov,
  IntAdd,
  IntSub,
  IntMul,
  IntMad,
  IntMin,
  IntMax,
  IntAnd,
  IntOr,
  IntXor,
  IntNot,
  IntShl,
  IntShr,
  Setp,
  Selp,
  Cvt,
  Cvta,
  FltBin,  ///< float add/sub/mul/div/min/max/mad (sub-op in Uop::Cmp)
  Ld,      ///< scalar load, page-cached fast path
  St,      ///< scalar store, page-cached fast path
  Atom,    ///< scalar atomic RMW
  Bra,     ///< handled inline by the dispatch loop
  RetExit, ///< ret/exit: retire lanes (inline)
  Bar,     ///< barrier arrival (inline)
  Membar,  ///< memory fence (inline)
  SetpBra, ///< fused setp+bra: compare and branch in one dispatch (inline)
  Count,
};

/// Float binary sub-ops for UopExec::FltBin, stored in Uop::Cmp.
enum : uint8_t {
  FB_Add = 0,
  FB_Sub,
  FB_Mul,
  FB_Div,
  FB_Min,
  FB_Max,
  FB_Mad,
};

/// Uop::Flags bits.
enum : uint16_t {
  UF_Guarded = 1u << 0,     ///< instruction had a @p guard
  UF_GuardNeg = 1u << 1,    ///< guard was @!p
  UF_EndsBlock = 1u << 2,   ///< last uop of a basic block: run stack cleanup
  UF_FuseNext = 1u << 3,    ///< execute the next uop in the same dispatch
  UF_SignExt = 1u << 4,     ///< signed variant (sign-extend loads / shifts)
  UF_DstPred = 1u << 5,     ///< destination register is a predicate
  UF_Pruned = 1u << 6,      ///< instrumentation pruned this access's record
  UF_LogSync = 1u << 7,     ///< record carries scope + sync ticket
  UF_FenceGlobal = 1u << 8, ///< membar scope wider than .cta
  UF_CvtaTo = 1u << 9,      ///< cvta.to direction (generic -> space)
};

/// One pre-decoded micro-op. 96 bytes, no implicit padding.
struct Uop {
  uint8_t Exec = 0;     ///< UopExec handler selector
  uint8_t CmpClass = 0; ///< setp operand class: 0 unsigned, 1 signed, 2 float
  uint16_t Flags = 0;   ///< UF_* bits
  uint8_t DstBytes = 0; ///< destination register declared width
  uint8_t AluBytes = 0; ///< operating width (executeLanes' `Bytes`)
  uint8_t LogScope = 0; ///< trace::SyncScope for UF_LogSync records
  uint8_t Pad0 = 0;
  int32_t Dst = -1;     ///< destination register, -1 if none
  uint8_t Ty = 0;       ///< ptx::Type — operating type
  uint8_t SrcTy = 0;    ///< resolved cvt source type
  uint8_t Cmp = 0;      ///< CmpOpKind (Setp/SetpBra) or FB_* (FltBin)
  uint8_t MulMode = 0;  ///< MulModeKind (IntMul/IntMad)
  uint8_t AtomOp = 0;   ///< AtomOpKind (Atom)
  uint8_t Space = 0;    ///< static ptx::StateSpace of a memory access
  uint8_t MemSize = 0;  ///< access size in bytes (scalar: 1..8)
  uint8_t LogOp = 0;    ///< trace::RecordOp to emit; 0 (Invalid) = no record
  int32_t AddrReg = -1; ///< address base register, -1 = displacement only
  uint32_t Target = 0;  ///< branch target (uop index == PC)
  uint32_t Reconv = 0;  ///< baked reconvergence point for branches
  uint32_t Pc = 0;      ///< original PC (== own index; kept for fused ops)
  uint32_t Guard = 0;   ///< guard predicate register (valid iff UF_Guarded)
  uint64_t AddrDisp = 0; ///< address displacement (symbol base + immediate)
  UopSrc Srcs[3];        ///< pre-decoded source operands
};

static_assert(sizeof(Uop) == 96, "Uop layout changed");
static_assert(offsetof(Uop, AddrDisp) == 40, "Uop has implicit padding");
static_assert(offsetof(Uop, Srcs) == 48, "Uop has implicit padding");

/// One entry of the uop kernel library: a candidate executor for some
/// class of instructions. Lowering picks, per instruction, the supporting
/// entry with the lowest complexity — specialized handlers advertise a low
/// complexity, the LegacyLanes/LegacyMem generic rows a high one, so
/// adding a new specialized kernel is just adding a registry row.
struct UopKernelInfo {
  const char *Name;
  UopExec Exec;
  bool (*Supports)(const ptx::Instruction &Insn, const ptx::Kernel &K);
  int (*Complexity)(const ptx::Instruction &Insn);
};

/// A kernel compiled to micro-ops. Produced once per (kernel,
/// instrumentation) pair at launch-prepare time and cached by the session.
struct LoweredKernel {
  /// One uop per instruction; index == original PC.
  std::vector<Uop> Uops;
  /// First PC of every basic block, ascending.
  std::vector<uint32_t> BlockStarts;
  /// Whether trace-record emission was baked in (instrumented launches).
  bool Instrumented = false;
  /// Number of generic fused pairs (UF_FuseNext).
  uint32_t FusedPairs = 0;
  /// Number of fused setp+bra dispatches.
  uint32_t FusedBranches = 0;

  size_t byteSize() const { return Uops.size() * sizeof(Uop); }
};

} // namespace sim
} // namespace barracuda

#endif // BARRACUDA_SIM_UOP_H
