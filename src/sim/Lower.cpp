//===- Lower.cpp - PTX instruction -> micro-op lowering --------------------===//

#include "sim/Lower.h"

#include "instrument/Instrumenter.h"
#include "ptx/Cfg.h"
#include "ptx/Ir.h"
#include "trace/Record.h"

#include <cassert>
#include <cstring>

using namespace barracuda;
using namespace barracuda::sim;
using namespace barracuda::ptx;
using barracuda::instrument::InsnAnnotation;
using barracuda::instrument::LogActionKind;
using barracuda::trace::RecordOp;

namespace {

/// Mirror of the generic rows' float-immediate conversion: immediates are
/// folded at lowering time with exactly the bits readOperand would produce.
uint64_t foldFloatBits(double Value, Type Ty) {
  if (Ty == Type::F32) {
    float F = static_cast<float>(Value);
    uint32_t B;
    std::memcpy(&B, &F, sizeof(B));
    return B;
  }
  uint64_t B;
  std::memcpy(&B, &Value, sizeof(B));
  return B;
}

/// True if \p Op can be pre-decoded into a UopSrc.
bool valueFoldable(const Operand &Op) {
  switch (Op.Kind) {
  case Operand::OperandKind::Reg:
    return !Op.isVector() && Op.Reg >= 0;
  case Operand::OperandKind::Imm:
  case Operand::OperandKind::FImm:
  case Operand::OperandKind::Special:
    return true;
  case Operand::OperandKind::Symbol:
    return Op.Sym >= 0;
  default:
    return false;
  }
}

bool regDst(const Operand &Op) {
  return Op.isReg() && !Op.isVector() && Op.Reg >= 0;
}

/// Folds \p Op into \p S. \p FoldTy is the type the generic rows would pass
/// to readOperand at this operand position (the instruction type, or the
/// resolved source type for cvt).
void foldOperand(UopSrc &S, const Operand &Op, const Module &M,
                 const Kernel &K, Type FoldTy) {
  switch (Op.Kind) {
  case Operand::OperandKind::Reg:
    S.Kind = static_cast<uint8_t>(UopSrcKind::Reg);
    S.Reg = static_cast<uint32_t>(Op.Reg);
    return;
  case Operand::OperandKind::Imm:
    S.Kind = static_cast<uint8_t>(UopSrcKind::Imm);
    S.Imm = static_cast<uint64_t>(Op.Imm);
    return;
  case Operand::OperandKind::FImm:
    S.Kind = static_cast<uint8_t>(UopSrcKind::Imm);
    S.Imm = foldFloatBits(Op.FImm,
                          FoldTy == Type::F64 ? Type::F64 : Type::F32);
    return;
  case Operand::OperandKind::Special:
    S.Kind = static_cast<uint8_t>(UopSrcKind::Special);
    S.Special = static_cast<uint8_t>(Op.Special);
    return;
  case Operand::OperandKind::Symbol:
    S.Kind = static_cast<uint8_t>(UopSrcKind::Imm);
    if (Op.SymSpace == StateSpace::Shared)
      S.Imm = K.SharedVars[static_cast<size_t>(Op.Sym)].Address;
    else if (Op.SymSpace == StateSpace::Local)
      S.Imm = K.LocalVars[static_cast<size_t>(Op.Sym)].Address;
    else
      S.Imm = M.Globals[static_cast<size_t>(Op.Sym)].Address;
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Uop kernel library: Supports/Complexity rows
//===----------------------------------------------------------------------===//

bool isControlOp(Opcode Op) {
  return Op == Opcode::Bra || Op == Opcode::Ret || Op == Opcode::Exit ||
         Op == Opcode::Bar || Op == Opcode::Membar;
}

bool isMemOp(Opcode Op) {
  return Op == Opcode::Ld || Op == Opcode::St || Op == Opcode::Atom;
}

/// Shared shape checks for binary integer ALU ops (dst, a, b).
bool intBinary(const Instruction &I) {
  return !isFloatType(I.Ty) && I.Ops.size() >= 3 && regDst(I.Ops[0]) &&
         valueFoldable(I.Ops[1]) && valueFoldable(I.Ops[2]);
}

bool fltShape(const Instruction &I, size_t Srcs) {
  if (!isFloatType(I.Ty) || I.Ops.size() < Srcs + 1 || !regDst(I.Ops[0]))
    return false;
  for (size_t N = 1; N <= Srcs; ++N)
    if (!valueFoldable(I.Ops[N]))
      return false;
  return true;
}

/// Scalar memory access with a pre-decodable address operand.
bool scalarMemShape(const Instruction &I, int AddrIndex) {
  if (I.VecWidth != 1 || static_cast<int>(I.Ops.size()) <= AddrIndex)
    return false;
  const Operand &Addr = I.Ops[static_cast<size_t>(AddrIndex)];
  if (!Addr.isAddr() || Addr.isVector())
    return false;
  unsigned Size = I.accessSize();
  return Size >= 1 && Size <= 8;
}

int genericCost(const Instruction &) { return 100; }
int fastCost(const Instruction &) { return 10; }

const UopKernelInfo Library[] = {
    // Generic rows: decode the original instruction's operands on every
    // execution (executeLanes / executeMemory). Highest complexity, so any
    // specialized row wins.
    {"legacy.lanes", UopExec::LegacyLanes,
     [](const Instruction &I, const Kernel &) {
       return !isMemOp(I.Op) && !isControlOp(I.Op);
     },
     genericCost},
    {"legacy.mem", UopExec::LegacyMem,
     [](const Instruction &I, const Kernel &) { return isMemOp(I.Op); },
     genericCost},

    // Control. These are the only executors for their opcodes; the block
    // dispatch loop handles them inline rather than through the table.
    {"control.bra", UopExec::Bra,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Bra && !I.Ops.empty() && I.Ops[0].Target >= 0;
     },
     fastCost},
    {"control.retexit", UopExec::RetExit,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Ret || I.Op == Opcode::Exit;
     },
     fastCost},
    {"control.bar", UopExec::Bar,
     [](const Instruction &I, const Kernel &) { return I.Op == Opcode::Bar; },
     fastCost},
    {"control.membar", UopExec::Membar,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Membar;
     },
     fastCost},

    // Specialized ALU executors.
    {"nop", UopExec::Nop,
     [](const Instruction &I, const Kernel &) { return I.Op == Opcode::Nop; },
     fastCost},
    {"mov", UopExec::Mov,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Mov && I.Ops.size() >= 2 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]);
     },
     fastCost},
    {"int.add", UopExec::IntAdd,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Add && intBinary(I);
     },
     fastCost},
    {"int.sub", UopExec::IntSub,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Sub && intBinary(I);
     },
     fastCost},
    {"int.mul", UopExec::IntMul,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Mul && intBinary(I);
     },
     fastCost},
    {"int.mad", UopExec::IntMad,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Mad && !isFloatType(I.Ty) &&
              I.Ops.size() >= 4 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]) && valueFoldable(I.Ops[2]) &&
              valueFoldable(I.Ops[3]);
     },
     fastCost},
    {"int.min", UopExec::IntMin,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Min && intBinary(I);
     },
     fastCost},
    {"int.max", UopExec::IntMax,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Max && intBinary(I);
     },
     fastCost},
    {"int.and", UopExec::IntAnd,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::And && intBinary(I);
     },
     fastCost},
    {"int.or", UopExec::IntOr,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Or && intBinary(I);
     },
     fastCost},
    {"int.xor", UopExec::IntXor,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Xor && intBinary(I);
     },
     fastCost},
    {"int.not", UopExec::IntNot,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Not && I.Ops.size() >= 2 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]);
     },
     fastCost},
    {"int.shl", UopExec::IntShl,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Shl && intBinary(I);
     },
     fastCost},
    {"int.shr", UopExec::IntShr,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Shr && intBinary(I);
     },
     fastCost},
    {"setp", UopExec::Setp,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Setp && I.Ops.size() >= 3 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]) && valueFoldable(I.Ops[2]);
     },
     fastCost},
    {"selp", UopExec::Selp,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Selp && I.Ops.size() >= 4 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]) && valueFoldable(I.Ops[2]) &&
              regDst(I.Ops[3]);
     },
     fastCost},
    {"cvt", UopExec::Cvt,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Cvt && I.Ops.size() >= 2 && regDst(I.Ops[0]) &&
              valueFoldable(I.Ops[1]);
     },
     fastCost},
    {"cvta", UopExec::Cvta,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Cvta && I.Ops.size() >= 2 &&
              regDst(I.Ops[0]) && valueFoldable(I.Ops[1]);
     },
     fastCost},
    {"flt.bin", UopExec::FltBin,
     [](const Instruction &I, const Kernel &) {
       switch (I.Op) {
       case Opcode::Add:
       case Opcode::Sub:
       case Opcode::Mul:
       case Opcode::Div:
       case Opcode::Min:
       case Opcode::Max:
         return fltShape(I, 2);
       case Opcode::Mad:
         return fltShape(I, 3);
       default:
         return false;
       }
     },
     fastCost},

    // Specialized scalar memory executors (page-cached fast path).
    {"mem.ld", UopExec::Ld,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::Ld && scalarMemShape(I, 1) &&
              I.Ops.size() >= 2 && regDst(I.Ops[0]);
     },
     fastCost},
    {"mem.st", UopExec::St,
     [](const Instruction &I, const Kernel &) {
       return I.Op == Opcode::St && scalarMemShape(I, 0) &&
              I.Ops.size() >= 2 && !I.Ops[1].isVector() &&
              valueFoldable(I.Ops[1]);
     },
     fastCost},
    {"mem.atom", UopExec::Atom,
     [](const Instruction &I, const Kernel &) {
       if (I.Op != Opcode::Atom || !scalarMemShape(I, 1) ||
           I.Ops.size() < 3 || !valueFoldable(I.Ops[2]))
         return false;
       if (I.Ops.size() > 3 && !valueFoldable(I.Ops[3]))
         return false;
       return I.NoDest || regDst(I.Ops[0]);
     },
     fastCost},
};

/// Maps an instrumentation action to the trace record opcode the generic
/// executeMemory would emit (Invalid = no record for this action).
RecordOp memRecordOp(LogActionKind Action, bool &Sync) {
  Sync = false;
  switch (Action) {
  case LogActionKind::Read:
    return RecordOp::Read;
  case LogActionKind::Write:
    return RecordOp::Write;
  case LogActionKind::Atom:
    return RecordOp::Atom;
  case LogActionKind::Acquire:
    Sync = true;
    return RecordOp::Acq;
  case LogActionKind::Release:
    Sync = true;
    return RecordOp::Rel;
  case LogActionKind::AcquireRelease:
    Sync = true;
    return RecordOp::AcqRel;
  default:
    return RecordOp::Invalid;
  }
}

bool isAluExec(UopExec E) {
  switch (E) {
  case UopExec::LegacyLanes:
  case UopExec::Nop:
  case UopExec::Mov:
  case UopExec::IntAdd:
  case UopExec::IntSub:
  case UopExec::IntMul:
  case UopExec::IntMad:
  case UopExec::IntMin:
  case UopExec::IntMax:
  case UopExec::IntAnd:
  case UopExec::IntOr:
  case UopExec::IntXor:
  case UopExec::IntNot:
  case UopExec::IntShl:
  case UopExec::IntShr:
  case UopExec::Setp:
  case UopExec::Selp:
  case UopExec::Cvt:
  case UopExec::Cvta:
  case UopExec::FltBin:
    return true;
  default:
    return false;
  }
}

bool isFusableFirst(UopExec E) {
  return isAluExec(E) || E == UopExec::Ld || E == UopExec::St ||
         E == UopExec::Atom || E == UopExec::LegacyMem;
}

} // namespace

const std::vector<UopKernelInfo> &sim::uopKernelLibrary() {
  static const std::vector<UopKernelInfo> Lib(std::begin(Library),
                                              std::end(Library));
  return Lib;
}

std::unique_ptr<LoweredKernel>
sim::lowerKernel(const Module &M, const Kernel &K,
                 const instrument::KernelInstrumentation *Instr) {
  assert((!Instr || Instr->Insns.size() == K.Body.size()) &&
         "instrumentation annotates a different kernel body");

  auto Low = std::make_unique<LoweredKernel>();
  Low->Instrumented = Instr != nullptr;
  const uint32_t N = static_cast<uint32_t>(K.Body.size());
  Low->Uops.assign(N, Uop{});

  // The CFG provides block boundaries and, for native launches, the
  // reconvergence points of their divergent branches.
  std::shared_ptr<const Cfg> OwnCfg;
  const Cfg *C;
  if (Instr) {
    C = Instr->Cfg.get();
  } else {
    OwnCfg = std::make_shared<Cfg>(K);
    C = OwnCfg.get();
  }

  const std::vector<UopKernelInfo> &Lib = uopKernelLibrary();

  for (uint32_t Pc = 0; Pc != N; ++Pc) {
    const Instruction &Insn = K.Body[Pc];
    Uop &U = Low->Uops[Pc];
    U.Pc = Pc;
    U.Ty = static_cast<uint8_t>(Insn.Ty);

    if (Insn.isGuarded()) {
      U.Flags |= UF_Guarded;
      if (Insn.GuardNegated)
        U.Flags |= UF_GuardNeg;
      U.Guard = static_cast<uint32_t>(Insn.GuardPred);
    }

    // Pick the executor: lowest-complexity supporting library row.
    const UopKernelInfo *Best = nullptr;
    int BestCost = 0;
    for (const UopKernelInfo &Info : Lib) {
      if (!Info.Supports(Insn, K))
        continue;
      int Cost = Info.Complexity(Insn);
      if (!Best || Cost < BestCost) {
        Best = &Info;
        BestCost = Cost;
      }
    }
    // The generic rows take every non-control opcode and the control rows
    // every verified control instruction. An unverified branch without a
    // target lands on LegacyLanes, whose executeLanes faults the launch.
    assert(Best && "no uop kernel supports a verified instruction");
    UopExec Exec = Best ? Best->Exec : UopExec::LegacyLanes;
    U.Exec = static_cast<uint8_t>(Exec);

    unsigned AluBytes = Insn.Ty == Type::None ? 8 : sizeOfType(Insn.Ty);
    if (Insn.Ty == Type::Pred)
      AluBytes = 1;
    U.AluBytes = static_cast<uint8_t>(AluBytes);

    auto bakeDst = [&](const Operand &Op) {
      U.Dst = Op.Reg;
      const RegInfo &Reg = K.Regs[static_cast<size_t>(Op.Reg)];
      if (Reg.Ty == Type::Pred)
        U.Flags |= UF_DstPred;
      U.DstBytes = static_cast<uint8_t>(sizeOfType(Reg.Ty));
    };

    switch (Exec) {
    case UopExec::LegacyLanes:
    case UopExec::LegacyMem:
    case UopExec::Nop:
    case UopExec::RetExit:
      break;

    case UopExec::Bra: {
      U.Target = static_cast<uint32_t>(Insn.Ops[0].Target);
      // Baked reconvergence point: the instrumentation's override for
      // logged branches, else the branch's immediate post-dominator.
      if (Instr) {
        const InsnAnnotation &Note = Instr->Insns[Pc];
        U.Reconv = Note.Action == LogActionKind::Branch
                       ? Note.ReconvPc
                       : C->reconvergencePoint(Pc);
      } else {
        U.Reconv = C->reconvergencePoint(Pc);
      }
      break;
    }

    case UopExec::Bar:
      if (Instr && Instr->Insns[Pc].logs())
        U.LogOp = static_cast<uint8_t>(RecordOp::Bar);
      break;

    case UopExec::Membar:
      if (Insn.Fence != FenceScopeKind::FS_Cta)
        U.Flags |= UF_FenceGlobal;
      break;

    case UopExec::Mov:
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      break;

    case UopExec::IntAdd:
    case UopExec::IntSub:
    case UopExec::IntAnd:
    case UopExec::IntOr:
    case UopExec::IntXor:
    case UopExec::IntShl:
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      break;

    case UopExec::IntShr:
    case UopExec::IntMin:
    case UopExec::IntMax:
    case UopExec::IntMul:
      if (isSignedType(Insn.Ty))
        U.Flags |= UF_SignExt;
      U.MulMode = static_cast<uint8_t>(Insn.MulMode);
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      break;

    case UopExec::IntMad:
      if (isSignedType(Insn.Ty))
        U.Flags |= UF_SignExt;
      U.MulMode = static_cast<uint8_t>(Insn.MulMode);
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      foldOperand(U.Srcs[2], Insn.Ops[3], M, K, Insn.Ty);
      break;

    case UopExec::IntNot:
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      break;

    case UopExec::Setp:
      U.Cmp = static_cast<uint8_t>(Insn.Cmp);
      U.CmpClass = isFloatType(Insn.Ty) ? 2 : (isSignedType(Insn.Ty) ? 1 : 0);
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      break;

    case UopExec::Selp:
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      foldOperand(U.Srcs[2], Insn.Ops[3], M, K, Insn.Ty);
      break;

    case UopExec::Cvt: {
      Type From = Insn.SrcTy == Type::None ? Insn.Ty : Insn.SrcTy;
      U.SrcTy = static_cast<uint8_t>(From);
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, From);
      break;
    }

    case UopExec::Cvta:
      U.Space = static_cast<uint8_t>(Insn.Space);
      if (Insn.CvtaTo)
        U.Flags |= UF_CvtaTo;
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      break;

    case UopExec::FltBin: {
      switch (Insn.Op) {
      case Opcode::Add:
        U.Cmp = FB_Add;
        break;
      case Opcode::Sub:
        U.Cmp = FB_Sub;
        break;
      case Opcode::Mul:
        U.Cmp = FB_Mul;
        break;
      case Opcode::Div:
        U.Cmp = FB_Div;
        break;
      case Opcode::Min:
        U.Cmp = FB_Min;
        break;
      case Opcode::Max:
        U.Cmp = FB_Max;
        break;
      default:
        U.Cmp = FB_Mad;
        break;
      }
      bakeDst(Insn.Ops[0]);
      foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      foldOperand(U.Srcs[1], Insn.Ops[2], M, K, Insn.Ty);
      if (Insn.Op == Opcode::Mad)
        foldOperand(U.Srcs[2], Insn.Ops[3], M, K, Insn.Ty);
      break;
    }

    case UopExec::Ld:
    case UopExec::St:
    case UopExec::Atom: {
      const Operand &Addr =
          Insn.Ops[static_cast<size_t>(Insn.memOperandIndex())];
      U.Space = static_cast<uint8_t>(Insn.Space);
      U.MemSize = static_cast<uint8_t>(Insn.accessSize());
      U.AddrReg = Addr.Reg;
      U.AddrDisp = static_cast<uint64_t>(Addr.Imm);
      if (Addr.Reg < 0 && Addr.Sym >= 0) {
        // operandAddress folds the symbol base into the displacement.
        switch (Addr.SymSpace) {
        case StateSpace::Param:
          U.AddrDisp += K.Params[static_cast<size_t>(Addr.Sym)].Offset;
          break;
        case StateSpace::Shared:
          U.AddrDisp += K.SharedVars[static_cast<size_t>(Addr.Sym)].Address;
          break;
        case StateSpace::Local:
          U.AddrDisp += K.LocalVars[static_cast<size_t>(Addr.Sym)].Address;
          break;
        default:
          U.AddrDisp += M.Globals[static_cast<size_t>(Addr.Sym)].Address;
          break;
        }
      }
      if (Exec == UopExec::Ld) {
        bakeDst(Insn.Ops[0]);
        if (isSignedType(Insn.Ty))
          U.Flags |= UF_SignExt;
      } else if (Exec == UopExec::St) {
        foldOperand(U.Srcs[0], Insn.Ops[1], M, K, Insn.Ty);
      } else {
        U.AtomOp = static_cast<uint8_t>(Insn.Atomic);
        foldOperand(U.Srcs[0], Insn.Ops[2], M, K, Insn.Ty);
        if (Insn.Ops.size() > 3)
          foldOperand(U.Srcs[1], Insn.Ops[3], M, K, Insn.Ty);
        else
          U.Srcs[1].Kind = static_cast<uint8_t>(UopSrcKind::Imm);
        if (!Insn.NoDest)
          bakeDst(Insn.Ops[0]);
      }
      // Bake the trace-record decision the generic executeMemory makes at
      // run time. A record is emitted iff the annotation logs(); pruning
      // is counted separately, exactly as executeMemory does.
      if (Instr) {
        const InsnAnnotation &Note = Instr->Insns[Pc];
        if (Note.Pruned)
          U.Flags |= UF_Pruned;
        if (Note.logs()) {
          bool Sync = false;
          RecordOp Op = memRecordOp(Note.Action, Sync);
          U.LogOp = static_cast<uint8_t>(Op);
          if (Sync)
            U.Flags |= UF_LogSync;
          U.LogScope = static_cast<uint8_t>(Note.Scope);
        }
      }
      break;
    }

    case UopExec::SetpBra:
    case UopExec::Count:
      assert(false && "never selected by the library");
      break;
    }
  }

  // Block boundaries: the dispatch loop runs stack cleanup only at the end
  // of a basic block (mid-block cleanups are provably no-ops).
  std::vector<uint8_t> IsStart(N + 1, 0);
  for (const BasicBlock &Blk : C->blocks()) {
    if (Blk.End == Blk.First)
      continue;
    Low->BlockStarts.push_back(Blk.First);
    IsStart[Blk.First] = 1;
    Low->Uops[Blk.End - 1].Flags |= UF_EndsBlock;
  }

  // Fused setp+bra: native launches only — the instrumented dispatch
  // may emit an If record between the two, and record order must be
  // preserved exactly.
  if (!Instr) {
    for (uint32_t Pc = 0; Pc + 1 < N; ++Pc) {
      Uop &U = Low->Uops[Pc];
      if (static_cast<UopExec>(U.Exec) != UopExec::Setp ||
          (U.Flags & UF_Guarded) || IsStart[Pc + 1])
        continue;
      const Uop &B = Low->Uops[Pc + 1];
      if (static_cast<UopExec>(B.Exec) != UopExec::Bra ||
          !(B.Flags & UF_Guarded) ||
          B.Guard != static_cast<uint32_t>(U.Dst))
        continue;
      U.Exec = static_cast<uint8_t>(UopExec::SetpBra);
      ++Low->FusedBranches;
    }
  }

  // Generic pairing: a non-control first op followed, in the same block,
  // by an unguarded pure-register ALU op executes both in one dispatch.
  // Pairs do not chain.
  for (uint32_t Pc = 0; Pc + 1 < N; ++Pc) {
    Uop &U = Low->Uops[Pc];
    if (!isFusableFirst(static_cast<UopExec>(U.Exec)) ||
        (U.Flags & UF_EndsBlock))
      continue;
    const Uop &Next = Low->Uops[Pc + 1];
    if (!isAluExec(static_cast<UopExec>(Next.Exec)) ||
        (Next.Flags & UF_Guarded))
      continue;
    U.Flags |= UF_FuseNext;
    ++Low->FusedPairs;
    ++Pc; // the second op of a pair cannot start another pair
  }

  return Low;
}
