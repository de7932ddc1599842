//===- Machine.cpp - lockstep SIMT interpreter for PTX --------------------===//

#include "sim/Machine.h"

#include "fault/Fault.h"
#include "sim/Lower.h"
#include "support/Format.h"

#include <cassert>
#include <cstring>

using namespace barracuda;
using namespace barracuda::sim;
using namespace barracuda::ptx;
using barracuda::instrument::InsnAnnotation;
using barracuda::instrument::LogActionKind;
using barracuda::trace::LogRecord;
using barracuda::trace::RecordOp;
using barracuda::trace::WarpSize;

//===----------------------------------------------------------------------===//
// Scalar value helpers
//===----------------------------------------------------------------------===//

namespace {

uint64_t maskToWidth(uint64_t Value, unsigned Bytes) {
  if (Bytes >= 8)
    return Value;
  return Value & ((1ULL << (Bytes * 8)) - 1);
}

int64_t signExtend(uint64_t Value, unsigned Bytes) {
  if (Bytes >= 8)
    return static_cast<int64_t>(Value);
  unsigned Shift = 64 - Bytes * 8;
  return static_cast<int64_t>(Value << Shift) >> Shift;
}

double bitsToFloat(uint64_t Bits, Type Ty) {
  if (Ty == Type::F32) {
    float F;
    uint32_t B = static_cast<uint32_t>(Bits);
    std::memcpy(&F, &B, sizeof(F));
    return F;
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

uint64_t floatToBits(double Value, Type Ty) {
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

uint64_t applyAtomOp(AtomOpKind Op, Type Ty, uint64_t Old, uint64_t B,
                     uint64_t C) {
  unsigned Bytes = sizeOfType(Ty);
  switch (Op) {
  case AtomOpKind::AO_Exch:
    return maskToWidth(B, Bytes);
  case AtomOpKind::AO_Cas:
    return maskToWidth(Old == maskToWidth(B, Bytes) ? C : Old, Bytes);
  case AtomOpKind::AO_Add:
    if (isFloatType(Ty))
      return floatToBits(bitsToFloat(Old, Ty) + bitsToFloat(B, Ty), Ty);
    return maskToWidth(Old + B, Bytes);
  case AtomOpKind::AO_Min:
    if (isSignedType(Ty))
      return maskToWidth(static_cast<uint64_t>(
                             std::min(signExtend(Old, Bytes),
                                      signExtend(B, Bytes))),
                         Bytes);
    return std::min(maskToWidth(Old, Bytes), maskToWidth(B, Bytes));
  case AtomOpKind::AO_Max:
    if (isSignedType(Ty))
      return maskToWidth(static_cast<uint64_t>(
                             std::max(signExtend(Old, Bytes),
                                      signExtend(B, Bytes))),
                         Bytes);
    return std::max(maskToWidth(Old, Bytes), maskToWidth(B, Bytes));
  case AtomOpKind::AO_And:
    return maskToWidth(Old & B, Bytes);
  case AtomOpKind::AO_Or:
    return maskToWidth(Old | B, Bytes);
  case AtomOpKind::AO_Xor:
    return maskToWidth(Old ^ B, Bytes);
  case AtomOpKind::AO_Inc:
    return maskToWidth(Old >= maskToWidth(B, Bytes) ? 0 : Old + 1, Bytes);
  case AtomOpKind::AO_Dec:
    return maskToWidth(
        (Old == 0 || Old > maskToWidth(B, Bytes)) ? maskToWidth(B, Bytes)
                                                  : Old - 1,
        Bytes);
  case AtomOpKind::AO_None:
    break;
  }
  assert(false && "invalid atomic op");
  return Old;
}

} // namespace

//===----------------------------------------------------------------------===//
// LaunchContext
//===----------------------------------------------------------------------===//

class Machine::LaunchContext {
public:
  LaunchContext(Machine &Mach, const Module &M, const Kernel &K,
                const instrument::KernelInstrumentation *Instr,
                const LaunchConfig &Config,
                const std::vector<uint8_t> &ParamBuffer,
                DeviceLogger *Logger, const LoweredKernel *Low,
                const support::CancelToken *Cancel)
      : Mach(Mach), M(M), K(K), Instr(Instr), Low(Low), Cancel(Cancel),
        Config(Config), Params(ParamBuffer), Logger(Logger),
        Weak(Mach.Options.WeakProfile, Mach.Memory,
             Mach.Options.WeakSeed +
                 0x9E3779B97F4A7C15ULL * ++Mach.LaunchSeq) {
    if (Mach.Options.Profiler) {
      Profiling = true;
      PcExecuted.resize(K.Body.size(), 0);
      PcMemOps.resize(K.Body.size(), 0);
      PcDivergences.resize(K.Body.size(), 0);
    }
  }

  LaunchResult run();

private:
  struct StackEntry {
    uint32_t ReconvPc;
    uint32_t NextPc;
    uint32_t Mask;
  };

  struct WarpExec {
    std::vector<StackEntry> Stack;
    uint32_t WarpInBlock = 0;
    bool AtBarrier = false;
    bool Done = false;
    /// Set when a fused uop pair executed both halves in one dispatch:
    /// the warp skips exactly one scheduler slot so that every memory
    /// access and trace record still lands in the same slot as under an
    /// unfused one-instruction-per-pass schedule.
    bool Stall = false;
    /// The bar.sync pc this warp is parked at (valid while AtBarrier);
    /// names the blocker when a divergent barrier hangs the launch.
    uint32_t BarrierPc = 0;
  };

  struct BlockExec {
    uint32_t BlockId = 0;
    std::vector<uint64_t> Regs;   ///< threadsPerBlock * regCount
    std::vector<uint8_t> Shared;  ///< block shared memory
    std::vector<uint8_t> Local;   ///< threadsPerBlock * LocalBytes
    std::vector<WarpExec> Warps;
    uint32_t LiveWarps = 0;
    bool Done = false;
  };

  // --- failure plumbing (no exceptions) -------------------------------
  void failLaunch(const std::string &Message) {
    failLaunch(support::ErrorCode::DeviceFault, Message,
               LaunchResult::InvalidPc);
  }

  void failLaunch(support::ErrorCode Code, const std::string &Message,
                  uint32_t Pc) {
    if (!Failed) {
      Failed = true;
      FailCode = Code;
      FailPc = Pc;
      FirstError = support::formatString("kernel '%s': %s", K.Name.c_str(),
                                         Message.c_str());
    }
  }

  // --- register file ---------------------------------------------------
  uint64_t &reg(BlockExec &B, uint32_t ThreadInBlock, int32_t RegId) {
    return B.Regs[static_cast<size_t>(ThreadInBlock) * RegCount +
                  static_cast<size_t>(RegId)];
  }

  void storeToReg(BlockExec &B, uint32_t ThreadInBlock, int32_t RegId,
                  uint64_t Value) {
    const RegInfo &Info = K.Regs[static_cast<size_t>(RegId)];
    if (Info.Ty == Type::Pred)
      Value = Value ? 1 : 0;
    else
      Value = maskToWidth(Value, sizeOfType(Info.Ty));
    reg(B, ThreadInBlock, RegId) = Value;
  }

  uint64_t specialValue(const BlockExec &B, uint32_t ThreadInBlock,
                        SpecialReg Special) const {
    uint32_t Tx, Ty, Tz, Bx, By, Bz;
    Config.threadCoords(ThreadInBlock, Tx, Ty, Tz);
    Config.blockCoords(B.BlockId, Bx, By, Bz);
    switch (Special) {
    case SpecialReg::TidX:
      return Tx;
    case SpecialReg::TidY:
      return Ty;
    case SpecialReg::TidZ:
      return Tz;
    case SpecialReg::NtidX:
      return Config.Block.X;
    case SpecialReg::NtidY:
      return Config.Block.Y;
    case SpecialReg::NtidZ:
      return Config.Block.Z;
    case SpecialReg::CtaIdX:
      return Bx;
    case SpecialReg::CtaIdY:
      return By;
    case SpecialReg::CtaIdZ:
      return Bz;
    case SpecialReg::NctaIdX:
      return Config.Grid.X;
    case SpecialReg::NctaIdY:
      return Config.Grid.Y;
    case SpecialReg::NctaIdZ:
      return Config.Grid.Z;
    case SpecialReg::LaneId:
      return ThreadInBlock % Config.WarpSize;
    case SpecialReg::WarpSize:
      return Config.WarpSize;
    }
    return 0;
  }

  uint64_t readOperand(BlockExec &B, uint32_t ThreadInBlock,
                       const Operand &Op, Type Ty) {
    switch (Op.Kind) {
    case Operand::OperandKind::Reg:
      return reg(B, ThreadInBlock, Op.Reg);
    case Operand::OperandKind::Imm:
      return static_cast<uint64_t>(Op.Imm);
    case Operand::OperandKind::FImm:
      return floatToBits(Op.FImm, Ty == Type::F64 ? Type::F64 : Type::F32);
    case Operand::OperandKind::Special:
      return specialValue(B, ThreadInBlock, Op.Special);
    case Operand::OperandKind::Symbol:
      if (Op.SymSpace == StateSpace::Shared)
        return K.SharedVars[static_cast<size_t>(Op.Sym)].Address;
      if (Op.SymSpace == StateSpace::Local)
        return K.LocalVars[static_cast<size_t>(Op.Sym)].Address;
      return M.Globals[static_cast<size_t>(Op.Sym)].Address;
    default:
      failLaunch("invalid value operand");
      return 0;
    }
  }

  uint64_t operandAddress(BlockExec &B, uint32_t ThreadInBlock,
                          const Operand &Op) {
    uint64_t Base = 0;
    if (Op.Reg >= 0)
      Base = reg(B, ThreadInBlock, Op.Reg);
    else if (Op.Sym >= 0) {
      switch (Op.SymSpace) {
      case StateSpace::Param:
        Base = K.Params[static_cast<size_t>(Op.Sym)].Offset;
        break;
      case StateSpace::Shared:
        Base = K.SharedVars[static_cast<size_t>(Op.Sym)].Address;
        break;
      case StateSpace::Local:
        Base = K.LocalVars[static_cast<size_t>(Op.Sym)].Address;
        break;
      default:
        Base = M.Globals[static_cast<size_t>(Op.Sym)].Address;
        break;
      }
    }
    return Base + static_cast<uint64_t>(Op.Imm);
  }

  /// Resolves the dynamic state space of an access whose static space is
  /// \p Static, rebasing generic shared addresses into the shared window.
  static StateSpace resolveSpace(StateSpace Static, uint64_t &Addr) {
    if (Static == StateSpace::Generic) {
      if (isGenericSharedAddress(Addr)) {
        Addr -= GenericSharedBase;
        return StateSpace::Shared;
      }
      return StateSpace::Global;
    }
    if (Static == StateSpace::Shared) {
      if (isGenericSharedAddress(Addr))
        Addr -= GenericSharedBase;
      return StateSpace::Shared;
    }
    return Static;
  }

  uint64_t loadFrom(BlockExec &B, uint32_t ThreadInBlock, StateSpace Space,
                    uint64_t Addr, unsigned Size) {
    switch (Space) {
    case StateSpace::Global:
    case StateSpace::Const:
      if (Weak.enabled())
        return Weak.load(B.BlockId, Addr, Size);
      return Mach.Memory.read(Addr, Size);
    case StateSpace::Shared: {
      if (Addr + Size > B.Shared.size()) {
        failLaunch(support::formatString(
            "shared load out of bounds (addr %llu, size %u, shared %zu)",
            static_cast<unsigned long long>(Addr), Size, B.Shared.size()));
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, B.Shared.data() + Addr, Size);
      return Value;
    }
    case StateSpace::Local: {
      uint64_t Offset =
          static_cast<uint64_t>(ThreadInBlock) * K.LocalBytes + Addr;
      if (Addr + Size > K.LocalBytes) {
        failLaunch("local load out of bounds");
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, B.Local.data() + Offset, Size);
      return Value;
    }
    case StateSpace::Param: {
      if (Addr + Size > Params.size()) {
        failLaunch("param load out of bounds");
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, Params.data() + Addr, Size);
      return Value;
    }
    case StateSpace::Generic:
      break;
    }
    failLaunch("load from unresolved generic space");
    return 0;
  }

  void storeTo(BlockExec &B, uint32_t ThreadInBlock, StateSpace Space,
               uint64_t Addr, unsigned Size, uint64_t Value) {
    switch (Space) {
    case StateSpace::Global:
      if (Weak.enabled()) {
        Weak.store(B.BlockId, Addr, Size, Value);
        return;
      }
      Mach.Memory.write(Addr, Size, Value);
      return;
    case StateSpace::Shared:
      if (Addr + Size > B.Shared.size()) {
        failLaunch(support::formatString(
            "shared store out of bounds (addr %llu, size %u, shared %zu)",
            static_cast<unsigned long long>(Addr), Size, B.Shared.size()));
        return;
      }
      std::memcpy(B.Shared.data() + Addr, &Value, Size);
      return;
    case StateSpace::Local: {
      if (Addr + Size > K.LocalBytes) {
        failLaunch("local store out of bounds");
        return;
      }
      uint64_t Offset =
          static_cast<uint64_t>(ThreadInBlock) * K.LocalBytes + Addr;
      std::memcpy(B.Local.data() + Offset, &Value, Size);
      return;
    }
    default:
      failLaunch("store to invalid state space");
      return;
    }
  }

  // --- logging ----------------------------------------------------------
  const InsnAnnotation *annotation(uint32_t Pc) const {
    if (!Instr || !Logger)
      return nullptr;
    const InsnAnnotation &Note = Instr->Insns[Pc];
    return Note.logs() ? &Note : nullptr;
  }

  void emit(const BlockExec &B, const LogRecord &Record) {
    Logger->log(B.BlockId, Record);
    ++RecordsLogged;
  }

  void emitControl(const BlockExec &B, const WarpExec &W, RecordOp Op,
                   uint32_t Pc, uint32_t Mask, uint32_t ElseMask = 0) {
    if (!Logger || !Instr)
      return;
    LogRecord Record = trace::makeControlRecord(
        Op, Config.globalWarp(B.BlockId, W.WarpInBlock), Pc, Mask);
    if (Op == RecordOp::If)
      Record.setElseMask(ElseMask);
    emit(B, Record);
  }

  // --- execution --------------------------------------------------------
  void retireLanes(BlockExec &B, WarpExec &W, uint32_t Mask) {
    (void)B;
    for (StackEntry &Entry : W.Stack)
      Entry.Mask &= ~Mask;
  }

  /// Pops completed stack entries, emitting else/fi operations as control
  /// flow reconverges; marks the warp done when the stack empties.
  void cleanupStack(BlockExec &B, WarpExec &W) {
    while (!W.Stack.empty()) {
      StackEntry &Top = W.Stack.back();
      if (Top.Mask != 0 && Top.NextPc != Top.ReconvPc &&
          Top.NextPc < K.Body.size())
        break;
      if (Top.Mask != 0 && Top.NextPc >= K.Body.size() &&
          Top.ReconvPc != Top.NextPc) {
        // Fell off the end of the kernel with live lanes: implicit exit.
        retireLanes(B, W, Top.Mask);
      }
      StackEntry Popped = W.Stack.back();
      W.Stack.pop_back();
      if (W.Stack.empty()) {
        W.Done = true;
        assert(B.LiveWarps != 0 && "warp accounting underflow");
        --B.LiveWarps;
        emitControl(B, W, RecordOp::WarpEnd, Popped.ReconvPc, 0);
        return;
      }
      StackEntry &NewTop = W.Stack.back();
      if (NewTop.ReconvPc == Popped.ReconvPc)
        emitControl(B, W, RecordOp::Else, NewTop.NextPc, NewTop.Mask);
      else
        emitControl(B, W, RecordOp::Fi, Popped.ReconvPc, NewTop.Mask);
    }
  }

  // --- generic library rows (LegacyMem / LegacyLanes) -------------------
  // Decode the original instruction's operands on every execution; they
  // cover every memory and ALU opcode the specialised rows do not.
  void executeMemory(BlockExec &B, WarpExec &W, const Instruction &Insn,
                     uint32_t Pc, uint32_t Exec);
  void executeLanes(BlockExec &B, WarpExec &W, const Instruction &Insn,
                    uint32_t Exec);

  // --- micro-op dispatch -----------------------------------------------

  uint64_t readUopSrc(BlockExec &B, uint32_t Thread, const UopSrc &S) {
    switch (static_cast<UopSrcKind>(S.Kind)) {
    case UopSrcKind::Reg:
      return reg(B, Thread, S.Reg);
    case UopSrcKind::Imm:
      return S.Imm;
    default:
      return specialValue(B, Thread, static_cast<SpecialReg>(S.Special));
    }
  }

  /// storeToReg with the destination width pre-resolved at lowering time.
  void storeUopDst(BlockExec &B, uint32_t Thread, const Uop &U,
                   uint64_t Value) {
    if (U.Flags & UF_DstPred)
      Value = Value ? 1 : 0;
    else
      Value = maskToWidth(Value, U.DstBytes);
    reg(B, Thread, U.Dst) = Value;
  }

  uint32_t guardMask(BlockExec &B, const WarpExec &W, const Uop &U) {
    uint32_t Mask = 0;
    uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
    bool Neg = (U.Flags & UF_GuardNeg) != 0;
    for (unsigned Lane = 0; Lane != Config.WarpSize; ++Lane) {
      uint32_t Thread = BaseThread + Lane;
      if (Thread >= Config.threadsPerBlock())
        break;
      bool Pred = reg(B, Thread, U.Guard) != 0;
      if (Pred != Neg)
        Mask |= 1u << Lane;
    }
    return Mask;
  }

  /// Direct-mapped per-launch page cache: global-memory accesses skip the
  /// page table's reader lock on a hit. Page pointers are stable once
  /// materialized, and the cache dies with the launch, so stale entries
  /// are impossible within a launch.
  uint8_t *cachedPage(uint64_t Addr) {
    uint64_t PageId = Addr >> GlobalMemory::PageBits;
    PageSlot &Slot = PageCache[PageId & (PageCacheSize - 1)];
    if (Slot.PageId != PageId) {
      Slot.Ptr = Mach.Memory.page(Addr);
      Slot.PageId = PageId;
    }
    return Slot.Ptr;
  }

  /// loadFrom with the page cache on the global fast path. Identical
  /// observable behavior (including error strings) to loadFrom.
  uint64_t loadLowered(BlockExec &B, uint32_t ThreadInBlock,
                       StateSpace Space, uint64_t Addr, unsigned Size) {
    switch (Space) {
    case StateSpace::Global:
    case StateSpace::Const: {
      if (Weak.enabled())
        return Weak.load(B.BlockId, Addr, Size);
      uint64_t Offset = Addr & (GlobalMemory::PageSize - 1);
      if (Offset + Size <= GlobalMemory::PageSize) {
        uint64_t Value = 0;
        std::memcpy(&Value, cachedPage(Addr) + Offset, Size);
        return Value;
      }
      return Mach.Memory.read(Addr, Size);
    }
    case StateSpace::Shared: {
      if (Addr + Size > B.Shared.size()) {
        failLaunch(support::formatString(
            "shared load out of bounds (addr %llu, size %u, shared %zu)",
            static_cast<unsigned long long>(Addr), Size, B.Shared.size()));
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, B.Shared.data() + Addr, Size);
      return Value;
    }
    case StateSpace::Local: {
      uint64_t Offset =
          static_cast<uint64_t>(ThreadInBlock) * K.LocalBytes + Addr;
      if (Addr + Size > K.LocalBytes) {
        failLaunch("local load out of bounds");
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, B.Local.data() + Offset, Size);
      return Value;
    }
    case StateSpace::Param: {
      if (Addr + Size > Params.size()) {
        failLaunch("param load out of bounds");
        return 0;
      }
      uint64_t Value = 0;
      std::memcpy(&Value, Params.data() + Addr, Size);
      return Value;
    }
    case StateSpace::Generic:
      break;
    }
    failLaunch("load from unresolved generic space");
    return 0;
  }

  /// storeTo with the page cache on the global fast path.
  void storeLowered(BlockExec &B, uint32_t ThreadInBlock, StateSpace Space,
                    uint64_t Addr, unsigned Size, uint64_t Value) {
    switch (Space) {
    case StateSpace::Global: {
      if (Weak.enabled()) {
        Weak.store(B.BlockId, Addr, Size, Value);
        return;
      }
      uint64_t Offset = Addr & (GlobalMemory::PageSize - 1);
      if (Offset + Size <= GlobalMemory::PageSize) {
        std::memcpy(cachedPage(Addr) + Offset, &Value, Size);
        return;
      }
      Mach.Memory.write(Addr, Size, Value);
      return;
    }
    case StateSpace::Shared:
      if (Addr + Size > B.Shared.size()) {
        failLaunch(support::formatString(
            "shared store out of bounds (addr %llu, size %u, shared %zu)",
            static_cast<unsigned long long>(Addr), Size, B.Shared.size()));
        return;
      }
      std::memcpy(B.Shared.data() + Addr, &Value, Size);
      return;
    case StateSpace::Local: {
      if (Addr + Size > K.LocalBytes) {
        failLaunch("local store out of bounds");
        return;
      }
      uint64_t Offset =
          static_cast<uint64_t>(ThreadInBlock) * K.LocalBytes + Addr;
      std::memcpy(B.Local.data() + Offset, &Value, Size);
      return;
    }
    default:
      failLaunch("store to invalid state space");
      return;
    }
  }

  /// Executes a branch uop (target and reconvergence point baked at
  /// lowering time).
  void executeBranch(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Pc,
                     uint32_t Active, uint32_t Exec) {
    StackEntry &Top = W.Stack.back();
    if (!(U.Flags & UF_Guarded) || Exec == Active) {
      Top.NextPc = U.Target;
      return;
    }
    if (Exec == 0) {
      Top.NextPc = Pc + 1;
      return;
    }
    // Divergence. The current entry becomes the reconvergence entry; the
    // taken path is pushed first and the fallthrough path on top, so the
    // fallthrough ("then") path executes first, matching the IF rule.
    uint32_t Reconv = U.Reconv;
    uint32_t TakenMask = Exec;
    uint32_t FallMask = Active & ~Exec;
    if (Profiling)
      ++PcDivergences[Pc];
    Top.NextPc = Reconv;
    W.Stack.push_back(StackEntry{Reconv, U.Target, TakenMask});
    W.Stack.push_back(StackEntry{Reconv, Pc + 1, FallMask});
    emitControl(B, W, RecordOp::If, Pc, FallMask, TakenMask);
  }

  void emitMemRecords(BlockExec &B, WarpExec &W, const Uop &U,
                      const uint64_t *LaneAddr, const uint64_t *LaneValue,
                      uint32_t GlobalMask, uint32_t SharedMask);

  // Micro-op executors (one per UopExec value the handler table covers).
  void uopLegacyLanes(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopLegacyMem(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopNop(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopMov(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntAdd(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntSub(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntMul(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntMad(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntMin(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntMax(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntAnd(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntOr(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntXor(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntNot(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntShl(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopIntShr(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopSetp(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopSelp(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopCvt(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopCvta(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopFltBin(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopLd(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopSt(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);
  void uopAtom(BlockExec &B, WarpExec &W, const Uop &U, uint32_t Exec);

  using UopHandler = void (LaunchContext::*)(BlockExec &, WarpExec &,
                                             const Uop &, uint32_t);
  static const UopHandler UopHandlers[];

  bool dispatchWarp(BlockExec &B, WarpExec &W);

  void initBlock(BlockExec &B, uint32_t BlockId);

  /// Merges the launch-local per-PC arrays into the session profiler
  /// exactly once, tagging each pc with its PTX source line.
  void publishProfile() {
    if (!Profiling)
      return;
    std::vector<uint32_t> Lines(K.Body.size(), 0);
    for (size_t Pc = 0; Pc != K.Body.size(); ++Pc)
      Lines[Pc] = K.Body[Pc].Line;
    Mach.Options.Profiler->mergeKernel(K.Name, K.Body.size(),
                                       PcExecuted.data(), PcMemOps.data(),
                                       PcDivergences.data(), Lines.data(),
                                       Executed);
  }

  /// Marks a resilience milestone (fault claim, watchdog trip, deadlock)
  /// on the device track so degraded runs are visible in --trace-json.
  void resilienceInstant(const std::string &Name) {
    if (obs::TraceRecorder *Tracer = Mach.Options.Tracer)
      Tracer->instant(Tracer->track("device"), Name, "resilience");
  }

  // --- members -----------------------------------------------------------
  Machine &Mach;
  const Module &M;
  const Kernel &K;
  const instrument::KernelInstrumentation *Instr;
  const LoweredKernel *Low;
  const support::CancelToken *Cancel;
  LaunchConfig Config;
  const std::vector<uint8_t> &Params;
  DeviceLogger *Logger;
  StoreBufferModel Weak;

  /// Per-launch direct-mapped cache over GlobalMemory's page table
  /// (lowered path only; bypassed when the weak model is active).
  struct PageSlot {
    uint64_t PageId = ~0ull;
    uint8_t *Ptr = nullptr;
  };
  static constexpr unsigned PageCacheSize = 64;
  PageSlot PageCache[PageCacheSize];

  size_t RegCount = 0;
  uint64_t Executed = 0;
  uint64_t RecordsLogged = 0;
  uint64_t RecordsPruned = 0;
  /// Launch-local per-PC profile (continuous profiling): plain arrays,
  /// merged into Mach.Options.Profiler once at the end of run(). When
  /// detached (Profiling false) the dispatch loop pays one predicted
  /// branch per site and no memory traffic.
  bool Profiling = false;
  std::vector<uint64_t> PcExecuted;
  std::vector<uint64_t> PcMemOps;
  std::vector<uint64_t> PcDivergences;
  uint32_t SyncTicket = 0;
  /// One trace instant per sticky-fault claim (the faults fire on every
  /// scheduler pass once claimed).
  bool SpinClaimed = false;
  bool HangClaimed = false;
  bool Failed = false;
  std::string FirstError;
  support::ErrorCode FailCode = support::ErrorCode::Internal;
  uint32_t FailPc = LaunchResult::InvalidPc;

  static constexpr uint32_t NoReconv = ~0u;
};

void Machine::LaunchContext::initBlock(BlockExec &B, uint32_t BlockId) {
  B.BlockId = BlockId;
  B.Done = false;
  uint32_t Threads = Config.threadsPerBlock();
  B.Regs.assign(static_cast<size_t>(Threads) * RegCount, 0);
  B.Shared.assign(K.SharedBytes, 0);
  B.Local.assign(static_cast<size_t>(Threads) * K.LocalBytes, 0);
  uint32_t Warps = Config.warpsPerBlock();
  B.Warps.assign(Warps, WarpExec());
  B.LiveWarps = Warps;
  for (uint32_t WarpId = 0; WarpId != Warps; ++WarpId) {
    WarpExec &W = B.Warps[WarpId];
    W.WarpInBlock = WarpId;
    uint32_t First = WarpId * Config.WarpSize;
    uint32_t Count = std::min<uint32_t>(Config.WarpSize, Threads - First);
    uint32_t InitMask = Count >= 32 ? ~0u : ((1u << Count) - 1);
    W.Stack.push_back(StackEntry{NoReconv, 0, InitMask});
  }
}

void Machine::LaunchContext::executeMemory(BlockExec &B, WarpExec &W,
                                           const Instruction &Insn,
                                           uint32_t Pc, uint32_t Exec) {
  unsigned Size = Insn.accessSize();
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  int MemIndex = Insn.memOperandIndex();
  assert(MemIndex >= 0 && "memory instruction without address operand");
  const Operand &Mem = Insn.Ops[static_cast<size_t>(MemIndex)];

  uint64_t LaneAddr[WarpSize] = {};
  uint64_t LaneValue[WarpSize] = {};
  uint32_t SharedMask = 0, GlobalMask = 0;

  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Addr = operandAddress(B, Thread, Mem);
    StateSpace Space = resolveSpace(Insn.Space, Addr);
    LaneAddr[Lane] = Addr;
    if (Space == StateSpace::Shared)
      SharedMask |= 1u << Lane;
    else
      GlobalMask |= 1u << Lane;

    unsigned ElemSize = sizeOfType(Insn.Ty);
    switch (Insn.Op) {
    case Opcode::Ld: {
      if (Insn.Ops[0].isVector()) {
        for (unsigned Elem = 0; Elem != Insn.VecWidth; ++Elem) {
          uint64_t Raw =
              loadFrom(B, Thread, Space, Addr + Elem * ElemSize, ElemSize);
          if (isSignedType(Insn.Ty))
            Raw = static_cast<uint64_t>(signExtend(Raw, ElemSize));
          storeToReg(B, Thread, Insn.Ops[0].VecRegs[Elem], Raw);
        }
        break;
      }
      uint64_t Raw = loadFrom(B, Thread, Space, Addr, Size);
      if (isSignedType(Insn.Ty))
        Raw = static_cast<uint64_t>(signExtend(Raw, Size));
      storeToReg(B, Thread, Insn.Ops[0].Reg, Raw);
      break;
    }
    case Opcode::St: {
      if (Insn.Ops[1].isVector()) {
        uint64_t Combined = 0;
        for (unsigned Elem = 0; Elem != Insn.VecWidth; ++Elem) {
          uint64_t Value = maskToWidth(
              reg(B, Thread, Insn.Ops[1].VecRegs[Elem]), ElemSize);
          storeTo(B, Thread, Space, Addr + Elem * ElemSize, ElemSize,
                  Value);
          Combined ^= Value + 0x9E3779B97F4A7C15ULL + (Combined << 6);
        }
        LaneValue[Lane] = Combined; // value hash for same-value filtering
        break;
      }
      uint64_t Value =
          maskToWidth(readOperand(B, Thread, Insn.Ops[1], Insn.Ty), Size);
      LaneValue[Lane] = Value;
      storeTo(B, Thread, Space, Addr, Size, Value);
      break;
    }
    case Opcode::Atom: {
      if (Weak.enabled() && Space == StateSpace::Global)
        Weak.beforeAtomic(B.BlockId);
      uint64_t Old = loadFrom(B, Thread, Space, Addr, Size);
      uint64_t OperandB = readOperand(B, Thread, Insn.Ops[2], Insn.Ty);
      uint64_t OperandC = Insn.Ops.size() > 3
                              ? readOperand(B, Thread, Insn.Ops[3], Insn.Ty)
                              : 0;
      uint64_t New =
          applyAtomOp(Insn.Atomic, Insn.Ty, maskToWidth(Old, Size),
                      OperandB, OperandC);
      storeTo(B, Thread, Space, Addr, Size, New);
      if (!Insn.NoDest)
        storeToReg(B, Thread, Insn.Ops[0].Reg, Old);
      break;
    }
    default:
      assert(false && "not a memory opcode");
    }
    if (Failed)
      return;
  }

  if (Instr && Logger && Instr->Insns[Pc].Pruned)
    ++RecordsPruned; // the unoptimized instrumentation would log here
  const InsnAnnotation *Note = annotation(Pc);
  if (!Note)
    return;

  RecordOp Op;
  switch (Note->Action) {
  case LogActionKind::Read:
    Op = RecordOp::Read;
    break;
  case LogActionKind::Write:
    Op = RecordOp::Write;
    break;
  case LogActionKind::Atom:
    Op = RecordOp::Atom;
    break;
  case LogActionKind::Acquire:
    Op = RecordOp::Acq;
    break;
  case LogActionKind::Release:
    Op = RecordOp::Rel;
    break;
  case LogActionKind::AcquireRelease:
    Op = RecordOp::AcqRel;
    break;
  default:
    return;
  }

  auto emitGroup = [&](uint32_t Mask, trace::MemSpace Space) {
    if (!Mask)
      return;
    // Same-value intra-warp stores are well-defined; filter duplicate
    // lanes on the device side like the paper's implementation.
    if (Op == RecordOp::Write && Mach.Options.FilterSameValueWrites) {
      for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
        if (!((Mask >> Lane) & 1))
          continue;
        for (unsigned Later = Lane + 1; Later != WarpSize; ++Later) {
          if (!((Mask >> Later) & 1))
            continue;
          if (LaneAddr[Later] == LaneAddr[Lane] &&
              LaneValue[Later] == LaneValue[Lane])
            Mask &= ~(1u << Later);
        }
      }
    }
    LogRecord Record = trace::makeMemRecord(
        Op, Config.globalWarp(B.BlockId, W.WarpInBlock), Pc, Space,
        static_cast<uint16_t>(Size), Mask);
    if (Note->Action == LogActionKind::Acquire ||
        Note->Action == LogActionKind::Release ||
        Note->Action == LogActionKind::AcquireRelease) {
      Record.setScope(Note->Scope);
      Record.SyncSeq = ++SyncTicket;
    }
    for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
      if ((Mask >> Lane) & 1)
        Record.Addr[Lane] = LaneAddr[Lane];
    emit(B, Record);
  };

  emitGroup(GlobalMask, trace::MemSpace::Global);
  emitGroup(SharedMask, trace::MemSpace::Shared);
}

void Machine::LaunchContext::executeLanes(BlockExec &B, WarpExec &W,
                                          const Instruction &Insn,
                                          uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = Insn.Ty == Type::None ? 8 : sizeOfType(Insn.Ty);
  if (Insn.Ty == Type::Pred)
    Bytes = 1;

  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;

    auto src = [&](size_t Index) {
      return readOperand(B, Thread, Insn.Ops[Index], Insn.Ty);
    };
    auto srcSigned = [&](size_t Index) {
      return signExtend(src(Index), Bytes);
    };
    auto srcFloat = [&](size_t Index) {
      return bitsToFloat(src(Index), Insn.Ty);
    };
    auto dst = [&](uint64_t Value) {
      storeToReg(B, Thread, Insn.Ops[0].Reg, Value);
    };

    switch (Insn.Op) {
    case Opcode::Nop:
      break;
    case Opcode::Mov:
      dst(src(1));
      break;
    case Opcode::Add:
      if (isFloatType(Insn.Ty))
        dst(floatToBits(srcFloat(1) + srcFloat(2), Insn.Ty));
      else
        dst(maskToWidth(src(1) + src(2), Bytes));
      break;
    case Opcode::Sub:
      if (isFloatType(Insn.Ty))
        dst(floatToBits(srcFloat(1) - srcFloat(2), Insn.Ty));
      else
        dst(maskToWidth(src(1) - src(2), Bytes));
      break;
    case Opcode::Mul: {
      if (isFloatType(Insn.Ty)) {
        dst(floatToBits(srcFloat(1) * srcFloat(2), Insn.Ty));
        break;
      }
      bool Signed = isSignedType(Insn.Ty);
      if (Insn.MulMode == MulModeKind::MM_Lo) {
        dst(maskToWidth(src(1) * src(2), Bytes));
      } else if (Insn.MulMode == MulModeKind::MM_Wide) {
        uint64_t Product =
            Signed ? static_cast<uint64_t>(srcSigned(1) * srcSigned(2))
                   : maskToWidth(src(1), Bytes) * maskToWidth(src(2), Bytes);
        dst(maskToWidth(Product, Bytes * 2));
      } else { // .hi
        if (Signed) {
          __int128 Product = static_cast<__int128>(srcSigned(1)) *
                             static_cast<__int128>(srcSigned(2));
          dst(maskToWidth(static_cast<uint64_t>(Product >> (Bytes * 8)),
                          Bytes));
        } else {
          unsigned __int128 Product =
              static_cast<unsigned __int128>(maskToWidth(src(1), Bytes)) *
              static_cast<unsigned __int128>(maskToWidth(src(2), Bytes));
          dst(maskToWidth(static_cast<uint64_t>(Product >> (Bytes * 8)),
                          Bytes));
        }
      }
      break;
    }
    case Opcode::Mad: {
      if (isFloatType(Insn.Ty)) {
        dst(floatToBits(srcFloat(1) * srcFloat(2) + srcFloat(3), Insn.Ty));
        break;
      }
      uint64_t Product;
      if (Insn.MulMode == MulModeKind::MM_Wide)
        Product = isSignedType(Insn.Ty)
                      ? static_cast<uint64_t>(srcSigned(1) * srcSigned(2))
                      : maskToWidth(src(1), Bytes) *
                            maskToWidth(src(2), Bytes);
      else
        Product = src(1) * src(2);
      unsigned OutBytes =
          Insn.MulMode == MulModeKind::MM_Wide ? Bytes * 2 : Bytes;
      dst(maskToWidth(Product + src(3), OutBytes));
      break;
    }
    case Opcode::Div:
      if (isFloatType(Insn.Ty)) {
        dst(floatToBits(srcFloat(1) / srcFloat(2), Insn.Ty));
      } else if (isSignedType(Insn.Ty)) {
        int64_t Den = srcSigned(2);
        dst(Den ? maskToWidth(
                      static_cast<uint64_t>(srcSigned(1) / Den), Bytes)
                : 0);
      } else {
        uint64_t Den = maskToWidth(src(2), Bytes);
        dst(Den ? maskToWidth(src(1), Bytes) / Den : 0);
      }
      break;
    case Opcode::Rem:
      if (isSignedType(Insn.Ty)) {
        int64_t Den = srcSigned(2);
        dst(Den ? maskToWidth(
                      static_cast<uint64_t>(srcSigned(1) % Den), Bytes)
                : 0);
      } else {
        uint64_t Den = maskToWidth(src(2), Bytes);
        dst(Den ? maskToWidth(src(1), Bytes) % Den : 0);
      }
      break;
    case Opcode::Min:
      if (isFloatType(Insn.Ty))
        dst(floatToBits(std::min(srcFloat(1), srcFloat(2)), Insn.Ty));
      else if (isSignedType(Insn.Ty))
        dst(maskToWidth(
            static_cast<uint64_t>(std::min(srcSigned(1), srcSigned(2))),
            Bytes));
      else
        dst(std::min(maskToWidth(src(1), Bytes), maskToWidth(src(2), Bytes)));
      break;
    case Opcode::Max:
      if (isFloatType(Insn.Ty))
        dst(floatToBits(std::max(srcFloat(1), srcFloat(2)), Insn.Ty));
      else if (isSignedType(Insn.Ty))
        dst(maskToWidth(
            static_cast<uint64_t>(std::max(srcSigned(1), srcSigned(2))),
            Bytes));
      else
        dst(std::max(maskToWidth(src(1), Bytes), maskToWidth(src(2), Bytes)));
      break;
    case Opcode::Neg:
      if (isFloatType(Insn.Ty))
        dst(floatToBits(-srcFloat(1), Insn.Ty));
      else
        dst(maskToWidth(0 - src(1), Bytes));
      break;
    case Opcode::Abs:
      if (isFloatType(Insn.Ty)) {
        double Value = srcFloat(1);
        dst(floatToBits(Value < 0 ? -Value : Value, Insn.Ty));
      } else {
        int64_t Value = srcSigned(1);
        dst(maskToWidth(static_cast<uint64_t>(Value < 0 ? -Value : Value),
                        Bytes));
      }
      break;
    case Opcode::And:
      dst(maskToWidth(src(1) & src(2), Bytes));
      break;
    case Opcode::Or:
      dst(maskToWidth(src(1) | src(2), Bytes));
      break;
    case Opcode::Xor:
      dst(maskToWidth(src(1) ^ src(2), Bytes));
      break;
    case Opcode::Not:
      if (Insn.Ty == Type::Pred)
        dst(src(1) ? 0 : 1);
      else
        dst(maskToWidth(~src(1), Bytes));
      break;
    case Opcode::Shl: {
      uint64_t Amount = src(2);
      dst(Amount >= Bytes * 8 ? 0 : maskToWidth(src(1) << Amount, Bytes));
      break;
    }
    case Opcode::Popc: {
      uint64_t Value = maskToWidth(src(1), Bytes);
      dst(static_cast<uint64_t>(__builtin_popcountll(Value)));
      break;
    }
    case Opcode::Clz: {
      uint64_t Value = maskToWidth(src(1), Bytes);
      unsigned Width = Bytes * 8;
      dst(Value ? static_cast<uint64_t>(__builtin_clzll(Value)) -
                      (64 - Width)
                : Width);
      break;
    }
    case Opcode::Brev: {
      uint64_t Value = maskToWidth(src(1), Bytes);
      uint64_t Reversed = 0;
      for (unsigned Bit = 0; Bit != Bytes * 8; ++Bit)
        if ((Value >> Bit) & 1)
          Reversed |= 1ULL << (Bytes * 8 - 1 - Bit);
      dst(Reversed);
      break;
    }
    case Opcode::Shr: {
      uint64_t Amount = src(2);
      if (isSignedType(Insn.Ty)) {
        int64_t Value = srcSigned(1);
        if (Amount >= Bytes * 8)
          Amount = Bytes * 8 - 1;
        dst(maskToWidth(static_cast<uint64_t>(Value >> Amount), Bytes));
      } else {
        dst(Amount >= Bytes * 8
                ? 0
                : maskToWidth(maskToWidth(src(1), Bytes) >> Amount, Bytes));
      }
      break;
    }
    case Opcode::Setp: {
      bool Result;
      if (isFloatType(Insn.Ty)) {
        double A = srcFloat(1), Cmp = srcFloat(2);
        switch (Insn.Cmp) {
        case CmpOpKind::CO_Eq:
          Result = A == Cmp;
          break;
        case CmpOpKind::CO_Ne:
          Result = A != Cmp;
          break;
        case CmpOpKind::CO_Lt:
          Result = A < Cmp;
          break;
        case CmpOpKind::CO_Le:
          Result = A <= Cmp;
          break;
        case CmpOpKind::CO_Gt:
          Result = A > Cmp;
          break;
        case CmpOpKind::CO_Ge:
          Result = A >= Cmp;
          break;
        default:
          Result = false;
          break;
        }
      } else if (isSignedType(Insn.Ty)) {
        int64_t A = srcSigned(1), Cmp = srcSigned(2);
        switch (Insn.Cmp) {
        case CmpOpKind::CO_Eq:
          Result = A == Cmp;
          break;
        case CmpOpKind::CO_Ne:
          Result = A != Cmp;
          break;
        case CmpOpKind::CO_Lt:
          Result = A < Cmp;
          break;
        case CmpOpKind::CO_Le:
          Result = A <= Cmp;
          break;
        case CmpOpKind::CO_Gt:
          Result = A > Cmp;
          break;
        case CmpOpKind::CO_Ge:
          Result = A >= Cmp;
          break;
        default:
          Result = false;
          break;
        }
      } else {
        uint64_t A = maskToWidth(src(1), Bytes);
        uint64_t Cmp = maskToWidth(src(2), Bytes);
        switch (Insn.Cmp) {
        case CmpOpKind::CO_Eq:
          Result = A == Cmp;
          break;
        case CmpOpKind::CO_Ne:
          Result = A != Cmp;
          break;
        case CmpOpKind::CO_Lt:
          Result = A < Cmp;
          break;
        case CmpOpKind::CO_Le:
          Result = A <= Cmp;
          break;
        case CmpOpKind::CO_Gt:
          Result = A > Cmp;
          break;
        case CmpOpKind::CO_Ge:
          Result = A >= Cmp;
          break;
        default:
          Result = false;
          break;
        }
      }
      dst(Result ? 1 : 0);
      break;
    }
    case Opcode::Selp: {
      bool Pick = reg(B, Thread, Insn.Ops[3].Reg) != 0;
      dst(Pick ? src(1) : src(2));
      break;
    }
    case Opcode::Cvt: {
      Type From = Insn.SrcTy == Type::None ? Insn.Ty : Insn.SrcTy;
      uint64_t Raw = readOperand(B, Thread, Insn.Ops[1], From);
      uint64_t Out;
      if (isFloatType(From) && isFloatType(Insn.Ty))
        Out = floatToBits(bitsToFloat(Raw, From), Insn.Ty);
      else if (isFloatType(From))
        Out = isSignedType(Insn.Ty)
                  ? maskToWidth(static_cast<uint64_t>(static_cast<int64_t>(
                                    bitsToFloat(Raw, From))),
                                sizeOfType(Insn.Ty))
                  : maskToWidth(static_cast<uint64_t>(bitsToFloat(Raw, From)),
                                sizeOfType(Insn.Ty));
      else if (isFloatType(Insn.Ty))
        Out = isSignedType(From)
                  ? floatToBits(static_cast<double>(
                                    signExtend(Raw, sizeOfType(From))),
                                Insn.Ty)
                  : floatToBits(static_cast<double>(
                                    maskToWidth(Raw, sizeOfType(From))),
                                Insn.Ty);
      else if (isSignedType(From))
        Out = maskToWidth(
            static_cast<uint64_t>(signExtend(Raw, sizeOfType(From))),
            sizeOfType(Insn.Ty));
      else
        Out = maskToWidth(maskToWidth(Raw, sizeOfType(From)),
                          sizeOfType(Insn.Ty));
      dst(Out);
      break;
    }
    case Opcode::Cvta: {
      uint64_t Addr = src(1);
      if (Insn.Space == StateSpace::Shared)
        dst(Insn.CvtaTo ? Addr - GenericSharedBase
                        : Addr + GenericSharedBase);
      else
        dst(Addr);
      break;
    }
    default:
      failLaunch(support::formatString("unhandled opcode '%s'",
                                       opcodeName(Insn.Op)));
      return;
    }
    if (Failed)
      return;
  }
}

//===----------------------------------------------------------------------===//
// Lowered (micro-op) dispatch
//===----------------------------------------------------------------------===//

namespace {

template <typename T> bool applyCmp(CmpOpKind Cmp, T A, T B) {
  switch (Cmp) {
  case CmpOpKind::CO_Eq:
    return A == B;
  case CmpOpKind::CO_Ne:
    return A != B;
  case CmpOpKind::CO_Lt:
    return A < B;
  case CmpOpKind::CO_Le:
    return A <= B;
  case CmpOpKind::CO_Gt:
    return A > B;
  case CmpOpKind::CO_Ge:
    return A >= B;
  default:
    return false;
  }
}

} // namespace

void Machine::LaunchContext::uopLegacyLanes(BlockExec &B, WarpExec &W,
                                            const Uop &U, uint32_t Exec) {
  executeLanes(B, W, K.Body[U.Pc], Exec);
}

void Machine::LaunchContext::uopLegacyMem(BlockExec &B, WarpExec &W,
                                          const Uop &U, uint32_t Exec) {
  if (Profiling)
    ++PcMemOps[U.Pc];
  executeMemory(B, W, K.Body[U.Pc], U.Pc, Exec);
}

void Machine::LaunchContext::uopNop(BlockExec &, WarpExec &, const Uop &,
                                    uint32_t) {}

void Machine::LaunchContext::uopMov(BlockExec &B, WarpExec &W, const Uop &U,
                                    uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    storeUopDst(B, Thread, U, readUopSrc(B, Thread, U.Srcs[0]));
  }
}

void Machine::LaunchContext::uopIntAdd(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U, maskToWidth(A + C, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntSub(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U, maskToWidth(A - C, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntMul(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  bool Signed = (U.Flags & UF_SignExt) != 0;
  MulModeKind Mode = static_cast<MulModeKind>(U.MulMode);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t Out;
    if (Mode == MulModeKind::MM_Lo) {
      Out = maskToWidth(A * C, Bytes);
    } else if (Mode == MulModeKind::MM_Wide) {
      uint64_t Product =
          Signed ? static_cast<uint64_t>(signExtend(A, Bytes) *
                                         signExtend(C, Bytes))
                 : maskToWidth(A, Bytes) * maskToWidth(C, Bytes);
      Out = maskToWidth(Product, Bytes * 2);
    } else { // .hi
      if (Signed) {
        __int128 Product = static_cast<__int128>(signExtend(A, Bytes)) *
                           static_cast<__int128>(signExtend(C, Bytes));
        Out = maskToWidth(static_cast<uint64_t>(Product >> (Bytes * 8)),
                          Bytes);
      } else {
        unsigned __int128 Product =
            static_cast<unsigned __int128>(maskToWidth(A, Bytes)) *
            static_cast<unsigned __int128>(maskToWidth(C, Bytes));
        Out = maskToWidth(static_cast<uint64_t>(Product >> (Bytes * 8)),
                          Bytes);
      }
    }
    storeUopDst(B, Thread, U, Out);
  }
}

void Machine::LaunchContext::uopIntMad(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  bool Signed = (U.Flags & UF_SignExt) != 0;
  bool Wide = static_cast<MulModeKind>(U.MulMode) == MulModeKind::MM_Wide;
  unsigned OutBytes = Wide ? Bytes * 2 : Bytes;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t D = readUopSrc(B, Thread, U.Srcs[2]);
    uint64_t Product;
    if (Wide)
      Product = Signed ? static_cast<uint64_t>(signExtend(A, Bytes) *
                                               signExtend(C, Bytes))
                       : maskToWidth(A, Bytes) * maskToWidth(C, Bytes);
    else
      Product = A * C;
    storeUopDst(B, Thread, U, maskToWidth(Product + D, OutBytes));
  }
}

void Machine::LaunchContext::uopIntMin(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  bool Signed = (U.Flags & UF_SignExt) != 0;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t Out =
        Signed ? maskToWidth(static_cast<uint64_t>(std::min(
                                 signExtend(A, Bytes), signExtend(C, Bytes))),
                             Bytes)
               : std::min(maskToWidth(A, Bytes), maskToWidth(C, Bytes));
    storeUopDst(B, Thread, U, Out);
  }
}

void Machine::LaunchContext::uopIntMax(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  bool Signed = (U.Flags & UF_SignExt) != 0;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t Out =
        Signed ? maskToWidth(static_cast<uint64_t>(std::max(
                                 signExtend(A, Bytes), signExtend(C, Bytes))),
                             Bytes)
               : std::max(maskToWidth(A, Bytes), maskToWidth(C, Bytes));
    storeUopDst(B, Thread, U, Out);
  }
}

void Machine::LaunchContext::uopIntAnd(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U, maskToWidth(A & C, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntOr(BlockExec &B, WarpExec &W, const Uop &U,
                                      uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U, maskToWidth(A | C, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntXor(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U, maskToWidth(A ^ C, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntNot(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  bool IsPred = static_cast<Type>(U.Ty) == Type::Pred;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    storeUopDst(B, Thread, U,
                IsPred ? (A ? 0 : 1) : maskToWidth(~A, U.AluBytes));
  }
}

void Machine::LaunchContext::uopIntShl(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t Amount = readUopSrc(B, Thread, U.Srcs[1]);
    storeUopDst(B, Thread, U,
                Amount >= Bytes * 8 ? 0 : maskToWidth(A << Amount, Bytes));
  }
}

void Machine::LaunchContext::uopIntShr(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  bool Signed = (U.Flags & UF_SignExt) != 0;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t Amount = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t Out;
    if (Signed) {
      int64_t Value = signExtend(A, Bytes);
      if (Amount >= Bytes * 8)
        Amount = Bytes * 8 - 1;
      Out = maskToWidth(static_cast<uint64_t>(Value >> Amount), Bytes);
    } else {
      Out = Amount >= Bytes * 8
                ? 0
                : maskToWidth(maskToWidth(A, Bytes) >> Amount, Bytes);
    }
    storeUopDst(B, Thread, U, Out);
  }
}

void Machine::LaunchContext::uopSetp(BlockExec &B, WarpExec &W, const Uop &U,
                                     uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Bytes = U.AluBytes;
  CmpOpKind Cmp = static_cast<CmpOpKind>(U.Cmp);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t A = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t C = readUopSrc(B, Thread, U.Srcs[1]);
    bool Result;
    if (U.CmpClass == 2)
      Result = applyCmp(Cmp, bitsToFloat(A, static_cast<Type>(U.Ty)),
                        bitsToFloat(C, static_cast<Type>(U.Ty)));
    else if (U.CmpClass == 1)
      Result = applyCmp(Cmp, signExtend(A, Bytes), signExtend(C, Bytes));
    else
      Result = applyCmp(Cmp, maskToWidth(A, Bytes), maskToWidth(C, Bytes));
    storeUopDst(B, Thread, U, Result ? 1 : 0);
  }
}

void Machine::LaunchContext::uopSelp(BlockExec &B, WarpExec &W, const Uop &U,
                                     uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    bool Pick = reg(B, Thread, U.Srcs[2].Reg) != 0;
    storeUopDst(B, Thread, U,
                readUopSrc(B, Thread, Pick ? U.Srcs[0] : U.Srcs[1]));
  }
}

void Machine::LaunchContext::uopCvt(BlockExec &B, WarpExec &W, const Uop &U,
                                    uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  Type From = static_cast<Type>(U.SrcTy);
  Type To = static_cast<Type>(U.Ty);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Raw = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t Out;
    if (isFloatType(From) && isFloatType(To))
      Out = floatToBits(bitsToFloat(Raw, From), To);
    else if (isFloatType(From))
      Out = isSignedType(To)
                ? maskToWidth(static_cast<uint64_t>(static_cast<int64_t>(
                                  bitsToFloat(Raw, From))),
                              sizeOfType(To))
                : maskToWidth(static_cast<uint64_t>(bitsToFloat(Raw, From)),
                              sizeOfType(To));
    else if (isFloatType(To))
      Out = isSignedType(From)
                ? floatToBits(
                      static_cast<double>(signExtend(Raw, sizeOfType(From))),
                      To)
                : floatToBits(
                      static_cast<double>(maskToWidth(Raw, sizeOfType(From))),
                      To);
    else if (isSignedType(From))
      Out = maskToWidth(
          static_cast<uint64_t>(signExtend(Raw, sizeOfType(From))),
          sizeOfType(To));
    else
      Out = maskToWidth(maskToWidth(Raw, sizeOfType(From)), sizeOfType(To));
    storeUopDst(B, Thread, U, Out);
  }
}

void Machine::LaunchContext::uopCvta(BlockExec &B, WarpExec &W, const Uop &U,
                                     uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  bool Shared = static_cast<StateSpace>(U.Space) == StateSpace::Shared;
  bool To = (U.Flags & UF_CvtaTo) != 0;
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Addr = readUopSrc(B, Thread, U.Srcs[0]);
    if (Shared)
      Addr = To ? Addr - GenericSharedBase : Addr + GenericSharedBase;
    storeUopDst(B, Thread, U, Addr);
  }
}

void Machine::LaunchContext::uopFltBin(BlockExec &B, WarpExec &W,
                                       const Uop &U, uint32_t Exec) {
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  Type Ty = static_cast<Type>(U.Ty);
  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    double A = bitsToFloat(readUopSrc(B, Thread, U.Srcs[0]), Ty);
    double C = bitsToFloat(readUopSrc(B, Thread, U.Srcs[1]), Ty);
    double R;
    switch (U.Cmp) {
    case FB_Add:
      R = A + C;
      break;
    case FB_Sub:
      R = A - C;
      break;
    case FB_Mul:
      R = A * C;
      break;
    case FB_Div:
      R = A / C;
      break;
    case FB_Min:
      R = std::min(A, C);
      break;
    case FB_Max:
      R = std::max(A, C);
      break;
    default: // FB_Mad
      R = A * C + bitsToFloat(readUopSrc(B, Thread, U.Srcs[2]), Ty);
      break;
    }
    storeUopDst(B, Thread, U, floatToBits(R, Ty));
  }
}

void Machine::LaunchContext::uopLd(BlockExec &B, WarpExec &W, const Uop &U,
                                   uint32_t Exec) {
  if (Profiling)
    ++PcMemOps[U.Pc];
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Size = U.MemSize;
  uint64_t LaneAddr[WarpSize] = {};
  uint32_t SharedMask = 0, GlobalMask = 0;

  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Addr =
        (U.AddrReg >= 0 ? reg(B, Thread, U.AddrReg) : 0) + U.AddrDisp;
    StateSpace Space =
        resolveSpace(static_cast<StateSpace>(U.Space), Addr);
    LaneAddr[Lane] = Addr;
    if (Space == StateSpace::Shared)
      SharedMask |= 1u << Lane;
    else
      GlobalMask |= 1u << Lane;

    uint64_t Raw = loadLowered(B, Thread, Space, Addr, Size);
    if (U.Flags & UF_SignExt)
      Raw = static_cast<uint64_t>(signExtend(Raw, Size));
    storeUopDst(B, Thread, U, Raw);
    if (Failed)
      return;
  }

  emitMemRecords(B, W, U, LaneAddr, nullptr, GlobalMask, SharedMask);
}

void Machine::LaunchContext::uopSt(BlockExec &B, WarpExec &W, const Uop &U,
                                   uint32_t Exec) {
  if (Profiling)
    ++PcMemOps[U.Pc];
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Size = U.MemSize;
  uint64_t LaneAddr[WarpSize] = {};
  uint64_t LaneValue[WarpSize] = {};
  uint32_t SharedMask = 0, GlobalMask = 0;

  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Addr =
        (U.AddrReg >= 0 ? reg(B, Thread, U.AddrReg) : 0) + U.AddrDisp;
    StateSpace Space =
        resolveSpace(static_cast<StateSpace>(U.Space), Addr);
    LaneAddr[Lane] = Addr;
    if (Space == StateSpace::Shared)
      SharedMask |= 1u << Lane;
    else
      GlobalMask |= 1u << Lane;

    uint64_t Value = maskToWidth(readUopSrc(B, Thread, U.Srcs[0]), Size);
    LaneValue[Lane] = Value;
    storeLowered(B, Thread, Space, Addr, Size, Value);
    if (Failed)
      return;
  }

  emitMemRecords(B, W, U, LaneAddr, LaneValue, GlobalMask, SharedMask);
}

void Machine::LaunchContext::uopAtom(BlockExec &B, WarpExec &W, const Uop &U,
                                     uint32_t Exec) {
  if (Profiling)
    ++PcMemOps[U.Pc];
  uint32_t BaseThread = W.WarpInBlock * Config.WarpSize;
  unsigned Size = U.MemSize;
  uint64_t LaneAddr[WarpSize] = {};
  uint32_t SharedMask = 0, GlobalMask = 0;

  for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
    if (!((Exec >> Lane) & 1))
      continue;
    uint32_t Thread = BaseThread + Lane;
    uint64_t Addr =
        (U.AddrReg >= 0 ? reg(B, Thread, U.AddrReg) : 0) + U.AddrDisp;
    StateSpace Space =
        resolveSpace(static_cast<StateSpace>(U.Space), Addr);
    LaneAddr[Lane] = Addr;
    if (Space == StateSpace::Shared)
      SharedMask |= 1u << Lane;
    else
      GlobalMask |= 1u << Lane;

    if (Weak.enabled() && Space == StateSpace::Global)
      Weak.beforeAtomic(B.BlockId);
    uint64_t Old = loadLowered(B, Thread, Space, Addr, Size);
    uint64_t OperandB = readUopSrc(B, Thread, U.Srcs[0]);
    uint64_t OperandC = readUopSrc(B, Thread, U.Srcs[1]);
    uint64_t New =
        applyAtomOp(static_cast<AtomOpKind>(U.AtomOp),
                    static_cast<Type>(U.Ty), maskToWidth(Old, Size), OperandB,
                    OperandC);
    storeLowered(B, Thread, Space, Addr, Size, New);
    if (U.Dst >= 0)
      storeUopDst(B, Thread, U, Old);
    if (Failed)
      return;
  }

  emitMemRecords(B, W, U, LaneAddr, nullptr, GlobalMask, SharedMask);
}

void Machine::LaunchContext::emitMemRecords(
    BlockExec &B, WarpExec &W, const Uop &U, const uint64_t *LaneAddr,
    const uint64_t *LaneValue, uint32_t GlobalMask, uint32_t SharedMask) {
  if ((U.Flags & UF_Pruned) && Logger)
    ++RecordsPruned; // the unoptimized instrumentation would log here
  if (!U.LogOp || !Logger)
    return;

  RecordOp Op = static_cast<RecordOp>(U.LogOp);
  auto emitGroup = [&](uint32_t Mask, trace::MemSpace Space) {
    if (!Mask)
      return;
    if (Op == RecordOp::Write && Mach.Options.FilterSameValueWrites &&
        LaneValue) {
      for (unsigned Lane = 0; Lane != WarpSize; ++Lane) {
        if (!((Mask >> Lane) & 1))
          continue;
        for (unsigned Later = Lane + 1; Later != WarpSize; ++Later) {
          if (!((Mask >> Later) & 1))
            continue;
          if (LaneAddr[Later] == LaneAddr[Lane] &&
              LaneValue[Later] == LaneValue[Lane])
            Mask &= ~(1u << Later);
        }
      }
    }
    LogRecord Record = trace::makeMemRecord(
        Op, Config.globalWarp(B.BlockId, W.WarpInBlock), U.Pc, Space,
        static_cast<uint16_t>(U.MemSize), Mask);
    if (U.Flags & UF_LogSync) {
      Record.setScope(static_cast<trace::SyncScope>(U.LogScope));
      Record.SyncSeq = ++SyncTicket;
    }
    for (unsigned Lane = 0; Lane != WarpSize; ++Lane)
      if ((Mask >> Lane) & 1)
        Record.Addr[Lane] = LaneAddr[Lane];
    emit(B, Record);
  };

  emitGroup(GlobalMask, trace::MemSpace::Global);
  emitGroup(SharedMask, trace::MemSpace::Shared);
}

// Indexed by UopExec; control uops are handled inline by the dispatch
// loop and never reach the table.
const Machine::LaunchContext::UopHandler
    Machine::LaunchContext::UopHandlers[] = {
        &Machine::LaunchContext::uopLegacyLanes, // LegacyLanes
        &Machine::LaunchContext::uopLegacyMem,   // LegacyMem
        &Machine::LaunchContext::uopNop,         // Nop
        &Machine::LaunchContext::uopMov,         // Mov
        &Machine::LaunchContext::uopIntAdd,      // IntAdd
        &Machine::LaunchContext::uopIntSub,      // IntSub
        &Machine::LaunchContext::uopIntMul,      // IntMul
        &Machine::LaunchContext::uopIntMad,      // IntMad
        &Machine::LaunchContext::uopIntMin,      // IntMin
        &Machine::LaunchContext::uopIntMax,      // IntMax
        &Machine::LaunchContext::uopIntAnd,      // IntAnd
        &Machine::LaunchContext::uopIntOr,       // IntOr
        &Machine::LaunchContext::uopIntXor,      // IntXor
        &Machine::LaunchContext::uopIntNot,      // IntNot
        &Machine::LaunchContext::uopIntShl,      // IntShl
        &Machine::LaunchContext::uopIntShr,      // IntShr
        &Machine::LaunchContext::uopSetp,        // Setp
        &Machine::LaunchContext::uopSelp,        // Selp
        &Machine::LaunchContext::uopCvt,         // Cvt
        &Machine::LaunchContext::uopCvta,        // Cvta
        &Machine::LaunchContext::uopFltBin,      // FltBin
        &Machine::LaunchContext::uopLd,          // Ld
        &Machine::LaunchContext::uopSt,          // St
        &Machine::LaunchContext::uopAtom,        // Atom
        nullptr,                                 // Bra (inline)
        nullptr,                                 // RetExit (inline)
        nullptr,                                 // Bar (inline)
        nullptr,                                 // Membar (inline)
        nullptr,                                 // SetpBra (inline)
};

/// One scheduler slot of a warp on the lowered kernel: dispatches the
/// pre-decoded micro-op at the warp's pc and runs stack cleanup only at
/// basic-block boundaries (mid-block cleanups are provably no-ops).
/// Fused pairs execute both halves here and set W.Stall so the warp skips
/// the next slot, keeping every cross-warp-visible effect in the same
/// slot as an unfused one-instruction-per-pass schedule.
bool Machine::LaunchContext::dispatchWarp(BlockExec &B, WarpExec &W) {
  static_assert(sizeof(UopHandlers) / sizeof(UopHandlers[0]) ==
                    static_cast<size_t>(UopExec::Count),
                "handler table must cover every UopExec");
  assert(!W.Stack.empty() && "stepping a finished warp");
  StackEntry &Top = W.Stack.back();
  uint32_t Pc = Top.NextPc;

  if (Pc >= Low->Uops.size()) {
    // Implicit exit at the end of the body.
    retireLanes(B, W, Top.Mask);
    cleanupStack(B, W);
    return true;
  }

  const Uop &U = Low->Uops[Pc];
  uint32_t Active = Top.Mask;
  uint32_t Exec = Active;
  if ((U.Flags & UF_Guarded) && static_cast<UopExec>(U.Exec) != UopExec::Bra)
    Exec &= guardMask(B, W, U);
  ++Executed;
  if (Profiling)
    ++PcExecuted[Pc];

  switch (static_cast<UopExec>(U.Exec)) {
  case UopExec::Bra: {
    uint32_t Guard = (U.Flags & UF_Guarded)
                         ? (guardMask(B, W, U) & Active)
                         : Active;
    executeBranch(B, W, U, Pc, Active, Guard);
    cleanupStack(B, W);
    return true;
  }
  case UopExec::SetpBra: {
    // Fused compare-and-branch (native launches only): the setp executes
    // now, the branch executes in the same slot, and the warp stalls one
    // slot to stay pass-aligned with the unfused schedule.
    uopSetp(B, W, U, Exec);
    const Uop &Br = Low->Uops[Pc + 1];
    ++Executed;
    if (Profiling)
      ++PcExecuted[Pc + 1];
    uint32_t Guard = guardMask(B, W, Br) & Active;
    executeBranch(B, W, Br, Pc + 1, Active, Guard);
    W.Stall = true;
    cleanupStack(B, W);
    return true;
  }
  case UopExec::RetExit:
    Top.NextPc = Pc + 1;
    retireLanes(B, W, Exec);
    cleanupStack(B, W);
    return true;
  case UopExec::Bar:
    if (Exec) {
      if (U.LogOp && Logger)
        emitControl(B, W, RecordOp::Bar, Pc, Exec);
      W.AtBarrier = true;
      W.BarrierPc = Pc;
    }
    Top.NextPc = Pc + 1;
    if (U.Flags & UF_EndsBlock)
      cleanupStack(B, W);
    return true;
  case UopExec::Membar:
    if (Weak.enabled() && Exec)
      Weak.fence(B.BlockId, (U.Flags & UF_FenceGlobal) != 0);
    Top.NextPc = Pc + 1;
    if (U.Flags & UF_EndsBlock)
      cleanupStack(B, W);
    return true;
  default: {
    if (Exec)
      (this->*UopHandlers[U.Exec])(B, W, U, Exec);
    Top.NextPc = Pc + 1;
    if (U.Flags & UF_EndsBlock) {
      cleanupStack(B, W);
      return true;
    }
    if ((U.Flags & UF_FuseNext) && !Failed) {
      // Fused pair: the second op is unguarded pure-ALU, so executing it
      // early is unobservable to other warps; the stall keeps the warp's
      // slot count identical to the unfused schedule's.
      const Uop &Next = Low->Uops[Pc + 1];
      ++Executed;
      if (Profiling)
        ++PcExecuted[Pc + 1];
      (this->*UopHandlers[Next.Exec])(B, W, Next, Active);
      Top.NextPc = Pc + 2;
      W.Stall = true;
      if (Next.Flags & UF_EndsBlock)
        cleanupStack(B, W);
    }
    return true;
  }
  }
}

LaunchResult Machine::LaunchContext::run() {
  if (Config.threadsPerBlock() == 0 || Config.blockCount() == 0)
    return LaunchResult::failure("empty launch configuration");
  if (Config.threadsPerBlock() > 1024)
    return LaunchResult::failure("more than 1024 threads per block");
  if (Config.WarpSize == 0 || Config.WarpSize > trace::WarpSize)
    return LaunchResult::failure("warp size must be in [1, 32]");
  if (Params.size() < K.ParamBytes)
    return LaunchResult::failure("parameter buffer too small");

  RegCount = K.Regs.size();
  if (Weak.enabled())
    Weak.setBlockCount(Config.blockCount());

  uint32_t BlockCount = Config.blockCount();
  uint32_t WaveSize = std::min(BlockCount, Mach.Options.MaxResidentBlocks);
  std::vector<BlockExec> Blocks(WaveSize);
  uint64_t SchedPasses = 0;

  for (uint32_t WaveBase = 0; WaveBase < BlockCount && !Failed;
       WaveBase += WaveSize) {
    uint32_t WaveCount = std::min(WaveSize, BlockCount - WaveBase);
    for (uint32_t I = 0; I != WaveCount; ++I)
      initBlock(Blocks[I], WaveBase + I);

    uint32_t LiveBlocks = WaveCount;

    // Names the pc the launch is stuck at when a hang is diagnosed: a
    // warp parked at a barrier is the most informative blocker (the
    // divergent-barrier case), else the first live warp's next pc (the
    // spin-loop case).
    auto hangPc = [&]() -> uint32_t {
      uint32_t FirstLive = LaunchResult::InvalidPc;
      for (uint32_t I = 0; I != WaveCount; ++I) {
        for (const WarpExec &W : Blocks[I].Warps) {
          if (Blocks[I].Done || W.Done)
            continue;
          if (W.AtBarrier)
            return W.BarrierPc;
          if (FirstLive == LaunchResult::InvalidPc && !W.Stack.empty())
            FirstLive = W.Stack.back().NextPc;
        }
      }
      return FirstLive;
    };

    fault::FaultInjector *Faults = Mach.Options.Faults;
    while (LiveBlocks && !Failed) {
      bool Progress = false;
      for (uint32_t I = 0; I != WaveCount && !Failed; ++I) {
        BlockExec &B = Blocks[I];
        if (B.Done)
          continue;
        for (WarpExec &W : B.Warps) {
          if (W.Done || W.AtBarrier)
            continue;
          if (W.Stall) {
            // Second half of a fused uop pair already executed last
            // slot; burn this slot so cross-warp interleaving matches
            // the unfused one-instruction-per-pass schedule.
            W.Stall = false;
            Progress = true;
            continue;
          }
          if (Faults && B.BlockId == 0 && W.WarpInBlock == 0) {
            // kernel-spin: the warp burns instructions without ever
            // advancing, exactly like an unreleased spin loop — only
            // the watchdog budget can stop it.
            if (Faults->sticky(fault::FaultKind::KernelSpin)) {
              if (!SpinClaimed) {
                SpinClaimed = true;
                resilienceInstant("fault: kernel-spin claimed");
              }
              ++Executed;
              Progress = true;
              continue;
            }
            // barrier-hang: the warp freezes without arriving at any
            // barrier, so its block can never finish; once every other
            // warp is done or parked, the no-progress check fires.
            if (Faults->sticky(fault::FaultKind::BarrierHang)) {
              if (!HangClaimed) {
                HangClaimed = true;
                resilienceInstant("fault: barrier-hang claimed");
              }
              continue;
            }
          }
          Progress |= dispatchWarp(B, W);
          if (Failed)
            break;
        }
        if (Failed)
          break;
        // Barrier release: every live warp has arrived.
        if (B.LiveWarps) {
          bool AllArrived = true;
          for (const WarpExec &W : B.Warps)
            if (!W.Done && !W.AtBarrier)
              AllArrived = false;
          if (AllArrived) {
            for (WarpExec &W : B.Warps)
              W.AtBarrier = false;
            Progress = true;
          }
        }
        if (B.LiveWarps == 0) {
          if (Logger && Instr) {
            LogRecord Record = trace::makeControlRecord(
                RecordOp::BlockEnd, Config.globalWarp(B.BlockId, 0), 0, 0);
            emit(B, Record);
          }
          B.Done = true;
          --LiveBlocks;
          Progress = true;
        }
      }
      if (Weak.enabled())
        Weak.tick();
      // Cooperative cancellation at the block-dispatch boundary: the
      // token is polled every 64 scheduling passes (tripped() is one
      // relaxed load; state() consults the clock only while a deadline
      // is armed) so a revoked or deadlined launch retires typed within
      // a bounded number of passes instead of waiting for the watchdog.
      if (Cancel && (++SchedPasses & 63) == 0) {
        support::ErrorCode Tripped = Cancel->state();
        if (Tripped != support::ErrorCode::Ok) {
          uint32_t Pc = hangPc();
          resilienceInstant(Tripped == support::ErrorCode::Cancelled
                                ? "cancel: launch revoked"
                                : "cancel: deadline exceeded");
          failLaunch(Tripped,
                     Tripped == support::ErrorCode::Cancelled
                         ? "launch cancelled at a scheduling boundary"
                         : "deadline exceeded at a scheduling boundary",
                     Pc);
          break;
        }
      }
      if (Executed > Mach.Options.MaxWarpInstructions) {
        uint32_t Pc = hangPc();
        resilienceInstant("watchdog: instruction budget exhausted");
        failLaunch(
            support::ErrorCode::KernelHang,
            support::formatString(
                "watchdog: instruction budget (%llu) exhausted — "
                "livelock, unreleased spin loop or divergent barrier; "
                "blocked at pc %u",
                static_cast<unsigned long long>(
                    Mach.Options.MaxWarpInstructions),
                Pc),
            Pc);
        break;
      }
      if (!Progress && LiveBlocks) {
        uint32_t Pc = hangPc();
        resilienceInstant("deadlock: warps blocked at barrier");
        failLaunch(support::ErrorCode::KernelHang,
                   support::formatString(
                       "device deadlock: all live warps are blocked at "
                       "a barrier that cannot be satisfied (pc %u)", Pc),
                   Pc);
        break;
      }
    }
  }

  if (Weak.enabled())
    Weak.drainAll();

  publishProfile();

  if (Failed) {
    LaunchResult Result = LaunchResult::failure(FailCode, FirstError, FailPc);
    Result.WarpInstructions = Executed;
    Result.RecordsLogged = RecordsLogged;
    Result.RecordsPruned = RecordsPruned;
    return Result;
  }
  LaunchResult Result;
  Result.WarpInstructions = Executed;
  Result.RecordsLogged = RecordsLogged;
  Result.RecordsPruned = RecordsPruned;
  Result.ThreadsLaunched = Config.totalThreads();
  return Result;
}

//===----------------------------------------------------------------------===//
// Machine
//===----------------------------------------------------------------------===//

Machine::Machine(GlobalMemory &Memory, MachineOptions Options)
    : Memory(Memory), Options(Options) {}

Machine::~Machine() = default;

void Machine::layoutModuleGlobals(Module &M, GlobalMemory &Memory) {
  uint64_t Next = ModuleGlobalBase;
  for (SymbolInfo &Var : M.Globals) {
    uint64_t Align = Var.Align ? Var.Align : 8;
    Next = (Next + Align - 1) & ~(Align - 1);
    Var.Address = Next;
    Next += Var.SizeBytes;
    // Touch the backing pages so the variable starts zeroed.
    for (uint64_t Offset = 0; Offset < Var.SizeBytes; Offset += 8)
      Memory.write(Var.Address + Offset, 1, 0);
  }
}

LaunchResult Machine::launch(const Module &M, const Kernel &K,
                             const instrument::KernelInstrumentation *Instr,
                             const LaunchConfig &Config,
                             const std::vector<uint8_t> &ParamBuffer,
                             DeviceLogger *Logger, const LoweredKernel *Low,
                             const support::CancelToken *Cancel) {
  // A caller's lowering is only usable if it matches this body and was
  // lowered for the same mode (native vs instrumented); otherwise lower
  // the kernel for this launch alone.
  std::unique_ptr<LoweredKernel> Own;
  if (!Low || Low->Uops.size() != K.Body.size() ||
      Low->Instrumented != (Instr != nullptr)) {
    Own = lowerKernel(M, K, Instr);
    Low = Own.get();
  }
  LaunchContext Context(*this, M, K, Instr, Config, ParamBuffer, Logger, Low,
                        Cancel);
  obs::Span Execute(Options.Tracer,
                    Options.Tracer ? Options.Tracer->track("device") : 0,
                    "execute " + K.Name, "sim");
  return Context.run();
}

//===----------------------------------------------------------------------===//
// ParamBuilder
//===----------------------------------------------------------------------===//

ParamBuilder &ParamBuilder::set(size_t Index, uint64_t Value) {
  assert(Index < K.Params.size() && "param index out of range");
  const ParamInfo &Param = K.Params[Index];
  unsigned Size = sizeOfType(Param.Ty);
  std::memcpy(Buffer.data() + Param.Offset, &Value, Size);
  return *this;
}

ParamBuilder &ParamBuilder::setFloat(size_t Index, double Value) {
  assert(Index < K.Params.size() && "param index out of range");
  const ParamInfo &Param = K.Params[Index];
  if (Param.Ty == Type::F32) {
    float F = static_cast<float>(Value);
    std::memcpy(Buffer.data() + Param.Offset, &F, sizeof(F));
  } else {
    std::memcpy(Buffer.data() + Param.Offset, &Value, sizeof(Value));
  }
  return *this;
}
