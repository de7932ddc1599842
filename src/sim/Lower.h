//===- Lower.h - PTX instruction -> micro-op lowering ----------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a ptx::Kernel into a LoweredKernel: one pre-decoded micro-op
/// per instruction (see Uop.h), grouped into basic blocks, with common
/// pairs fused. Lowering happens once per kernel at launch-prepare time
/// and is cached by the session; the machine's block dispatch loop then
/// executes the flat uop array instead of re-decoding ptx::Instruction
/// operands on every step.
///
//===----------------------------------------------------------------------===//

#ifndef BARRACUDA_SIM_LOWER_H
#define BARRACUDA_SIM_LOWER_H

#include "sim/Uop.h"

#include <memory>
#include <vector>

namespace barracuda {
namespace ptx {
struct Module;
struct Kernel;
} // namespace ptx

namespace instrument {
struct KernelInstrumentation;
} // namespace instrument

namespace sim {

/// The registry of selectable micro-op executors. Lowering consults it per
/// instruction and picks the supporting entry with the lowest complexity.
const std::vector<UopKernelInfo> &uopKernelLibrary();

/// Lowers \p K to micro-ops. \p Instr, when non-null, bakes the
/// instrumentation's trace-record decisions (record opcode, scope, pruning,
/// reconvergence overrides) into the uops; pass the same value the launch
/// will use, and it must annotate \p K (one entry per instruction).
/// Succeeds on every kernel the parser and verifier accept: the generic
/// library rows cover every opcode without a specialised executor.
std::unique_ptr<LoweredKernel>
lowerKernel(const ptx::Module &M, const ptx::Kernel &K,
            const instrument::KernelInstrumentation *Instr);

} // namespace sim
} // namespace barracuda

#endif // BARRACUDA_SIM_LOWER_H
