//===- Kernels.h - PTX the benchmark generates ------------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

#include <string>

namespace perfbench {

/// Histogram over 8 bins bumped with atom.global.add: race-free. One
/// parameter, the bin buffer (32 bytes used). About 20 records per
/// launch at 4x64 threads.
const std::string &histogramSafePtx();

/// The same histogram with a plain load/add/store: races across warps
/// and blocks on every bin.
const std::string &histogramRacyPtx();

/// The sync-dense kernel `syncdense(slots, counter, iters, stores)`:
/// each thread loops `iters` times over `stores` (at least 1) stores to
/// its own row of `stores` words in `slots`, membar.gl, atom.global.add
/// on one hot counter, membar.gl. The instrumenter infers each
/// fence-sandwiched atomic as an acquire-release, so every iteration of
/// every warp logs a sync record. Race-free.
const std::string &syncDensePtx();

} // namespace perfbench

#endif // PERFBENCH_KERNELS_H
