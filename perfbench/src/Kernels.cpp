//===- Kernels.cpp - PTX the benchmark generates --------------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Kernels.h"

namespace perfbench {

namespace {

std::string histogram(bool Racy) {
  std::string Bump = Racy ? "    ld.global.u32 %r6, [%rd3];\n"
                            "    add.u32 %r6, %r6, 1;\n"
                            "    st.global.u32 [%rd3], %r6;\n"
                          : "    atom.global.add.u32 %r6, [%rd3], 1;\n";
  return ".version 4.3\n"
         ".target sm_35\n"
         ".address_size 64\n"
         "\n"
         ".visible .entry histogram(\n"
         "    .param .u64 bins\n"
         ")\n"
         "{\n"
         "    .reg .u64 %rd<4>;\n"
         "    .reg .u32 %r<8>;\n"
         "    ld.param.u64 %rd1, [bins];\n"
         "    mov.u32 %r1, %tid.x;\n"
         "    mov.u32 %r2, %ctaid.x;\n"
         "    mov.u32 %r3, %ntid.x;\n"
         "    mad.lo.u32 %r4, %r2, %r3, %r1;\n"
         "    and.b32 %r5, %r4, 7;\n"
         "    cvt.u64.u32 %rd2, %r5;\n"
         "    shl.b64 %rd2, %rd2, 2;\n"
         "    add.u64 %rd3, %rd1, %rd2;\n" +
         Bump +
         "    ret;\n"
         "}\n";
}

} // namespace

const std::string &histogramSafePtx() {
  static const std::string Ptx = histogram(/*Racy=*/false);
  return Ptx;
}

const std::string &histogramRacyPtx() {
  static const std::string Ptx = histogram(/*Racy=*/true);
  return Ptx;
}

const std::string &syncDensePtx() {
  static const std::string Ptx =
      ".version 4.3\n"
      ".target sm_35\n"
      ".address_size 64\n"
      "\n"
      ".visible .entry syncdense(\n"
      "    .param .u64 slots,\n"
      "    .param .u64 counter,\n"
      "    .param .u32 iters,\n"
      "    .param .u32 stores\n"
      ")\n"
      "{\n"
      "    .reg .u64 %rd<7>;\n"
      "    .reg .u32 %r<12>;\n"
      "    .reg .pred %p<3>;\n"
      "    ld.param.u64 %rd1, [slots];\n"
      "    ld.param.u64 %rd2, [counter];\n"
      "    ld.param.u32 %r1, [iters];\n"
      "    ld.param.u32 %r9, [stores];\n"
      "    mov.u32 %r2, %tid.x;\n"
      "    mov.u32 %r3, %ctaid.x;\n"
      "    mov.u32 %r4, %ntid.x;\n"
      "    mad.lo.u32 %r5, %r3, %r4, %r2;\n"
      "    mul.lo.u32 %r10, %r5, %r9;\n"
      "    cvt.u64.u32 %rd3, %r10;\n"
      "    shl.b64 %rd3, %rd3, 2;\n"
      "    add.u64 %rd4, %rd1, %rd3;\n"
      "    mov.u32 %r6, 0;\n"
      "LOOP:\n"
      "    st.global.u32 [%rd4], %r6;\n"
      "    mov.u32 %r8, 1;\n"
      "    mov.u64 %rd5, %rd4;\n"
      "ROW:\n"
      "    setp.ge.u32 %p2, %r8, %r9;\n"
      "    @%p2 bra SYNC;\n"
      "    add.u64 %rd5, %rd5, 4;\n"
      "    st.global.u32 [%rd5], %r6;\n"
      "    add.u32 %r8, %r8, 1;\n"
      "    bra ROW;\n"
      "SYNC:\n"
      "    membar.gl;\n"
      "    atom.global.add.u32 %r7, [%rd2], 1;\n"
      "    membar.gl;\n"
      "    add.u32 %r6, %r6, 1;\n"
      "    setp.lt.u32 %p1, %r6, %r1;\n"
      "    @%p1 bra LOOP;\n"
      "    ret;\n"
      "}\n";
  return Ptx;
}

} // namespace perfbench
