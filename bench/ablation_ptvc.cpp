//===- ablation_ptvc.cpp - PTVC compression ablation (Section 4.3.1) -------===//
//
// Quantifies the paper's key scaling claim: per-thread vector clocks
// compressed at warp granularity. Reports
//
//   (a) the PTVC format census over representative workloads — the paper
//       observed ~90% of the time PTVCs are representable with at most
//       two clock values per warp (CONVERGED or DIVERGED);
//   (b) compressed PTVC memory versus the uncompressed reference
//       detector's full vector clocks on identical traces, plus the
//       O(n^2) full-VC footprint extrapolated to the paper's
//       million-thread kernels.
//
//===----------------------------------------------------------------------===//

#include "barracuda/Session.h"
#include "baseline/Reference.h"
#include "instrument/Instrumenter.h"
#include "ptx/Parser.h"
#include "sim/Lower.h"
#include "suite/Suite.h"
#include "support/Format.h"
#include "support/TableWriter.h"
#include "workloads/Generator.h"

#include <cstdio>

using namespace barracuda;
using support::formatBytes;
using support::formatString;

namespace {

struct Census {
  detector::PtvcFormatStats Formats;
  uint64_t PeakPtvcBytes = 0;
  uint64_t ReferencePeakBytes = 0;
  uint64_t Threads = 0;
};

Census runProgram(const suite::SuiteProgram &Program) {
  Census Result;

  // Production pipeline for format stats and compressed footprint.
  Session S;
  if (!S.loadModule(Program.Ptx)) {
    std::fprintf(stderr, "parse error: %s\n", S.error().c_str());
    std::exit(1);
  }
  std::vector<uint64_t> Params;
  for (const auto &Spec : Program.Params) {
    if (Spec.K == suite::ParamSpec::Kind::Value) {
      Params.push_back(Spec.Value);
      continue;
    }
    uint64_t Addr = S.alloc(Spec.BufferBytes);
    if (Spec.HasInitWord)
      S.writeU32(Addr, Spec.InitWord);
    Params.push_back(Addr);
  }
  support::Result<sim::LaunchResult> Launch = S.launchKernel(Program.KernelName,
                                            Program.Grid, Program.Block,
                                            Params);
  if (!Launch.ok()) {
    std::fprintf(stderr, "launch failed: %s\n", Launch.status().message().c_str());
    std::exit(1);
  }
  Result.Formats = S.report().Detector.Formats;
  Result.PeakPtvcBytes = S.report().Detector.PeakPtvcBytes;
  Result.Threads = Launch.value().ThreadsLaunched;

  // Reference detector on the same trace for the uncompressed footprint.
  {
    std::unique_ptr<ptx::Module> Mod = ptx::parseOrDie(Program.Ptx);
    instrument::InstrumenterOptions InstrOpts;
    instrument::ModuleInstrumentation Instr =
        instrument::instrumentModule(*Mod, InstrOpts);
    sim::GlobalMemory Memory;
    sim::Machine::layoutModuleGlobals(*Mod, Memory);
    sim::Machine Machine(Memory);
    const ptx::Kernel *K = Mod->findKernel(Program.KernelName);
    sim::ParamBuilder Builder(*K);
    size_t Index = 0;
    for (const auto &Spec : Program.Params) {
      if (Spec.K == suite::ParamSpec::Kind::Value) {
        Builder.set(Index++, Spec.Value);
        continue;
      }
      uint64_t Addr = Memory.allocate(Spec.BufferBytes);
      if (Spec.HasInitWord)
        Memory.write(Addr, 4, Spec.InitWord);
      Builder.set(Index++, Addr);
    }
    sim::LaunchConfig Config;
    Config.Grid = Program.Grid;
    Config.Block = Program.Block;
    sim::CollectingLogger Logger;
    size_t KI = static_cast<size_t>(K - Mod->Kernels.data());
    std::unique_ptr<sim::LoweredKernel> Low =
        sim::lowerKernel(*Mod, *K, &Instr.Kernels[KI]);
    Machine.launch(*Mod, *K, &Instr.Kernels[KI], Config, Builder.bytes(),
                   &Logger, Low.get());
    baseline::ReferenceDetector Reference{sim::ThreadHierarchy(Config)};
    Reference.processAll(Logger.Records);
    Result.ReferencePeakBytes = Reference.peakVectorClockBytes();
  }
  return Result;
}

} // namespace

int main() {
  std::printf("PTVC compression ablation (Section 4.3.1)\n\n");

  static const char *const Workloads[] = {
      "g_disjoint_slots",   "s_producer_consumer_barrier",
      "w_nested_disjoint",  "a_cas_retry_loop",
      "l_spinlock_correct", "f_threadfence_reduction",
      "b_barrier_loop",     "m_mixed_spaces",
  };

  support::TableWriter Table;
  Table.addHeader({"workload", "converged", "diverged", "nested",
                   "sparse", "warp-compressible", "ptvc peak",
                   "full-vc peak"});

  detector::PtvcFormatStats Aggregate;
  uint64_t TotalPtvc = 0, TotalReference = 0;
  for (const char *Name : Workloads) {
    const suite::SuiteProgram *Program = suite::findSuiteProgram(Name);
    if (!Program) {
      std::fprintf(stderr, "missing suite program %s\n", Name);
      return 1;
    }
    Census Result = runProgram(*Program);
    Aggregate.merge(Result.Formats);
    TotalPtvc += Result.PeakPtvcBytes;
    TotalReference += Result.ReferencePeakBytes;

    auto pct = [&](detector::PtvcFormat Format) {
      return formatString("%5.1f%%",
                          100.0 * Result.Formats.fraction(Format));
    };
    Table.addRow({Name, pct(detector::PtvcFormat::Converged),
                  pct(detector::PtvcFormat::Diverged),
                  pct(detector::PtvcFormat::NestedDiverged),
                  pct(detector::PtvcFormat::SparseVc),
                  formatString(
                      "%5.1f%%",
                      100.0 * Result.Formats.warpCompressibleFraction()),
                  formatBytes(Result.PeakPtvcBytes),
                  formatBytes(Result.ReferencePeakBytes)});
  }
  // The suite rows above deliberately include the divergence-heavy
  // stress programs. For the paper's "roughly 90% of the time" census,
  // weight by realistic workloads too: three Table 1 benchmarks.
  for (const char *Name : {"backprop", "kmeans", "pathfinder"}) {
    const workloads::BenchmarkSpec *Spec = workloads::findSpec(Name);
    if (!Spec)
      continue;
    workloads::GeneratorOptions GenOptions;
    GenOptions.MaxMeasureThreads = 8192;
    workloads::GeneratedBenchmark Bench =
        workloads::generateBenchmark(*Spec, GenOptions);
    Session S;
    if (!S.loadModule(Bench.Ptx))
      continue;
    uint64_t Data = S.alloc(Bench.DataBytes);
    if (!S.launchKernel(Bench.KernelName, Bench.MeasureGrid, Bench.Block,
                        {Data})
             .ok())
      continue;
    RunReport Report = S.report();
    const detector::PtvcFormatStats &Formats = Report.Detector.Formats;
    Aggregate.merge(Formats);
    TotalPtvc += Report.Detector.PeakPtvcBytes;
    auto pct = [&](detector::PtvcFormat Format) {
      return formatString("%5.1f%%", 100.0 * Formats.fraction(Format));
    };
    Table.addRow({Name, pct(detector::PtvcFormat::Converged),
                  pct(detector::PtvcFormat::Diverged),
                  pct(detector::PtvcFormat::NestedDiverged),
                  pct(detector::PtvcFormat::SparseVc),
                  formatString("%5.1f%%",
                               100.0 *
                                   Formats.warpCompressibleFraction()),
                  formatBytes(Report.Detector.PeakPtvcBytes),
                  "(not run)"});
  }
  Table.print();

  std::printf("\nAggregate: %.1f%% of records see a warp-compressible "
              "(CONVERGED/DIVERGED) PTVC — the paper observed roughly "
              "90%%.\n",
              100.0 * Aggregate.warpCompressibleFraction());
  std::printf("Compressed PTVC peak %s vs uncompressed full-VC peak %s "
              "on identical traces (%.1fx saving at toy scale).\n",
              formatBytes(TotalPtvc).c_str(),
              formatBytes(TotalReference).c_str(),
              TotalPtvc ? static_cast<double>(TotalReference) /
                              static_cast<double>(TotalPtvc)
                        : 0.0);

  // The scaling argument of Section 4.3.1: n threads need n^2 clock
  // entries uncompressed.
  std::printf("\nExtrapolated uncompressed per-thread VC storage "
              "(4-byte entries):\n");
  support::TableWriter Scale;
  Scale.addHeader({"threads", "full VCs", "paper's PTVC scheme"});
  for (uint64_t Threads : {1024ULL, 65536ULL, 1048576ULL}) {
    uint64_t Full = Threads * Threads * 4;
    // Compressed: ~one 16-byte stack entry per warp in the common case.
    uint64_t Compressed = (Threads / 32) * 16;
    Scale.addRow({support::formatWithCommas(Threads), formatBytes(Full),
                  formatBytes(Compressed)});
  }
  Scale.print();
  std::printf("A million-thread kernel needs terabytes of full vector "
              "clocks but only megabytes of compressed PTVCs.\n");
  return 0;
}
