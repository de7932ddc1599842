//===- barracuda-instrument.cpp - instrumentation inspector -----------------===//
//
// Shows what the binary instrumentation framework would do to a PTX
// module: the rewritten (predication-transformed) code with each
// instruction's logging action, inferred acquire/release scopes, pruning
// decisions and reconvergence points, plus the Figure 9 statistics.
//
// Usage: barracuda-instrument FILE.ptx [--no-prune] [--json]
//                                      [--line-table]
//
// --line-table dumps the pc -> PTX source line map per kernel — the
// key for joining profiler output (--profile-folded, hot-PC tables)
// back to the source text.
//
//===----------------------------------------------------------------------===//

#include "instrument/Instrumenter.h"
#include "ptx/Parser.h"
#include "ptx/Printer.h"
#include "ptx/Verifier.h"
#include "sim/Lower.h"
#include "obs/Log.h"
#include "support/Cli.h"
#include "support/Format.h"
#include "support/Json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace barracuda;

int main(int ArgCount, char **Args) {
  instrument::InstrumenterOptions Options;
  bool Json = false, LineTable = false;

  support::cli::Parser Cli("barracuda-instrument", "FILE.ptx");
  Cli.option(
      "--log-level", "NAME",
      [](const char *V) {
        obs::LogLevel Level;
        if (!obs::logLevelFromName(V, Level))
          return false;
        obs::setLogLevel(Level);
        return true;
      },
      "structured-log threshold (debug|info|warn|error|off)");
  Cli.option(
      "--log-file", "PATH",
      [](const char *V) { return obs::setLogSinkPath(V).ok(); },
      "append JSON log lines to PATH instead of stderr");
  Cli.flagOff("--no-prune", Options.PruneRedundantLogging,
              "keep redundant logging (disable the pruning pass)");
  Cli.flag("--json", Json,
           "print per-kernel instrumentation statistics as JSON");
  Cli.flag("--line-table", LineTable,
           "dump the pc -> PTX source line map per kernel");
  if (!Cli.parse(ArgCount, Args))
    return 2;
  std::string File = Cli.positional();

  std::ifstream Input(File);
  if (!Input) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 2;
  }
  std::ostringstream Buffer;
  Buffer << Input.rdbuf();

  ptx::Parser Parser(Buffer.str());
  std::unique_ptr<ptx::Module> Mod = Parser.parseModule();
  if (!Mod) {
    std::fprintf(stderr, "parse error: %s\n", Parser.error().c_str());
    return 2;
  }
  // The instrumenter and the lowering assume a verified module (a
  // branch without a target would be dereferenced), exactly as
  // barracuda-run's Session::loadModule guarantees.
  std::vector<std::string> Diags = ptx::verifyModule(*Mod);
  for (const std::string &Diag : Diags)
    std::fprintf(stderr, "error: %s\n", Diag.c_str());
  if (!Diags.empty())
    return 2;

  instrument::ModuleInstrumentation Instr =
      instrument::instrumentModule(*Mod, Options);

  if (LineTable) {
    // The pc column is valid for the lowered micro-op path: lowering
    // keeps one uop per instruction at the same index, so profiler PCs
    // join against this table unchanged.
    // The summary comment proves it per kernel (uop count == static
    // insns, every uop carries its own index as Pc).
    for (size_t KI = 0; KI != Mod->Kernels.size(); ++KI) {
      const ptx::Kernel &K = Mod->Kernels[KI];
      std::printf("# kernel %s\n", K.Name.c_str());
      std::unique_ptr<sim::LoweredKernel> Low =
          sim::lowerKernel(*Mod, K, &Instr.Kernels[KI]);
      bool Identity = Low->Uops.size() == K.Body.size();
      for (size_t Pc = 0; Identity && Pc != Low->Uops.size(); ++Pc)
        Identity = Low->Uops[Pc].Pc == Pc;
      std::printf("# lowered %zu uops (pc map: %s), %u fused pairs, "
                  "%u fused setp+bra\n",
                  Low->Uops.size(), Identity ? "identity" : "BROKEN",
                  Low->FusedPairs, Low->FusedBranches);
      for (size_t Pc = 0; Pc != K.Body.size(); ++Pc)
        std::printf("%zu %u\n", Pc, K.Body[Pc].Line);
    }
    return 0;
  }

  if (Json) {
    support::json::Writer W;
    W.beginObject();
    W.key("kernels").beginArray();
    for (size_t KI = 0; KI != Mod->Kernels.size(); ++KI) {
      const instrument::InstrumentationStats &Stats =
          Instr.Kernels[KI].Stats;
      W.beginObject();
      W.key("name").value(Mod->Kernels[KI].Name);
      W.key("staticInsns").value(Stats.StaticInsns);
      W.key("instrumentedUnoptimized")
          .value(Stats.InstrumentedUnoptimized);
      W.key("instrumentedOptimized").value(Stats.InstrumentedOptimized);
      W.key("unoptimizedFraction").value(Stats.unoptimizedFraction());
      W.key("optimizedFraction").value(Stats.optimizedFraction());
      W.endObject();
    }
    W.endArray();
    W.endObject();
    std::printf("%s\n", W.take().c_str());
    return 0;
  }

  for (size_t KI = 0; KI != Mod->Kernels.size(); ++KI) {
    const ptx::Kernel &K = Mod->Kernels[KI];
    const instrument::KernelInstrumentation &Annotations =
        Instr.Kernels[KI];
    std::printf("// kernel %s\n", K.Name.c_str());
    for (size_t Index = 0; Index != K.Body.size(); ++Index) {
      const instrument::InsnAnnotation &Note = Annotations.Insns[Index];
      std::string Tag;
      if (Note.Action != instrument::LogActionKind::None) {
        Tag = instrument::logActionName(Note.Action);
        if (Note.Action == instrument::LogActionKind::Acquire ||
            Note.Action == instrument::LogActionKind::Release ||
            Note.Action == instrument::LogActionKind::AcquireRelease)
          Tag += Note.Scope == trace::SyncScope::Global ? " (global)"
                                                        : " (block)";
        if (Note.Action == instrument::LogActionKind::Branch)
          Tag += support::formatString(" reconv=%u", Note.ReconvPc);
        if (Note.Pruned)
          Tag += " [pruned]";
      }
      std::printf("%4zu  %-50s %s%s%s\n", Index,
                  ptx::printInstruction(*Mod, K, K.Body[Index]).c_str(),
                  Tag.empty() ? "" : "// ", Tag.c_str(),
                  Note.logs() ? " *" : "");
    }
    const instrument::InstrumentationStats &Stats = Annotations.Stats;
    std::printf("// %llu static insns, instrumented %llu (%.1f%%), "
                "%llu before pruning (%.1f%%)\n\n",
                static_cast<unsigned long long>(Stats.StaticInsns),
                static_cast<unsigned long long>(
                    Stats.InstrumentedOptimized),
                100.0 * Stats.optimizedFraction(),
                static_cast<unsigned long long>(
                    Stats.InstrumentedUnoptimized),
                100.0 * Stats.unoptimizedFraction());
  }
  return 0;
}
