//===- barracuda-run.cpp - command-line race checker ------------------------===//
//
// The end-user entry point: load a PTX file, launch a kernel under the
// full BARRACUDA pipeline, and report the races found. This is the
// reproduction's analogue of running an application under the paper's
// LD_PRELOAD shared library.
//
// Usage:
//   barracuda-run FILE.ptx [options]
//     --kernel NAME        kernel to launch (default: first in module)
//     --grid X[,Y[,Z]]     grid dimensions      (default: 1)
//     --block X[,Y[,Z]]    block dimensions     (default: 32)
//     --param buf:BYTES    allocate a zeroed device buffer parameter
//     --param val:N        pass a scalar parameter
//     --warp-size N        simulate a smaller warp (default: 32)
//     --queues N           device-to-host queues (default: 4)
//     --shadow-shards N    address-range shadow shards (default 0 =
//                          one per detector worker; 1 = single-table)
//     --repeat N           launch the kernel N times (default: 1); the
//                          persistent engine pool is reused across runs
//     --streams M          spread repeats across M concurrent streams
//     --native             run natively (no instrumentation/detection)
//     --stats              print run statistics (RunReport text form,
//                          including the hot-PC profile tables)
//     --json               print the RunReport document to stdout
//     --trace-json OUT     write a Chrome Trace Event file (Perfetto)
//     --profile-folded OUT write folded stacks (flamegraph.pl input)
//     --no-profile         disable continuous profiling entirely
//     --metrics-out DIR    write live Prometheus snapshots into DIR
//     --metrics-interval MS  sampling period for --metrics-out
//                          (default: 1000)
//     --record TRACE.bct   record the trace for barracuda-replay
//     --inject SPEC        arm a deterministic fault: kind[@N][:q=Q]
//                          (kernel-spin, barrier-hang, queue-stall,
//                          consumer-death, worker-throw, bitflip,
//                          truncate); repeatable
//     --watchdog N         abort a hung kernel after N warp
//                          instructions (default: 500M)
//     --expect-races       exit 0 iff races were found (for testing)
//
// Exit code: 0 = clean (or expected races found), 1 = races/errors
// found (or expected races missing), 2 = usage/launch failure.
//
//===----------------------------------------------------------------------===//

#include "barracuda/Session.h"
#include "obs/Trace.h"
#include "obs/Log.h"
#include "support/Cli.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace barracuda;

namespace {

bool parseDim(const char *Text, sim::Dim3 &Out) {
  unsigned X = 1, Y = 1, Z = 1;
  int Count = std::sscanf(Text, "%u,%u,%u", &X, &Y, &Z);
  if (Count < 1 || X == 0 || Y == 0 || Z == 0)
    return false;
  Out = sim::Dim3(X, Y, Z);
  return true;
}

struct ParamArg {
  bool IsBuffer = false;
  uint64_t Value = 0; // bytes for buffers, value for scalars
};

} // namespace

int main(int ArgCount, char **Args) {
  std::string KernelName, TraceJsonPath, FoldedPath;
  sim::Dim3 Grid(1), Block(32);
  std::vector<ParamArg> Params;
  SessionOptions Options;
  bool Stats = false, ExpectRaces = false, Json = false;
  unsigned Repeat = 1, NumStreams = 1;

  support::cli::Parser Cli("barracuda-run", "FILE.ptx");
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
  Cli.stringOption("--kernel", "NAME", KernelName,
                   "kernel to launch (default: first in module)");
  Cli.option(
      "--grid", "X[,Y[,Z]]",
      [&](const char *V) { return parseDim(V, Grid); }, "grid dimensions");
  Cli.option(
      "--block", "X[,Y[,Z]]",
      [&](const char *V) { return parseDim(V, Block); },
      "block dimensions");
  Cli.repeatedOption(
      "--param", "buf:BYTES|val:N",
      [&](const char *V) {
        ParamArg Param;
        if (std::strncmp(V, "buf:", 4) == 0)
          Param.IsBuffer = true;
        else if (std::strncmp(V, "val:", 4) != 0)
          return false;
        Param.Value = std::strtoull(V + 4, nullptr, 0);
        Params.push_back(Param);
        return true;
      },
      "device buffer or scalar kernel parameter");
  Cli.option(
      "--warp-size", "N",
      [&](const char *V) {
        Options.WarpSize =
            static_cast<uint32_t>(std::strtoul(V, nullptr, 10));
        return Options.WarpSize != 0;
      },
      "simulated warp width");
  Cli.uintOption("--queues", "N", Options.NumQueues,
                 "device-to-host queues");
  Cli.uintOption("--shadow-shards", "N", Options.ShadowShards,
                 "address-range shadow shards (0 = one per worker, "
                 "1 = single-table)");
  Cli.uintOption("--repeat", "N", Repeat, "launch the kernel N times");
  Cli.uintOption("--streams", "M", NumStreams,
                 "spread repeats across M concurrent streams");
  Cli.stringOption("--record", "TRACE.bct", Options.RecordTracePath,
                   "record the trace for barracuda-replay");
  Cli.repeatedOption(
      "--inject", "KIND[@N][:q=Q]",
      [&](const char *V) {
        support::Status Added = Options.Faults.add(V);
        if (!Added.ok())
          std::fprintf(stderr, "error: %s\n", Added.describe().c_str());
        return Added.ok();
      },
      "arm a deterministic fault (kernel-spin, barrier-hang, "
      "queue-stall, consumer-death, worker-throw, bitflip, truncate)");
  Cli.option(
      "--watchdog", "N",
      [&](const char *V) {
        Options.Machine.MaxWarpInstructions =
            std::strtoull(V, nullptr, 0);
        return Options.Machine.MaxWarpInstructions != 0;
      },
      "abort a hung kernel after N warp instructions");
  Cli.flagOff("--native", Options.Instrument,
              "run natively (no instrumentation/detection)");
  Cli.flag("--stats", Stats, "print run statistics");
  Cli.flag("--json", Json, "print the RunReport document to stdout");
  Cli.stringOption("--trace-json", "OUT", TraceJsonPath,
                   "write a Chrome Trace Event file (Perfetto)");
  Cli.stringOption("--profile-folded", "OUT", FoldedPath,
                   "write folded stacks (flamegraph.pl input)");
  Cli.flagOff("--no-profile", Options.Profile,
              "disable continuous profiling entirely");
  Cli.stringOption("--metrics-out", "DIR", Options.MetricsOutDir,
                   "write live Prometheus snapshots into DIR");
  Cli.uintOption("--metrics-interval", "MS", Options.MetricsIntervalMs,
                 "sampling period for --metrics-out (ms)");
  Cli.flag("--expect-races", ExpectRaces,
           "exit 0 iff races were found (for testing)");
  if (!Cli.parse(ArgCount, Args))
    return 2;
  std::string File = Cli.positional();
  if (Repeat == 0)
    Repeat = 1;
  if (NumStreams == 0)
    NumStreams = 1;

  std::ifstream Input(File);
  if (!Input) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return 2;
  }
  std::ostringstream Buffer;
  Buffer << Input.rdbuf();

  obs::TraceRecorder Tracer;
  if (!TraceJsonPath.empty())
    Options.Tracer = &Tracer;

  Session S(Options);
  if (!S.loadModule(Buffer.str())) {
    std::fprintf(stderr, "error: %s\n", S.error().c_str());
    return 2;
  }
  if (KernelName.empty())
    KernelName = S.module().Kernels.front().Name;

  std::vector<uint64_t> LaunchParams;
  for (const ParamArg &Param : Params)
    LaunchParams.push_back(Param.IsBuffer ? S.alloc(Param.Value)
                                          : Param.Value);

  // --json keeps stdout pure: the RunReport document is the only thing
  // written there, so the output pipes straight into a JSON parser.
  std::FILE *Chat = Json ? stderr : stdout;
  std::fprintf(Chat, "barracuda-run: %s::%s <<<(%u,%u,%u),(%u,%u,%u)>>>%s\n",
               File.c_str(), KernelName.c_str(), Grid.X, Grid.Y, Grid.Z,
               Block.X, Block.Y, Block.Z,
               Options.Instrument ? "" : " [native]");
  if (Repeat > 1)
    std::fprintf(Chat, "repeating %u launches on %u stream%s\n", Repeat,
                 NumStreams, NumStreams == 1 ? "" : "s");

  sim::LaunchResult Last;
  support::Status LaunchError;
  if (NumStreams > 1 && Options.Instrument) {
    // Round-robin the repeats over concurrent streams; every launch
    // leases an epoch from the session's one persistent engine.
    std::vector<runtime::Stream *> Lanes;
    for (unsigned I = 0; I != NumStreams; ++I)
      Lanes.push_back(&S.createStream());
    std::vector<std::future<support::Result<sim::LaunchResult>>> Futures;
    for (unsigned I = 0; I != Repeat; ++I)
      Futures.push_back(S.launchKernelAsync(*Lanes[I % NumStreams],
                                            KernelName, Grid, Block,
                                            LaunchParams));
    for (auto &Future : Futures) {
      support::Result<sim::LaunchResult> One = Future.get();
      if (One.ok())
        Last = One.value();
      else if (LaunchError.ok())
        LaunchError = One.status();
    }
  } else {
    for (unsigned I = 0; I != Repeat && LaunchError.ok(); ++I) {
      support::Result<sim::LaunchResult> One =
          S.launchKernel(KernelName, Grid, Block, LaunchParams);
      if (One.ok())
        Last = One.value();
      else
        LaunchError = One.status();
    }
  }
  if (!LaunchError.ok()) {
    // Execution failures fold the faulting pc into the message.
    std::fprintf(stderr, "launch failed: %s\n",
                 LaunchError.describe().c_str());
    if (Json) // still emit the structured document for tooling
      std::fputs(S.report().toJson().c_str(), stdout);
    return 2;
  }
  std::fprintf(Chat, "%llu threads, %llu warp instructions, %llu records\n",
               static_cast<unsigned long long>(Last.ThreadsLaunched),
               static_cast<unsigned long long>(Last.WarpInstructions),
               static_cast<unsigned long long>(Last.RecordsLogged));

  RunReport Report = S.report();

  if (Json) {
    std::fputs(Report.toJson().c_str(), stdout);
  } else {
    for (const auto &Race : Report.Races)
      std::printf("RACE: %s\n", Race.describe().c_str());
    for (const auto &Error : Report.BarrierErrors)
      std::printf(
          "BARRIER DIVERGENCE: pc %u warp %u active 0x%x of 0x%x "
          "(%llu occurrences)\n",
          Error.Pc, Error.Warp, Error.ActiveMask, Error.ResidentMask,
          static_cast<unsigned long long>(Error.Count));
  }

  if (Stats && Options.Instrument)
    Report.printText(Chat);

  if (!TraceJsonPath.empty()) {
    if (!Tracer.write(TraceJsonPath)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   TraceJsonPath.c_str());
      return 2;
    }
    std::fprintf(Chat, "trace written to %s (%zu events on %zu tracks; "
                 "load in ui.perfetto.dev)\n",
                 TraceJsonPath.c_str(), Tracer.eventCount(),
                 Tracer.trackCount());
  }

  if (!FoldedPath.empty()) {
    std::ofstream Folded(FoldedPath);
    if (!Folded) {
      std::fprintf(stderr, "error: cannot write folded stacks '%s'\n",
                   FoldedPath.c_str());
      return 2;
    }
    Folded << Report.foldedStacks();
    std::fprintf(Chat,
                 "folded stacks written to %s (pipe into flamegraph.pl)\n",
                 FoldedPath.c_str());
  }

  bool Found = Report.anyFindings();
  if (!Found && !Json)
    std::printf("no races detected\n");
  if (ExpectRaces)
    return Found ? 0 : 1;
  return Found ? 1 : 0;
}
