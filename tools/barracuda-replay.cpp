//===- barracuda-replay.cpp - offline race checking of recorded traces -----===//
//
// Race-checks a trace recorded with `barracuda-run --record`. Replaying
// decouples the execution from the analysis, so a trace captured once
// can be re-analyzed (e.g. with a different queue count) without
// re-running the program.
//
// Usage:
//   barracuda-replay TRACE.bct [options]
//     --queues N           detector queues/processors (default: 4)
//     --no-profile         disable detector rule-latency attribution
//     --stats              print run statistics (RunReport text form)
//     --json               print the RunReport document to stdout
//     --trace-json OUT     write a Chrome Trace Event file (Perfetto)
//     --expect-races       exit 0 iff races were found (for testing)
//
//===----------------------------------------------------------------------===//

#include "barracuda/RunReport.h"
#include "detector/Host.h"
#include "obs/Trace.h"
#include "obs/Log.h"
#include "support/Cli.h"
#include "support/Format.h"
#include "trace/TraceFile.h"

#include <cstdio>
#include <string>

using namespace barracuda;

int main(int ArgCount, char **Args) {
  unsigned NumQueues = 4;
  bool ExpectRaces = false, Stats = false, Json = false;
  bool Profile = true;
  std::string TraceJsonPath;

  support::cli::Parser Cli("barracuda-replay", "TRACE.bct");
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
  Cli.uintOption("--queues", "N", NumQueues,
                 "detector queues/processors");
  Cli.flagOff("--no-profile", Profile,
              "disable detector rule-latency attribution");
  Cli.flag("--stats", Stats, "print run statistics");
  Cli.flag("--json", Json, "print the RunReport document to stdout");
  Cli.stringOption("--trace-json", "OUT", TraceJsonPath,
                   "write a Chrome Trace Event file (Perfetto)");
  Cli.flag("--expect-races", ExpectRaces,
           "exit 0 iff races were found (for testing)");
  if (!Cli.parse(ArgCount, Args))
    return 2;
  std::string File = Cli.positional();
  if (NumQueues == 0)
    NumQueues = 1;

  obs::TraceRecorder Tracer;
  obs::TraceRecorder *TracerPtr =
      TraceJsonPath.empty() ? nullptr : &Tracer;
  uint32_t Track = TracerPtr ? TracerPtr->track("replay") : 0;

  trace::TraceReader Reader;
  Reader.setTracer(TracerPtr);
  {
    obs::Span ReadSpan(TracerPtr, Track, "read " + File, "replay");
    support::Status Read = Reader.read(File);
    if (!Read.ok()) {
      std::fprintf(stderr, "error: %s\n", Read.describe().c_str());
      return 2;
    }
  }
  // --json keeps stdout pure: the RunReport document is the only thing
  // written there, so the output pipes straight into a JSON parser.
  std::FILE *Chat = Json ? stderr : stdout;
  const trace::TraceHeader &Header = Reader.header();
  std::fprintf(Chat,
               "barracuda-replay: %s (kernel '%s', %u threads/block, "
               "%u warps/block, warp size %u, %zu records)\n",
               File.c_str(), Header.KernelName.c_str(),
               Header.ThreadsPerBlock, Header.WarpsPerBlock,
               Header.WarpSize, Reader.records().size());
  if (Reader.recordsDropped())
    std::fprintf(Chat,
                 "warning: %llu corrupt record%s skipped "
                 "(%llu resync%s) — findings are best-effort\n",
                 static_cast<unsigned long long>(Reader.recordsDropped()),
                 Reader.recordsDropped() == 1 ? "" : "s",
                 static_cast<unsigned long long>(Reader.resyncs()),
                 Reader.resyncs() == 1 ? "" : "s");

  detector::DetectorOptions Options;
  Options.Hier.ThreadsPerBlock = Header.ThreadsPerBlock;
  Options.Hier.WarpsPerBlock = Header.WarpsPerBlock;
  Options.Hier.WarpSize = Header.WarpSize;
  Options.ProfileRules = Profile;
  detector::SharedDetectorState State(Options);
  {
    obs::Span DetectSpan(TracerPtr, Track,
                         "detect " + Header.KernelName, "replay");
    detector::processCollected(State, NumQueues, Reader.blockIds(),
                               Reader.records());
  }

  // The replay's RunReport: detector sections are fully populated; the
  // launch happened offline, so execution and engine numbers stay zero.
  RunReport Report;
  Report.Launch.Kernel = Header.KernelName;
  Report.Launch.Instrumented = true;
  Report.Launch.RecordsLogged = Reader.records().size();
  Report.fillFromDetector(State);
  Report.Engine.NumQueues = NumQueues;
  Report.Resilience.RecordsDropped = Reader.recordsDropped();
  Report.Resilience.RecordsResynced = Reader.resyncs();
  Report.Resilience.Degraded = Reader.recordsDropped() != 0;
  if (Report.Resilience.Degraded)
    Report.Resilience.FirstError =
        support::Status(support::ErrorCode::RecordCorrupt,
                        "corrupt trace entries skipped during replay")
            .describe();
  Report.Races = State.Reporter.races();
  Report.BarrierErrors = State.Reporter.barrierErrors();
  // Offline replay has no kernel execution profile; the detector's
  // per-rule attribution still makes the section.
  Report.Profile.Enabled = Profile;

  if (Json) {
    std::fputs(Report.toJson().c_str(), stdout);
  } else {
    for (const auto &Race : Report.Races)
      std::printf("RACE: %s\n", Race.describe().c_str());
    for (const auto &Error : Report.BarrierErrors)
      std::printf("BARRIER DIVERGENCE: pc %u warp %u\n", Error.Pc,
                  Error.Warp);
  }

  if (Stats)
    Report.printText(Chat);

  if (!TraceJsonPath.empty()) {
    if (!Tracer.write(TraceJsonPath)) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   TraceJsonPath.c_str());
      return 2;
    }
    std::fprintf(Chat, "trace written to %s (%zu events on %zu tracks)\n",
                 TraceJsonPath.c_str(), Tracer.eventCount(),
                 Tracer.trackCount());
  }

  bool Found = Report.anyFindings();
  if (!Found && !Json)
    std::printf("no races detected\n");
  if (ExpectRaces)
    return Found ? 0 : 1;
  return Found ? 1 : 0;
}
