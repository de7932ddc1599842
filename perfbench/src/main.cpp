//===- main.cpp - the repository benchmark's entry point ------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload table1|table1-serve|syncdense|relaunch|serve-mixed
///           --seed N --seconds S
///           --trace 0|1 [--commit SHA] [--inject-delay-us US]
///
/// Runs one seeded workload through the library's public API, checks
/// every verdict, and prints the run's metrics. The last line of
/// standard output is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "HostSpeed.h"
#include "Spans.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

void injectDelay(double Us) {
  if (Us <= 0)
    return;
  uint64_t Until = nowNs() + static_cast<uint64_t>(Us * 1000.0);
  while (nowNs() < Until) {
  }
}

void Result::fail(const std::string &Why, bool Incorrect) {
  ++Failed;
  if (Incorrect)
    Correct = false;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void Result::metric(const std::string &Name, const std::string &Unit,
                    double Value) {
  Metrics.push_back({Name, Unit, Value, false});
}

void Result::computeMetric(const std::string &Name, const std::string &Unit,
                           double Value) {
  Metrics.push_back({Name, Unit, Value, true});
}

void Result::summary(const std::string &Name, const std::string &Unit,
                     const Summary &S) {
  Summaries.push_back({Name, Unit, S});
}

void Result::note(const std::string &Key, const std::string &Json) {
  Notes.emplace_back(Key, Json);
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I != V.size(); ++I)
    Out += (I ? "," : "") + jsonNumber(V[I]);
  return Out + "]";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void Result::print(const Options &Opts) const {
  const HostSpeed &Speed = hostSpeed();
  const double F = Speed.factor();
  Summary Bursts = Speed.burstsUs();
  std::printf("# host-speed factor %.4f from %zu reference bursts (median "
              "%.1f us); times below are wall times\n",
              F, Bursts.Count, Bursts.Median);
  for (const std::string &Line : Text)
    std::printf("# %s\n", Line.c_str());
  for (const NamedSummary &N : Summaries)
    std::printf("# %-28s n=%-7zu median %-12.6g q1 %-12.6g q3 %-12.6g "
                "p%g %-12.6g %s\n",
                N.Name.c_str(), N.S.Count, N.S.Median, N.S.Q1, N.S.Q3,
                N.S.TailPercentile, N.S.Tail, N.Unit.c_str());
  for (const std::string &Why : Failures)
    std::printf("# FAILED: %s\n", Why.c_str());

  // Context line: host, build, run shape and every summary.
  std::string Ctx = "{\"perfbench\":{";
  Ctx += "\"workload\":" + jsonString(Opts.Workload);
  Ctx += ",\"seed\":" + std::to_string(Opts.Seed);
  Ctx += ",\"seconds\":" + jsonNumber(Opts.Seconds);
  Ctx += ",\"trace\":" + std::string(Opts.Trace ? "true" : "false");
  Ctx += ",\"commit\":" + jsonString(Opts.Commit);
  Ctx += ",\"buildType\":" + jsonString(PERFBENCH_BUILD_TYPE);
  Ctx += ",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency());
  Ctx += ",\"setupReps\":" + std::to_string(SetupReps);
  if (Opts.InjectDelayUs > 0)
    Ctx += ",\"injectDelayUs\":" + jsonNumber(Opts.InjectDelayUs);
  Ctx += ",\"hostSpeed\":{\"factor\":" + jsonNumber(F) +
         ",\"nominalBurstUs\":" +
         jsonNumber(HostSpeed::NominalBurstNs * 1e-3) +
         ",\"bursts\":" + std::to_string(Bursts.Count) +
         ",\"burstUsQ1\":" + jsonNumber(Bursts.Q1) +
         ",\"burstUsMedian\":" + jsonNumber(Bursts.Median) +
         ",\"burstUsQ3\":" + jsonNumber(Bursts.Q3) + "}";
  Ctx += ",\"wallMetrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Ctx += (I ? "," : "") + jsonString(Metrics[I].Name) + ":" +
           jsonNumber(Metrics[I].Value);
  Ctx += "}";
  for (const auto &[Key, Json] : Notes)
    Ctx += "," + jsonString(Key) + ":" + Json;
  Ctx += ",\"summaries\":{";
  for (size_t I = 0; I != Summaries.size(); ++I) {
    const NamedSummary &N = Summaries[I];
    Ctx += (I ? "," : "") + jsonString(N.Name) + ":{";
    Ctx += "\"unit\":" + jsonString(N.Unit);
    Ctx += ",\"count\":" + std::to_string(N.S.Count);
    Ctx += ",\"median\":" + jsonNumber(N.S.Median);
    Ctx += ",\"q1\":" + jsonNumber(N.S.Q1);
    Ctx += ",\"q3\":" + jsonNumber(N.S.Q3);
    Ctx += ",\"tailPercentile\":" + jsonNumber(N.S.TailPercentile);
    Ctx += ",\"tail\":" + jsonNumber(N.S.Tail);
    Ctx += ",\"min\":" + jsonNumber(N.S.Min);
    Ctx += ",\"max\":" + jsonNumber(N.S.Max) + "}";
  }
  Ctx += "}}}";
  std::printf("%s\n", Ctx.c_str());

  std::string Out = "{\"correct\":";
  Out += Correct ? "true" : "false";
  Out += ",\"attempted\":" + std::to_string(Attempted);
  Out += ",\"failed\":" + std::to_string(Failed);
  Out += ",\"metrics\":{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? "," : "") + jsonString(M.Name) + ":{\"value\":" +
           jsonNumber(M.ReferenceTime ? M.Value * F : M.Value) +
           ",\"unit\":" + jsonString(M.Unit) + "}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "table1|table1-serve|syncdense|relaunch|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--inject-delay-us US]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Value, &End, 10);
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Value, &End);
    } else if (Arg == "--trace") {
      Opts.Trace = std::strtoul(Value, &End, 10) != 0;
    } else if (Arg == "--commit") {
      Opts.Commit = Value;
    } else if (Arg == "--inject-delay-us") {
      Opts.InjectDelayUs = std::strtod(Value, &End);
    } else {
      usage(("unknown option " + Arg).c_str());
    }
    if (End && *End)
      usage(("bad value for " + Arg).c_str());
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (!(Opts.Seconds > 0) || Opts.Seconds > 600)
    usage("--seconds must be in (0, 600]");

  // Sample the host before and after the workload as well as between
  // its timed sections, so every run has a host-speed factor.
  constexpr unsigned EdgeBursts = 50;
  hostSpeed().sample(EdgeBursts);
  Result R;
  int Code;
  if (Opts.Workload == "table1")
    Code = runTable1(Opts, R);
  else if (Opts.Workload == "relaunch")
    Code = runRelaunch(Opts, R);
  else if (Opts.Workload == "serve-mixed")
    Code = runServeMixed(Opts, R);
  else if (Opts.Workload == "table1-serve")
    Code = runTable1Serve(Opts, R);
  else if (Opts.Workload == "syncdense")
    Code = runSyncDense(Opts, R);
  else
    usage(("unknown workload " + Opts.Workload).c_str());
  if (Code != 0)
    return Code;
  hostSpeed().sample(EdgeBursts);
  if (R.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  R.print(Opts);
  return 0;
}
