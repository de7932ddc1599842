//===- ObsTest.cpp - observability layer -----------------------------------===//
//
// The observability layer's contract: log2 histogram bucketing at its
// edges, counters that survive concurrent increments, a registry whose
// instruments have stable addresses across reset(), trace output that is
// well-formed Chrome Trace Event JSON, and a RunReport document whose
// schema round-trips through a parser.
//
//===----------------------------------------------------------------------===//

#include "barracuda/RunReport.h"
#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Cli.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace barracuda;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON parser — just enough to verify well-formedness and read
// back values the writers emitted. Throws std::runtime_error on garbage.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool Bool_ = false;
  double Number = 0;
  std::string Str;
  std::vector<JsonValue> Array;
  std::map<std::string, JsonValue> Object;

  const JsonValue &at(const std::string &Key) const {
    auto It = Object.find(Key);
    if (It == Object.end())
      throw std::runtime_error("missing key " + Key);
    return It->second;
  }
  bool has(const std::string &Key) const {
    return Object.count(Key) != 0;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  JsonValue parse() {
    JsonValue Value = parseValue();
    skipSpace();
    if (Pos != Text.size())
      throw std::runtime_error("trailing content");
    return Value;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  char peek() {
    skipSpace();
    if (Pos >= Text.size())
      throw std::runtime_error("unexpected end");
    return Text[Pos];
  }

  void expect(char C) {
    if (peek() != C)
      throw std::runtime_error(std::string("expected ") + C);
    ++Pos;
  }

  bool consume(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  JsonValue parseValue() {
    char C = peek();
    JsonValue Value;
    if (C == '{') {
      ++Pos;
      Value.K = JsonValue::Kind::Object;
      if (peek() == '}') {
        ++Pos;
        return Value;
      }
      while (true) {
        std::string Key = parseString();
        expect(':');
        Value.Object[Key] = parseValue();
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        expect('}');
        return Value;
      }
    }
    if (C == '[') {
      ++Pos;
      Value.K = JsonValue::Kind::Array;
      if (peek() == ']') {
        ++Pos;
        return Value;
      }
      while (true) {
        Value.Array.push_back(parseValue());
        if (peek() == ',') {
          ++Pos;
          continue;
        }
        expect(']');
        return Value;
      }
    }
    if (C == '"') {
      Value.K = JsonValue::Kind::String;
      Value.Str = parseString();
      return Value;
    }
    skipSpace();
    if (consume("true")) {
      Value.K = JsonValue::Kind::Bool;
      Value.Bool_ = true;
      return Value;
    }
    if (consume("false")) {
      Value.K = JsonValue::Kind::Bool;
      return Value;
    }
    if (consume("null"))
      return Value;
    // Number.
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos)
      throw std::runtime_error("bad value");
    Value.K = JsonValue::Kind::Number;
    Value.Number = std::stod(Text.substr(Pos, End - Pos));
    Pos = End;
    return Value;
  }

  std::string parseString() {
    expect('"');
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        throw std::runtime_error("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C == '\\') {
        if (Pos >= Text.size())
          throw std::runtime_error("bad escape");
        char E = Text[Pos++];
        switch (E) {
        case 'n':
          Out += '\n';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u':
          if (Pos + 4 > Text.size())
            throw std::runtime_error("bad \\u escape");
          Pos += 4;
          Out += '?';
          break;
        default:
          Out += E;
          break;
        }
        continue;
      }
      Out += C;
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

JsonValue parseJson(const std::string &Text) {
  return JsonParser(Text).parse();
}

//===----------------------------------------------------------------------===//
// Histogram bucketing
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketEdges) {
  using obs::Histogram;
  // Bucket = bit width: 0 is alone, then [2^(k-1), 2^k) shares bucket k.
  EXPECT_EQ(Histogram::bucketFor(0), 0u);
  EXPECT_EQ(Histogram::bucketFor(1), 1u);
  EXPECT_EQ(Histogram::bucketFor(2), 2u);
  EXPECT_EQ(Histogram::bucketFor(3), 2u);
  EXPECT_EQ(Histogram::bucketFor(4), 3u);
  EXPECT_EQ(Histogram::bucketFor(7), 3u);
  EXPECT_EQ(Histogram::bucketFor(8), 4u);
  EXPECT_EQ(Histogram::bucketFor((1ULL << 32) - 1), 32u);
  EXPECT_EQ(Histogram::bucketFor(1ULL << 32), 33u);
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), 64u);
  static_assert(Histogram::NumBuckets == 65,
                "one bucket per bit width plus zero");

  // Lower bounds invert bucketFor at every edge.
  EXPECT_EQ(Histogram::bucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::bucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::bucketLowerBound(3), 4u);
  EXPECT_EQ(Histogram::bucketLowerBound(64), 1ULL << 63);
  for (unsigned I = 0; I != Histogram::NumBuckets; ++I)
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketLowerBound(I)), I);
}

TEST(Histogram, CountsAndSum) {
  obs::Histogram H;
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(5);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 11u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(3), 2u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
}

//===----------------------------------------------------------------------===//
// Counters, gauges, registry
//===----------------------------------------------------------------------===//

TEST(Metrics, ConcurrentCounterIncrements) {
  // Run under the TSan preset too: relaxed atomic adds must neither race
  // nor lose increments.
  obs::Registry Registry;
  obs::Counter &C = Registry.counter("test.hits");
  obs::Histogram &H = Registry.histogram("test.sizes");
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 100000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&C, &H] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        C.add();
        H.record(I & 1023);
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), NumThreads * PerThread);
  EXPECT_EQ(H.count(), NumThreads * PerThread);
}

TEST(Metrics, RegistryStableAddressesAcrossReset) {
  obs::Registry Registry;
  obs::Counter *C = &Registry.counter("a.counter");
  obs::Gauge *G = &Registry.gauge("a.gauge");
  obs::Histogram *H = &Registry.histogram("a.histogram");
  C->add(7);
  G->set(-3);
  H->record(42);
  // Same name returns the same instrument.
  EXPECT_EQ(&Registry.counter("a.counter"), C);
  EXPECT_EQ(&Registry.gauge("a.gauge"), G);
  EXPECT_EQ(&Registry.histogram("a.histogram"), H);
  Registry.reset();
  // Reset zeroes values but cached pointers stay usable.
  EXPECT_EQ(C->value(), 0u);
  EXPECT_EQ(G->value(), 0);
  EXPECT_EQ(H->count(), 0u);
  C->add(1);
  EXPECT_EQ(Registry.counter("a.counter").value(), 1u);
}

TEST(Metrics, GaugeMax) {
  obs::Gauge G;
  G.updateMax(5);
  G.updateMax(3);
  EXPECT_EQ(G.value(), 5);
  G.updateMax(9);
  EXPECT_EQ(G.value(), 9);
}

TEST(Metrics, SnapshotAndJson) {
  obs::Registry Registry;
  Registry.counter("z.last").add(2);
  Registry.counter("a.first").add(1);
  Registry.histogram("m.hist").record(10);
  std::vector<obs::MetricSample> Samples = Registry.snapshot();
  ASSERT_EQ(Samples.size(), 3u);
  // Name-sorted.
  EXPECT_EQ(Samples[0].Name, "a.first");
  EXPECT_EQ(Samples[2].Name, "z.last");

  support::json::Writer W;
  Registry.writeJson(W);
  JsonValue Doc = parseJson(W.take());
  EXPECT_EQ(Doc.at("a.first").Number, 1.0);
  EXPECT_EQ(Doc.at("z.last").Number, 2.0);
  EXPECT_EQ(Doc.at("m.hist").at("count").Number, 1.0);
  EXPECT_EQ(Doc.at("m.hist").at("sum").Number, 10.0);
}

//===----------------------------------------------------------------------===//
// Trace recorder
//===----------------------------------------------------------------------===//

TEST(Trace, WellFormedChromeTraceJson) {
  obs::TraceRecorder Recorder;
  uint32_t Worker = Recorder.track("engine worker 0");
  uint32_t Device = Recorder.track("device");
  EXPECT_NE(Worker, Device);
  // Track registration dedupes by name.
  EXPECT_EQ(Recorder.track("device"), Device);

  Recorder.complete(Device, "execute k", "sim", 10, 250);
  Recorder.complete(Worker, "drain 1", "engine", 20, 40);
  Recorder.instant(Worker, "wake", "engine");
  {
    obs::Span S(&Recorder, Device, "drain k", "session");
  }
  EXPECT_EQ(Recorder.eventCount(), 4u);

  JsonValue Doc = parseJson(Recorder.json());
  const std::vector<JsonValue> &Events = Doc.at("traceEvents").Array;
  // 2 thread_name metadata events + 4 recorded events.
  ASSERT_EQ(Events.size(), 6u);
  unsigned Metadata = 0, Complete = 0, Instant = 0;
  for (const JsonValue &Event : Events) {
    const std::string &Phase = Event.at("ph").Str;
    if (Phase == "M") {
      ++Metadata;
      EXPECT_EQ(Event.at("name").Str, "thread_name");
      EXPECT_TRUE(Event.at("args").has("name"));
    } else if (Phase == "X") {
      ++Complete;
      EXPECT_TRUE(Event.has("dur"));
      EXPECT_GE(Event.at("dur").Number, 0.0);
    } else if (Phase == "i") {
      ++Instant;
    }
    EXPECT_TRUE(Event.has("pid"));
    EXPECT_TRUE(Event.has("tid"));
  }
  EXPECT_EQ(Metadata, 2u);
  EXPECT_EQ(Complete, 3u);
  EXPECT_EQ(Instant, 1u);
}

TEST(Trace, NullRecorderSpansAreFree) {
  // The disabled path: no recorder, no events, no crashes.
  obs::Span S(nullptr, 0, "nothing", "nowhere");
  S.close();
  S.close();
}

TEST(Trace, NegativeDurationClamped) {
  obs::TraceRecorder Recorder;
  uint32_t T = Recorder.track("t");
  Recorder.complete(T, "backwards", "test", 100, 50);
  JsonValue Doc = parseJson(Recorder.json());
  for (const JsonValue &Event : Doc.at("traceEvents").Array)
    if (Event.at("ph").Str == "X") {
      EXPECT_EQ(Event.at("dur").Number, 0.0);
    }
}

//===----------------------------------------------------------------------===//
// Request-scoped tracing
//===----------------------------------------------------------------------===//

TEST(Trace, RequestSpanTreeAndFlows) {
  obs::TraceRecorder Recorder;
  uint32_t Serve = Recorder.track("serve");
  uint32_t Session = Recorder.track("session 0");
  const uint64_t Request = 42;

  uint64_t FrameId = 0, LaunchId = 0;
  {
    obs::Span Frame(&Recorder, Serve, "frame launch (a)", "serve", Request,
                    0);
    FrameId = Frame.spanId();
    ASSERT_NE(FrameId, 0u);
    Recorder.flow('s', Serve, "request", "serve", Request);
    {
      obs::Span Launch(&Recorder, Session, "launch k", "session", Request,
                       FrameId);
      LaunchId = Launch.spanId();
      ASSERT_NE(LaunchId, 0u);
      ASSERT_NE(LaunchId, FrameId);
      Recorder.flow('t', Session, "request", "serve", Request);
    }
    Recorder.flow('f', Serve, "request", "serve", Request);
  }
  Recorder.finishRequest(Request, /*Keep=*/true);
  EXPECT_TRUE(Recorder.hasRequest(Request));

  JsonValue Tree = parseJson(Recorder.requestValue(Request).dump());
  EXPECT_EQ(Tree.at("requestId").Number, 42.0);
  const std::vector<JsonValue> &Spans = Tree.at("spans").Array;
  ASSERT_EQ(Spans.size(), 2u);
  // Start-time ordered: the frame opened first.
  EXPECT_EQ(Spans[0].at("spanId").Number, static_cast<double>(FrameId));
  EXPECT_EQ(Spans[0].at("parentId").Number, 0.0);
  EXPECT_EQ(Spans[1].at("spanId").Number, static_cast<double>(LaunchId));
  EXPECT_EQ(Spans[1].at("parentId").Number, static_cast<double>(FrameId));
  EXPECT_EQ(Tree.at("flows").Array.size(), 3u);

  // Flow events render with the request id as the flow id, and the
  // finishing edge binds to the enclosing slice ("bp":"e").
  JsonValue Doc = parseJson(Recorder.json());
  unsigned FlowStart = 0, FlowFinish = 0;
  for (const JsonValue &Event : Doc.at("traceEvents").Array) {
    const std::string &Phase = Event.at("ph").Str;
    if (Phase == "s") {
      ++FlowStart;
      EXPECT_EQ(Event.at("id").Number, 42.0);
    } else if (Phase == "f") {
      ++FlowFinish;
      EXPECT_EQ(Event.at("bp").Str, "e");
    }
  }
  EXPECT_EQ(FlowStart, 1u);
  EXPECT_EQ(FlowFinish, 1u);
}

TEST(Trace, FinishRequestDiscardsUnsampled) {
  obs::TraceRecorder Recorder;
  uint32_t T = Recorder.track("serve");
  {
    obs::Span S(&Recorder, T, "frame", "serve", 7, 0);
  }
  Recorder.flow('s', T, "request", "serve", 7);
  EXPECT_TRUE(Recorder.hasRequest(7));
  Recorder.finishRequest(7, /*Keep=*/false);
  EXPECT_FALSE(Recorder.hasRequest(7));
  EXPECT_EQ(Recorder.requestValue(7).get("spans")->items().size(), 0u);
  // Uncorrelated events are untouched by per-request retirement.
  Recorder.complete(T, "background", "serve", 1, 2);
  Recorder.finishRequest(99, false);
  EXPECT_EQ(Recorder.eventCount(), 1u);
}

TEST(Trace, RetentionBoundsEventCount) {
  obs::TraceRecorder Recorder;
  uint32_t T = Recorder.track("t");
  Recorder.setRetention(64);
  for (uint64_t I = 0; I != 1000; ++I)
    Recorder.complete(T, "e", "test", I, I + 1);
  EXPECT_LE(Recorder.eventCount(), 64u);
  // The survivors are the newest events.
  JsonValue Doc = parseJson(Recorder.json());
  for (const JsonValue &Event : Doc.at("traceEvents").Array)
    if (Event.at("ph").Str == "X")
      EXPECT_GE(Event.at("ts").Number, 900.0);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, ExactCapacityRetainsEverything) {
  obs::FlightRecorder Flight(1, 8);
  EXPECT_EQ(Flight.ringCapacity(), 8u);
  for (unsigned I = 0; I != 8; ++I)
    Flight.record(0, obs::FlightCode::LeaseOpen, static_cast<uint16_t>(I),
                  100 + I, 1000 + I, I, 2 * I);
  EXPECT_EQ(Flight.recorded(), 8u);
  std::vector<obs::FlightEvent> Events = Flight.snapshot();
  ASSERT_EQ(Events.size(), 8u);
  for (unsigned I = 0; I != 8; ++I) {
    EXPECT_EQ(Events[I].Seq, I + 1);
    EXPECT_EQ(Events[I].Worker, I);
    EXPECT_EQ(Events[I].Epoch, 100 + I);
    EXPECT_EQ(Events[I].RequestId, 1000 + I);
    EXPECT_EQ(Events[I].A, I);
    EXPECT_EQ(Events[I].B, 2 * I);
    EXPECT_EQ(static_cast<obs::FlightCode>(Events[I].Code),
              obs::FlightCode::LeaseOpen);
  }
}

TEST(FlightRecorder, WraparoundKeepsNewest) {
  obs::FlightRecorder Flight(1, 8);
  for (unsigned I = 0; I != 20; ++I)
    Flight.record(0, obs::FlightCode::RecordsDropped, 0, 0, 0, I);
  EXPECT_EQ(Flight.recorded(), 20u);
  std::vector<obs::FlightEvent> Events = Flight.snapshot();
  ASSERT_EQ(Events.size(), 8u);
  // Exactly the last 8, in sequence order.
  for (unsigned I = 0; I != 8; ++I) {
    EXPECT_EQ(Events[I].Seq, 13 + I);
    EXPECT_EQ(Events[I].A, 12 + I);
  }
}

TEST(FlightRecorder, CapacityRoundsUpAndRingClamps) {
  obs::FlightRecorder Flight(2, 5);
  EXPECT_EQ(Flight.ringCapacity(), 8u); // next power of two
  EXPECT_EQ(Flight.ringCount(), 2u);
  // An out-of-range ring index lands on the last ring, not UB.
  Flight.record(99, obs::FlightCode::Custom, 0, 0, 0);
  std::vector<obs::FlightEvent> Events = Flight.snapshot();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Ring, 1u);
}

TEST(FlightRecorder, ConcurrentWritersAndSnapshots) {
  // TSan-relevant: writers on every ring race snapshot() and must never
  // produce a torn event (a slot is either skipped or fully consistent:
  // we stamp A == Seq and check the invariant on every snapshot).
  obs::FlightRecorder Flight(4, 32);
  std::vector<std::thread> Writers;
  for (unsigned Ring = 0; Ring != 4; ++Ring)
    Writers.emplace_back([&Flight, Ring] {
      for (unsigned I = 0; I != 20000; ++I)
        Flight.record(Ring, obs::FlightCode::SyncMarker,
                      static_cast<uint16_t>(Ring), I, 0);
    });
  for (unsigned Round = 0; Round != 50; ++Round) {
    std::vector<obs::FlightEvent> Events = Flight.snapshot();
    uint64_t LastSeq = 0;
    for (const obs::FlightEvent &E : Events) {
      EXPECT_GT(E.Seq, LastSeq); // sorted, unique
      LastSeq = E.Seq;
      EXPECT_LT(E.Ring, 4u);
    }
  }
  for (auto &W : Writers)
    W.join();
  EXPECT_EQ(Flight.recorded(), 4u * 20000u);
}

TEST(FlightRecorder, DumpToIsParseableText) {
  obs::FlightRecorder Flight(1, 8);
  Flight.record(0, obs::FlightCode::WorkerFailure, 3, 7, 99, 1, 2);
  std::string Path = ::testing::TempDir() + "flight-dump.txt";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  Flight.dumpTo(fileno(F));
  std::fclose(F);
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();
  EXPECT_NE(Text.find("seq="), std::string::npos);
  EXPECT_NE(Text.find("worker-failure"), std::string::npos);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Structured logger
//===----------------------------------------------------------------------===//

/// Restores global logger state (level, sink, rate limit) on scope exit
/// so log tests cannot leak configuration into each other.
struct LogStateGuard {
  ~LogStateGuard() {
    obs::resetLogSink();
    obs::setLogLevel(obs::LogLevel::Warn);
    obs::setLogRateLimit(1000);
  }
};

TEST(Log, JsonLinesWithFields) {
  LogStateGuard Guard;
  std::string Path = ::testing::TempDir() + "obs-log-test.jsonl";
  std::remove(Path.c_str());
  ASSERT_TRUE(obs::setLogSinkPath(Path).ok());
  obs::setLogLevel(obs::LogLevel::Debug);

  obs::Logger Log("test");
  Log.info("hello").kv("n", 7u).kv("name", "x").kv("flag", true);
  Log.error("boom").kv("neg", static_cast<int64_t>(-3)).kv("rate", 0.5);
  obs::resetLogSink(); // flush + close the file sink

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::vector<JsonValue> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(parseJson(Line));
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0].at("level").Str, "info");
  EXPECT_EQ(Lines[0].at("component").Str, "test");
  EXPECT_EQ(Lines[0].at("event").Str, "hello");
  EXPECT_EQ(Lines[0].at("n").Number, 7.0);
  EXPECT_EQ(Lines[0].at("name").Str, "x");
  EXPECT_TRUE(Lines[0].at("flag").Bool_);
  EXPECT_GT(Lines[0].at("ts").Number, 0.0);
  EXPECT_EQ(Lines[1].at("level").Str, "error");
  EXPECT_EQ(Lines[1].at("neg").Number, -3.0);
  EXPECT_EQ(Lines[1].at("rate").Number, 0.5);
  std::remove(Path.c_str());
}

TEST(Log, ThresholdFiltersBelowLevel) {
  LogStateGuard Guard;
  obs::setLogLevel(obs::LogLevel::Error);
  uint64_t InfoBefore = obs::logLinesEmitted(obs::LogLevel::Info);
  uint64_t ErrorBefore = obs::logLinesEmitted(obs::LogLevel::Error);
  obs::Logger Log("test");
  Log.info("dropped").kv("k", 1);
  Log.error("kept");
  EXPECT_EQ(obs::logLinesEmitted(obs::LogLevel::Info), InfoBefore);
  EXPECT_EQ(obs::logLinesEmitted(obs::LogLevel::Error), ErrorBefore + 1);
  EXPECT_FALSE(Log.enabled(obs::LogLevel::Info));
  EXPECT_TRUE(Log.enabled(obs::LogLevel::Error));
}

TEST(Log, RateLimiterDropsAndCounts) {
  LogStateGuard Guard;
  std::string Path = ::testing::TempDir() + "obs-log-rate.jsonl";
  std::remove(Path.c_str());
  ASSERT_TRUE(obs::setLogSinkPath(Path).ok());
  obs::setLogLevel(obs::LogLevel::Debug);
  obs::setLogRateLimit(10);
  uint64_t DroppedBefore = obs::logLinesDropped();
  obs::Logger Log("test");
  for (unsigned I = 0; I != 100; ++I)
    Log.info("spam").kv("i", I);
  EXPECT_GT(obs::logLinesDropped(), DroppedBefore);
  std::remove(Path.c_str());
}

TEST(Log, LevelNamesRoundTrip) {
  using obs::LogLevel;
  for (LogLevel Level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                         LogLevel::Error, LogLevel::Off}) {
    LogLevel Parsed;
    ASSERT_TRUE(obs::logLevelFromName(obs::logLevelName(Level), Parsed));
    EXPECT_EQ(Parsed, Level);
  }
  LogLevel Unused;
  EXPECT_FALSE(obs::logLevelFromName("verbose", Unused));
  EXPECT_FALSE(obs::logLevelFromName("", Unused));
}

//===----------------------------------------------------------------------===//
// RunReport schema
//===----------------------------------------------------------------------===//

TEST(RunReportTest, SchemaRoundTrip) {
  RunReport Report;
  Report.Launch.Kernel = "k";
  Report.Launch.Instrumented = true;
  Report.Launch.ThreadsLaunched = 256;
  Report.Launch.RecordsLogged = 28;
  Report.Records.Processed = 28;
  Report.Records.Memory = 16;
  Report.Detector.HotPath.FastPathHits = 24;
  Report.Detector.Formats.Samples[0] = 16;
  Report.Engine.NumQueues = 4;
  Report.Engine.WatermarkWaitNanos = 12345;
  Report.Static.StaticInsns = 13;
  Report.Static.InstrumentedOptimized = 2;
  detector::RaceReport Race;
  Race.Pc = 9;
  Race.Scope = detector::RaceScopeKind::InterBlock;
  Race.Count = 768;
  Report.Races.push_back(Race);
  support::json::Writer MetricsWriter;
  obs::Registry Registry;
  Registry.counter("detector.fastpath_hits").add(24);
  Registry.writeJson(MetricsWriter);
  Report.MetricsJson = MetricsWriter.take();

  JsonValue Doc = parseJson(Report.toJson());
  EXPECT_EQ(Doc.at("schemaVersion").Number,
            static_cast<double>(RunReport::SchemaVersion));
  EXPECT_EQ(Doc.at("launch").at("kernel").Str, "k");
  EXPECT_TRUE(Doc.at("launch").at("instrumented").Bool_);
  EXPECT_EQ(Doc.at("launch").at("threadsLaunched").Number, 256.0);
  EXPECT_EQ(Doc.at("records").at("processed").Number, 28.0);
  EXPECT_EQ(Doc.at("records").at("memory").Number, 16.0);
  EXPECT_EQ(Doc.at("detector").at("fastPathHits").Number, 24.0);
  EXPECT_EQ(Doc.at("detector").at("ptvcFormats").at("converged").Number,
            16.0);
  EXPECT_EQ(Doc.at("engine").at("numQueues").Number, 4.0);
  EXPECT_EQ(Doc.at("engine").at("watermarkWaitNanos").Number, 12345.0);
  EXPECT_EQ(Doc.at("instrumentation").at("staticInsns").Number, 13.0);
  ASSERT_EQ(Doc.at("races").Array.size(), 1u);
  EXPECT_EQ(Doc.at("races").Array[0].at("pc").Number, 9.0);
  EXPECT_EQ(Doc.at("races").Array[0].at("scope").Str, "inter-block");
  EXPECT_EQ(Doc.at("barrierErrors").Array.size(), 0u);
  EXPECT_EQ(Doc.at("metrics").at("detector.fastpath_hits").Number, 24.0);
}

TEST(RunReportTest, BlackboxSectionSerializesWhenCaptured) {
  RunReport Report;
  // Not captured: the section is absent entirely.
  JsonValue Clean = parseJson(Report.toJson());
  EXPECT_FALSE(Clean.has("blackbox"));

  Report.Blackbox.Captured = true;
  Report.Blackbox.Reason = "degraded";
  RunReport::BlackboxSection::Event E;
  E.Seq = 5;
  E.TimeNs = 123456;
  E.Code = "worker-failure";
  E.Ring = 1;
  E.Worker = 2;
  E.Epoch = 9;
  E.RequestId = 77;
  E.A = 3;
  Report.Blackbox.Events.push_back(E);

  JsonValue Doc = parseJson(Report.toJson());
  EXPECT_EQ(Doc.at("schemaVersion").Number, 3.0);
  const JsonValue &Box = Doc.at("blackbox");
  EXPECT_TRUE(Box.at("captured").Bool_);
  EXPECT_EQ(Box.at("reason").Str, "degraded");
  ASSERT_EQ(Box.at("events").Array.size(), 1u);
  const JsonValue &Out = Box.at("events").Array[0];
  EXPECT_EQ(Out.at("seq").Number, 5.0);
  EXPECT_EQ(Out.at("code").Str, "worker-failure");
  EXPECT_EQ(Out.at("worker").Number, 2.0);
  EXPECT_EQ(Out.at("requestId").Number, 77.0);
}

TEST(RunReportTest, TextFormDoesNotCrash) {
  RunReport Report;
  Report.printText(stderr);
}

//===----------------------------------------------------------------------===//
// CLI parser
//===----------------------------------------------------------------------===//

TEST(Cli, FlagsOptionsAndPositional) {
  support::cli::Parser P("tool", "FILE");
  bool Stats = false, Profile = true;
  unsigned Queues = 4;
  std::string Out;
  P.flag("--stats", Stats, "stats");
  P.flagOff("--no-profile", Profile, "profile");
  P.uintOption("--queues", "N", Queues, "queues");
  P.stringOption("--trace-json", "OUT", Out, "trace");
  const char *Args[] = {"tool",     "input.ptx", "--stats",
                        "--queues", "2",         "--trace-json",
                        "t.json",   "--no-profile"};
  ASSERT_TRUE(P.parse(8, const_cast<char **>(Args)));
  EXPECT_TRUE(Stats);
  EXPECT_FALSE(Profile);
  EXPECT_EQ(Queues, 2u);
  EXPECT_EQ(Out, "t.json");
  EXPECT_EQ(P.positional(), "input.ptx");
}

TEST(Cli, RejectsUnknownAndMissing) {
  {
    support::cli::Parser P("tool", "FILE");
    const char *Args[] = {"tool", "f", "--nope"};
    EXPECT_FALSE(P.parse(3, const_cast<char **>(Args)));
  }
  {
    // Missing required positional.
    support::cli::Parser P("tool", "FILE");
    const char *Args[] = {"tool"};
    EXPECT_FALSE(P.parse(1, const_cast<char **>(Args)));
  }
  {
    // Option missing its value.
    support::cli::Parser P("tool", "FILE");
    unsigned N = 0;
    P.uintOption("--queues", "N", N, "queues");
    const char *Args[] = {"tool", "f", "--queues"};
    EXPECT_FALSE(P.parse(3, const_cast<char **>(Args)));
  }
}

} // namespace
