//===- Spans.h - the benchmark's own span recorder --------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded from the benchmark's side of each call into a library
/// layer. Spans live in memory for the whole run and are reduced to
/// per-layer self times at the end: a span's self time is its duration
/// minus the durations of its direct children (children never overlap,
/// since one thread makes every call in turn). Time spent in calls too
/// frequent to span individually, such as the per-record sink, is added
/// as one aggregate child of the span that contains it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "trace/Sink.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
public:
  static constexpr uint32_t NoParent = ~0u;

  /// A disabled recorder records nothing and reads no clock, so the
  /// same code path runs untraced for the tracing-overhead comparison.
  explicit SpanRecorder(bool Enabled = true) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  /// Opens a span named \p Name under \p Parent; returns its id.
  uint32_t open(const char *Name, uint32_t Parent);
  void close(uint32_t Id);
  /// Records a finished child of \p Parent whose duration is the sum
  /// of many timed calls.
  void aggregate(const char *Name, uint32_t Parent, uint64_t DurNs);

  /// Opens on construction, closes on destruction.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint32_t Parent)
        : R(R), Id(R.open(Name, Parent)) {}
    ~Scope() { R.close(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    uint32_t id() const { return Id; }

  private:
    SpanRecorder &R;
    uint32_t Id;
  };

  struct LayerTime {
    uint64_t SelfNs = 0;
    uint64_t Spans = 0;
  };
  /// Self time per span name over every span recorded.
  std::map<std::string, LayerTime> selfTimes() const;

  /// Self time per span name within the subtree of each span in
  /// \p Roots, in \p Roots order (a span nested under two of them counts
  /// for the nearer). Used to get per-unit and per-launch values.
  std::vector<std::map<std::string, uint64_t>>
  selfTimesPerRoot(const std::vector<uint32_t> &Roots) const;

  uint64_t durationNs(uint32_t Id) const {
    return Spans[Id].EndNs - Spans[Id].StartNs;
  }

private:
  struct Span {
    const char *Name;
    uint32_t Parent;
    uint64_t StartNs;
    uint64_t EndNs;
  };
  bool Enabled;
  std::vector<Span> Spans;
};

/// Times every accept() into the wrapped sink: the trace layer's
/// enqueue cost, backpressure waits included.
class TimedSink : public barracuda::trace::EventSink {
public:
  explicit TimedSink(barracuda::trace::EventSink &Inner) : Inner(Inner) {}

  void accept(uint32_t BlockId,
              const barracuda::trace::LogRecord &Record) override {
    uint64_t Start = nowNs();
    Inner.accept(BlockId, Record);
    Ns += nowNs() - Start;
  }

  uint64_t nanos() const { return Ns; }

private:
  barracuda::trace::EventSink &Inner;
  uint64_t Ns = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
