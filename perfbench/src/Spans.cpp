//===- Spans.cpp - the benchmark's own span recorder ----------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>

namespace perfbench {

uint32_t SpanRecorder::open(const char *Name, uint32_t Parent) {
  if (!Enabled)
    return NoParent;
  Spans.push_back({Name, Parent, nowNs(), 0});
  return static_cast<uint32_t>(Spans.size() - 1);
}

void SpanRecorder::close(uint32_t Id) {
  if (Enabled)
    Spans[Id].EndNs = nowNs();
}

void SpanRecorder::aggregate(const char *Name, uint32_t Parent,
                             uint64_t DurNs) {
  if (!Enabled)
    return;
  Spans.push_back({Name, Parent, 0, DurNs});
}

namespace {

/// Self time of every span: its duration minus its direct children's.
std::vector<int64_t> selfNs(const std::vector<uint64_t> &Dur,
                            const std::vector<uint32_t> &Parent) {
  std::vector<int64_t> Self(Dur.begin(), Dur.end());
  for (size_t I = 0; I != Dur.size(); ++I)
    if (Parent[I] != SpanRecorder::NoParent)
      Self[Parent[I]] -= static_cast<int64_t>(Dur[I]);
  return Self;
}

} // namespace

std::map<std::string, SpanRecorder::LayerTime>
SpanRecorder::selfTimes() const {
  std::vector<uint64_t> Dur;
  std::vector<uint32_t> Parent;
  for (const Span &S : Spans) {
    Dur.push_back(S.EndNs - S.StartNs);
    Parent.push_back(S.Parent);
  }
  std::vector<int64_t> Self = selfNs(Dur, Parent);
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    LayerTime &L = Out[Spans[I].Name];
    L.SelfNs += static_cast<uint64_t>(std::max<int64_t>(Self[I], 0));
    ++L.Spans;
  }
  return Out;
}

std::vector<std::map<std::string, uint64_t>>
SpanRecorder::selfTimesPerRoot(const std::vector<uint32_t> &Roots) const {
  std::vector<uint64_t> Dur;
  std::vector<uint32_t> Parent;
  for (const Span &S : Spans) {
    Dur.push_back(S.EndNs - S.StartNs);
    Parent.push_back(S.Parent);
  }
  std::vector<int64_t> Self = selfNs(Dur, Parent);
  // Each span's owner is its nearest ancestor-or-self among Roots.
  // Parents always precede children, so one forward pass resolves them.
  constexpr size_t None = ~size_t(0);
  std::vector<size_t> Owner(Spans.size(), None);
  for (size_t I = 0; I != Roots.size(); ++I)
    Owner[Roots[I]] = I;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Owner[I] == None && Parent[I] != NoParent)
      Owner[I] = Owner[Parent[I]];
  std::vector<std::map<std::string, uint64_t>> Out(Roots.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Owner[I] != None)
      Out[Owner[I]][Spans[I].Name] +=
          static_cast<uint64_t>(std::max<int64_t>(Self[I], 0));
  return Out;
}

} // namespace perfbench
