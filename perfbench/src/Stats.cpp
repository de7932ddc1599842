//===- Stats.cpp - sample summaries for the benchmark ---------------------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace perfbench {

double quantileSorted(const std::vector<double> &Sorted, double Q) {
  assert(!Sorted.empty() && "quantile of an empty sample");
  Q = std::clamp(Q, 0.0, 1.0);
  double Rank = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

bool percentileSupported(double Percentile, size_t Count) {
  double Beyond = static_cast<double>(Count) * (1.0 - Percentile / 100.0);
  // A hair of slack so 1000 samples support p99 despite rounding.
  return Beyond + 1e-9 >= static_cast<double>(TailSupport);
}

double supportedPercentile(size_t Count) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (percentileSupported(P, Count))
      return P;
  return 50.0;
}

double Summary::percentile(double P) const {
  if (Sorted.empty())
    return 0;
  return quantileSorted(Sorted, P / 100.0);
}

Summary summarise(std::vector<double> Samples) {
  Summary S;
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Count = Samples.size();
  S.Min = Samples.front();
  S.Max = Samples.back();
  S.Q1 = quantileSorted(Samples, 0.25);
  S.Median = quantileSorted(Samples, 0.5);
  S.Q3 = quantileSorted(Samples, 0.75);
  S.TailPercentile = supportedPercentile(S.Count);
  S.Tail = quantileSorted(Samples, S.TailPercentile / 100.0);
  S.Sorted = std::move(Samples);
  return S;
}

} // namespace perfbench
