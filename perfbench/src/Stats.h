//===- Stats.h - sample summaries for the benchmark -------------*- C++ -*-===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for benchmark samples. Quantiles interpolate linearly
/// between closest ranks (the "type 7" definition), so a quartile of a
/// tiny sample is still defined; the reported tail percentile is the
/// highest of a fixed ladder that has at least ten samples beyond it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile \p Q in [0, 1] of \p Sorted (ascending, non-empty), linearly
/// interpolated between closest ranks. Q = 0.5 of an even-sized sample
/// is the mean of the two middle values.
double quantileSorted(const std::vector<double> &Sorted, double Q);

/// Samples required beyond a percentile before it is reported.
constexpr size_t TailSupport = 10;

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least
/// TailSupport of \p Count samples strictly beyond it; 50 when even the
/// median lacks that support (the sample count is then the caveat).
double supportedPercentile(size_t Count);

/// True when \p Percentile has at least TailSupport of \p Count samples
/// beyond it.
bool percentileSupported(double Percentile, size_t Count);

/// One metric's sample, summarised.
struct Summary {
  size_t Count = 0;
  double Min = 0, Q1 = 0, Median = 0, Q3 = 0, Max = 0;
  /// The supported tail percentile and its value.
  double TailPercentile = 50, Tail = 0;

  /// Value at percentile \p P (0-100) of the summarised sample.
  double percentile(double P) const;

  std::vector<double> Sorted;
};

/// Summarises \p Samples (any order; empty yields a zero Summary).
Summary summarise(std::vector<double> Samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
