//===- stats_test.cpp - edge cases of the benchmark's statistics ----------===//
//
// Part of the BARRACUDA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(Quantile, SingleSampleIsEveryQuantile) {
  std::vector<double> V{7.5};
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 1.0), 7.5);
}

TEST(Quantile, TwoSamplesInterpolate) {
  std::vector<double> V{1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 0.75), 2.5);
}

TEST(Quantile, OutOfRangeClamps) {
  std::vector<double> V{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantileSorted(V, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantileSorted(V, 2.0), 3.0);
}

TEST(Quantile, TiesGiveZeroSpread) {
  Summary S = summarise({4.0, 4.0, 4.0, 4.0, 4.0});
  EXPECT_DOUBLE_EQ(S.Q1, 4.0);
  EXPECT_DOUBLE_EQ(S.Median, 4.0);
  EXPECT_DOUBLE_EQ(S.Q3, 4.0);
  EXPECT_DOUBLE_EQ(S.Tail, 4.0);
}

TEST(Quantile, TiesAroundTheMedian) {
  // Sorted: 1 2 2 2 9. The median is a tied value; the quartiles land
  // inside the run of ties.
  Summary S = summarise({2.0, 9.0, 2.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(S.Median, 2.0);
  EXPECT_DOUBLE_EQ(S.Q1, 2.0);
  EXPECT_DOUBLE_EQ(S.Q3, 2.0);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 9.0);
}

TEST(Quantile, EvenSampleMedianIsMidpoint) {
  Summary S = summarise({10.0, 1.0, 4.0, 3.0});
  EXPECT_DOUBLE_EQ(S.Median, 3.5);
  EXPECT_DOUBLE_EQ(S.Q1, 2.5);
  EXPECT_DOUBLE_EQ(S.Q3, 5.5);
}

TEST(Summary, EmptySampleIsZero) {
  Summary S = summarise({});
  EXPECT_EQ(S.Count, 0u);
  EXPECT_DOUBLE_EQ(S.Median, 0.0);
  EXPECT_DOUBLE_EQ(S.percentile(99), 0.0);
}

TEST(Summary, TinySampleHasMedianAsTail) {
  // Three samples support no percentile above the median.
  Summary S = summarise({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(S.TailPercentile, 50.0);
  EXPECT_DOUBLE_EQ(S.Tail, 2.0);
  EXPECT_DOUBLE_EQ(S.Q1, 1.5);
  EXPECT_DOUBLE_EQ(S.Q3, 2.5);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(supportedPercentile(0), 50.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(5), 50.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(19), 50.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(39), 50.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(40), 75.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(199), 90.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(999), 95.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(supportedPercentile(10000), 99.9);
}

TEST(TailPercentile, SummaryReportsTheSupportedTail) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  Summary S = summarise(V);
  EXPECT_DOUBLE_EQ(S.TailPercentile, 99.0);
  EXPECT_NEAR(S.Tail, 990.01, 1e-9);
  EXPECT_TRUE(percentileSupported(99.0, 1000));
  EXPECT_FALSE(percentileSupported(99.0, 999));
}

TEST(TailPercentile, TiedTailIsTheTiedValue) {
  std::vector<double> V(2000, 5.0);
  V.push_back(1.0);
  Summary S = summarise(V);
  EXPECT_DOUBLE_EQ(S.Tail, 5.0);
  EXPECT_DOUBLE_EQ(S.percentile(99), 5.0);
}
