#include "util/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace crowdprice::util {
namespace {

// 200k log-uniform samples over 10 ns .. 10 s: every reported quantile is
// within the stated 1.6% of the exact nearest-rank sample, and a histogram
// merged from two halves reads exactly like one that saw everything.
TEST(LatencyHistogramTest, QuantilesWithinStatedErrorAndMergeExactly) {
  Rng rng(20140901);
  std::vector<uint64_t> sample;
  LatencyHistogram whole, left, right;
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<uint64_t>(std::exp(
        std::log(10.0) + rng.NextDouble() * (std::log(1e10) - std::log(10.0))));
    sample.push_back(v);
    whole.RecordNanos(v);
    (i % 2 == 0 ? left : right).RecordNanos(v);
  }
  std::sort(sample.begin(), sample.end());
  left.Merge(right);
  EXPECT_EQ(whole.count(), sample.size());
  EXPECT_EQ(left.count(), sample.size());
  for (double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const auto rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(sample.size())));
    const double exact = static_cast<double>(sample[rank - 1]);
    EXPECT_LE(std::abs(whole.QuantileNanos(q) - exact) / exact, 0.016)
        << "q=" << q;
    EXPECT_EQ(left.QuantileNanos(q), whole.QuantileNanos(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, ValuesBelow64NanosAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < 64; ++v) h.RecordNanos(v);
  for (uint64_t v = 0; v < 64; ++v) {
    const double q = static_cast<double>(v + 1) / 64.0;
    EXPECT_EQ(h.QuantileNanos(q), static_cast<double>(v)) << "v=" << v;
  }
}

TEST(LatencyHistogramTest, ValuesAtOrAbove2To42Clamp) {
  const uint64_t top = uint64_t{1} << LatencyHistogram::kMaxExponent;
  LatencyHistogram clamped, at_limit;
  clamped.RecordNanos(top);
  clamped.RecordNanos(UINT64_MAX);
  at_limit.RecordNanos(top - 1);
  at_limit.RecordNanos(top - 1);
  EXPECT_EQ(clamped.count(), 2u);
  EXPECT_EQ(clamped.QuantileNanos(1.0), at_limit.QuantileNanos(1.0));
  EXPECT_LT(clamped.QuantileNanos(1.0), static_cast<double>(top));
  EXPECT_GE(clamped.QuantileNanos(1.0), static_cast<double>(top) * 63 / 64);
}

TEST(LatencyHistogramTest, EmptyReadsZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.QuantileNanos(0.5), 0.0);
  EXPECT_EQ(h.QuantileMs(0.99), 0.0);
  EXPECT_EQ(h.QuantileUs(1.0), 0.0);
}

}  // namespace
}  // namespace crowdprice::util
