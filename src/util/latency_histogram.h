// LatencyHistogram: the repo's one latency recorder.
//
// Log-linear buckets over integer nanoseconds: values below 64 ns get one
// exact bucket each; above that, every power-of-two range [2^e, 2^(e+1))
// splits into 64 equal-width sub-buckets. A bucket is therefore at most
// 1/64 of its lower edge wide, and a quantile interpolated inside the
// bucket that holds its rank is within 1.6% of the exact nearest-rank
// sample. Histograms merge by adding counts, so each recording thread (or
// process) keeps its own and a reader merges them afterwards. Values at or
// above 2^42 ns (~73 minutes) clamp into the top bucket.

#ifndef CROWDPRICE_UTIL_LATENCY_HISTOGRAM_H_
#define CROWDPRICE_UTIL_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace crowdprice::util {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  /// Largest recordable value: 2^42 ns (~73 minutes); larger values clamp.
  static constexpr int kMaxExponent = 42;

  LatencyHistogram()
      : counts_(static_cast<size_t>(kSub) * (kMaxExponent - kSubBits + 2), 0) {}

  void RecordNanos(uint64_t nanos) {
    nanos = std::min(nanos, (uint64_t{1} << kMaxExponent) - 1);
    ++counts_[Index(nanos)];
    ++count_;
    max_ = std::max(max_, nanos);
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }

  /// The q-quantile (q in (0, 1]) in nanoseconds: the nearest-rank sample
  /// ceil(q * count), located by bucket and interpolated linearly within
  /// it. 0 when empty.
  double QuantileNanos(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1,
        count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= rank) {
        if (i < kSub) return static_cast<double>(i);  // exact bucket
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(counts_[i]);
        return static_cast<double>(Lower(i)) +
               within * static_cast<double>(Width(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(max_);
  }
  double QuantileMs(double q) const { return QuantileNanos(q) / 1e6; }
  double QuantileUs(double q) const { return QuantileNanos(q) / 1e3; }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = std::bit_width(v) - 1;  // e >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub * static_cast<uint64_t>(e - kSubBits + 1) +
                               sub);
  }
  static uint64_t Lower(size_t index) {
    if (index < kSub) return index;
    const int e = static_cast<int>(index / kSub) - 1 + kSubBits;
    return (kSub + index % kSub) << (e - kSubBits);
  }
  static uint64_t Width(size_t index) {
    if (index < kSub) return 1;
    const int e = static_cast<int>(index / kSub) - 1 + kSubBits;
    return uint64_t{1} << (e - kSubBits);
  }

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

}  // namespace crowdprice::util

#endif  // CROWDPRICE_UTIL_LATENCY_HISTOGRAM_H_
