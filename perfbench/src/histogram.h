#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least q·n samples at or below it. The reference every histogram
/// estimate is tested against. `sorted` must be non-empty, q in (0, 1].
inline double SortedPercentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

/// \brief Log-linear latency histogram over nanoseconds.
///
/// Each power of two [2^e, 2^(e+1)) is split into kSubBuckets equal linear
/// sub-buckets, so a bucket is at most 1/kSubBuckets of its lower edge wide
/// (< 0.8% relative error). Values below kSubBuckets ns get exact unit
/// buckets. Percentiles interpolate linearly inside the bucket that holds
/// the requested rank, so estimates move continuously with the data instead
/// of snapping to bucket midpoints. Fixed memory (~64 KiB), so recording
/// millions of samples does not grow the process the benchmark measures.
/// Not thread-safe: keep one per thread and Merge.
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;  // 128
  static constexpr std::size_t kNumBuckets = (64 - kSubBits + 1) * kSubBuckets;

  void RecordNanos(std::uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++count_;
    max_ns_ = std::max(max_ns_, ns);
  }
  void RecordSeconds(double seconds) {
    RecordNanos(seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9));
  }

  void Merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile in nanoseconds (0 when empty), interpolated
  /// within its bucket and capped at the exact maximum.
  double PercentileNanos(double q) const {
    if (count_ == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (seen + counts_[i] >= rank) {
        const double lo = static_cast<double>(BucketLow(i));
        const double width = static_cast<double>(BucketWidth(i));
        const double frac = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
        return std::min(lo + frac * width, static_cast<double>(max_ns_));
      }
      seen += counts_[i];
    }
    return static_cast<double>(max_ns_);
  }
  double PercentileMillis(double q) const { return PercentileNanos(q) / 1e6; }

  /// Samples strictly beyond the q-th percentile's rank: the guard for
  /// "at least ten samples beyond every reported percentile".
  std::uint64_t SamplesBeyond(double q) const {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    return count_ > rank ? count_ - rank : 0;
  }

 private:
  static std::size_t BucketOf(std::uint64_t ns) {
    if (ns < kSubBuckets) return static_cast<std::size_t>(ns);
    const int e = 63 - std::countl_zero(ns);  // e >= kSubBits
    const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSubBuckets - 1);
    return static_cast<std::size_t>((e - kSubBits + 1) * kSubBuckets + sub);
  }
  static std::uint64_t BucketLow(std::size_t i) {
    if (i < kSubBuckets) return i;
    const int e = static_cast<int>(i / kSubBuckets) + kSubBits - 1;
    const std::uint64_t sub = i % kSubBuckets;
    return (1ull << e) + (sub << (e - kSubBits));
  }
  static std::uint64_t BucketWidth(std::size_t i) {
    if (i < kSubBuckets) return 1;
    const int e = static_cast<int>(i / kSubBuckets) + kSubBits - 1;
    return 1ull << (e - kSubBits);
  }

  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
