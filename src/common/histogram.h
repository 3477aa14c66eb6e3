#ifndef MTSHARE_COMMON_HISTOGRAM_H_
#define MTSHARE_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mtshare {

/// A mergeable latency histogram with geometric fixed-width buckets.
///
/// The bucket layout is fixed at construction: bucket 0 holds [0, lo),
/// buckets 1..bins hold geometrically growing slices of [lo, hi), and the
/// last bucket holds [hi, +inf). Two histograms with the same (lo, hi,
/// bins) triple can be merged bucket-wise, which is what lets per-thread
/// or per-run recorders combine into one distribution without keeping raw
/// samples: O(bins) counters regardless of run length.
///
/// Percentile queries interpolate linearly inside the winning bucket and
/// clamp to the exact observed [min, max], so the relative error of a
/// quantile is bounded by one bucket ratio (~9% at the default 48
/// buckets/3 decades) while the extremes stay exact.
class LatencyHistogram {
 public:
  /// Geometric layout over [lo, hi) with `bins` buckets, plus the [0, lo)
  /// and [hi, inf) boundary buckets. Requires 0 < lo < hi and bins >= 1.
  LatencyHistogram(double lo, double hi, size_t bins);

  /// Dispatch-latency layout in milliseconds: 1 us .. 60 s.
  static LatencyHistogram ForLatencyMs() {
    return LatencyHistogram(1e-3, 6e4, 128);
  }
  /// Waiting/detour layout in minutes: 0.01 .. 600 min.
  static LatencyHistogram ForMinutes() {
    return LatencyHistogram(1e-2, 6e2, 96);
  }
  /// Small-count layout (candidate-set sizes): 1 .. 100k.
  static LatencyHistogram ForCounts() {
    return LatencyHistogram(1.0, 1e5, 96);
  }

  /// Records one sample. Negative values count as 0 (clock jitter guard).
  void Record(double value);

  /// Adds `other`'s counts into this histogram. The layouts must match
  /// (same lo/hi/bins) — CHECK-fails otherwise.
  void Merge(const LatencyHistogram& other);

  void Clear();

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  /// Exact observed extremes (0 when empty).
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }

  /// Quantile for p in [0, 1]; 0 when empty. Monotone in p.
  double Percentile(double p) const;

  bool SameLayout(const LatencyHistogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size();
  }

  // --- bucket introspection (report emission, tests) ---
  size_t num_buckets() const { return counts_.size(); }
  int64_t bucket_count(size_t i) const { return counts_[i]; }
  /// Lower/upper value edge of bucket i ([0, lo), geometric, [hi, inf)).
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  size_t BucketIndex(double value) const;

  double lo_;
  double hi_;
  double log_lo_;
  double log_ratio_;  // log of the per-bucket growth factor
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mtshare

#endif  // MTSHARE_COMMON_HISTOGRAM_H_
