#ifndef MTSHARE_COMMON_STATS_H_
#define MTSHARE_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace mtshare {

/// Accumulates scalar samples and reports summary statistics. Used by the
/// simulation metrics and the benchmark harnesses (mean response time,
/// percentile detour, ...). Keeps all samples; percentile queries sort a
/// scratch copy lazily.
class SummaryStats {
 public:
  void Add(double value);
  void Merge(const SummaryStats& other);
  void Clear();

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double sum() const { return sum_; }
  /// Mean of samples; 0 for an empty accumulator.
  double Mean() const;
  double Min() const;
  double Max() const;
  /// p in [0,1]; linear interpolation between closest ranks.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

  /// "n=.. mean=.. p50=.. p95=.. max=.." one-liner for logs and tables.
  std::string ToString() const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable std::vector<double> sorted_;   // lazily rebuilt cache
  mutable bool sorted_valid_ = false;
};

/// Fixed-width histogram over [lo, hi) with `bins` buckets plus overflow /
/// underflow counters; used for travel-time distributions (paper Fig. 5b).
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double value);
  size_t TotalCount() const { return total_; }
  /// Count in bucket i (0 <= i < bins()).
  size_t BucketCount(size_t i) const { return counts_[i]; }
  size_t bins() const { return counts_.size(); }
  double BucketLow(size_t i) const;
  double BucketHigh(size_t i) const;
  size_t underflow() const { return underflow_; }
  size_t overflow() const { return overflow_; }

  /// Empirical CDF evaluated at bucket upper edges (includes underflow mass).
  std::vector<double> Cdf() const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<size_t> counts_;
  size_t underflow_ = 0;
  size_t overflow_ = 0;
  size_t total_ = 0;
};

}  // namespace mtshare

#endif  // MTSHARE_COMMON_STATS_H_
