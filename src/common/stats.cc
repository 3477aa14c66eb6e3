#include "common/stats.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace mtshare {

void SummaryStats::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_valid_ = false;
}

void SummaryStats::Merge(const SummaryStats& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_valid_ = false;
}

void SummaryStats::Clear() {
  samples_.clear();
  sum_ = 0.0;
  sorted_.clear();
  sorted_valid_ = false;
}

double SummaryStats::Mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double SummaryStats::Min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SummaryStats::Max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SummaryStats::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  MTSHARE_CHECK(p >= 0.0 && p <= 1.0);
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  if (sorted_.size() == 1) return sorted_[0];
  double rank = p * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::string SummaryStats::ToString() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << Mean() << " p50=" << Median()
     << " p95=" << Percentile(0.95) << " max=" << Max();
  return os.str();
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  MTSHARE_CHECK(hi > lo);
  MTSHARE_CHECK(bins > 0);
}

void Histogram::Add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
  } else if (value >= hi_) {
    ++overflow_;
  } else {
    size_t idx = static_cast<size_t>((value - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge case
    ++counts_[idx];
  }
}

double Histogram::BucketLow(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::BucketHigh(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

std::vector<double> Histogram::Cdf() const {
  std::vector<double> cdf(counts_.size(), 0.0);
  if (total_ == 0) return cdf;
  size_t acc = underflow_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    cdf[i] = static_cast<double>(acc) / static_cast<double>(total_);
  }
  return cdf;
}

}  // namespace mtshare
