#include "src/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace harl {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ == 0) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(n_));
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  if (n_ == 0 || mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

Summary summarize(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  Summary s;
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.cv = rs.cv();
  s.min = rs.min();
  s.max = rs.max();
  s.sum = rs.sum();
  return s;
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

LogBuckets::LogBuckets(unsigned sub_bits) : sub_bits_(sub_bits) {
  if (sub_bits > 12) {
    throw std::invalid_argument("log-bucket sub_bits must be <= 12");
  }
}

std::int32_t LogBuckets::denormal_index(double x) const {
  // frexp normalizes a denormal's mantissa into [0.5, 1).
  int e = 0;
  const double m = std::frexp(x, &e);
  const auto sub = static_cast<std::int32_t>(1u << sub_bits_);
  auto cell = static_cast<std::int32_t>((m * 2.0 - 1.0) *
                                        static_cast<double>(sub));
  cell = std::min(std::max(cell, std::int32_t{0}), sub - 1);
  return static_cast<std::int32_t>(e) * sub + cell;
}

double LogBuckets::bucket_low(std::int32_t index) const {
  const auto sub = static_cast<std::int32_t>(1u << sub_bits_);
  // Floor division so negative exponents (sub-second latencies) round down.
  std::int32_t e = index / sub;
  std::int32_t cell = index % sub;
  if (cell < 0) {
    cell += sub;
    --e;
  }
  return std::ldexp(1.0 + static_cast<double>(cell) / static_cast<double>(sub),
                    e - 1);
}

std::uint64_t& LogBuckets::slot(std::int32_t index) {
  if (counts_.empty()) {
    base_ = index;
    counts_.push_back(0);
    return counts_.front();
  }
  if (index < base_) {
    // Exact front growth: the dense range stays a pure function of the
    // touched index extremes (the equality/merge-determinism contract).
    counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - index),
                   0);
    base_ = index;
  } else if (const auto off = static_cast<std::size_t>(index - base_);
             off >= counts_.size()) {
    counts_.resize(off + 1, 0);
  }
  return counts_[static_cast<std::size_t>(index - base_)];
}

void LogBuckets::reset() {
  base_ = 0;
  counts_.clear();
  count_ = 0;
  non_positive_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

void LogBuckets::add_non_positive() {
  ++non_positive_;
  ++count_;
  if (count_ == 1) {
    min_ = max_ = 0.0;
  } else {
    min_ = std::min(min_, 0.0);
    max_ = std::max(max_, 0.0);
  }
}

void LogBuckets::merge_from(const LogBuckets& other) {
  if (other.count_ == 0) return;
  if (other.sub_bits_ != sub_bits_) {
    throw std::invalid_argument("log-bucket merge requires equal sub_bits");
  }
  if (!other.counts_.empty()) {
    // The other range's end buckets are non-empty, so covering them keeps
    // this range exact.
    const auto n = static_cast<std::int32_t>(other.counts_.size());
    slot(other.base_);
    slot(other.base_ + n - 1);
    const std::size_t off = static_cast<std::size_t>(other.base_ - base_);
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[off + i] += other.counts_[i];
    }
  }
  non_positive_ += other.non_positive_;
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

double LogBuckets::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

void LogBuckets::quantiles_at(std::span<const double> qs,
                              std::span<double> out) const {
  // One scan serves every q: ranks ascend, so each answer's bucket is at or
  // after the previous one's, and `seen` accumulates exactly as a scan for
  // that q alone would.
  const double n_all = static_cast<double>(count_);
  // Non-positive samples sit below every bucket at value 0.  Guard on their
  // presence: at q = 0 the rank is 0 and an all-positive instance must fall
  // through to its first bucket (clamped to min), not report 0.
  double seen = static_cast<double>(non_positive_);
  std::size_t i = 0;
  for (std::size_t k = 0; k < qs.size(); ++k) {
    if (count_ == 0) {
      out[k] = 0.0;
      continue;
    }
    const double rank = qs[k] * n_all;
    if (non_positive_ > 0 && rank <= static_cast<double>(non_positive_)) {
      out[k] = std::min(0.0, min_);
      continue;
    }
    out[k] = max_;
    for (; i < counts_.size(); ++i) {
      const std::uint64_t n = counts_[i];
      if (n == 0) continue;
      const double next = seen + static_cast<double>(n);
      if (rank <= next) {
        const std::int32_t index = base_ + static_cast<std::int32_t>(i);
        const double lo = bucket_low(index);
        const double hi = bucket_low(index + 1);
        const double frac = (rank - seen) / static_cast<double>(n);
        const double v = lo + frac * (hi - lo);
        out[k] = std::min(std::max(v, min_), max_);
        break;
      }
      seen = next;
    }
  }
}

double LogBuckets::quantile_at(double q) const {
  double v = 0.0;
  quantiles_at({&q, 1}, {&v, 1});
  return v;
}

std::vector<LogBuckets::Bucket> LogBuckets::buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::int32_t index = base_ + static_cast<std::int32_t>(i);
    out.push_back(Bucket{bucket_low(index), bucket_low(index + 1), counts_[i]});
  }
  return out;
}

double LogHistogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile p out of [0,100]");
  }
  return quantile_at(p / 100.0);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (!(lo < hi) || buckets == 0) {
    throw std::invalid_argument("histogram requires lo < hi and buckets > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto idx = static_cast<std::size_t>((x - lo_) / width);
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
  }
}

double Histogram::bucket_low(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bucket_high(std::size_t i) const {
  return bucket_low(i + 1);
}

}  // namespace harl
