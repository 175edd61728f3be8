// Streaming and batch statistics.
//
// Algorithm 1 of the paper drives region splitting off the coefficient of
// variation (CV = population standard deviation / mean) of request sizes in a
// growing window; `RunningStats` provides exactly that, incrementally and in
// a numerically stable form (Welford), with O(1) removal-free restart.
// `LogHistogram` is the observability subsystem's distribution type:
// log-bucketed tails (p50/p95/p99 at bucket resolution, exact min/max/sum)
// in dense bucket storage that merges exactly across replicas and threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace harl {

/// Welford-style streaming mean/variance accumulator.
///
/// The paper's Algorithm 1 uses the *population* standard deviation
/// (divide by n, not n-1); `stddev()` matches that convention.
class RunningStats {
 public:
  void add(double x);

  /// Forgets all samples (Algorithm 1 line 12: "Restart with new CV").
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  /// Population variance (sum of squared deviations / n); 0 when empty.
  double variance() const;
  double stddev() const;

  /// Coefficient of variation: stddev / mean; defined as 0 for an empty
  /// window or a zero mean (constant-size windows have CV 0).
  double cv() const;

  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population
  double cv = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

/// Computes a full summary of `xs` in one pass.
Summary summarize(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].  `xs` need not be sorted;
/// a sorted copy is made internally.  Returns 0 for an empty sample.
double percentile(std::span<const double> xs, double p);

/// Dense log-bucket counts: the core shared by `LogHistogram` and
/// `obs::QuantileSketch`.
///
/// Positive samples land in geometric buckets: each power of two is split
/// into 2^sub_bits equal-width sub-buckets, bounding the relative error of
/// any quantile by 1/2^sub_bits.  Zero and negative samples are counted
/// separately (`non_positive`).  Count, sum, min and max are tracked exactly.
/// Counts live in one contiguous array over the observed bucket range, so an
/// insert is a subtract, a bounds check and an increment.  The range always
/// spans exactly the touched buckets (growth is by need, never speculative),
/// which makes the state a pure function of the sample multiset: two
/// instances fed the same samples in any order compare equal, and `merge()`
/// is exact — merging yields the same state as feeding both streams into one
/// instance, the property that makes per-thread and per-replica collection
/// safe to aggregate in any order.
class LogBuckets {
 public:
  std::uint64_t count() const { return count_; }
  std::uint64_t non_positive() const { return non_positive_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const;

  /// Inline: the per-job telemetry hot path.  Zero, negative and NaN
  /// samples count as non-positive; +inf is clamped to the largest double.
  void add(double x) {
    if (!(x > 0.0)) {
      add_non_positive();
      return;
    }
    x = std::min(x, std::numeric_limits<double>::max());
    const std::int32_t index = bucket_index(x);
    // Unsigned wrap sends indexes below base_ (and the empty state) to the
    // growth path.
    const auto off = static_cast<std::uint32_t>(index - base_);
    if (off < counts_.size()) {
      ++counts_[off];
    } else {
      ++slot(index);
    }
    ++count_;
    sum_ += x;
    if (count_ == 1) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
  }
  /// Forgets every sample; keeps the count array's capacity for reuse.
  void reset();

  unsigned sub_bits() const { return sub_bits_; }

  /// Non-empty buckets in ascending value order (excludes non-positives).
  struct Bucket {
    double lo = 0.0;   ///< inclusive lower bound
    double hi = 0.0;   ///< exclusive upper bound
    std::uint64_t count = 0;
  };
  std::vector<Bucket> buckets() const;

  /// Quantile estimates for ascending q in [0, 1] (unchecked) in one scan:
  /// linear interpolation inside the containing bucket, clamped to the exact
  /// [min, max] envelope.  Non-positive samples count as the value 0.  Each
  /// out[k] is 0 when empty.
  void quantiles_at(std::span<const double> qs, std::span<double> out) const;

 protected:
  /// Throws std::invalid_argument when sub_bits > 12.
  explicit LogBuckets(unsigned sub_bits);

  /// Exact merge; requires equal sub_bits (throws std::invalid_argument).
  void merge_from(const LogBuckets& other);

  /// quantiles_at for a single q.
  double quantile_at(double q) const;

  friend bool operator==(const LogBuckets&, const LogBuckets&) = default;

 private:
  /// Index of positive finite `x`: x = m * 2^e with m in [0.5, 1), and
  /// [2^(e-1), 2^e) split into 2^sub_bits equal cells; the index is
  /// e * 2^sub_bits + cell, which orders buckets by value and makes merge a
  /// plain per-index addition.  For a normal x, e is the unbiased exponent
  /// + 1 and the cell is the top sub_bits of the stored fraction — exactly
  /// what frexp's m yields — so both are read from the bits.
  std::int32_t bucket_index(double x) const {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<std::int32_t>(bits >> 52);  // x > 0
    if (biased == 0) return denormal_index(x);
    const auto cell = static_cast<std::int32_t>(
        (bits & ((std::uint64_t{1} << 52) - 1)) >> (52 - sub_bits_));
    return (biased - 1022) * (std::int32_t{1} << sub_bits_) + cell;
  }
  std::int32_t denormal_index(double x) const;
  double bucket_low(std::int32_t index) const;
  void add_non_positive();
  /// Grows counts_ to cover `index` exactly (front or back, by need).
  std::uint64_t& slot(std::int32_t index);

  unsigned sub_bits_ = 5;
  std::int32_t base_ = 0;              ///< bucket index of counts_[0]
  std::vector<std::uint64_t> counts_;  ///< dense [base_, base_ + size())
  std::uint64_t count_ = 0;
  std::uint64_t non_positive_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-bucketed histogram for latency/size distributions (observability):
/// p50/p95/p99 at bucket resolution (3.2% at the default sub_bits = 5) over
/// dense `LogBuckets` storage.
class LogHistogram : public LogBuckets {
 public:
  explicit LogHistogram(unsigned sub_bits = 5) : LogBuckets(sub_bits) {}

  void merge(const LogHistogram& other) { merge_from(other); }

  /// Percentile estimate, p in [0, 100] (throws std::invalid_argument
  /// outside): see `LogBuckets::quantiles_at`.
  double percentile(double p) const;

  /// True when the two histograms carry identical contents (used by the
  /// cross-thread merge-determinism tests).
  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;
};

/// Simple fixed-width histogram for diagnostics.
class Histogram {
 public:
  /// Buckets [lo, hi) split into `buckets` equal cells, plus under/overflow.
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t count_at(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace harl
