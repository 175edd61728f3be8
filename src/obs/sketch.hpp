// Mergeable log-bucket quantile sketch (the telemetry plane's distribution
// type, DESIGN.md §15).
//
// The same dense bucket core as common LogHistogram (`LogBuckets`: each power
// of two split into 2^sub_bits equal-width cells, bounding any quantile's
// relative error by 1/2^sub_bits), with a finer default resolution and a
// q-in-[0, 1] quantile API.  The state is a pure function of the sample
// multiset and merge() is exact, which is what lets the MetricsRegistry
// treat sketch families like counters: order-independent parallel
// aggregation.
#pragma once

#include "src/common/stats.hpp"

namespace harl::obs {

class QuantileSketch : public LogBuckets {
 public:
  /// Relative-error knob: quantiles are exact to 1/2^sub_bits (default 6:
  /// 1.6%, tight enough that a p999 is meaningfully above a p99).
  explicit QuantileSketch(unsigned sub_bits = 6) : LogBuckets(sub_bits) {}

  /// Exact merge; requires equal sub_bits (throws std::invalid_argument).
  void merge(const QuantileSketch& other) { merge_from(other); }

  /// Quantile estimate, q in [0, 1] (throws std::invalid_argument outside):
  /// see `LogBuckets::quantiles_at`.
  double quantile(double q) const;
  /// Percentile convenience, p in [0, 100] (p999 == quantile(0.999)).
  double percentile(double p) const { return quantile(p / 100.0); }

  /// Member-wise equality is sample-set equality (see LogBuckets).
  friend bool operator==(const QuantileSketch&, const QuantileSketch&) =
      default;
};

}  // namespace harl::obs
