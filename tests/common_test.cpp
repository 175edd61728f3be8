// Unit tests for src/common: units, RNG, statistics, intervals, config,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/interval.hpp"
#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/units.hpp"
#include "src/obs/sketch.hpp"

namespace harl {
namespace {

using namespace harl::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, ParsesPlainBytes) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("512"), 512u);
}

TEST(Units, ParsesBinarySuffixes) {
  EXPECT_EQ(parse_size("64K"), 64 * KiB);
  EXPECT_EQ(parse_size("2M"), 2 * MiB);
  EXPECT_EQ(parse_size("1G"), 1 * GiB);
  EXPECT_EQ(parse_size("3T"), 3 * 1024 * GiB);
}

TEST(Units, ParsesVerboseSuffixes) {
  EXPECT_EQ(parse_size("64KB"), 64 * KiB);
  EXPECT_EQ(parse_size("64KiB"), 64 * KiB);
  EXPECT_EQ(parse_size("64k"), 64 * KiB);
  EXPECT_EQ(parse_size("512B"), 512u);
}

TEST(Units, RejectsMalformedInput) {
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("K"), std::invalid_argument);
  EXPECT_THROW(parse_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_size("12KXB"), std::invalid_argument);
  EXPECT_THROW(parse_size("99999999999999999999G"), std::invalid_argument);
}

TEST(Units, RejectsOverflow) {
  EXPECT_THROW(parse_size("18014398509481984G"), std::invalid_argument);
}

TEST(Units, FormatsExactMultiples) {
  EXPECT_EQ(format_size(64 * KiB), "64K");
  EXPECT_EQ(format_size(2 * MiB), "2M");
  EXPECT_EQ(format_size(3 * GiB), "3G");
  EXPECT_EQ(format_size(1000), "1000");
}

TEST(Units, FormatRoundTripsThroughParse) {
  for (Bytes v : {4_KiB, 36_KiB, 148_KiB, 1_MiB, 7_GiB, Bytes{123}}) {
    EXPECT_EQ(parse_size(format_size(v)), v);
  }
}

TEST(Units, LiteralsMatchConstants) {
  EXPECT_EQ(1_KiB, KiB);
  EXPECT_EQ(1_MiB, MiB);
  EXPECT_EQ(1_GiB, GiB);
}

TEST(Units, FormatsThroughput) {
  EXPECT_EQ(format_throughput(117.0 * 1024 * 1024), "117.0 MB/s");
  EXPECT_EQ(format_throughput(0.0), "0.0 MB/s");
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, Uniform01MeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversFullRangeInclusive) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u64(10, 13));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 13u);
}

TEST(Rng, UniformU64SingletonRange) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(5, 5), 5u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  Rng parent2(21);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child.next(), child2.next());
  // Child differs from a fresh parent stream.
  Rng fresh(21);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += child.next() == fresh.next();
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------- stats ----

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
  EXPECT_EQ(rs.cv(), 0.0);
}

TEST(RunningStats, MatchesClosedFormOnKnownSample) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(rs.cv(), 0.4);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
  EXPECT_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, ConstantSampleHasZeroCv) {
  RunningStats rs;
  for (int i = 0; i < 50; ++i) rs.add(512.0);
  EXPECT_DOUBLE_EQ(rs.cv(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, ResetClearsEverything) {
  RunningStats rs;
  rs.add(1.0);
  rs.add(2.0);
  rs.reset();
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  // min/max must not leak across a reset: an all-negative second window
  // would otherwise report the stale max from the first.
  EXPECT_EQ(rs.min(), 0.0);
  EXPECT_EQ(rs.max(), 0.0);
  rs.add(-3.0);
  EXPECT_EQ(rs.min(), -3.0);
  EXPECT_EQ(rs.max(), -3.0);
}

TEST(RunningStats, SingleSampleHasZeroCv) {
  RunningStats rs;
  rs.add(7.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.cv(), 0.0);
  EXPECT_EQ(rs.min(), 7.5);
  EXPECT_EQ(rs.max(), 7.5);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats rs;
  const double base = 1e12;
  for (double x : {base + 1, base + 2, base + 3}) rs.add(x);
  EXPECT_NEAR(rs.mean(), base + 2, 1e-3);
  EXPECT_NEAR(rs.variance(), 2.0 / 3.0, 1e-6);
}

TEST(Summarize, AgreesWithRunningStats) {
  std::vector<double> xs = {1, 5, 2, 8, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.8);
  EXPECT_DOUBLE_EQ(s.sum, 19.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 8.0);
}

TEST(Percentile, HandlesEdgesAndInterpolation) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

TEST(Histogram, CountsBucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(1.9);
  h.add(5.0);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count_at(0), 2u);
  EXPECT_EQ(h.count_at(2), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
}

TEST(Histogram, RejectsDegenerateRanges) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------------------------------------- log histogram ----

TEST(LogHistogram, TracksExactEnvelopeAndBucketedBody) {
  LogHistogram h;
  for (double x : {1e-6, 3e-3, 3e-3, 0.5, 12.0}) h.add(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 12.0);
  EXPECT_DOUBLE_EQ(h.sum(), 1e-6 + 3e-3 + 3e-3 + 0.5 + 12.0);
  // Percentiles interpolate inside a bucket, so they are only bucket-exact:
  // relative error bounded by 1/2^sub_bits, and always inside [min, max].
  const double p50 = h.percentile(50.0);
  EXPECT_NEAR(p50, 3e-3, 3e-3 / (1 << h.sub_bits()));
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(100.0), h.max());
}

TEST(LogHistogram, CountsNonPositivesSeparately) {
  LogHistogram h;
  h.add(0.0);
  h.add(-1.5);
  h.add(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.non_positive(), 2u);
  std::uint64_t bucketed = 0;
  for (const auto& b : h.buckets()) bucketed += b.count;
  EXPECT_EQ(bucketed, 1u);
  // Non-positives sort below every bucket: the median of {-1.5, 0, 2} is 0.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, SummaryRoundTripsThroughBuckets) {
  // Every sample must land in exactly one exported bucket whose [lo, hi)
  // bounds contain it, and bucket counts must sum to count().
  LogHistogram h;
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(1e-5 * i * i);
  for (double x : xs) h.add(x);
  std::uint64_t total = 0;
  for (const auto& b : h.buckets()) {
    EXPECT_LT(b.lo, b.hi);
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
  for (double x : xs) {
    bool contained = false;
    for (const auto& b : h.buckets()) {
      if (x >= b.lo && x < b.hi) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "sample " << x << " in no bucket";
  }
}

/// Exact (integer/envelope) content equality: bucket counts, totals, min and
/// max merge exactly in any order.  `sum` is excluded on purpose — summing
/// doubles is not associative, so it is only reproducible for a fixed merge
/// order (which CrossThreadMergeIsDeterministic pins).
void expect_same_distribution(const LogHistogram& a, const LogHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.non_positive(), b.non_positive());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
  const auto ab = a.buckets();
  const auto bb = b.buckets();
  ASSERT_EQ(ab.size(), bb.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    EXPECT_DOUBLE_EQ(ab[i].lo, bb[i].lo);
    EXPECT_EQ(ab[i].count, bb[i].count);
  }
}

TEST(LogHistogram, MergeEqualsSingleStreamInAnyOrder) {
  // The property that makes per-thread collection safe: merging shards
  // yields the same distribution as one histogram that saw every sample,
  // regardless of merge order.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(0.37 * i);
  LogHistogram whole;
  for (double x : xs) whole.add(x);

  LogHistogram a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(xs[i]);
  }
  LogHistogram abc = a;
  abc.merge(b);
  abc.merge(c);
  LogHistogram cba = c;
  cba.merge(b);
  cba.merge(a);
  expect_same_distribution(abc, whole);
  expect_same_distribution(cba, whole);
  EXPECT_NEAR(abc.sum(), whole.sum(), 1e-9 * whole.sum());
  EXPECT_NEAR(cba.sum(), whole.sum(), 1e-9 * whole.sum());
}

TEST(LogHistogram, CrossThreadMergeIsDeterministic) {
  // Four threads fill disjoint shards concurrently; merging in index order
  // must be bit-identical (operator==, sum included) to merging the same
  // shards filled serially — thread interleaving must leave no residue.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  auto fill = [](LogHistogram& h, int t) {
    for (int i = 0; i < kPerThread; ++i) {
      h.add(1e-4 * (static_cast<double>(t) * kPerThread + i + 1));
    }
  };
  std::vector<LogHistogram> shards(kThreads);
  {
    ThreadPool pool(kThreads);
    pool.parallel_for(kThreads,
                      [&](std::size_t t) { fill(shards[t], static_cast<int>(t)); });
  }
  LogHistogram merged;
  for (const auto& s : shards) merged.merge(s);

  std::vector<LogHistogram> serial_shards(kThreads);
  for (int t = 0; t < kThreads; ++t) fill(serial_shards[t], t);
  LogHistogram serial;
  for (const auto& s : serial_shards) serial.merge(s);

  EXPECT_EQ(merged, serial);
  EXPECT_EQ(merged.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  expect_same_distribution(merged, serial);
}

TEST(LogHistogram, ResetForgetsEverything) {
  LogHistogram h;
  h.add(4.0);
  h.add(-1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.non_positive(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h, LogHistogram{});
}

// Dyadic samples across ~20 octaves: every partial sum is exact, so
// member-wise equality (which includes the sum) cannot depend on addition
// order.
std::vector<double> dyadic_samples(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(std::ldexp(static_cast<double>(i % 97 + 1),
                            static_cast<int>(i % 20) - 10));
  }
  return xs;
}

TEST(LogHistogram, BucketIndexMatchesTheFrexpGeometry) {
  // The bucket of x is [2^(e-1) * (1 + c/32), ...) with x = m * 2^e,
  // m in [0.5, 1) and c = floor((2m - 1) * 32): the sparse histogram's
  // geometry, which dense storage must reproduce bit for bit.
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Random exponent and fraction bits over the whole positive range,
    // denormals included.
    const std::uint64_t bits = rng.next() & 0x7FEFFFFFFFFFFFFFull;
    double x = 0.0;
    std::memcpy(&x, &bits, sizeof x);
    if (!(x > 0.0)) continue;
    int e = 0;
    const double m = std::frexp(x, &e);
    const int c = std::min(static_cast<int>((m * 2.0 - 1.0) * 32.0), 31);
    LogHistogram h;
    h.add(x);
    const auto b = h.buckets();
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(b[0].lo, std::ldexp(1.0 + c / 32.0, e - 1)) << x;
  }
}

TEST(LogHistogram, DenseRangeGrowsAtTheFrontExactly) {
  // Descending samples grow the dense range at the front every time; the
  // state must equal the ascending feed's member for member.
  const std::vector<double> descending = {1024.0, 5.0, 0.25, 0x1p-14,
                                          0x1p-30};
  LogHistogram down, up;
  for (double x : descending) down.add(x);
  for (auto it = descending.rbegin(); it != descending.rend(); ++it) {
    up.add(*it);
  }
  EXPECT_EQ(down, up);
  const auto b = down.buckets();
  ASSERT_EQ(b.size(), descending.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double x = descending[descending.size() - 1 - i];
    EXPECT_LE(b[i].lo, x);
    EXPECT_LT(x, b[i].hi);
    EXPECT_EQ(b[i].count, 1u);
  }
}

TEST(LogHistogram, EmptyBucketsInsideTheRangeAreSkipped) {
  LogHistogram h;
  h.add(1.0);
  h.add(1000.0);  // ~10 octaves of empty buckets lie between the two
  const auto b = h.buckets();
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].lo, 1.0);
  EXPECT_LE(b[1].lo, 1000.0);
  EXPECT_LT(1000.0, b[1].hi);
  // Rank 1 of 2 ends the first sample's bucket; any higher rank lands in
  // the second sample's bucket, never in an empty one between them.
  EXPECT_EQ(h.percentile(50.0), b[0].hi);
  EXPECT_GE(h.percentile(50.1), b[1].lo);
  EXPECT_LE(h.percentile(50.1), 1000.0);
  EXPECT_EQ(h.percentile(100.0), 1000.0);
}

TEST(LogHistogram, ExtremeValuesKeepTheirBucketsAndEnvelope) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  for (double x : {tiny, 3 * tiny, std::numeric_limits<double>::min() / 3,
                   std::numeric_limits<double>::min(), 1e-300, 1e300, big}) {
    LogHistogram h;
    h.add(x);
    const auto b = h.buckets();
    ASSERT_EQ(b.size(), 1u);
    EXPECT_LE(b[0].lo, x);
    // Denormal cells are finer than the representable spacing, so their
    // upper edge may round onto the sample itself.
    EXPECT_LE(x, b[0].hi);
  }
  LogHistogram h;
  h.add(tiny);
  h.add(std::numeric_limits<double>::infinity());  // clamped to max()
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.non_positive(), 0u);
  EXPECT_EQ(h.min(), tiny);
  EXPECT_EQ(h.max(), big);
  EXPECT_EQ(h.sum(), big);
  EXPECT_EQ(h.buckets().size(), 2u);
  EXPECT_EQ(h.percentile(0.0), tiny);
  EXPECT_EQ(h.percentile(100.0), big);
}

TEST(LogHistogram, EqualityIgnoresInsertionOrder) {
  std::vector<double> xs = dyadic_samples(500);
  xs.push_back(0.0);
  xs.push_back(-2.0);
  LogHistogram forward;
  for (double x : xs) forward.add(x);
  Rng rng(7);
  std::shuffle(xs.begin(), xs.end(), rng);
  LogHistogram shuffled;
  for (double x : xs) shuffled.add(x);
  EXPECT_EQ(forward, shuffled);
  shuffled.add(1.0);
  EXPECT_NE(forward, shuffled);
}

TEST(LogHistogram, MergesDisjointRangesInEitherOrder) {
  LogHistogram low, high, whole;
  for (double x : {0.125, 0.25, 0.375}) {
    low.add(x);
    whole.add(x);
  }
  for (double x : {1024.0, 2048.0}) {
    high.add(x);
    whole.add(x);
  }
  LogHistogram back = low;  // grows at the back
  back.merge(high);
  LogHistogram front = high;  // grows at the front
  front.merge(low);
  EXPECT_EQ(back, whole);
  EXPECT_EQ(front, whole);
  EXPECT_EQ(front.buckets().size(), 5u);
  LogHistogram empty;
  empty.merge(low);
  EXPECT_EQ(empty, low);
}

// ------------------------------------------------------- quantile sketch ----

TEST(QuantileSketch, TracksExactEnvelopeAndBucketedBody) {
  obs::QuantileSketch s;
  for (double x : {1e-6, 3e-3, 3e-3, 0.5, 12.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1e-6);
  EXPECT_DOUBLE_EQ(s.max(), 12.0);
  EXPECT_DOUBLE_EQ(s.sum(), 1e-6 + 3e-3 + 3e-3 + 0.5 + 12.0);
  // Quantiles interpolate inside a log bucket: relative error bounded by
  // 1/2^sub_bits, and always inside the exact [min, max] envelope.
  EXPECT_NEAR(s.percentile(50.0), 3e-3, 3e-3 / (1 << s.sub_bits()));
  EXPECT_GE(s.quantile(0.0), s.min());
  EXPECT_LE(s.quantile(1.0), s.max());
  EXPECT_LE(s.percentile(99.0), s.percentile(99.9));
}

TEST(QuantileSketch, CountsNonPositivesSeparately) {
  obs::QuantileSketch s;
  s.add(0.0);
  s.add(-1.5);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.non_positive(), 2u);
  std::uint64_t bucketed = 0;
  for (const auto& b : s.buckets()) bucketed += b.count;
  EXPECT_EQ(bucketed, 1u);
  // Non-positives sort below every bucket: the median of {-1.5, 0, 2} is
  // the non-positive envelope, never a positive bucket value.
  EXPECT_LE(s.percentile(50.0), 0.0);
}

TEST(QuantileSketch, BucketsContainEverySample) {
  obs::QuantileSketch s;
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(1e-5 * i * i);
  for (double x : xs) s.add(x);
  std::uint64_t total = 0;
  for (const auto& b : s.buckets()) {
    EXPECT_LT(b.lo, b.hi);
    total += b.count;
  }
  EXPECT_EQ(total, s.count());
  for (double x : xs) {
    bool contained = false;
    for (const auto& b : s.buckets()) {
      if (x >= b.lo && x < b.hi) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "sample " << x << " in no bucket";
  }
}

TEST(QuantileSketch, StateIsAPureFunctionOfTheSampleMultiset) {
  // The property the MetricsRegistry's merge relies on: sharding a stream
  // and merging in ANY order reproduces the single-stream sketch exactly —
  // default operator==, every member.  Dyadic sample values keep the sum
  // bit-exact under reassociation, so even sum_ must match.
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(0.25 * i);
  obs::QuantileSketch whole;
  for (double x : xs) whole.add(x);

  obs::QuantileSketch a, b, c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(xs[i]);
  }
  obs::QuantileSketch abc = a;
  abc.merge(b);
  abc.merge(c);
  obs::QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  EXPECT_EQ(abc, whole);
  EXPECT_EQ(cba, whole);
  // Growth must stay exact: no amortized slack may leak into the state.
  EXPECT_EQ(abc.buckets().size(), whole.buckets().size());
}

TEST(QuantileSketch, CrossThreadMergeIsDeterministic) {
  // Shards filled concurrently at several pool widths, merged in index
  // order, must be bit-identical to serially filled shards — thread
  // interleaving must leave no residue (the parallel-replica guarantee).
  constexpr int kShards = 4;
  constexpr int kPerShard = 5000;
  auto fill = [](obs::QuantileSketch& s, int t) {
    for (int i = 0; i < kPerShard; ++i) {
      s.add(1e-4 * (static_cast<double>(t) * kPerShard + i + 1));
    }
  };
  std::vector<obs::QuantileSketch> serial_shards(kShards);
  for (int t = 0; t < kShards; ++t) fill(serial_shards[t], t);
  obs::QuantileSketch serial;
  for (const auto& s : serial_shards) serial.merge(s);

  for (const std::size_t width : {1u, 2u, 4u, 7u}) {
    std::vector<obs::QuantileSketch> shards(kShards);
    {
      ThreadPool pool(width);
      pool.parallel_for(kShards, [&](std::size_t t) {
        fill(shards[t], static_cast<int>(t));
      });
    }
    obs::QuantileSketch merged;
    for (const auto& s : shards) merged.merge(s);
    EXPECT_EQ(merged, serial) << "pool width " << width;
  }
  EXPECT_EQ(serial.count(),
            static_cast<std::uint64_t>(kShards) * kPerShard);
}

TEST(QuantileSketch, ResetForgetsEverything) {
  obs::QuantileSketch s;
  s.add(4.0);
  s.add(-1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.non_positive(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s, obs::QuantileSketch{});
}

TEST(QuantileSketch, RejectsMismatchedMergeAndExcessiveResolution) {
  EXPECT_THROW(obs::QuantileSketch(13), std::invalid_argument);
  obs::QuantileSketch coarse(4), fine(8);
  coarse.add(1.0);
  fine.add(1.0);
  EXPECT_THROW(coarse.merge(fine), std::invalid_argument);
}

// ------------------------------------------------------------- interval ----

TEST(Interval, BasicPredicates) {
  const ByteInterval iv{10, 20};
  EXPECT_EQ(iv.length(), 10u);
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(10));
  EXPECT_FALSE(iv.contains(20));
  EXPECT_TRUE(iv.contains(ByteInterval{12, 18}));
  EXPECT_FALSE(iv.contains(ByteInterval{12, 21}));
  EXPECT_TRUE(iv.contains(ByteInterval{5, 5}));  // empty is contained
}

TEST(Interval, OverlapAndIntersection) {
  const ByteInterval a{0, 10};
  const ByteInterval b{5, 15};
  const ByteInterval c{10, 20};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));  // half-open: touching is disjoint
  EXPECT_EQ(intersect(a, b), (ByteInterval{5, 10}));
  EXPECT_TRUE(intersect(a, c).empty());
}

TEST(Interval, IntervalOfBuildsHalfOpenRange) {
  EXPECT_EQ(interval_of(100, 50), (ByteInterval{100, 150}));
  EXPECT_TRUE(interval_of(100, 0).empty());
}

// --------------------------------------------------------------- config ----

TEST(Config, ParsesKeyValuePairs) {
  const auto cfg = Config::from_args({"a=1", "b=hello", "size=64K"});
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_or("b", ""), "hello");
  EXPECT_EQ(cfg.get_size("size", 0), 64 * KiB);
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
}

TEST(Config, LaterDuplicatesWin) {
  const auto cfg = Config::from_args({"x=1", "x=2"});
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, FromStringSplitsOnWhitespaceAndCommas) {
  const auto cfg = Config::from_string("a=1, b=2\n c=3");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_int("b", 0), 2);
  EXPECT_EQ(cfg.get_int("c", 0), 3);
}

TEST(Config, BooleansAcceptCommonSpellings) {
  const auto cfg = Config::from_args({"t=yes", "f=OFF"});
  EXPECT_TRUE(cfg.get_bool("t", false));
  EXPECT_FALSE(cfg.get_bool("f", true));
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

TEST(Config, RejectsMalformedEntries) {
  EXPECT_THROW(Config::from_args({"novalue"}), std::invalid_argument);
  EXPECT_THROW(Config::from_args({"=x"}), std::invalid_argument);
  const auto cfg = Config::from_args({"b=maybe"});
  EXPECT_THROW(cfg.get_bool("b", false), std::invalid_argument);
}

// ------------------------------------------------------------------ log ----

TEST(Log, LevelGatesEmission) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold calls are no-ops (observable only via the level check,
  // but they must not crash or deadlock).
  log_debug("dropped ", 1);
  log_info("dropped ", 2);
  log_warn("dropped ", 3);
  set_log_level(LogLevel::kOff);
  log_error("also dropped");
  set_log_level(before);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SubmitExceptionsSurfaceThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // parallel_for is work-helping: the caller claims iterations itself, so
  // an inner parallel_for on the same pool always makes progress even when
  // every pool thread is blocked inside the outer loop.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 1 && inner == 2) {
                              throw std::runtime_error("inner boom");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForCompletesRemainingWorkAfterThrow) {
  // One failing iteration must not strand the others: every index is still
  // visited exactly once, then the first exception is rethrown.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   hits[i]++;
                                   if (i % 17 == 0) {
                                     throw std::runtime_error("sparse boom");
                                   }
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace harl
