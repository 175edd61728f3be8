// Property tests for the completed Fig. 4/5 closed forms: for every case
// (a)-(d), the O(1) geometry must equal the exact O(M+N) computation on
// randomized request sweeps, including all alignment corners.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/divisor.hpp"
#include "src/core/closed_form.hpp"
#include "src/core/tiered_cost_model.hpp"

namespace harl::core {
namespace {

TEST(ClassifyFig4, MatchesBeginAndEndAreas) {
  const StripePair hs{64 * KiB, 128 * KiB};
  const std::size_t M = 6;
  const std::size_t N = 2;
  const Bytes Mh = M * hs.h;  // 384K; period 640K

  // Begins and ends inside the H area of period 0.
  EXPECT_EQ(classify_fig4(0, 128 * KiB, hs, M, N), Fig4Case::kA);
  // Begins in H, ends in S (inclusive end lands past Mh).
  EXPECT_EQ(classify_fig4(0, Mh + 64 * KiB, hs, M, N), Fig4Case::kB);
  // Begins in S, wraps, ends in H of the next period.
  EXPECT_EQ(classify_fig4(Mh, 512 * KiB, hs, M, N), Fig4Case::kC);
  // Begins and ends in S.
  EXPECT_EQ(classify_fig4(Mh, 128 * KiB, hs, M, N), Fig4Case::kD);
}

TEST(ClassifyFig4, ValidatesInputs) {
  EXPECT_THROW(classify_fig4(0, 0, {64 * KiB, 64 * KiB}, 6, 2),
               std::invalid_argument);
  EXPECT_THROW(classify_fig4(0, 1, {0, 64 * KiB}, 6, 2), std::invalid_argument);
  EXPECT_THROW(classify_fig4(0, 1, {64 * KiB, 64 * KiB}, 0, 2),
               std::invalid_argument);
}

TEST(ClosedForm, HandPickedCorners) {
  const StripePair hs{100, 300};
  const std::size_t M = 3;
  const std::size_t N = 2;
  // Period 900, H area [0, 300), S area [300, 900).

  // Whole request inside one HServer stripe.
  EXPECT_EQ(closed_form_geometry(10, 50, hs, M, N),
            request_geometry(10, 50, hs, M, N));
  // Exactly one full period.
  EXPECT_EQ(closed_form_geometry(0, 900, hs, M, N),
            request_geometry(0, 900, hs, M, N));
  // Stripe-aligned end (the corner the printed case-(a) table mishandles).
  EXPECT_EQ(closed_form_geometry(0, 200, hs, M, N),
            request_geometry(0, 200, hs, M, N));
  // Period-aligned end.
  EXPECT_EQ(closed_form_geometry(450, 450, hs, M, N),
            request_geometry(450, 450, hs, M, N));
  // Backwards wrap (begin column after end column).
  EXPECT_EQ(closed_form_geometry(250, 800, hs, M, N),
            request_geometry(250, 800, hs, M, N));
  // S-only span inside one period.
  EXPECT_EQ(closed_form_geometry(300, 600, hs, M, N),
            request_geometry(300, 600, hs, M, N));
}

struct ClosedFormCase {
  std::size_t M;
  std::size_t N;
  Bytes h;
  Bytes s;
};

class ClosedFormMatchesExact : public ::testing::TestWithParam<ClosedFormCase> {};

TEST_P(ClosedFormMatchesExact, OnRandomRequestsOfEveryCase) {
  const ClosedFormCase c = GetParam();
  const StripePair hs{c.h, c.s};
  const Bytes S = c.M * c.h + c.N * c.s;
  Rng rng(c.M * 31 + c.N * 17 + c.h * 3 + c.s);

  std::map<Fig4Case, int> case_counts;
  for (int i = 0; i < 2000; ++i) {
    const Bytes offset = rng.uniform_u64(0, 6 * S);
    const Bytes size = rng.uniform_u64(1, 4 * S);
    const auto closed = closed_form_geometry(offset, size, hs, c.M, c.N);
    const auto exact = request_geometry(offset, size, hs, c.M, c.N);
    ASSERT_EQ(closed, exact)
        << "o=" << offset << " r=" << size << " M=" << c.M << " N=" << c.N
        << " h=" << c.h << " s=" << c.s;
    ++case_counts[classify_fig4(offset, size, hs, c.M, c.N)];
  }
  // The sweep must exercise multiple Fig. 4 cases (extreme tier-size
  // ratios make some begin/end areas vanishingly small, so not every
  // parameterization can hit all four).
  EXPECT_GE(case_counts.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosedFormMatchesExact,
    ::testing::Values(ClosedFormCase{6, 2, 64 * KiB, 64 * KiB},
                      ClosedFormCase{6, 2, 32 * KiB, 160 * KiB},
                      ClosedFormCase{2, 6, 4 * KiB, 512 * KiB},
                      ClosedFormCase{1, 1, 3, 7},
                      ClosedFormCase{3, 3, 17, 23},
                      ClosedFormCase{7, 1, 128 * KiB, 1 * MiB},
                      ClosedFormCase{1, 7, 5, 1000}));

TEST(ClosedForm, AlignedBoundariesSweep) {
  // Deterministic sweep of every (offset, size) on a small grid: catches
  // boundary arithmetic that random sampling might miss.
  const StripePair hs{4, 6};
  const std::size_t M = 2;
  const std::size_t N = 2;
  const Bytes S = 2 * 4 + 2 * 6;  // 20
  for (Bytes offset = 0; offset < 2 * S; ++offset) {
    for (Bytes size = 1; size <= 3 * S; ++size) {
      ASSERT_EQ(closed_form_geometry(offset, size, hs, M, N),
                request_geometry(offset, size, hs, M, N))
          << "o=" << offset << " r=" << size;
    }
  }
}

// ---------------------------------------------------------------------------
// Hoisted divisors.  The optimizer builds exact reciprocals of the period and
// of each stripe once per candidate (Divisor); every quotient, remainder and
// geometry derived from them must equal the hardware `/` and `%` and the
// cell walk, for any u64 — well past the 2^52 range of a double reciprocal.
// ---------------------------------------------------------------------------

TEST(HoistedDivision, DivisorMatchesHardwareDivide) {
  constexpr Bytes kMax = ~Bytes{0};
  Rng rng(41);
  std::vector<Bytes> divisors = {
      1,           2,           3,           7,
      10,          4 * KiB,     6 * 48 * KiB + 2 * 208 * KiB,
      (Bytes{1} << 32) - 1,         (Bytes{1} << 32) + 1,
      (Bytes{1} << 52) - 1,         Bytes{1} << 52,  (Bytes{1} << 52) + 1,
      (Bytes{1} << 53) + 3,         Bytes{1} << 63,  (Bytes{1} << 63) + 1,
      kMax - 1,    kMax};
  for (int i = 0; i < 24; ++i) divisors.push_back(rng.uniform_u64(1, kMax));
  for (int i = 0; i < 24; ++i) divisors.push_back(rng.uniform_u64(1, 1 << 20));
  for (const Bytes d : divisors) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Divisor by(d);
    EXPECT_EQ(by.value(), d);
    std::vector<Bytes> dividends = {0,
                                    1,
                                    d - 1,
                                    d,
                                    d + 1,
                                    (Bytes{1} << 52) - 1,
                                    Bytes{1} << 52,
                                    (Bytes{1} << 52) + 1,
                                    (Bytes{1} << 53) + 1,
                                    Bytes{1} << 62,
                                    kMax - 1,
                                    kMax};
    // Multiples of d and their neighbours, up to the largest u64 multiple.
    const Bytes top = kMax / d;
    for (const Bytes k : {top, top - 1, top / 2, (Bytes{1} << 52) / d + 1}) {
      if (k == 0 || k > top) continue;
      dividends.push_back(k * d - 1);
      dividends.push_back(k * d);
      if (k * d < kMax) dividends.push_back(k * d + 1);
    }
    for (int j = 0; j < 256; ++j) dividends.push_back(rng.next());
    for (const Bytes n : dividends) {
      ASSERT_EQ(by.quotient(n), n / d) << "n=" << n;
      ASSERT_EQ(by.remainder(n), n % d) << "n=" << n;
    }
  }
  EXPECT_THROW(Divisor(0), std::invalid_argument);
}

TEST(HoistedDivision, GeometryAndResidueMatchCellWalkAndPlainDivide) {
  struct Shape {
    std::size_t M;
    std::size_t N;
    Bytes h;
    Bytes s;
  };
  // Periods 704K (not a power of two), odd byte stripes, a tiny period and
  // a power of two.
  const Shape shapes[] = {{6, 2, 48 * KiB, 208 * KiB},
                          {3, 5, 4 * KiB + 3, 12 * KiB + 1},
                          {1, 1, 3, 7},
                          {4, 4, 64 * KiB, 64 * KiB}};
  Rng rng(43);
  for (const Shape& c : shapes) {
    const StripePair hs{c.h, c.s};
    const Bytes S = c.M * c.h + c.N * c.s;
    SCOPED_TRACE("S=" + std::to_string(S));
    const std::size_t counts[2] = {c.M, c.N};
    const Bytes stripes[2] = {c.h, c.s};
    const TierLayout layout(counts, stripes);
    ASSERT_EQ(layout.period(), S);
    // An empty middle tier forces the O(sum counts) cell walk over the same
    // striping, so the closed form can be checked against it.
    const std::size_t walk_counts[3] = {c.M, 0, c.N};
    const Bytes walk_stripes[3] = {c.h, 0, c.s};
    const TierLayout walk(walk_counts, walk_stripes);

    for (const Bytes base : {Bytes{0}, Bytes{1} << 52, (Bytes{1} << 52) + 7 * S,
                             Bytes{1} << 62}) {
      const Bytes period_start = base / S * S;
      std::vector<Bytes> offsets = {period_start,         // residue 0
                                    period_start + 1,
                                    period_start + c.M * c.h - 1,
                                    period_start + c.M * c.h,
                                    period_start + S - 1,  // residue S - 1
                                    period_start + S};
      for (int i = 0; i < 8; ++i) {
        offsets.push_back(period_start + rng.uniform_u64(0, 2 * S));
      }
      for (const Bytes o : offsets) {
        const Bytes to_boundary = S - o % S;
        std::vector<Bytes> sizes = {1,
                                    to_boundary,      // ends on a boundary
                                    to_boundary + 1,  // last byte on one
                                    S,
                                    S + to_boundary,
                                    2 * S + 1,
                                    rng.uniform_u64(1, 3 * S)};
        for (const Bytes r : sizes) {
          SCOPED_TRACE("o=" + std::to_string(o) + " r=" + std::to_string(r));
          ASSERT_EQ(layout.by_period().remainder(o), o % S);
          ASSERT_EQ(layout.by_period().quotient(o + r), (o + r) / S);
          const SubreqGeometry hoisted = closed_form_geometry(
              o, r, hs, c.M, c.N, layout.by_period(), layout.by_stripe(0),
              layout.by_stripe(1));
          // Plain `%` in the byte-walking reference.
          ASSERT_EQ(hoisted, request_geometry_reference(o, r, hs, c.M, c.N));
          // Periodic in the offset: what the memo's residue key relies on.
          ASSERT_EQ(hoisted, closed_form_geometry(o % S, r, hs, c.M, c.N));
          TierGeometry cells[3];
          tiered_geometry_into(o, r, walk, cells);
          EXPECT_EQ(cells[0].max_bytes, hoisted.s_m);
          EXPECT_EQ(cells[0].touched, hoisted.m);
          EXPECT_EQ(cells[1].max_bytes, 0u);
          EXPECT_EQ(cells[2].max_bytes, hoisted.s_n);
          EXPECT_EQ(cells[2].touched, hoisted.n);
        }
      }
    }
  }
}

}  // namespace
}  // namespace harl::core
