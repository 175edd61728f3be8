// Tests for Algorithm 2: region stripe-size determination.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

/// Calibrated-style parameters (sequential-fit alpha, effective beta) — what
/// harness::calibrate produces; see tests/cost_model_test.cpp for rationale.
CostParams calibrated_params(std::size_t M = 6, std::size_t N = 2) {
  CostParams p = make_cost_params(M, N, storage::hdd_profile(),
                                  storage::pcie_ssd_profile(),
                                  1.0 / (117.0 * 1024 * 1024));
  for (storage::OpProfile* prof : {&p.hserver_read, &p.hserver_write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.55;
    prof->startup_max *= 0.55;
  }
  return p;
}

std::vector<FileRequest> uniform_requests(Bytes size, std::size_t count,
                                          IoOp op = IoOp::kRead,
                                          std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < count; ++i) {
    reqs.push_back(FileRequest{op, rng.uniform_u64(0, 4096) * size, size});
  }
  return reqs;
}

TEST(Optimizer, PicksLargerSserverStripe) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  // Heterogeneity-aware: SServers get strictly larger stripes (or all data).
  EXPECT_GT(result.stripes.s, result.stripes.h);
  EXPECT_GT(result.candidates_evaluated, 100u);
  EXPECT_GT(result.model_cost, 0.0);
}

TEST(Optimizer, HybridWinsForLargeRequests) {
  // Paper Fig. 7: at 512 KiB both tiers carry data ({32K, 160K}-shaped).
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_GT(result.stripes.h, 0u);
  // The winning ratio is strongly SServer-biased (paper: 160/32 = 5).
  EXPECT_GE(result.stripes.s / std::max<Bytes>(result.stripes.h, 1), 2u);
}

TEST(Optimizer, SmallRequestsGoSsdOnly) {
  // Paper Fig. 9: at 128 KiB the optimal pair is {0K, 64K} — SServers only.
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(128 * KiB, 64);
  const auto result = optimize_region(p, reqs, 128.0 * KiB);
  EXPECT_EQ(result.stripes.h, 0u);
  EXPECT_GT(result.stripes.s, 0u);
}

TEST(Optimizer, ChosenPairBeatsEveryFixedStripeOnTheModel) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 48);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  for (Bytes stripe = 4 * KiB; stripe <= 512 * KiB; stripe += 4 * KiB) {
    const Seconds fixed = region_cost(p, reqs, {stripe, stripe});
    EXPECT_LE(result.model_cost, fixed + 1e-12) << "stripe=" << stripe;
  }
}

TEST(Optimizer, HomogeneousSearchNeverBeatsFullSearch) {
  const CostParams p = calibrated_params();
  for (Bytes req : {128 * KiB, 512 * KiB, 1 * MiB}) {
    const auto reqs = uniform_requests(req, 32);
    const auto full = optimize_region(p, reqs, static_cast<double>(req));
    const auto homo =
        optimize_region_homogeneous(p, reqs, static_cast<double>(req));
    EXPECT_LE(full.model_cost, homo.model_cost + 1e-12) << "req=" << req;
    EXPECT_EQ(homo.stripes.h, homo.stripes.s);
  }
}

TEST(Optimizer, ParallelSearchMatchesSerial) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 40);
  const auto serial = optimize_region(p, reqs, 512.0 * KiB);

  ThreadPool pool(4);
  OptimizerOptions opts;
  opts.pool = &pool;
  const auto parallel = optimize_region(p, reqs, 512.0 * KiB, opts);
  EXPECT_EQ(serial.stripes, parallel.stripes);
  EXPECT_DOUBLE_EQ(serial.model_cost, parallel.model_cost);
}

TEST(Optimizer, CoalescedSearchIsBitIdenticalToBruteForce) {
  // Request-class coalescing memoizes request_cost per (op, size,
  // offset mod S) but accumulates in original order, so every output —
  // stripes, tie-breaks, the cost double itself — matches brute force
  // exactly.  Mixed ops and sizes to exercise multiple classes.
  const CostParams p = calibrated_params();
  Rng rng(19);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < 300; ++i) {
    const Bytes size = i % 4 ? 256 * KiB : 512 * KiB;
    reqs.push_back(FileRequest{i % 2 ? IoOp::kWrite : IoOp::kRead,
                               rng.uniform_u64(0, 2048) * (64 * KiB), size});
  }
  OptimizerOptions brute;
  brute.coalesce = false;
  OptimizerOptions coalesced;
  coalesced.coalesce = true;
  const auto a = optimize_region(p, reqs, 384.0 * KiB, brute);
  const auto b = optimize_region(p, reqs, 384.0 * KiB, coalesced);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_EQ(a.model_cost, b.model_cost);  // exact, not approximate
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  // Counter accounting: brute force does cost_evals work and saves nothing;
  // on both sides evals + saved + skipped (requests abandoned candidates
  // never scored) must equal the grid times the sampled requests.
  EXPECT_EQ(a.cost_evals_saved, 0u);
  EXPECT_GT(b.cost_evals_saved, 0u);
  EXPECT_EQ(b.cost_evals + b.cost_evals_saved + b.requests_skipped,
            a.cost_evals + a.requests_skipped);
  EXPECT_EQ(a.cost_evals + a.requests_skipped,
            a.candidates_evaluated * reqs.size());
}

TEST(Optimizer, CoalescedShardedSearchMatchesBruteForce) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  OptimizerOptions brute;
  brute.coalesce = false;
  ThreadPool pool(4);
  OptimizerOptions sharded;
  sharded.pool = &pool;
  const auto a = optimize_region(p, reqs, 512.0 * KiB, brute);
  const auto b = optimize_region(p, reqs, 512.0 * KiB, sharded);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_EQ(a.model_cost, b.model_cost);
  EXPECT_EQ(b.cost_evals + b.cost_evals_saved + b.requests_skipped,
            a.cost_evals + a.requests_skipped);
}

TEST(RegionCost, CoalescedScoreMatchesPlainLoop) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(256 * KiB, 128, IoOp::kWrite);
  const StripePair hs{32 * KiB, 160 * KiB};
  EXPECT_EQ(region_cost(p, reqs, hs, 0, false),
            region_cost(p, reqs, hs, 0, true));
  // Sampling composes with coalescing.
  EXPECT_EQ(region_cost(p, reqs, hs, 32, false),
            region_cost(p, reqs, hs, 32, true));
}

TEST(Optimizer, SamplingPreservesTheArgmin) {
  const CostParams p = calibrated_params();
  // All requests identical: sampling cannot change anything.
  std::vector<FileRequest> reqs(500, FileRequest{IoOp::kRead, 0, 512 * KiB});
  OptimizerOptions sampled;
  sampled.max_requests = 10;
  const auto full = optimize_region(p, reqs, 512.0 * KiB);
  const auto sub = optimize_region(p, reqs, 512.0 * KiB, sampled);
  EXPECT_EQ(full.stripes, sub.stripes);
  EXPECT_NEAR(full.model_cost, sub.model_cost, full.model_cost * 1e-9);
}

TEST(Optimizer, StepControlsGridResolution) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(256 * KiB, 16);
  OptimizerOptions coarse;
  coarse.step = 64 * KiB;
  OptimizerOptions fine;
  fine.step = 4 * KiB;
  const auto c = optimize_region(p, reqs, 256.0 * KiB, coarse);
  const auto f = optimize_region(p, reqs, 256.0 * KiB, fine);
  EXPECT_LT(c.candidates_evaluated, f.candidates_evaluated);
  // Finer grids can only improve (the coarse grid is a subset).
  EXPECT_LE(f.model_cost, c.model_cost + 1e-12);
  // Results land on their grids.
  EXPECT_EQ(c.stripes.h % (64 * KiB), 0u);
  EXPECT_EQ(f.stripes.h % (4 * KiB), 0u);
}

TEST(Optimizer, WriteRegionsUseWriteCosts) {
  const CostParams p = calibrated_params();
  const auto reads = uniform_requests(512 * KiB, 32, IoOp::kRead);
  const auto writes = uniform_requests(512 * KiB, 32, IoOp::kWrite);
  const auto r = optimize_region(p, reads, 512.0 * KiB);
  const auto w = optimize_region(p, writes, 512.0 * KiB);
  // SSD writes are slower than reads, so the write-optimal layout leans
  // (weakly) more on HServers; at minimum the costs must differ.
  EXPECT_NE(r.model_cost, w.model_cost);
}

TEST(Optimizer, HserverOnlyClusterStaysOnHservers) {
  const CostParams p = calibrated_params(4, 0);
  const auto reqs = uniform_requests(256 * KiB, 16);
  const auto result = optimize_region(p, reqs, 256.0 * KiB);
  EXPECT_GT(result.stripes.h, 0u);
  EXPECT_EQ(result.stripes.s, 0u);
}

TEST(Optimizer, SserverOnlyClusterStaysOnSservers) {
  const CostParams p = calibrated_params(0, 4);
  const auto reqs = uniform_requests(256 * KiB, 16);
  const auto result = optimize_region(p, reqs, 256.0 * KiB);
  EXPECT_EQ(result.stripes.h, 0u);
  EXPECT_GT(result.stripes.s, 0u);
}

TEST(Optimizer, SserverShareBoundIsRespected) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 32);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.4;
  const auto result = optimize_region(p, reqs, 512.0 * KiB, opts);
  const double S = 6.0 * result.stripes.h + 2.0 * result.stripes.s;
  EXPECT_LE(2.0 * result.stripes.s / S, 0.4 + 1e-9);
  // Constraining the search can only cost model time.
  const auto unconstrained = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_GE(result.model_cost, unconstrained.model_cost - 1e-12);
}

TEST(Optimizer, ImpossibleShareBoundFallsBackToFrugalest) {
  // On an SServer-only cluster every candidate has share 1; the bound is
  // infeasible, so the minimum-share candidates must still be searched.
  const CostParams p = calibrated_params(0, 4);
  const auto reqs = uniform_requests(256 * KiB, 8);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.1;
  const auto result = optimize_region(p, reqs, 256.0 * KiB, opts);
  EXPECT_GT(result.stripes.s, 0u);
}

TEST(Optimizer, RejectsBadShareBound) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  OptimizerOptions opts;
  opts.max_sserver_share = 0.0;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
  opts.max_sserver_share = 1.5;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, opts),
               std::invalid_argument);
}

TEST(Optimizer, ValidatesInputs) {
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(64 * KiB, 4);
  EXPECT_THROW(optimize_region(p, {}, 64.0 * KiB), std::invalid_argument);
  EXPECT_THROW(optimize_region(p, reqs, 0.0), std::invalid_argument);
  OptimizerOptions bad;
  bad.step = 0;
  EXPECT_THROW(optimize_region(p, reqs, 64.0 * KiB, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pinned optima, captured from the dedicated two-tier optimizer before the
// grid search generalized to tier vectors.  The generic k=2 engine must
// reproduce them *bit for bit* — stripes, model cost, and grid size — so
// these fail on any change to candidate order, tie-breaking, or the cost
// kernel's accumulation order.
// ---------------------------------------------------------------------------

TEST(Optimizer, PinnedHybridOptimumAt512K) {
  // The paper's {32K, 160K}-class hybrid regime (Fig. 7, large requests).
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto result = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_EQ(result.stripes.h, 12288u);
  EXPECT_EQ(result.stripes.s, 225280u);
  EXPECT_EQ(result.model_cost, 0x1.62a0edd8cc586p-3);
  EXPECT_EQ(result.candidates_evaluated, 8257u);
}

TEST(Optimizer, PinnedSsdOnlyOptimumAt128K) {
  // The paper's {0K, 64K} SServer-only regime (Fig. 9, small requests).
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(128 * KiB, 64);
  const auto result = optimize_region(p, reqs, 128.0 * KiB);
  EXPECT_EQ(result.stripes.h, 0u);
  EXPECT_EQ(result.stripes.s, 65536u);
  EXPECT_EQ(result.model_cost, 0x1.856557900ba3fp-5);
  EXPECT_EQ(result.candidates_evaluated, 529u);
}

TEST(Optimizer, TieredSearchAgreesWithTwoTierPathOnK2) {
  // The k-tier enumeration covers a different grid (monotone tier vectors),
  // but when the two-tier optimum lies inside both grids the winning stripes
  // and cost must agree exactly — same kernel, same accumulation order.
  const CostParams p = calibrated_params();
  const TieredCostParams tp = to_tiered(p);
  for (const Bytes size : {128 * KiB, 512 * KiB}) {
    SCOPED_TRACE("request size " + std::to_string(size));
    const auto reqs = uniform_requests(size, 64);
    const auto two_tier =
        optimize_region(p, reqs, static_cast<double>(size));
    const auto tiered =
        optimize_region_tiered(tp, reqs, static_cast<double>(size));
    ASSERT_EQ(tiered.stripes.size(), 2u);
    EXPECT_EQ(tiered.stripes[0], two_tier.stripes.h);
    EXPECT_EQ(tiered.stripes[1], two_tier.stripes.s);
    EXPECT_EQ(tiered.model_cost, two_tier.model_cost);
  }
}

TEST(RegionCost, SumsPerRequestCosts) {
  const CostParams p = calibrated_params();
  std::vector<FileRequest> reqs = {
      FileRequest{IoOp::kRead, 0, 512 * KiB},
      FileRequest{IoOp::kWrite, 1 * MiB, 512 * KiB},
  };
  const Seconds total = region_cost(p, reqs, {64 * KiB, 64 * KiB});
  const Seconds expect =
      request_cost(p, IoOp::kRead, 0, 512 * KiB, {64 * KiB, 64 * KiB}) +
      request_cost(p, IoOp::kWrite, 1 * MiB, 512 * KiB, {64 * KiB, 64 * KiB});
  EXPECT_DOUBLE_EQ(total, expect);
}

// ---------------------------------------------------------------------------
// Exhaustive reference.  The engine abandons candidates once they provably
// lose, so its argmin, members and cost bits must equal a plain loop that
// scores every grid candidate in full, and the per-request floor it prunes
// with must never exceed an exact request cost.
// ---------------------------------------------------------------------------

struct RefCandidate {
  std::vector<Bytes> stripes;
  std::vector<std::size_t> members;  ///< empty = full membership
  Seconds cost = 0.0;
};

/// The engine's total order: lower cost, then larger stripes, then wider
/// members, both scanned from the front (two-tier API) or back (k-tier).
bool ref_better(const RefCandidate& a, const RefCandidate& b,
                bool from_front) {
  if (a.cost != b.cost) return a.cost < b.cost;
  auto compare = [from_front](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() > y.size() ? 1 : -1;
    for (std::size_t n = 0; n < x.size(); ++n) {
      const std::size_t i = from_front ? n : x.size() - 1 - n;
      if (x[i] != y[i]) return x[i] > y[i] ? 1 : -1;
    }
    return 0;
  };
  if (const int c = compare(a.stripes, b.stripes)) return c > 0;
  return compare(a.members, b.members) > 0;
}

/// Member-prefix choices of one tier: prefix lengths ending at factor-group
/// boundaries of the canonical (ascending) factors; the full tier when
/// homogeneous.
std::vector<std::size_t> ref_member_choices(const TierSpec& tier) {
  if (tier.device_factors.empty()) return {tier.count};
  std::vector<std::size_t> out;
  const auto& f = tier.device_factors;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i + 1 == f.size() || f[i + 1] != f[i]) out.push_back(i + 1);
  }
  return out;
}

/// Appends `stripes` crossed with every member choice (none when every tier
/// is homogeneous).
void ref_cross(const TieredCostParams& tp, const std::vector<Bytes>& stripes,
               std::vector<RefCandidate>& out) {
  bool heterogeneous = false;
  for (const auto& t : tp.tiers) heterogeneous |= !t.device_factors.empty();
  std::vector<std::vector<std::size_t>> picks{{}};
  if (heterogeneous) {
    for (std::size_t j = 0; j < tp.tiers.size(); ++j) {
      const std::vector<std::size_t> choices =
          stripes[j] == 0 ? std::vector<std::size_t>{0}
                          : ref_member_choices(tp.tiers[j]);
      std::vector<std::vector<std::size_t>> next;
      for (const auto& prefix : picks) {
        for (std::size_t m : choices) {
          next.push_back(prefix);
          next.back().push_back(m);
        }
      }
      picks = std::move(next);
    }
  }
  for (auto& members : picks) out.push_back({stripes, std::move(members), 0.0});
}

struct PropertyCase {
  bool two_tier = true;
  std::vector<FileRequest> requests;
  double avg = 0.0;
  Bytes step = 0;
  bool coalesce = true;
  bool pooled = false;
};

/// Scores every candidate in full and returns the reference winner.  Counts
/// (op, size, candidate) triples whose floor exceeds a request's exact
/// cost into `floor_violations`.
RefCandidate reference_search(const CostParams& p, const TieredCostParams& tp,
                              const PropertyCase& pc,
                              std::size_t max_requests,
                              std::size_t& grid_size,
                              std::size_t& floor_violations) {
  const Bytes R = std::max<Bytes>(
      pc.step, (static_cast<Bytes>(pc.avg) + pc.step - 1) / pc.step * pc.step);
  std::vector<RefCandidate> grid;
  if (pc.two_tier) {
    for (Bytes h = 0; h <= R; h += pc.step) {
      for (Bytes s = h + pc.step; s <= std::max(R, h + pc.step); s += pc.step) {
        ref_cross(tp, {h, s}, grid);
      }
    }
  } else {
    auto next = [&](Bytes v) { return v == 0 ? pc.step : v + pc.step; };
    for (Bytes a = 0; a <= R; a = next(a)) {
      for (Bytes b = a; b <= R; b = next(b)) {
        for (Bytes c = b; c <= R; c = next(c)) {
          if (c > 0) ref_cross(tp, {a, b, c}, grid);
        }
      }
    }
  }
  grid_size = grid.size();

  const std::size_t n = pc.requests.size();
  const std::size_t stride =
      n <= max_requests ? 1 : (n + max_requests - 1) / max_requests;
  const std::size_t k = tp.tiers.size();
  RefCandidate best{{}, {}, std::numeric_limits<Seconds>::infinity()};
  WindowFloor window(tp);
  for (RefCandidate& cand : grid) {
    std::vector<std::size_t> use(k);
    std::vector<double> factors(k);
    for (std::size_t j = 0; j < k; ++j) {
      use[j] = cand.members.empty() ? tp.tiers[j].count : cand.members[j];
      factors[j] =
          storage::worst_device_factor(tp.tiers[j].device_factors, use[j]);
    }
    window.bind(use, cand.stripes, factors);
    Seconds total = 0.0;
    std::size_t scored = 0;
    for (std::size_t i = 0; i < n; i += stride) {
      const FileRequest& req = pc.requests[i];
      const Seconds cost =
          cand.members.empty()
              ? tiered_request_cost(tp, req.op, req.offset, req.size,
                                    cand.stripes)
              : tiered_request_cost(tp, req.op, req.offset, req.size,
                                    cand.stripes, cand.members);
      const Seconds floor = window(req.op, req.size);
      if (floor > cost) {
        if (floor_violations++ == 0) {
          ADD_FAILURE() << "floor " << floor << " > cost " << cost
                        << " for size " << req.size << " at offset "
                        << req.offset;
        }
      }
      total += cost;
      ++scored;
    }
    cand.cost = total * static_cast<double>(n) / static_cast<double>(scored);
    if (pc.two_tier && cand.members.empty()) {
      // The two-tier reference scorer agrees bit for bit.
      EXPECT_EQ(cand.cost,
                region_cost(p, pc.requests,
                            StripePair{cand.stripes[0], cand.stripes[1]},
                            max_requests));
    }
    if (ref_better(cand, best, pc.two_tier)) best = cand;
  }
  return best;
}

TEST(OptimizerProperty, PrunedSearchEqualsExhaustiveReference) {
  ThreadPool pool(3);
  const std::vector<Bytes> sizes = {4 * KiB,   12 * KiB,  64 * KiB,
                                    100000,    192 * KiB, 256 * KiB + 512,
                                    384 * KiB, 1 * MiB - 4 * KiB};
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(1000 + trial);
    PropertyCase pc;
    pc.two_tier = trial % 3 != 2;
    pc.coalesce = trial % 4 != 1;
    pc.pooled = trial % 5 == 3;
    // Two trials cross the default 4096-request sampling cap.
    const bool many = trial == 4 || trial == 14;
    const std::size_t count = many ? 4500 : rng.uniform_u64(8, 160);
    const std::size_t size_kinds = rng.uniform_u64(1, 3);
    std::vector<Bytes> picked;
    for (std::size_t i = 0; i < size_kinds; ++i) {
      picked.push_back(sizes[rng.uniform_u64(0, sizes.size() - 1)]);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const Bytes size = picked[rng.uniform_u64(0, picked.size() - 1)];
      Bytes offset = rng.uniform_u64(0, 1ULL << 32);
      if (rng.uniform_u64(0, 1) == 0) offset = offset / (4 * KiB) * (4 * KiB);
      if (rng.uniform_u64(0, 4) == 0) {
        offset = (1ULL << 62) - rng.uniform_u64(0, 1ULL << 24);
      }
      const IoOp op = rng.uniform_u64(0, 1) ? IoOp::kWrite : IoOp::kRead;
      pc.requests.push_back(FileRequest{op, offset, size});
      sum += static_cast<double>(size);
    }
    pc.avg = sum / static_cast<double>(count);
    pc.step = pc.two_tier ? (pc.avg > 300.0 * KiB ? 64 * KiB : 16 * KiB)
                          : (pc.avg > 300.0 * KiB ? 128 * KiB : 32 * KiB);

    CostParams p = calibrated_params(rng.uniform_u64(1, 5),
                                     rng.uniform_u64(1, 3));
    p.per_stripe_overhead = rng.uniform_u64(0, 1) ? 50e-6 : 0.0;
    p.net_latency = rng.uniform_u64(0, 1) ? 30e-6 : 0.0;
    const bool aged = rng.uniform_u64(0, 1) == 1;
    TieredCostParams tp = to_tiered(p);
    if (!pc.two_tier) {
      TierSpec middle{2, storage::sata_ssd_profile(), {}};
      tp.tiers.insert(tp.tiers.begin() + 1, middle);
    }
    if (aged) {
      // Aged members: the slowest device of the first and last tiers, so
      // member prefixes become candidates.
      for (TierSpec* tier : {&tp.tiers.front(), &tp.tiers.back()}) {
        if (tier->count < 2) continue;
        tier->device_factors.assign(tier->count, 1.0);
        tier->device_factors.back() = 2.5;
      }
      p.hserver_factors = tp.tiers.front().device_factors;
      p.sserver_factors = tp.tiers.back().device_factors;
    }

    const std::size_t max_requests = 4096;
    std::size_t grid_size = 0;
    std::size_t floor_violations = 0;
    const RefCandidate want = reference_search(p, tp, pc, max_requests,
                                               grid_size, floor_violations);
    EXPECT_EQ(floor_violations, 0u);

    std::vector<Bytes> got_stripes;
    std::vector<std::size_t> got_members;
    Seconds got_cost = 0.0;
    std::size_t candidates = 0;
    std::uint64_t work = 0;
    if (pc.two_tier) {
      OptimizerOptions opts;
      opts.step = pc.step;
      opts.coalesce = pc.coalesce;
      opts.pool = pc.pooled ? &pool : nullptr;
      const RegionStripes r = optimize_region(p, pc.requests, pc.avg, opts);
      got_stripes = {r.stripes.h, r.stripes.s};
      got_members = r.members;
      got_cost = r.model_cost;
      candidates = r.candidates_evaluated;
      work = r.cost_evals + r.cost_evals_saved + r.requests_skipped;
    } else {
      TieredOptimizerOptions opts;
      opts.step = pc.step;
      opts.coalesce = pc.coalesce;
      opts.pool = pc.pooled ? &pool : nullptr;
      const TieredRegionStripes r =
          optimize_region_tiered(tp, pc.requests, pc.avg, opts);
      got_stripes = r.stripes;
      got_members = r.members;
      got_cost = r.model_cost;
      candidates = r.candidates_evaluated;
      work = r.cost_evals + r.cost_evals_saved + r.requests_skipped;
    }
    EXPECT_EQ(got_stripes, want.stripes);
    EXPECT_EQ(got_members, want.members);
    EXPECT_EQ(got_cost, want.cost);  // the same bits, not approximately
    EXPECT_EQ(candidates, grid_size);
    const std::size_t sampled =
        count <= max_requests
            ? count
            : (count + (count + max_requests - 1) / max_requests - 1) /
                  ((count + max_requests - 1) / max_requests);
    EXPECT_EQ(work, candidates * sampled);
  }
}

TEST(OptimizerProperty, PrunesWithoutChangingTheResult) {
  // Random offsets make most candidates clear losers: the engine must
  // abandon some of them, and its counters must balance exactly.
  const CostParams p = calibrated_params();
  const auto reqs = uniform_requests(512 * KiB, 64);
  const auto r = optimize_region(p, reqs, 512.0 * KiB);
  EXPECT_GT(r.candidates_pruned, 0u);
  EXPECT_LT(r.candidates_pruned, r.candidates_evaluated);
  EXPECT_GT(r.requests_skipped, 0u);
  EXPECT_EQ(r.cost_evals + r.cost_evals_saved + r.requests_skipped,
            r.candidates_evaluated * reqs.size());
}

/// A random op profile; startup_max may lie below startup_min and the
/// per-byte time may be zero, so every branch of the floor is reached.
storage::OpProfile random_op(Rng& rng) {
  storage::OpProfile p;
  // Sometimes startup is negligible, so the byte balances decide.
  const double scale = rng.uniform_u64(0, 1) ? 5e-3 : 5e-7;
  p.startup_min = rng.uniform(0.0, scale);
  p.startup_max = rng.uniform(0.0, scale);
  p.per_byte = rng.uniform_u64(0, 5) == 0 ? 0.0 : rng.uniform(1e-9, 1e-5);
  return p;
}

TEST(OptimizerProperty, WindowFloorIsTheMinimumOverEveryOffset) {
  // Small periods, so the kernel can be scored at every offset residue:
  // the floor must never exceed it and must equal its minimum to within
  // the 2^-47 shave (2^-46 here).  Crosses k = 2/3, aged member prefixes,
  // per-stripe overhead, q = 0/1/2 whole periods and rem = 0, 1, S - 1.
  const double tolerance = 0x1p-46;
  std::size_t checked = 0;
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(7000 + trial);
    const std::size_t k = rng.uniform_u64(2, 3);
    TieredCostParams tp;
    tp.t = rng.uniform_u64(0, 4) == 0 ? 0.0 : rng.uniform(1e-9, 1e-6);
    tp.net_latency = rng.uniform_u64(0, 1) ? 30e-6 : 0.0;
    tp.net_hops = static_cast<int>(rng.uniform_u64(1, 2));
    tp.per_stripe_overhead =
        rng.uniform_u64(0, 1) ? rng.uniform(0.0, 1e-3) : 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      TierSpec tier;
      tier.count = rng.uniform_u64(1, 4);
      tier.profile.read = random_op(rng);
      tier.profile.write = random_op(rng);
      if (tier.count > 1 && rng.uniform_u64(0, 2) == 0) {
        tier.device_factors.assign(tier.count, 1.0);
        tier.device_factors.back() = rng.uniform(1.0, 4.0);
      }
      tp.tiers.push_back(tier);
    }
    std::vector<std::size_t> members(k);
    std::vector<Bytes> stripes(k);
    std::vector<double> factors(k);
    Bytes S = 0;
    for (std::size_t j = 0; j < k; ++j) {
      members[j] = rng.uniform_u64(0, 2) == 0
                       ? rng.uniform_u64(1, tp.tiers[j].count)
                       : tp.tiers[j].count;
      stripes[j] = rng.uniform_u64(0, 3) == 0 ? 0 : rng.uniform_u64(1, 48);
      factors[j] = storage::worst_device_factor(tp.tiers[j].device_factors,
                                                members[j]);
      S += members[j] * stripes[j];
    }
    if (S == 0) continue;
    const TierLayout layout(members, stripes);
    WindowFloor floor(tp);
    floor.bind(members, stripes, factors);
    std::vector<TierGeometry> scratch(k);
    for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      std::vector<const storage::OpProfile*> profiles(k);
      for (std::size_t j = 0; j < k; ++j) {
        profiles[j] = &tp.tiers[j].profile.op(op);
      }
      auto kernel = [&](Bytes offset, Bytes size) {
        return tiered_cost_kernel_devices(
            layout, profiles, factors, tp.t, tp.net_latency, tp.net_hops,
            tp.per_stripe_overhead, offset, size, scratch);
      };
      const Bytes q = rng.uniform_u64(0, 2);
      const Bytes any_rem = rng.uniform_u64(0, S - 1);
      for (const Bytes rem : {Bytes{0}, Bytes{1}, S - 1, any_rem}) {
        const Bytes size = q * S + rem;
        const Seconds got = floor(op, size);
        Seconds lowest = std::numeric_limits<Seconds>::infinity();
        for (Bytes x = 0; x < S; ++x) {
          lowest = std::min(lowest, kernel(x, size));
        }
        ASSERT_LE(got, lowest) << "size " << size << " period " << S;
        ASSERT_GE(got, lowest * (1.0 - tolerance))
            << "size " << size << " period " << S;
        // Far offsets land on the same residues.
        for (int i = 0; i < 8; ++i) {
          const Bytes offset = (1ULL << 62) - rng.uniform_u64(0, 1ULL << 30);
          ASSERT_LE(got, kernel(offset, size)) << "offset " << offset;
        }
        ++checked;
      }
      // From 2^44 bytes on, pieces fall back to the relaxed bound, which
      // must still hold at every offset.
      const Bytes huge = (Bytes{1} << 45) / S * S + any_rem;
      const Seconds loose = floor(op, huge);
      for (Bytes x = 0; x < S; ++x) ASSERT_LE(loose, kernel(x, huge));
    }
  }
  EXPECT_GT(checked, 2000u);
}

TEST(OptimizerProperty, WindowFloorHoldsOnGridLayouts) {
  // Grid-sized stripes and request sizes as Algorithm 2 scores them, at
  // every 4 KiB offset and at random ones, homogeneous kernel included.
  const CostParams p = calibrated_params();
  TieredCostParams tp = to_tiered(p);
  tp.per_stripe_overhead = 50e-6;
  WindowFloor floor(tp);
  Rng rng(11);
  const std::size_t counts[2] = {6, 2};
  const double ones[2] = {1.0, 1.0};
  TierGeometry scratch[2];
  for (int trial = 0; trial < 60; ++trial) {
    const Bytes stripes[2] = {rng.uniform_u64(0, 16) * 4 * KiB,
                              rng.uniform_u64(1, 64) * 4 * KiB};
    const TierLayout layout(counts, stripes);
    floor.bind(counts, stripes, ones);
    const Bytes S = layout.period();
    for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile* profiles[2] = {&tp.tiers[0].profile.op(op),
                                               &tp.tiers[1].profile.op(op)};
      const Bytes size = rng.uniform_u64(1, 3 * S);
      const Seconds got = floor(op, size);
      auto kernel = [&](Bytes offset) {
        return tiered_cost_kernel(layout, profiles, tp.t, tp.net_latency,
                                  tp.net_hops, tp.per_stripe_overhead, offset,
                                  size, scratch);
      };
      for (Bytes x = 0; x < S; x += 4 * KiB) ASSERT_LE(got, kernel(x));
      for (int i = 0; i < 64; ++i) {
        ASSERT_LE(got, kernel(rng.uniform_u64(0, 1ULL << 40)));
      }
    }
  }
}

TEST(OptimizerProperty, KernelIsMonotoneInTheRequestSize) {
  // The engine's floor groups rest on this: when every startup window has
  // startup_max >= startup_min, a longer request at the same offset never
  // costs less, bit for bit, so the window floor at a group's smallest size
  // bounds every request of the group.  Every offset of small periods,
  // every size up to two periods, k = 2/3, aged prefixes, per-stripe
  // overhead on and off.
  std::size_t checked = 0;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(9000 + trial);
    const std::size_t k = rng.uniform_u64(2, 3);
    TieredCostParams tp;
    tp.t = rng.uniform_u64(0, 4) == 0 ? 0.0 : rng.uniform(1e-9, 1e-6);
    tp.net_latency = rng.uniform_u64(0, 1) ? 30e-6 : 0.0;
    tp.net_hops = static_cast<int>(rng.uniform_u64(1, 2));
    tp.per_stripe_overhead =
        rng.uniform_u64(0, 1) ? rng.uniform(0.0, 1e-3) : 0.0;
    std::vector<std::size_t> members(k);
    std::vector<Bytes> stripes(k);
    std::vector<double> factors(k);
    for (std::size_t j = 0; j < k; ++j) {
      TierSpec tier;
      tier.count = rng.uniform_u64(1, 4);
      for (storage::OpProfile* p : {&tier.profile.read, &tier.profile.write}) {
        *p = random_op(rng);
        if (p->startup_max < p->startup_min) {
          std::swap(p->startup_min, p->startup_max);
        }
      }
      if (tier.count > 1 && rng.uniform_u64(0, 2) == 0) {
        tier.device_factors.assign(tier.count, 1.0);
        tier.device_factors.back() = rng.uniform(1.0, 4.0);
      }
      members[j] = rng.uniform_u64(0, 2) == 0
                       ? rng.uniform_u64(1, tier.count)
                       : tier.count;
      stripes[j] = rng.uniform_u64(0, 3) == 0 ? 0 : rng.uniform_u64(1, 16);
      factors[j] =
          storage::worst_device_factor(tier.device_factors, members[j]);
      tp.tiers.push_back(tier);
    }
    Bytes S = 0;
    for (std::size_t j = 0; j < k; ++j) S += members[j] * stripes[j];
    if (S == 0) continue;
    const TierLayout layout(members, stripes);
    std::vector<TierGeometry> scratch(k);
    for (const IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      std::vector<const storage::OpProfile*> profiles(k);
      for (std::size_t j = 0; j < k; ++j) {
        profiles[j] = &tp.tiers[j].profile.op(op);
      }
      for (Bytes x = 0; x < S; ++x) {
        Seconds shorter = 0.0;
        for (Bytes size = 1; size <= 2 * S + 1; ++size) {
          const Seconds cost = tiered_cost_kernel_devices(
              layout, profiles, factors, tp.t, tp.net_latency, tp.net_hops,
              tp.per_stripe_overhead, x, size, scratch);
          ASSERT_LE(shorter, cost) << "offset " << x << " size " << size;
          shorter = cost;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);

  // An inverted startup window breaks it: four servers touched expect a
  // smaller max startup than one.
  TieredCostParams tp;
  TierSpec tier;
  tier.count = 4;
  tier.profile.read.startup_min = 5e-3;
  tier.profile.read.startup_max = 0.0;
  tp.tiers = {tier, tier};
  const std::size_t counts[2] = {4, 4};
  const Bytes stripes[2] = {4 * KiB, 0};
  const TierLayout layout(counts, stripes);
  const storage::OpProfile* profiles[2] = {&tp.tiers[0].profile.read,
                                           &tp.tiers[1].profile.read};
  TierGeometry scratch[2];
  auto cost = [&](Bytes size) {
    return tiered_cost_kernel(layout, profiles, 0.0, 0.0, 1, 0.0, 0, size,
                              scratch);
  };
  EXPECT_GT(cost(4 * KiB), cost(16 * KiB));
}

TEST(OptimizerProperty, FloorGroupsOfManySizesPruneExactly) {
  // Requests of many sizes, as a synthetic trace spreads them (harl_trace
  // gen draws sizes uniformly on a 4 KiB grid), so the engine merges the
  // (op, size) classes into floor groups floored at their smallest size.
  // The result must still be the exhaustive reference's, bit for bit.
  ThreadPool pool(3);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rng rng(3000 + trial);
    PropertyCase pc;
    pc.two_tier = trial % 4 != 3;
    pc.coalesce = trial % 2 == 0;
    pc.pooled = trial % 5 == 2;
    const std::size_t count = rng.uniform_u64(200, 400);
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      Bytes size = rng.uniform_u64(1, 64) * 4 * KiB;
      if (rng.uniform_u64(0, 7) == 0) size -= rng.uniform_u64(1, 4095);
      Bytes offset = rng.uniform_u64(0, 1ULL << 32);
      if (rng.uniform_u64(0, 1) == 0) offset = offset / (4 * KiB) * (4 * KiB);
      const IoOp op = rng.uniform_u64(0, 1) ? IoOp::kWrite : IoOp::kRead;
      pc.requests.push_back(FileRequest{op, offset, size});
      sum += static_cast<double>(size);
    }
    pc.avg = sum / static_cast<double>(count);
    pc.step = pc.two_tier ? 16 * KiB : 32 * KiB;

    CostParams p = calibrated_params(rng.uniform_u64(2, 6),
                                     rng.uniform_u64(1, 3));
    p.per_stripe_overhead = rng.uniform_u64(0, 1) ? 50e-6 : 0.0;
    p.net_latency = rng.uniform_u64(0, 1) ? 30e-6 : 0.0;
    TieredCostParams tp = to_tiered(p);
    if (!pc.two_tier) {
      TierSpec middle{2, storage::sata_ssd_profile(), {}};
      tp.tiers.insert(tp.tiers.begin() + 1, middle);
    }

    std::size_t grid_size = 0;
    std::size_t floor_violations = 0;
    const RefCandidate want =
        reference_search(p, tp, pc, 4096, grid_size, floor_violations);
    EXPECT_EQ(floor_violations, 0u);

    std::vector<Bytes> got_stripes;
    Seconds got_cost = 0.0;
    std::size_t candidates = 0;
    std::size_t pruned = 0;
    std::uint64_t work = 0;
    if (pc.two_tier) {
      OptimizerOptions opts;
      opts.step = pc.step;
      opts.coalesce = pc.coalesce;
      opts.pool = pc.pooled ? &pool : nullptr;
      const RegionStripes r = optimize_region(p, pc.requests, pc.avg, opts);
      got_stripes = {r.stripes.h, r.stripes.s};
      got_cost = r.model_cost;
      candidates = r.candidates_evaluated;
      pruned = r.candidates_pruned;
      work = r.cost_evals + r.cost_evals_saved + r.requests_skipped;
    } else {
      TieredOptimizerOptions opts;
      opts.step = pc.step;
      opts.coalesce = pc.coalesce;
      opts.pool = pc.pooled ? &pool : nullptr;
      const TieredRegionStripes r =
          optimize_region_tiered(tp, pc.requests, pc.avg, opts);
      got_stripes = r.stripes;
      got_cost = r.model_cost;
      candidates = r.candidates_evaluated;
      pruned = r.candidates_pruned;
      work = r.cost_evals + r.cost_evals_saved + r.requests_skipped;
    }
    EXPECT_EQ(got_stripes, want.stripes);
    EXPECT_EQ(got_cost, want.cost);  // the same bits, not approximately
    EXPECT_EQ(candidates, grid_size);
    EXPECT_GT(pruned, 0u);
    EXPECT_EQ(work, candidates * count);
  }
}

TEST(OptimizerProperty, InvertedStartupKeepsOneFloorPerSize) {
  // With startup_max < startup_min the expected max startup falls as more
  // servers are touched, so a 4 KiB request (two servers at best) has a
  // higher floor than a 1 MiB one that touches all twelve: a floor group
  // floored at its smallest size would overshoot the 1 MiB requests that
  // share its group and abandon the winner.
  CostParams p = calibrated_params(6, 6);
  for (storage::OpProfile* prof : {&p.hserver_read, &p.hserver_write,
                                   &p.sserver_read, &p.sserver_write}) {
    prof->startup_min = 10e-3;
    prof->startup_max = 0.0;
    prof->per_byte = 0.0;
  }
  p.t = 1e-9;
  PropertyCase pc;
  Rng rng(17);
  double sum = 0.0;
  for (Bytes i = 0; i < 256; ++i) {
    // Every size is distinct, so every class is light.
    const Bytes size = i == 0 ? 4 * KiB : 1 * MiB + i * 4 * KiB;
    pc.requests.push_back(
        FileRequest{IoOp::kRead, rng.uniform_u64(0, 1ULL << 32), size});
    sum += static_cast<double>(size);
  }
  pc.avg = sum / 256.0;
  pc.step = 32 * KiB;
  std::size_t grid_size = 0;
  std::size_t floor_violations = 0;
  const RefCandidate want =
      reference_search(p, to_tiered(p), pc, 4096, grid_size, floor_violations);
  EXPECT_EQ(floor_violations, 0u);
  OptimizerOptions opts;
  opts.step = pc.step;
  const RegionStripes r = optimize_region(p, pc.requests, pc.avg, opts);
  EXPECT_EQ((std::vector<Bytes>{r.stripes.h, r.stripes.s}), want.stripes);
  EXPECT_EQ(r.model_cost, want.cost);
  EXPECT_GT(r.candidates_pruned, 0u);
}

TEST(OptimizerProperty, FloorGroupsNeverSpanOps) {
  // Reads cost a thousand times more per byte than writes.  A group that
  // ran on from the last read class into the write classes would floor
  // those writes at a read's cost and abandon the winner.
  CostParams p = calibrated_params();
  for (storage::OpProfile* prof : {&p.hserver_read, &p.sserver_read}) {
    prof->per_byte = 1e-6;
  }
  for (storage::OpProfile* prof : {&p.hserver_write, &p.sserver_write}) {
    prof->per_byte = 1e-9;
  }
  PropertyCase pc;
  Rng rng(23);
  double sum = 0.0;
  for (Bytes i = 0; i < 256; ++i) {
    // Distinct sizes; 17 reads leave a last read group short of its share.
    const IoOp op = i < 17 ? IoOp::kRead : IoOp::kWrite;
    const Bytes size = 1 * MiB + i * 4 * KiB;
    pc.requests.push_back(
        FileRequest{op, rng.uniform_u64(0, 1ULL << 32), size});
    sum += static_cast<double>(size);
  }
  pc.avg = sum / 256.0;
  pc.step = 32 * KiB;
  std::size_t grid_size = 0;
  std::size_t floor_violations = 0;
  const RefCandidate want =
      reference_search(p, to_tiered(p), pc, 4096, grid_size, floor_violations);
  EXPECT_EQ(floor_violations, 0u);
  OptimizerOptions opts;
  opts.step = pc.step;
  const RegionStripes r = optimize_region(p, pc.requests, pc.avg, opts);
  EXPECT_EQ((std::vector<Bytes>{r.stripes.h, r.stripes.s}), want.stripes);
  EXPECT_EQ(r.model_cost, want.cost);
  EXPECT_GT(r.candidates_pruned, 0u);
}

}  // namespace
}  // namespace harl::core
