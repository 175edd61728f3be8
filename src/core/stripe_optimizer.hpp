// Region stripe-size determination (paper Section III-E, Algorithm 2), for
// any number of storage tiers.
//
// Since the tier-vector refactor this is the ONE grid search: a region's
// candidate layout is a per-tier stripe vector (s_0, ..., s_{k-1}) with
// striping period S = sum_j count_j * s_j, and a single sharded engine
// scores every candidate by the summed cost-model time of the region's
// requests (reads via Eq. 7, writes via Eq. 8); the minimum wins.  The
// two-tier API below is a k = 2 front end over that engine and reproduces
// the dedicated two-tier optimizer bit-for-bit (pinned by optimizer_test).
//
// Two-tier candidate grid (the paper's Algorithm 2): pairs (h, s) in `step`
// increments, h in {0, step, ..., R} and s in {h + step, ..., R} where R is
// the region's average request size — s starts above h because SServers are
// faster and should carry more bytes per period (load balance), and h may
// be 0 so a region can live entirely on SServers ({0K, 64K} in paper
// Section IV-B.3).
//
// k-tier candidate grid (the paper's stated future work): stripe vectors on
// the same grid subject to the monotonicity constraint s_0 <= ... <= s_{k-1}
// when tiers are ordered slowest-first — the k-tier analogue of "s starts
// from a size larger than h".  Not all stripes may be zero.
//
// Device-aware search: when a tier carries per-member speed factors
// (TierSpec::device_factors), every stripe candidate is additionally crossed
// with *member-prefix* choices — stripe over only the d fastest devices of a
// tier, for each d at a factor-group boundary of the canonical (ascending)
// factor vector.  The cost of a restricted candidate charges the worst
// factor among its selected members, so the search can trade width against
// excluding an aged straggler.  Homogeneous tiers contribute the single
// full-membership choice, leaving the candidate grid (and every output bit)
// unchanged.
//
// The search is exact, embarrassingly parallel (sharded over the candidate
// grid), and runs offline; `max_requests` caps the per-candidate scoring
// work by sampling the region's requests with a deterministic stride when
// the trace is huge, and request-class coalescing (cost_memo.hpp) collapses
// same-class requests to one cost evaluation per candidate without changing
// a single output bit.
//
// Early abandon.  Every candidate's requests are scored in order against
// the incumbent (the best candidate scored so far), and scoring stops once
// the candidate provably costs strictly more — again without changing an
// output bit:
//  * Partial sums.  Request costs are >= 0 and round-to-nearest addition
//    and multiplication are monotone, so once the partial total, scaled by
//    the very expression that scales the final total, exceeds the
//    incumbent, the final total would too.  No epsilon.
//  * Remaining-work floor.  WindowFloor (tiered_cost_model.hpp) gives each
//    (op, size) class the kernel's minimum over every offset residue of
//    the candidate's period, shaved by 2^-47 so that it never exceeds the
//    kernel's double; the candidate is abandoned once partial + the floors
//    of the unscored requests exceed the incumbent by a relative margin of
//    1e-9 (wider only past ~560k sampled requests), which covers every
//    rounding in the floor sums.  The same test runs group by group before
//    the first request, before the candidate's divisors are built, and is
//    where nearly every candidate is dropped.
//  * Floor groups.  A sweep costs about as much as several kernel calls,
//    so a trace with a size per request (harl_trace gen draws them from
//    4 KiB..2 MiB) would pay one per request.  Per op, the classes are
//    therefore merged in ascending size into groups of at least 1/8 of
//    the op's sampled requests, each floored at its smallest size: the
//    kernel is monotone in the size (a longer window touches no fewer
//    servers and puts no fewer bytes or pieces on any) when every startup
//    window has startup_max >= startup_min, and only then are classes
//    merged.  A class holding 1/8 of its op's requests keeps its own
//    exact floor, so a trace with a few sizes (IOR, BTIO, the multiregion
//    shapes) keeps one exact floor per class.
//  * The winner is therefore always scored in full: its model_cost double
//    and the tie-breaks are those of the exhaustive search.
//  * Shards prune against their shard-local incumbent only (no shared
//    atomic), so the counters repeat exactly at a given pool width.
// candidates_evaluated stays the grid size; abandoned candidates are
// counted in candidates_pruned and their unscored requests in
// requests_skipped, so that
//   cost_evals + cost_evals_saved + requests_skipped
//       == candidates_evaluated * sampled requests.
// Every per-request divide runs on divisors hoisted per candidate
// (TierLayout), exact for every u64.  None of this has a switch: the
// coalesce = false reference path prunes the same way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/io.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/cost_model.hpp"
#include "src/core/tiered_cost_model.hpp"

namespace harl::core {

class CostMemo;

struct OptimizerOptions {
  Bytes step = 4 * KiB;          ///< the paper's 4 KB grid step
  std::size_t max_requests = 4096;  ///< request-sampling cap (0 = no cap)
  ThreadPool* pool = nullptr;    ///< optional: shard the candidate grid
  /// Optional caller-owned memo reused across optimize calls (the serial
  /// scoring path only — the sharded path keeps per-shard memos).  Online
  /// consumers that re-optimize every window (OnlineAdvisor) thread one
  /// memo through so the hash table is sized once instead of reallocated
  /// per window; per-candidate logical clearing still happens via the
  /// generation counter, so results are bit-identical.  Single-threaded:
  /// never share one scratch memo across concurrent optimize calls.
  CostMemo* scratch = nullptr;
  /// Request-class coalescing: memoize the request cost per candidate keyed
  /// by (op, size, offset mod S) — the cost model is exactly periodic in the
  /// offset with the candidate's striping period S, so each class is scored
  /// once and reused.  Totals (and thus the chosen stripes, tie-breaks
  /// included) are bit-identical to the brute-force path because requests
  /// are still accumulated in their original order with identical values.
  /// Disable only for A/B verification against the brute-force scorer.
  bool coalesce = true;
  /// Space-aware constraint (PSA, the authors' companion work [33], and the
  /// paper's Discussion): bound the fraction of each region's bytes stored
  /// on SServers to N*s / (M*h + N*s) <= max_sserver_share.  1.0 = no bound
  /// (paper-pure Algorithm 2).  If no candidate satisfies the bound, the
  /// feasible candidate with the smallest SServer share wins instead.
  double max_sserver_share = 1.0;
};

/// Result of optimizing one region (two-tier view).
struct RegionStripes {
  StripePair stripes;       ///< the winning (H, S)
  /// Winning per-tier member counts: stripe over only the `members[j]`
  /// fastest devices of tier j.  Empty = full tier membership (always the
  /// case for homogeneous params; the device-aware search may shrink a tier
  /// to exclude aged members when that lowers the modeled cost).
  std::vector<std::size_t> members;
  Seconds model_cost = 0.0; ///< summed model cost of the scored requests
  std::size_t candidates_evaluated = 0;
  /// Cost-kernel evaluations actually performed across all candidates.
  std::uint64_t cost_evals = 0;
  /// Evaluations avoided by request-class coalescing (cache hits); 0 when
  /// coalescing is disabled.
  std::uint64_t cost_evals_saved = 0;
  /// Candidates abandoned before their last request was scored because
  /// they provably lost (see the header comment); they still count in
  /// candidates_evaluated, the grid size.
  std::size_t candidates_pruned = 0;
  /// Sampled requests those candidates never scored.  Exactly:
  /// cost_evals + cost_evals_saved + requests_skipped ==
  /// candidates_evaluated * (sampled requests per candidate).
  std::uint64_t requests_skipped = 0;
};

/// Runs Algorithm 2.  `requests` are the region's file requests (any order);
/// `avg_request_size` is the region's A value from Algorithm 1.
/// Requires at least one request, M + N > 0, and avg_request_size > 0.
RegionStripes optimize_region(const CostParams& params,
                              std::span<const FileRequest> requests,
                              double avg_request_size,
                              const OptimizerOptions& options = {});

/// Baseline for the segment-level ablation: best *homogeneous* stripe
/// (h == s) for the region, searched over the same grid.
RegionStripes optimize_region_homogeneous(const CostParams& params,
                                          std::span<const FileRequest> requests,
                                          double avg_request_size,
                                          const OptimizerOptions& options = {});

/// Scores one candidate: summed model cost over (sampled) requests.
/// `coalesce` memoizes per request class exactly as the search does; the
/// result is bit-identical either way (the default is the plain loop, kept
/// as the A/B reference).
Seconds region_cost(const CostParams& params,
                    std::span<const FileRequest> requests, StripePair hs,
                    std::size_t max_requests = 0, bool coalesce = false);

struct TieredOptimizerOptions {
  Bytes step = 4 * KiB;
  std::size_t max_requests = 4096;  ///< request-sampling cap (0 = no cap)
  ThreadPool* pool = nullptr;       ///< shard the candidate grid
  /// Require stripes to be non-decreasing across tiers (slowest-first
  /// ordering).  Disable for clusters whose tier order is not by speed.
  bool monotone = true;
  /// Request-class coalescing, as in OptimizerOptions: the k-tier cost is
  /// also exactly periodic in the offset (period = sum count_j * stripe_j),
  /// so per-candidate memoization is bit-identical to brute force.
  bool coalesce = true;
};

/// Result of optimizing one region (general tier-vector view).
struct TieredRegionStripes {
  std::vector<Bytes> stripes;   ///< winning per-tier sizes
  /// Winning per-tier member counts (see RegionStripes::members); empty =
  /// full membership.
  std::vector<std::size_t> members;
  Seconds model_cost = 0.0;
  std::size_t candidates_evaluated = 0;
  std::uint64_t cost_evals = 0;        ///< cost-kernel calls made
  std::uint64_t cost_evals_saved = 0;  ///< calls avoided by coalescing
  std::size_t candidates_pruned = 0;   ///< abandoned as provable losers
  std::uint64_t requests_skipped = 0;  ///< requests they never scored
};

/// Exhaustive grid search over per-tier stripes for one region.
/// Requires at least one request, at least one tier with servers, and
/// avg_request_size > 0.  Grid cost grows as (R/step)^k — use coarser
/// steps for k >= 3 (candidates are reported for tuning).
/// Tie-break: lower cost, then the lexicographically larger vector compared
/// from the last (fastest) tier.
TieredRegionStripes optimize_region_tiered(
    const TieredCostParams& params, std::span<const FileRequest> requests,
    double avg_request_size, const TieredOptimizerOptions& options = {});

/// Scores one candidate: summed tiered model cost over (sampled) requests.
Seconds tiered_region_cost(const TieredCostParams& params,
                           std::span<const FileRequest> requests,
                           std::span<const Bytes> stripes,
                           std::size_t max_requests = 0);

}  // namespace harl::core
