#include "src/core/stripe_optimizer.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/core/cost_memo.hpp"

namespace harl::core {

namespace {

/// Deterministic stride-sampled scoring indices: 0, k, 2k, ...
std::size_t sample_stride(std::size_t n, std::size_t max_requests) {
  if (max_requests == 0 || n <= max_requests) return 1;
  return (n + max_requests - 1) / max_requests;
}

Bytes round_up(Bytes value, Bytes step) {
  return (value + step - 1) / step * step;
}

/// The candidate layouts, flattened into one array per field: candidate i
/// is the per-tier stripe vector stripes[i*k, (i+1)*k), restricted to the
/// members[i*k + j] fastest devices of each tier j.  `members` stays empty
/// when no candidate restricts membership (full membership, the only form
/// the homogeneous search produces).
struct CandidateGrid {
  explicit CandidateGrid(std::size_t tiers) : k(tiers) {}

  std::size_t size() const { return stripes.size() / k; }
  std::span<const Bytes> stripes_of(std::size_t i) const {
    return {stripes.data() + i * k, k};
  }
  std::span<const std::size_t> members_of(std::size_t i) const {
    if (members.empty()) return {};
    return {members.data() + i * k, k};
  }

  std::size_t k;
  std::vector<Bytes> stripes;
  std::vector<std::size_t> members;
};

struct Candidate {
  Seconds cost = std::numeric_limits<Seconds>::infinity();
  std::vector<Bytes> stripes;  ///< empty = sentinel (loses to any real one)
  std::vector<std::size_t> members;  ///< empty = full membership

  /// Total order: lower cost wins; ties prefer *larger* stripes.  Round-robin
  /// aggregation makes many stripe vectors cost-equivalent under the model
  /// (e.g. every s <= r/N gives the same per-SServer bytes for aligned
  /// requests); the largest of them minimizes per-stripe overheads the model
  /// does not price, and matches the paper's reported optima ({0K, 64K} for
  /// 128 KiB requests rather than {0K, 4K}).  The order is deterministic, so
  /// results are independent of evaluation order and parallel sharding.
  /// `tie_from_front` selects the lexicographic scan direction: the two-tier
  /// API compares (h, s) from the front; the k-tier API compares from the
  /// last (fastest) tier.  Member counts break remaining ties in the same
  /// direction with larger (wider) membership winning — cost-equivalent
  /// layouts keep the most devices in play.
  bool better_than(const Candidate& other, bool tie_from_front) const {
    if (cost != other.cost) return cost < other.cost;
    if (stripes.size() != other.stripes.size()) {
      return stripes.size() > other.stripes.size();  // beats the empty sentinel
    }
    if (tie_from_front) {
      for (std::size_t i = 0; i < stripes.size(); ++i) {
        if (stripes[i] != other.stripes[i]) return stripes[i] > other.stripes[i];
      }
    } else {
      for (std::size_t i = stripes.size(); i-- > 0;) {
        if (stripes[i] != other.stripes[i]) return stripes[i] > other.stripes[i];
      }
    }
    if (members.size() != other.members.size()) {
      return members.size() > other.members.size();
    }
    if (tie_from_front) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] != other.members[i]) return members[i] > other.members[i];
      }
    } else {
      for (std::size_t i = members.size(); i-- > 0;) {
        if (members[i] != other.members[i]) return members[i] > other.members[i];
      }
    }
    return false;
  }
};

/// Member-count choices for one tier: the distinct prefix lengths ending at
/// factor-group boundaries of the canonical (ascending) factor vector — e.g.
/// factors {1, 1, 4, 4} yield {2, 4} ("the two fresh devices" or "all
/// four"); intermediate prefixes are dominated because adding another member
/// of the same factor widens the stripe at no worst-factor cost.  A
/// homogeneous tier has the single full-membership choice.
std::vector<std::size_t> member_choices(const TierSpec& tier) {
  if (tier.device_factors.empty() || tier.count == 0) return {tier.count};
  std::vector<std::size_t> out;
  const std::vector<double>& f = tier.device_factors;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i + 1 == f.size() || f[i + 1] != f[i]) out.push_back(i + 1);
  }
  return out;
}

/// Crosses one stripe vector with every member-choice combination (tiers
/// with stripe 0 contribute the single choice 0) and appends the product to
/// `out`, last tier varying fastest.
void cross_member_choices(const TieredCostParams& params,
                          std::span<const Bytes> stripes, CandidateGrid& out) {
  const std::size_t k = params.tiers.size();
  std::vector<std::vector<std::size_t>> per_tier(k);
  std::size_t total = 1;
  for (std::size_t j = 0; j < k; ++j) {
    per_tier[j] = stripes[j] == 0 ? std::vector<std::size_t>{0}
                                  : member_choices(params.tiers[j]);
    total *= per_tier[j].size();
  }
  for (std::size_t n = 0; n < total; ++n) {
    out.stripes.insert(out.stripes.end(), stripes.begin(), stripes.end());
    out.members.resize(out.members.size() + k);
    const auto members = out.members.end() - static_cast<std::ptrdiff_t>(k);
    std::size_t rem = n;
    for (std::size_t j = k; j-- > 0;) {
      members[static_cast<std::ptrdiff_t>(j)] =
          per_tier[j][rem % per_tier[j].size()];
      rem /= per_tier[j].size();
    }
  }
}

/// FNV-1a over a member vector; 0 for the empty (full-membership) form so
/// the homogeneous memo context stays exactly 0.
std::uint64_t members_context(std::span<const std::size_t> members) {
  if (members.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t m : members) {
    h ^= static_cast<std::uint64_t>(m);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Recursively enumerates k-tier stripe vectors; calls `visit` on each.
void enumerate(std::vector<Bytes>& stripes, std::size_t tier, Bytes R,
               Bytes step, bool monotone,
               const std::function<void(const std::vector<Bytes>&)>& visit) {
  if (tier == stripes.size()) {
    for (Bytes s : stripes) {
      if (s > 0) {
        visit(stripes);
        return;
      }
    }
    return;  // all-zero is not a layout
  }
  const Bytes lo = monotone && tier > 0 ? stripes[tier - 1] : 0;
  // Candidate sizes for this tier: lo, then grid points up to R (a zero
  // lower bound admits 0 itself, i.e. "skip this tier").
  for (Bytes s = lo; s <= R; s = (s == 0 ? step : s + step)) {
    stripes[tier] = s;
    enumerate(stripes, tier + 1, R, step, monotone, visit);
  }
  stripes[tier] = 0;
}

struct EngineResult {
  std::vector<Bytes> stripes;
  std::vector<std::size_t> members;  ///< empty = full membership
  Seconds model_cost = 0.0;
  std::size_t candidates_evaluated = 0;
  std::uint64_t cost_evals = 0;
  std::uint64_t cost_evals_saved = 0;
  std::size_t candidates_pruned = 0;
  std::uint64_t requests_skipped = 0;
};

/// True when no cost parameter is negative (or NaN), so every request cost
/// is >= 0 — the premise that makes abandoning a candidate exact.
bool nonnegative_costs(const TieredCostParams& params) {
  auto ok = [](double v) { return v >= 0.0; };
  if (!ok(params.t) || !ok(params.net_latency) || params.net_hops < 0 ||
      !ok(params.per_stripe_overhead)) {
    return false;
  }
  for (const TierSpec& tier : params.tiers) {
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& p = tier.profile.op(op);
      if (!ok(p.startup_min) || !ok(p.startup_max) || !ok(p.per_byte)) {
        return false;
      }
    }
    for (double f : tier.device_factors) {
      if (!ok(f)) return false;
    }
  }
  return true;
}

/// True when every startup window has startup_max >= startup_min, so the
/// expected max startup grows with the touched count and the kernel is
/// monotone in the request size (a longer window covers a shorter one:
/// no fewer servers touched, no fewer bytes or pieces on any of them).
bool monotone_in_size(const TieredCostParams& params) {
  for (const TierSpec& tier : params.tiers) {
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& p = tier.profile.op(op);
      if (!(p.startup_max >= p.startup_min)) return false;
    }
  }
  return true;
}

/// Floor groups per op (see below): a candidate sweeps at most about twice
/// this many window floors per op, however many sizes the requests have.
constexpr std::uint64_t kFloorGroups = 8;

/// The sampled requests merged into floor groups, and each sampled
/// request's group index.  Per op, the (op, size) classes are taken in
/// ascending size: a group takes the next class until it holds
/// 1/kFloorGroups of the op's sampled requests, and a class holding that
/// share alone opens its own group.  A group's floor is the window floor
/// at its smallest size, which bounds every request of the group because
/// the kernel is monotone in the request size.  A class with that share
/// always gets its own exact floor; so does every class of a trace with
/// at most kFloorGroups sizes per op in equal shares.  Without `merge`
/// every class is its own group.
struct FloorGroups {
  struct Group {
    IoOp op = IoOp::kRead;
    Bytes size = 0;           ///< the group's smallest request size
    std::uint64_t count = 0;  ///< sampled requests in the group
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> group_of;  ///< per sampled request
};

FloorGroups floor_groups(std::span<const FileRequest> requests,
                         std::size_t stride, bool merge) {
  struct Class {
    std::uint64_t count = 0;
    std::uint32_t group = 0;
  };
  std::map<std::pair<IoOp, Bytes>, Class> classes;
  std::uint64_t per_op[2] = {0, 0};
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    ++classes[{requests[i].op, requests[i].size}].count;
    ++per_op[requests[i].op == IoOp::kRead ? 0 : 1];
  }
  FloorGroups out;
  for (auto& [key, cls] : classes) {
    const std::uint64_t op_total = per_op[key.first == IoOp::kRead ? 0 : 1];
    auto holds_share = [&](std::uint64_t n) {
      return !merge || n * kFloorGroups >= op_total;
    };
    if (out.groups.empty() || out.groups.back().op != key.first ||
        holds_share(cls.count) || holds_share(out.groups.back().count)) {
      out.groups.push_back({key.first, key.second, 0});
    }
    out.groups.back().count += cls.count;
    cls.group = static_cast<std::uint32_t>(out.groups.size() - 1);
  }
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    out.group_of.push_back(
        classes.at({requests[i].op, requests[i].size}).group);
  }
  return out;
}

/// The one search engine both public APIs feed: scores every candidate
/// stripe vector against the k-tier cost kernel, sharded over the candidate
/// list when a pool is provided.  Pre-selects per-op profile pointers once
/// so the hot loop pays no per-request branching beyond the op pick, and
/// reuses per-shard scratch (layout, geometry, floors) so scoring never
/// allocates.  Heterogeneous params route through the device-aware kernel
/// with each candidate's worst-member factors; homogeneous params take the
/// original kernel with the original memo keying, bit for bit.
///
/// Scoring stops as soon as a candidate provably loses to the incumbent
/// (the best candidate scored so far by this shard); see the header for
/// why that never changes an output bit.
EngineResult search_engine(const TieredCostParams& params,
                           std::span<const FileRequest> requests,
                           const CandidateGrid& candidates,
                           std::size_t max_requests, ThreadPool* pool,
                           bool coalesce, bool tie_from_front,
                           CostMemo* scratch = nullptr) {
  const std::size_t k = params.tiers.size();
  std::vector<std::size_t> counts(k);
  std::vector<const storage::OpProfile*> read_profiles(k);
  std::vector<const storage::OpProfile*> write_profiles(k);
  bool heterogeneous = false;
  for (std::size_t j = 0; j < k; ++j) {
    counts[j] = params.tiers[j].count;
    read_profiles[j] = &params.tiers[j].profile.read;
    write_profiles[j] = &params.tiers[j].profile.write;
    if (!params.tiers[j].device_factors.empty()) heterogeneous = true;
  }

  const std::size_t stride = sample_stride(requests.size(), max_requests);
  const std::size_t sampled = (requests.size() + stride - 1) / stride;
  const FloorGroups groups =
      floor_groups(requests, stride, monotone_in_size(params));
  const double n_requests = static_cast<double>(requests.size());
  const double n_sampled = static_cast<double>(sampled);
  // With a negative parameter a partial sum could still fall, so nothing
  // is ever abandoned (an infinite incumbent never loses a comparison).
  const bool prunable = nonnegative_costs(params);
  // Relative slack of the floor test: covers the rounding of the floor
  // sums and of the scaling, which grows with the sampled count (7e-12 at
  // 4096 requests; it passes 1e-9 only past ~560k sampled requests).
  const double margin =
      std::max(1e-9, 8.0 * (n_sampled + 2.0) *
                         std::numeric_limits<double>::epsilon());

  struct Scratch {
    Scratch(const TieredCostParams& params, std::size_t tiers,
            std::size_t n_groups)
        : geometry(tiers), factors(tiers, 1.0), floors(n_groups),
          window(params) {}

    TierLayout layout;
    std::vector<TierGeometry> geometry;
    std::vector<double> factors;
    std::vector<Seconds> floors;  ///< per floor group
    WindowFloor window;
    std::size_t pruned = 0;
    std::uint64_t skipped = 0;
  };

  // Scores one candidate into `cost`, or returns false once it provably
  // costs more than `incumbent`.  With coalescing, `memo` caches the kernel
  // per (op, size, offset mod S) class; requests are still accumulated in
  // their original order with identical values, so the total is
  // bit-identical to the brute-force sum (see cost_memo.hpp).  The memo
  // context carries the candidate's member selection so equal-period
  // candidates with different member sets never share classes.  Scaled
  // back to the full region so reported costs are comparable regardless of
  // sampling.
  auto score = [&](std::size_t cand, Seconds incumbent, CostMemo* memo,
                   Scratch& s, Seconds& cost) {
    if (!prunable) incumbent = std::numeric_limits<Seconds>::infinity();
    const std::span<const std::size_t> members = candidates.members_of(cand);
    const std::span<const std::size_t> use =
        members.empty() ? std::span<const std::size_t>{counts} : members;
    const std::span<const Bytes> stripes = candidates.stripes_of(cand);
    if (heterogeneous) {
      for (std::size_t j = 0; j < k; ++j) {
        s.factors[j] = storage::worst_device_factor(
            params.tiers[j].device_factors, use[j]);
      }
    }
    auto profiles_for =
        [&](IoOp op) -> const std::vector<const storage::OpProfile*>& {
      return op == IoOp::kRead ? read_profiles : write_profiles;
    };

    // Window floor of the requests not yet scored, group by group; the
    // candidate is abandoned once partial + floor exceeds the incumbent by
    // the margin, here before its layout's divisors are even built.  With
    // no incumbent yet nothing can be abandoned, and the floors stay 0.
    const Seconds limit = incumbent * (1.0 + margin) * n_sampled / n_requests;
    Seconds remaining = 0.0;
    if (limit < std::numeric_limits<Seconds>::infinity()) {
      s.window.bind(use, stripes, s.factors);
      for (std::size_t g = 0; g < groups.groups.size(); ++g) {
        const FloorGroups::Group& group = groups.groups[g];
        s.floors[g] = s.window(group.op, group.size);
        remaining += s.floors[g] * static_cast<double>(group.count);
        if (remaining > limit) {
          ++s.pruned;
          s.skipped += sampled;
          return false;
        }
      }
    } else {
      std::fill(s.floors.begin(), s.floors.end(), 0.0);
    }
    s.layout.assign(use, stripes);

    auto eval = [&](const FileRequest& req, Bytes offset) {
      if (heterogeneous) {
        return tiered_cost_kernel_devices(
            s.layout, profiles_for(req.op), s.factors, params.t,
            params.net_latency, params.net_hops, params.per_stripe_overhead,
            offset, req.size, s.geometry);
      }
      return tiered_cost_kernel(s.layout, profiles_for(req.op), params.t,
                                params.net_latency, params.net_hops,
                                params.per_stripe_overhead, offset, req.size,
                                s.geometry);
    };
    if (memo != nullptr) memo->reset(sampled, members_context(members));
    Seconds total = 0.0;
    for (std::size_t i = 0, scored = 0; i < requests.size();
         i += stride, ++scored) {
      const FileRequest& req = requests[i];
      if (memo != nullptr) {
        total += memo->cost(req.op, req.size,
                            s.layout.by_period().remainder(req.offset),
                            [&](Bytes residue) { return eval(req, residue); });
      } else {
        total += eval(req, req.offset);
      }
      remaining -= s.floors[groups.group_of[scored]];
      // The second test is the final scaling itself: costs are >= 0 and
      // rounding is monotone, so the full total can only be larger.
      if (total + remaining > limit ||
          total * n_requests / n_sampled > incumbent) {
        ++s.pruned;
        s.skipped += sampled - scored - 1;
        return false;
      }
    }
    cost = total * n_requests / n_sampled;
    return true;
  };

  // Makes fully scored candidate i the incumbent when it wins the total
  // order.
  auto offer = [&](Candidate& incumbent, Seconds cost, std::size_t i) {
    const std::span<const Bytes> stripes = candidates.stripes_of(i);
    const std::span<const std::size_t> members = candidates.members_of(i);
    Candidate c{cost, {stripes.begin(), stripes.end()},
                {members.begin(), members.end()}};
    if (c.better_than(incumbent, tie_from_front)) incumbent = std::move(c);
  };

  Candidate best;
  std::uint64_t cost_evals = 0;
  std::uint64_t cost_evals_saved = 0;
  std::size_t candidates_pruned = 0;
  std::uint64_t requests_skipped = 0;
  if (pool != nullptr && candidates.size() > 1) {
    const std::size_t shards =
        std::min(pool->thread_count() * 4, candidates.size());
    std::vector<Candidate> shard_best(shards);
    std::vector<std::uint64_t> shard_evals(shards, 0);
    std::vector<std::uint64_t> shard_saved(shards, 0);
    std::vector<std::size_t> shard_pruned(shards, 0);
    std::vector<std::uint64_t> shard_skipped(shards, 0);
    pool->parallel_for(shards, [&](std::size_t shard) {
      // The incumbent is shard-local, so what a shard prunes (and thus
      // every counter) depends only on the pool width, not the schedule.
      Candidate local;
      CostMemo memo;  // per-shard scratch, reused across candidates
      Scratch s(params, k, groups.groups.size());
      std::size_t scored = 0;
      for (std::size_t i = shard; i < candidates.size(); i += shards) {
        ++scored;
        Seconds cost = 0.0;
        if (score(i, local.cost, coalesce ? &memo : nullptr, s, cost)) {
          offer(local, cost, i);
        }
      }
      shard_best[shard] = std::move(local);
      shard_evals[shard] =
          coalesce ? memo.misses() : scored * sampled - s.skipped;
      shard_saved[shard] = memo.hits();
      shard_pruned[shard] = s.pruned;
      shard_skipped[shard] = s.skipped;
    });
    for (std::size_t shard = 0; shard < shards; ++shard) {
      if (shard_best[shard].better_than(best, tie_from_front)) {
        best = std::move(shard_best[shard]);
      }
      cost_evals += shard_evals[shard];
      cost_evals_saved += shard_saved[shard];
      candidates_pruned += shard_pruned[shard];
      requests_skipped += shard_skipped[shard];
    }
  } else {
    // A caller-provided scratch memo keeps its table capacity across calls;
    // its counters are cumulative, so report this call's work as deltas.
    CostMemo local;
    CostMemo& memo = scratch != nullptr ? *scratch : local;
    const std::uint64_t misses_before = memo.misses();
    const std::uint64_t hits_before = memo.hits();
    Scratch s(params, k, groups.groups.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      Seconds cost = 0.0;
      if (score(i, best.cost, coalesce ? &memo : nullptr, s, cost)) {
        offer(best, cost, i);
      }
    }
    cost_evals = coalesce ? memo.misses() - misses_before
                          : candidates.size() * sampled - s.skipped;
    cost_evals_saved = memo.hits() - hits_before;
    candidates_pruned = s.pruned;
    requests_skipped = s.skipped;
  }

  EngineResult result;
  result.stripes = std::move(best.stripes);
  result.members = std::move(best.members);
  result.model_cost = best.cost;
  result.candidates_evaluated = candidates.size();
  result.cost_evals = cost_evals;
  result.cost_evals_saved = cost_evals_saved;
  result.candidates_pruned = candidates_pruned;
  result.requests_skipped = requests_skipped;
  return result;
}

/// Two-tier front end: the legacy (h, s) grid and space-aware filter, fed
/// through the shared engine with from-front tie-breaking.
RegionStripes search(const CostParams& params,
                     std::span<const FileRequest> requests,
                     double avg_request_size, const OptimizerOptions& options,
                     bool homogeneous) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
  if (options.step == 0) throw std::invalid_argument("optimizer step must be > 0");
  if (avg_request_size <= 0.0) {
    throw std::invalid_argument("average request size must be positive");
  }
  if (params.M + params.N == 0) {
    throw std::invalid_argument("cost params describe no servers");
  }
  if (options.max_sserver_share <= 0.0 || options.max_sserver_share > 1.0) {
    throw std::invalid_argument("max_sserver_share must be in (0, 1]");
  }

  const Bytes step = options.step;
  const Bytes R = std::max(step, round_up(static_cast<Bytes>(avg_request_size), step));

  // Enumerate candidate pairs up front so the grid can be sharded.
  std::vector<StripePair> candidates;
  if (homogeneous) {
    for (Bytes v = step; v <= R; v += step) {
      candidates.push_back(StripePair{v, v});
    }
  } else {
    for (Bytes h = 0; h <= R; h += step) {
      if (params.M == 0 && h > 0) break;  // no HServers to stripe over
      Bytes first_s = h + step;
      // s exceeds h for load balance; when h == R the inner range would be
      // empty, so the single-HServer extreme keeps one candidate.
      for (Bytes s = first_s; s <= std::max(R, first_s); s += step) {
        if (params.N == 0 && s > 0) {
          if (h > 0) candidates.push_back(StripePair{h, 0});
          break;
        }
        candidates.push_back(StripePair{h, s});
      }
    }
  }
  if (candidates.empty()) {
    throw std::logic_error("optimizer produced no candidates");
  }

  // Space-aware filter: drop candidates whose SServer byte share exceeds
  // the bound.  If that empties the grid, fall back to the minimum-share
  // candidates so the search still returns the most space-frugal layout.
  if (options.max_sserver_share < 1.0) {
    auto share = [&](const StripePair& hs) {
      const double S = static_cast<double>(params.M) * hs.h +
                       static_cast<double>(params.N) * hs.s;
      return static_cast<double>(params.N) * hs.s / S;
    };
    std::vector<StripePair> feasible;
    double min_share = 2.0;
    for (const auto& hs : candidates) min_share = std::min(min_share, share(hs));
    const double bound =
        std::max(options.max_sserver_share, min_share + 1e-12);
    for (const auto& hs : candidates) {
      if (share(hs) <= bound) feasible.push_back(hs);
    }
    candidates = std::move(feasible);
  }

  const TieredCostParams tiered = to_tiered(params);
  const bool heterogeneous = !tiered.tiers[0].device_factors.empty() ||
                             !tiered.tiers[1].device_factors.empty();
  CandidateGrid vectors(2);
  vectors.stripes.reserve(2 * candidates.size());
  for (const auto& hs : candidates) {
    const Bytes pair[2] = {hs.h, hs.s};
    if (heterogeneous) {
      cross_member_choices(tiered, pair, vectors);
    } else {
      vectors.stripes.insert(vectors.stripes.end(), pair, pair + 2);
    }
  }
  EngineResult engine = search_engine(
      tiered, requests, vectors, options.max_requests, options.pool,
      options.coalesce, /*tie_from_front=*/true, options.scratch);

  RegionStripes result;
  result.stripes = StripePair{engine.stripes[0], engine.stripes[1]};
  result.members = std::move(engine.members);
  result.model_cost = engine.model_cost;
  result.candidates_evaluated = engine.candidates_evaluated;
  result.cost_evals = engine.cost_evals;
  result.cost_evals_saved = engine.cost_evals_saved;
  result.candidates_pruned = engine.candidates_pruned;
  result.requests_skipped = engine.requests_skipped;
  return result;
}

}  // namespace

RegionStripes optimize_region(const CostParams& params,
                              std::span<const FileRequest> requests,
                              double avg_request_size,
                              const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, false);
}

RegionStripes optimize_region_homogeneous(const CostParams& params,
                                          std::span<const FileRequest> requests,
                                          double avg_request_size,
                                          const OptimizerOptions& options) {
  return search(params, requests, avg_request_size, options, true);
}

Seconds region_cost(const CostParams& params,
                    std::span<const FileRequest> requests, StripePair hs,
                    std::size_t max_requests, bool coalesce) {
  const std::size_t stride = sample_stride(requests.size(), max_requests);
  Seconds total = 0.0;
  std::size_t scored = 0;
  if (coalesce) {
    const Bytes S = static_cast<Bytes>(params.M) * hs.h +
                    static_cast<Bytes>(params.N) * hs.s;
    CostMemo memo;
    memo.reset((requests.size() + stride - 1) / stride);
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      const FileRequest& req = requests[i];
      total += memo.cost(req.op, req.size, req.offset % S, [&](Bytes residue) {
        return request_cost(params, req.op, residue, req.size, hs);
      });
      ++scored;
    }
  } else {
    for (std::size_t i = 0; i < requests.size(); i += stride) {
      total += request_cost(params, requests[i].op, requests[i].offset,
                            requests[i].size, hs);
      ++scored;
    }
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

TieredRegionStripes optimize_region_tiered(
    const TieredCostParams& params, std::span<const FileRequest> requests,
    double avg_request_size, const TieredOptimizerOptions& options) {
  if (requests.empty()) {
    throw std::invalid_argument("optimizer needs at least one request");
  }
  if (options.step == 0) throw std::invalid_argument("step must be > 0");
  if (avg_request_size <= 0.0) {
    throw std::invalid_argument("average request size must be positive");
  }
  std::size_t total_servers = 0;
  for (const auto& t : params.tiers) total_servers += t.count;
  if (total_servers == 0) {
    throw std::invalid_argument("no servers in tiered params");
  }

  const Bytes step = options.step;
  const Bytes R =
      std::max(step, round_up(static_cast<Bytes>(avg_request_size), step));
  const std::size_t k = params.tiers.size();

  // Materialize the candidate list up front so scoring can be sharded.
  bool heterogeneous = false;
  for (const auto& t : params.tiers) {
    if (!t.device_factors.empty()) heterogeneous = true;
  }
  CandidateGrid candidates(k);
  {
    std::vector<Bytes> stripes(k, 0);
    enumerate(stripes, 0, R, step, options.monotone,
              [&](const std::vector<Bytes>& s) {
                if (heterogeneous) {
                  cross_member_choices(params, s, candidates);
                } else {
                  candidates.stripes.insert(candidates.stripes.end(),
                                            s.begin(), s.end());
                }
              });
  }
  if (candidates.size() == 0) throw std::logic_error("no tiered candidates");

  EngineResult engine =
      search_engine(params, requests, candidates, options.max_requests,
                    options.pool, options.coalesce, /*tie_from_front=*/false);

  TieredRegionStripes result;
  result.stripes = std::move(engine.stripes);
  result.members = std::move(engine.members);
  result.model_cost = engine.model_cost;
  result.candidates_evaluated = engine.candidates_evaluated;
  result.cost_evals = engine.cost_evals;
  result.cost_evals_saved = engine.cost_evals_saved;
  result.candidates_pruned = engine.candidates_pruned;
  result.requests_skipped = engine.requests_skipped;
  return result;
}

Seconds tiered_region_cost(const TieredCostParams& params,
                           std::span<const FileRequest> requests,
                           std::span<const Bytes> stripes,
                           std::size_t max_requests) {
  const std::size_t stride = sample_stride(requests.size(), max_requests);
  Seconds total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    total += tiered_request_cost(params, requests[i].op, requests[i].offset,
                                 requests[i].size, stripes);
    ++scored;
  }
  if (scored == 0) return 0.0;
  return total * static_cast<double>(requests.size()) /
         static_cast<double>(scored);
}

}  // namespace harl::core
