// The cost model, in its general k-tier form (the ONLY cost engine).
//
// The paper's model is written for two server classes; its conclusion names
// "extend our cost model to accommodate more than two server performance
// profiles" as future work.  This module is that extension — and, since the
// tier-vector refactor, also the implementation the paper's two-tier API in
// cost_model.hpp adapts to (k = 2): one geometry routine, one cost kernel,
// one set of calibration parameters per tier.
//
// Geometry convention: servers are ordered tier 0 first, then tier 1, ...,
// and striping is round-robin across all servers in that order (the same
// convention pfs::VariedStripeLayout and the paper use for HServers followed
// by SServers).  A region's layout is the stripe vector (s_0, ..., s_{k-1});
// the striping period is S = sum_j count_j * s_j.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/divisor.hpp"
#include "src/common/io.hpp"
#include "src/common/units.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {

/// One storage tier of the cluster.
///
/// `device_factors` generalizes the tier from a homogeneous server class to
/// an ordered group of member devices: factor i is server slot i's time
/// multiplier over the tier profile (1.0 = nominal).  The vector is kept in
/// *canonical* form — sorted ascending (fastest member first) with the
/// all-1.0 case represented by the empty vector
/// (storage::canonicalize_device_factors) — so "the d fastest members" is
/// always the slot prefix [0, d) and the homogeneous configuration takes
/// exactly the pre-device-model code paths, bit for bit.
struct TierSpec {
  std::size_t count = 0;           ///< number of servers in this tier
  storage::TierProfile profile;    ///< alpha/beta parameters per op
  /// Canonical per-member speed factors; empty = homogeneous tier.  When
  /// non-empty the size must equal `count`.
  std::vector<double> device_factors = {};

  /// True when every member matches the tier profile (no device model).
  bool homogeneous() const { return device_factors.empty(); }
};

/// Per-tier sub-request distribution of one request.
struct TierGeometry {
  Bytes max_bytes = 0;     ///< maximal per-server byte count in the tier
  std::size_t touched = 0; ///< servers of the tier with nonzero bytes
};

/// One candidate layout with its divisors hoisted: per-tier participating
/// server counts and stripes, the striping period S = sum counts_j *
/// stripes_j, and exact multiply-high reciprocals (common/divisor.hpp) of S
/// and of every nonzero stripe.  Built once per candidate, it lets the
/// per-request geometry, the memo residue `offset mod S` and the pieces
/// ceil-divide run without a hardware divide.  assign() reuses storage, so
/// a hot loop that re-targets one TierLayout per candidate never allocates.
class TierLayout {
 public:
  TierLayout() = default;
  TierLayout(std::span<const std::size_t> counts,
             std::span<const Bytes> stripes) {
    assign(counts, stripes);
  }

  /// Requires counts.size() == stripes.size() and a nonzero period;
  /// throws std::invalid_argument otherwise.
  void assign(std::span<const std::size_t> counts,
              std::span<const Bytes> stripes);

  std::size_t tiers() const { return counts_.size(); }
  std::span<const std::size_t> counts() const { return counts_; }
  std::span<const Bytes> stripes() const { return stripes_; }
  Bytes period() const { return by_period_.value(); }
  const Divisor& by_period() const { return by_period_; }
  /// Divides by stripes()[j]; the identity for a zero (skipped) stripe.
  const Divisor& by_stripe(std::size_t j) const { return by_stripe_[j]; }

 private:
  std::vector<std::size_t> counts_;
  std::vector<Bytes> stripes_;
  Divisor by_period_;
  std::vector<Divisor> by_stripe_;
};

/// Exact per-tier geometry of request [o, o+r) under round-robin striping.
/// `counts[j]` servers in tier j each use stripe `stripes[j]` (0 = skip).
/// Requires counts.size() == stripes.size() and a nonzero total period.
std::vector<TierGeometry> tiered_geometry(Bytes o, Bytes r,
                                          std::span<const std::size_t> counts,
                                          std::span<const Bytes> stripes);

/// Allocation-free form: writes per-tier geometry into `out` (one entry
/// per tier of `layout`).  For k == 2 with both tiers present and both
/// stripes nonzero this dispatches to the O(1) closed forms of paper Fig.
/// 4/5 (exactness is pinned by closed_form_test); otherwise it walks the
/// period's cells in O(sum counts).  The optimizer calls this millions of
/// times per region.
void tiered_geometry_into(Bytes o, Bytes r, const TierLayout& layout,
                          std::span<TierGeometry> out);

struct TieredCostParams {
  std::vector<TierSpec> tiers;
  Seconds t = 0.0;            ///< unit-byte network time
  Seconds net_latency = 0.0;  ///< fixed per-request overhead (0 = paper-pure)
  int net_hops = 1;           ///< link traversals charged
  /// Server-side processing charged per stripe unit of the largest
  /// sub-request (0 = paper-pure); see CostParams::per_stripe_overhead.
  Seconds per_stripe_overhead = 0.0;
};

/// Expected maximum of `k` i.i.d. uniforms on [p.startup_min, p.startup_max]
/// (paper Eq. 3/4): a_min + k/(k+1) * (a_max - a_min).  0 when k == 0.
Seconds startup_expected_max(const storage::OpProfile& p, std::size_t k);

/// The shared cost kernel (generalized Eq. 7/8):
///   T_X = hops * t * max_j(max_bytes_j) + latency
///   T_S = max_j E[max of touched_j uniforms on tier j's startup window]
///   T_T = max_j (max_bytes_j * beta_j) + per_stripe_overhead * max pieces
/// `layout` carries the per-tier server counts and stripes, `profiles[j]`
/// is tier j's OpProfile for the request's op (pre-selected so hot loops
/// pay no per-request branching) and `scratch` is caller-provided
/// TierGeometry storage with one entry per tier.
Seconds tiered_cost_kernel(const TierLayout& layout,
                           std::span<const storage::OpProfile* const> profiles,
                           Seconds t, Seconds net_latency, int net_hops,
                           Seconds per_stripe_overhead, Bytes offset,
                           Bytes size, std::span<TierGeometry> scratch);

/// Device-aware variant of the kernel.  `tier_factors[j]` is the worst
/// (largest) speed factor among the member devices of tier j that the
/// request's stripes actually use (storage::worst_device_factor over the
/// selected member prefix).  Every server-side term is charged at that
/// conservative factor — the slowest touched member dominates its tier:
///   T_S = max_j f_j * E[max of touched_j startups on tier j's window]
///   T_T = max_j f_j * max_bytes_j * beta_j
///        + per_stripe_overhead * max_j f_j * pieces_j
/// The network terms (T_X) are unchanged: aging is a device property.
/// With all factors exactly 1.0 this returns a value bit-identical to
/// `tiered_cost_kernel` (multiplication by 1.0 is exact), but homogeneous
/// callers still use the unscaled kernel so the hot path is untouched.
Seconds tiered_cost_kernel_devices(
    const TierLayout& layout,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes offset, Bytes size,
    std::span<TierGeometry> scratch);

/// The exact window floor of the kernel: for a request of `size` bytes, the
/// minimum of tiered_cost_kernel_devices over EVERY offset residue in
/// [0, S), shaved by a relative 2^-47 so that it never exceeds the kernel's
/// double at any offset (and so never exceeds tiered_cost_kernel's either
/// when every factor is 1.0).  Requires every cost parameter — alpha/beta,
/// t, latency, hops, per-stripe overhead, factors — to be non-negative.
///
/// Derivation.  With q = size / S and rem = size mod S, server i of tier j
/// holds q * stripe_j bytes plus its share of the rem-byte window that
/// starts at residue x and may wrap past S.  Sweep x over [0, S): the
/// window's start cell changes where x reaches a cell boundary c, its end
/// cell where x reaches (c - rem + 1) mod S, so [0, S) falls into at most
/// 2 * sum(counts) pieces.  Within one piece every cell strictly between
/// the start and end cells is full, so each tier's touched count, pieces
/// (q plus one when the window reaches the tier) and startup term are
/// constant, and each tier's max bytes is q * stripe_j plus the largest of
/// a constant (one stripe if the tier has a full cell), the start fragment
/// s0 - x and the end fragment e0 + x, whose sum D is constant.  So on a
/// piece the cost is
///   h(a) = ht * max(K0, A(a), B(a)) + max(T0, w_a A(a), w_b B(a)) + const
/// in the start fragment a, with A(a) = q s_a + a rising, B(a) = q s_b +
/// D - a falling, ht = hops * t and w_j = f_j * beta_j: convex and piecewise
/// linear.  T_X alone is minimal on an interval around the byte balance
/// A = B (flat where K0 dominates), T_T alone around the weighted balance
/// w_a A = w_b B; between the two intervals h is linear, so its minimum is
/// at the end of one interval that faces the other (or anywhere in their
/// overlap), clipped to the piece.  The integer minimum is one of the
/// integers next to that point; they are scored, and the smallest score
/// over all pieces is the floor.  When only one fragment lands on a tier
/// without a full cell the piece is monotone and its end is the minimum;
/// when both fragments share such a tier, the cost depends on the larger
/// fragment alone, minimal at D / 2.
///
/// Rounding.  The kernel evaluates the same expression on the same integer
/// inputs: each non-negative sum and product rounds once, at most five
/// times along any path, so its double lies within (1 +- u)^5 of the real
/// value (u = 2^-53), and the floor's own score within (1 + u)^5 of the
/// real minimum; the startup and per-stripe terms are computed bit for bit
/// as the kernel does.  The shave 2^-47 (= 64u) covers both and the final
/// product.  The balance points involving T_T are real numbers, located in
/// double to within far less than half a byte for sizes below 2^44 bytes;
/// above that the piece falls back to scoring each fragment at its own
/// smallest value, a looser but still admissible bound.
class WindowFloor {
 public:
  /// Precomputes each tier's E[max startup] over touched counts 0..count
  /// for both ops, so the sweep never divides.
  explicit WindowFloor(const TieredCostParams& params);

  /// Targets one candidate layout: per-tier server `counts` (at most the
  /// params' counts, e.g. a member prefix), `stripes` and worst factors.
  /// Requires a nonzero period.  Needs no TierLayout, so a candidate can be
  /// abandoned before its divisors are built.
  void bind(std::span<const std::size_t> counts, std::span<const Bytes> stripes,
            std::span<const double> tier_factors);

  /// The floor for a request of `size` bytes of `op` under the bound layout.
  Seconds operator()(IoOp op, Bytes size);

 private:
  /// One tier of the bound layout that holds cells (servers and a stripe).
  struct Tier {
    Bytes stripe = 0;
    std::size_t count = 0;
    double factor = 1.0;
    double weight[2] = {0.0, 0.0};            ///< factor * per_byte, per op
    const Seconds* startup[2] = {nullptr, nullptr};  ///< by touched count
  };
  struct Cell {
    Bytes end = 0;           ///< end offset within the period
    std::uint32_t tier = 0;  ///< index into tiers_
  };

  Seconds hops_t_ = 0.0;
  Seconds latency_ = 0.0;
  Seconds per_stripe_ = 0.0;
  std::vector<Seconds> startup_;      ///< every (tier, op) table, flattened
  std::vector<std::size_t> table_at_; ///< table start per (tier, op)
  std::vector<std::size_t> tier_count_;
  std::vector<double> weight_[2];     ///< per_byte per params tier, per op

  Bytes period_ = 0;
  std::vector<Tier> tiers_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> full_;   ///< full cells per tier (sweep state)
};

/// Cost of one request with per-tier stripe sizes (generalized Eq. 7/8).
/// Heterogeneous tiers (non-empty device_factors) are charged at the worst
/// factor over the full tier membership.
Seconds tiered_request_cost(const TieredCostParams& params, IoOp op, Bytes offset,
                            Bytes size, std::span<const Bytes> stripes);

/// Member-restricted cost: `members[j]` servers of tier j participate in
/// the round-robin (the j-th tier's *fastest* members — slot prefix of the
/// canonical factor order); members[j] == 0 skips the tier regardless of
/// stripes[j].  Requires members[j] <= tiers[j].count.  With
/// members[j] == count for every tier this equals the base overload.
Seconds tiered_request_cost(const TieredCostParams& params, IoOp op, Bytes offset,
                            Bytes size, std::span<const Bytes> stripes,
                            std::span<const std::size_t> members);

/// Geometry of the read-cache tier, for the expected-hit-rate cost term
/// (HACache direction): the fastest `devices` members of one tier are
/// reserved as a chunk-granular read cache, so a cache hit is served by
/// chunk-wise round-robin striping over those devices instead of by the
/// region's home-server layout.
struct CacheReadSpec {
  std::size_t devices = 0;     ///< reserved cache devices
  Bytes chunk = 0;             ///< cache chunk size (the hit stripe unit)
  storage::OpProfile profile;  ///< cache-device read alpha/beta
  /// Worst (largest) speed factor among the reserved member prefix — the
  /// slowest cache device dominates a multi-chunk hit, mirroring
  /// tiered_cost_kernel_devices' conservative charging.
  double worst_factor = 1.0;
};

/// Cost of serving read [offset, offset+size) entirely from the cache tier:
/// the same kernel as a one-tier layout of `spec.devices` servers striped at
/// `spec.chunk`, with network terms (t, latency, hops, per-stripe overhead)
/// taken from `params`.  Requires devices > 0 and chunk > 0.
Seconds cached_read_cost(const TieredCostParams& params,
                         const CacheReadSpec& spec, Bytes offset, Bytes size);

/// The expected-hit-rate term: a read's expected cost under a cache with
/// per-region hit rate `hit_rate` is the convex mix of its miss path (the
/// region's home layout) and its hit path (the cache tier).
inline Seconds expected_read_cost(Seconds miss_cost, Seconds hit_cost,
                                  double hit_rate) {
  return (1.0 - hit_rate) * miss_cost + hit_rate * hit_cost;
}

/// Order-independent fingerprint of the calibration (FNV-1a over the tier
/// counts and every parameter double's bit pattern; for a heterogeneous
/// tier also its device-factor vector).  Stored in Plan artifacts so the
/// Placing Phase can detect that a plan was computed against a different
/// calibration than the one in force.  A homogeneous tier (empty factors)
/// hashes exactly as before the device model existed, so pre-device plans
/// keep their fingerprints; changing any device factor changes the
/// fingerprint, which is what invalidates every cache keyed on it.
std::uint64_t params_fingerprint(const TieredCostParams& params);

}  // namespace harl::core
