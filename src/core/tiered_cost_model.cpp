#include "src/core/tiered_cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/common/interval.hpp"
#include "src/core/closed_form.hpp"
#include "src/core/cost_model.hpp"

namespace harl::core {

namespace {

/// Accumulates max-bytes/touched over one tier's cells without allocating.
/// `tier_base` is the tier's first cell offset within the period; the
/// sentinel full_periods == ~0 marks a single-period request [l_b, l_e).
void tier_geometry_inline(Bytes l_b, Bytes l_e, Bytes S, Bytes full_periods,
                          Bytes tier_base, std::size_t count, Bytes stripe,
                          TierGeometry& out) {
  if (stripe == 0 || count == 0) return;
  Bytes cell_base = tier_base;
  for (std::size_t i = 0; i < count; ++i) {
    const ByteInterval cell{cell_base, cell_base + stripe};
    Bytes bytes = 0;
    if (full_periods == ~static_cast<Bytes>(0)) {
      bytes = intersect({l_b, l_e}, cell).length();
    } else {
      bytes = intersect({l_b, S}, cell).length() + full_periods * stripe +
              intersect({0, l_e}, cell).length();
    }
    if (bytes > 0) {
      ++out.touched;
      out.max_bytes = std::max(out.max_bytes, bytes);
    }
    cell_base += stripe;
  }
}

}  // namespace

void TierLayout::assign(std::span<const std::size_t> counts,
                        std::span<const Bytes> stripes) {
  if (counts.size() != stripes.size()) {
    throw std::invalid_argument("counts/stripes size mismatch");
  }
  Bytes S = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    S += static_cast<Bytes>(counts[j]) * stripes[j];
  }
  if (S == 0) throw std::invalid_argument("zero striping period");
  counts_.assign(counts.begin(), counts.end());
  stripes_.assign(stripes.begin(), stripes.end());
  by_period_ = Divisor(S);
  by_stripe_.resize(stripes.size());
  for (std::size_t j = 0; j < stripes.size(); ++j) {
    by_stripe_[j] = stripes[j] == 0 ? Divisor() : Divisor(stripes[j]);
  }
}

void tiered_geometry_into(Bytes o, Bytes r, const TierLayout& layout,
                          std::span<TierGeometry> out) {
  if (out.size() != layout.tiers()) {
    throw std::invalid_argument("geometry output size mismatch");
  }
  const std::span<const std::size_t> counts = layout.counts();
  const std::span<const Bytes> stripes = layout.stripes();
  std::fill(out.begin(), out.end(), TierGeometry{});
  if (r == 0) return;

  // Fast path for the paper's hybrid shape: the completed Fig. 4/5 closed
  // forms are O(1) and exact when both tiers are present
  // (closed_form_test.cpp pins the equivalence with the cell walk).
  if (counts.size() == 2 && counts[0] > 0 && counts[1] > 0 && stripes[0] > 0 &&
      stripes[1] > 0) {
    const SubreqGeometry g = closed_form_geometry(
        o, r, StripePair{stripes[0], stripes[1]}, counts[0], counts[1],
        layout.by_period(), layout.by_stripe(0), layout.by_stripe(1));
    out[0] = TierGeometry{g.s_m, g.m};
    out[1] = TierGeometry{g.s_n, g.n};
    return;
  }

  const Bytes S = layout.period();
  const Bytes end = o + r;
  const Bytes period_first = layout.by_period().quotient(o);
  const Bytes period_last = layout.by_period().quotient(end);
  const Bytes l_b = o - period_first * S;
  const Bytes l_e = end - period_last * S;
  const Bytes full_periods = period_last == period_first
                                 ? ~static_cast<Bytes>(0)
                                 : period_last - period_first - 1;

  Bytes tier_base = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    tier_geometry_inline(l_b, l_e, S, full_periods, tier_base, counts[j],
                         stripes[j], out[j]);
    tier_base += static_cast<Bytes>(counts[j]) * stripes[j];
  }
}

std::vector<TierGeometry> tiered_geometry(Bytes o, Bytes r,
                                          std::span<const std::size_t> counts,
                                          std::span<const Bytes> stripes) {
  std::vector<TierGeometry> out(counts.size());
  tiered_geometry_into(o, r, TierLayout(counts, stripes), out);
  return out;
}

Seconds startup_expected_max(const storage::OpProfile& p, std::size_t k) {
  if (k == 0) return 0.0;
  const double frac = static_cast<double>(k) / static_cast<double>(k + 1);
  return p.startup_min + frac * (p.startup_max - p.startup_min);
}

Seconds tiered_cost_kernel(const TierLayout& layout,
                           std::span<const storage::OpProfile* const> profiles,
                           Seconds t, Seconds net_latency, int net_hops,
                           Seconds per_stripe_overhead, Bytes offset,
                           Bytes size, std::span<TierGeometry> scratch) {
  tiered_geometry_into(offset, size, layout, scratch);
  const std::span<const Bytes> stripes = layout.stripes();

  Bytes max_bytes = 0;
  Seconds startup = 0.0;
  Seconds transfer = 0.0;
  Bytes max_pieces = 0;
  for (std::size_t j = 0; j < scratch.size(); ++j) {
    const TierGeometry& g = scratch[j];
    const storage::OpProfile& p = *profiles[j];
    max_bytes = std::max(max_bytes, g.max_bytes);
    startup = std::max(startup, startup_expected_max(p, g.touched));
    transfer = std::max(transfer,
                        static_cast<double>(g.max_bytes) * p.per_byte);
    // Stripe units in the maximal per-server extent (the per-stripe request
    // protocol charge of CostParams::per_stripe_overhead, tier-generalized).
    if (per_stripe_overhead > 0.0 && stripes[j] > 0 && g.max_bytes > 0) {
      max_pieces = std::max(
          max_pieces,
          layout.by_stripe(j).quotient(g.max_bytes + stripes[j] - 1));
    }
  }
  if (per_stripe_overhead > 0.0) {
    transfer += per_stripe_overhead * static_cast<double>(max_pieces);
  }
  const Seconds network = net_latency + static_cast<double>(net_hops) * t *
                                            static_cast<double>(max_bytes);
  return network + startup + transfer;
}

Seconds tiered_cost_kernel_devices(
    const TierLayout& layout,
    std::span<const storage::OpProfile* const> profiles,
    std::span<const double> tier_factors, Seconds t, Seconds net_latency,
    int net_hops, Seconds per_stripe_overhead, Bytes offset, Bytes size,
    std::span<TierGeometry> scratch) {
  tiered_geometry_into(offset, size, layout, scratch);
  const std::span<const Bytes> stripes = layout.stripes();

  Bytes max_bytes = 0;
  Seconds startup = 0.0;
  Seconds transfer = 0.0;
  // With heterogeneous tiers the dominating piece count is factor-weighted,
  // so the max runs over doubles rather than integer stripe units.
  double max_pieces = 0.0;
  for (std::size_t j = 0; j < scratch.size(); ++j) {
    const TierGeometry& g = scratch[j];
    const storage::OpProfile& p = *profiles[j];
    const double f = tier_factors[j];
    max_bytes = std::max(max_bytes, g.max_bytes);
    startup = std::max(startup, f * startup_expected_max(p, g.touched));
    transfer = std::max(transfer,
                        f * static_cast<double>(g.max_bytes) * p.per_byte);
    if (per_stripe_overhead > 0.0 && stripes[j] > 0 && g.max_bytes > 0) {
      const Bytes pieces =
          layout.by_stripe(j).quotient(g.max_bytes + stripes[j] - 1);
      max_pieces = std::max(max_pieces, f * static_cast<double>(pieces));
    }
  }
  if (per_stripe_overhead > 0.0) {
    transfer += per_stripe_overhead * max_pieces;
  }
  const Seconds network = net_latency + static_cast<double>(net_hops) * t *
                                            static_cast<double>(max_bytes);
  return network + startup + transfer;
}

Seconds tiered_cost_floor(const TierLayout& layout,
                          std::span<const storage::OpProfile* const> profiles,
                          std::span<const double> tier_factors, Seconds t,
                          Seconds net_latency, int net_hops,
                          Seconds per_stripe_overhead, Bytes size) {
  const std::span<const std::size_t> counts = layout.counts();
  const std::span<const Bytes> stripes = layout.stripes();
  const Bytes S = layout.period();
  const Bytes q = layout.by_period().quotient(size);
  const Bytes rem = size - q * S;

  // Mirrors tiered_cost_kernel_devices term for term, on floors of its
  // integer inputs (see the header for why each is a floor).
  Bytes max_bytes = 0;
  Seconds startup = 0.0;
  Seconds transfer = 0.0;
  double max_pieces = 0.0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    const Bytes tier_bytes = static_cast<Bytes>(counts[j]) * stripes[j];
    if (tier_bytes == 0) continue;  // never touched: the kernel charges 0
    const storage::OpProfile& p = *profiles[j];
    const double f = tier_factors[j];
    // Window bytes that must land on tier j, and the busiest member's share.
    const Bytes forced = rem > S - tier_bytes ? rem - (S - tier_bytes) : 0;
    const Bytes share = (forced + counts[j] - 1) / counts[j];
    const Bytes tier_max = q * stripes[j] + share;
    const std::size_t touched =
        q > 0 ? counts[j]
              : static_cast<std::size_t>(layout.by_stripe(j).quotient(
                    forced + stripes[j] - 1));
    max_bytes = std::max(max_bytes, tier_max);
    if (touched > 0) {
      startup = std::max(
          startup, f * std::min(startup_expected_max(p, touched),
                                startup_expected_max(p, counts[j])));
    }
    transfer = std::max(transfer,
                        f * static_cast<double>(tier_max) * p.per_byte);
    if (per_stripe_overhead > 0.0 && tier_max > 0) {
      // ceil(tier_max / stripe): share is at most one stripe.
      const Bytes pieces = q + (share > 0 ? 1 : 0);
      max_pieces = std::max(max_pieces, f * static_cast<double>(pieces));
    }
  }
  if (per_stripe_overhead > 0.0) {
    transfer += per_stripe_overhead * max_pieces;
  }
  const Seconds network = net_latency + static_cast<double>(net_hops) * t *
                                            static_cast<double>(max_bytes);
  return network + startup + transfer;
}

namespace {

/// Shared body of the two tiered_request_cost overloads.  `use_counts` is
/// the per-tier participating-server vector (full counts or a member
/// restriction); the worst-factor charge is taken over that many members of
/// each tier's canonical (ascending) factor vector.
Seconds tiered_request_cost_impl(const TieredCostParams& params, IoOp op,
                                 Bytes offset, Bytes size,
                                 std::span<const Bytes> stripes,
                                 std::span<const std::size_t> use_counts) {
  const std::size_t k = params.tiers.size();
  std::vector<const storage::OpProfile*> profiles(k);
  bool heterogeneous = false;
  for (std::size_t j = 0; j < k; ++j) {
    profiles[j] = &params.tiers[j].profile.op(op);
    if (!params.tiers[j].device_factors.empty()) heterogeneous = true;
  }
  const TierLayout layout(use_counts, stripes);
  std::vector<TierGeometry> scratch(k);
  if (!heterogeneous) {
    return tiered_cost_kernel(layout, profiles, params.t, params.net_latency,
                              params.net_hops, params.per_stripe_overhead,
                              offset, size, scratch);
  }
  std::vector<double> factors(k);
  for (std::size_t j = 0; j < k; ++j) {
    factors[j] = storage::worst_device_factor(params.tiers[j].device_factors,
                                              use_counts[j]);
  }
  return tiered_cost_kernel_devices(
      layout, profiles, factors, params.t, params.net_latency,
      params.net_hops, params.per_stripe_overhead, offset, size, scratch);
}

}  // namespace

Seconds tiered_request_cost(const TieredCostParams& params, IoOp op,
                            Bytes offset, Bytes size,
                            std::span<const Bytes> stripes) {
  if (params.tiers.size() != stripes.size()) {
    throw std::invalid_argument("tiers/stripes size mismatch");
  }
  const std::size_t k = params.tiers.size();
  std::vector<std::size_t> counts(k);
  for (std::size_t j = 0; j < k; ++j) counts[j] = params.tiers[j].count;
  return tiered_request_cost_impl(params, op, offset, size, stripes, counts);
}

Seconds tiered_request_cost(const TieredCostParams& params, IoOp op,
                            Bytes offset, Bytes size,
                            std::span<const Bytes> stripes,
                            std::span<const std::size_t> members) {
  if (params.tiers.size() != stripes.size() ||
      params.tiers.size() != members.size()) {
    throw std::invalid_argument("tiers/stripes/members size mismatch");
  }
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (members[j] > params.tiers[j].count) {
      throw std::invalid_argument("members exceed tier count");
    }
  }
  return tiered_request_cost_impl(params, op, offset, size, stripes, members);
}

Seconds cached_read_cost(const TieredCostParams& params,
                         const CacheReadSpec& spec, Bytes offset, Bytes size) {
  if (spec.devices == 0 || spec.chunk == 0) {
    throw std::invalid_argument("cache spec needs devices and a chunk size");
  }
  // A hit is a one-tier layout: `devices` servers striped at `chunk`, read
  // with the cache devices' profile.  Network terms come from the same
  // calibration as the miss path, so hit and miss costs are comparable.
  const std::size_t counts[1] = {spec.devices};
  const Bytes stripes[1] = {spec.chunk};
  const TierLayout layout(counts, stripes);
  const storage::OpProfile* profiles[1] = {&spec.profile};
  TierGeometry scratch[1];
  if (spec.worst_factor == 1.0) {
    return tiered_cost_kernel(layout, profiles, params.t, params.net_latency,
                              params.net_hops, params.per_stripe_overhead,
                              offset, size, scratch);
  }
  const double factors[1] = {spec.worst_factor};
  return tiered_cost_kernel_devices(layout, profiles, factors, params.t,
                                    params.net_latency, params.net_hops,
                                    params.per_stripe_overhead, offset, size,
                                    scratch);
}

std::uint64_t params_fingerprint(const TieredCostParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(params.tiers.size());
  mix_double(params.t);
  mix_double(params.net_latency);
  mix(static_cast<std::uint64_t>(params.net_hops));
  mix_double(params.per_stripe_overhead);
  for (const TierSpec& tier : params.tiers) {
    mix(tier.count);
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& p = tier.profile.op(op);
      mix_double(p.startup_min);
      mix_double(p.startup_max);
      mix_double(p.per_byte);
    }
    // Device table: hashed only when present, so the homogeneous fingerprint
    // is unchanged from the pre-device-model format while any factor change
    // (even on a single member) yields a new fingerprint and invalidates
    // every cache keyed on it.
    if (!tier.device_factors.empty()) {
      mix(tier.device_factors.size());
      for (double f : tier.device_factors) mix_double(f);
    }
  }
  return h;
}

}  // namespace harl::core
