#include "src/core/tiered_cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

namespace {

/// WindowFloor's relative shave, 1 - 2^-47 (see the header).
constexpr double kWindowShave = 1.0 - 0x1p-47;
/// From this size on, the T_T balance points are not located to within
/// half a byte in double, so pieces fall back to the relaxed bound.
constexpr Bytes kExactBalanceLimit = Bytes{1} << 44;

}  // namespace

WindowFloor::WindowFloor(const TieredCostParams& params)
    : hops_t_(static_cast<double>(params.net_hops) * params.t),
      latency_(params.net_latency),
      per_stripe_(params.per_stripe_overhead) {
  for (const TierSpec& tier : params.tiers) {
    tier_count_.push_back(tier.count);
    for (IoOp op : {IoOp::kRead, IoOp::kWrite}) {
      const storage::OpProfile& p = tier.profile.op(op);
      table_at_.push_back(startup_.size());
      for (std::size_t touched = 0; touched <= tier.count; ++touched) {
        startup_.push_back(startup_expected_max(p, touched));
      }
      weight_[op == IoOp::kRead ? 0 : 1].push_back(p.per_byte);
    }
  }
  full_.resize(params.tiers.size());
}

void WindowFloor::bind(std::span<const std::size_t> counts,
                       std::span<const Bytes> stripes,
                       std::span<const double> tier_factors) {
  if (counts.size() != tier_count_.size() ||
      stripes.size() != counts.size() ||
      tier_factors.size() != counts.size()) {
    throw std::invalid_argument("window floor: tier count mismatch");
  }
  tiers_.clear();
  cells_.clear();
  Bytes end = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (counts[j] > tier_count_[j]) {
      throw std::invalid_argument("window floor: members exceed tier count");
    }
    if (counts[j] == 0 || stripes[j] == 0) continue;  // never touched
    Tier tier;
    tier.stripe = stripes[j];
    tier.count = counts[j];
    tier.factor = tier_factors[j];
    for (std::size_t o = 0; o < 2; ++o) {
      tier.weight[o] = tier.factor * weight_[o][j];
      tier.startup[o] = startup_.data() + table_at_[2 * j + o];
    }
    const auto index = static_cast<std::uint32_t>(tiers_.size());
    tiers_.push_back(tier);
    for (std::size_t i = 0; i < counts[j]; ++i) {
      end += stripes[j];
      cells_.push_back({end, index});
    }
  }
  if (end == 0) throw std::invalid_argument("zero striping period");
  period_ = end;
}

Seconds WindowFloor::operator()(IoOp op, Bytes size) {
  const std::size_t o = op == IoOp::kRead ? 0 : 1;
  const Bytes S = period_;
  const Bytes q = size / S;
  const Bytes rem = size - q * S;
  const std::size_t k = tiers_.size();
  const std::size_t n = cells_.size();
  constexpr std::size_t kNone = ~std::size_t{0};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill(full_.begin(), full_.end(), 0);

  // The piece's constant terms, for the window whose start fragment lands on
  // tier `a` and end fragment on tier `b` (kNone: no window): the largest
  // byte count and weighted transfer of every other tier, the startup term
  // and the per-stripe term.  All but k0/t0 are the kernel's bits exactly.
  Bytes k0 = 0;
  double t0 = 0.0;
  double startup = 0.0;
  double per_stripe = 0.0;
  double wa = 0.0;
  double wb = 0.0;
  auto prepare = [&](std::size_t a, std::size_t b, bool two_cells) {
    k0 = 0;
    t0 = 0.0;
    startup = 0.0;
    double pieces = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const Tier& tier = tiers_[j];
      const bool in_a = j == a;
      const bool in_b = j == b;
      const std::uint32_t full = full_[j];
      const bool reached = full > 0 || in_a || in_b;
      const std::size_t touched =
          q > 0 ? tier.count : full + in_a + (in_b && two_cells);
      startup = std::max(startup, tier.factor * tier.startup[o][touched]);
      if (q > 0 || reached) {
        pieces =
            std::max(pieces, tier.factor * static_cast<double>(q + reached));
      }
      if (!in_a && !in_b) {
        const Bytes base = q * tier.stripe + (full > 0 ? tier.stripe : 0);
        k0 = std::max(k0, base);
        t0 = std::max(t0, tier.weight[o] * static_cast<double>(base));
      }
    }
    per_stripe = per_stripe_ > 0.0 ? per_stripe_ * pieces : 0.0;
    wa = a == kNone ? 0.0 : tiers_[a].weight[o];
    wb = b == kNone ? 0.0 : tiers_[b].weight[o];
  };
  // The cost with tier a at `ma` bytes and tier b at `mb` bytes.
  auto value = [&](Bytes ma, Bytes mb) {
    const Bytes max_bytes = std::max({k0, ma, mb});
    const double transfer = std::max(
        {t0, wa * static_cast<double>(ma), wb * static_cast<double>(mb)});
    return latency_ + hops_t_ * static_cast<double>(max_bytes) + startup +
           (transfer + per_stripe);
  };

  // Cells by unwrapped index: i in [n, 2n) is cell i - n one period on.
  auto end_of = [&](std::size_t i) {
    return i < n ? cells_[i].end : cells_[i - n].end + S;
  };
  auto tier_of = [&](std::size_t i) -> std::size_t {
    return cells_[i < n ? i : i - n].tier;
  };

  // Minimum over the piece [x, x_end) whose window starts in cell A and
  // ends in (unwrapped) cell B; full_ holds the cells strictly between.
  auto piece = [&](std::size_t A, std::size_t B, Bytes x, Bytes x_end,
                   Bytes full_bytes) {
    const std::size_t a = tier_of(A);
    const Tier& ta = tiers_[a];
    const Bytes qa = q * ta.stripe;
    if (B == A) {  // the window lies inside cell A
      prepare(a, a, false);
      return value(qa + rem, qa + rem);
    }
    const Bytes D = rem - full_bytes;  // the two fragments' sum
    if (B == A + n) {  // the window wraps onto the head of cell A itself
      prepare(a, a, false);
      const Bytes m = full_[a] > 0 ? qa + ta.stripe : qa + D;
      return value(m, m);
    }
    const std::size_t b = tier_of(B);
    const Tier& tb = tiers_[b];
    const Bytes qb = q * tb.stripe;
    prepare(a, b, true);
    // The start fragment runs from `hi` (at x) down to `lo` (at x_end - 1).
    const Bytes hi = end_of(A) - x;
    const Bytes lo = end_of(A) - (x_end - 1);
    const bool live_a = full_[a] == 0;
    const bool live_b = full_[b] == 0;
    if (a == b) {
      if (!live_a) return value(qa + ta.stripe, qa + ta.stripe);
      // Only the larger fragment counts: smallest at D / 2.
      double m = kInf;
      for (Bytes alpha : {D / 2, D - D / 2}) {
        alpha = std::clamp(alpha, lo, hi);
        const Bytes bytes = qa + std::max(alpha, D - alpha);
        m = std::min(m, value(bytes, bytes));
      }
      return m;
    }
    auto at = [&](Bytes alpha) {
      return value(live_a ? qa + alpha : qa + ta.stripe,
                   live_b ? qb + D - alpha : qb + tb.stripe);
    };
    if (!live_b) return at(lo);  // cost rises with the start fragment
    if (!live_a) return at(hi);  // cost falls with it
    if (size >= kExactBalanceLimit) return value(qa + lo, qb + D - hi);

    // A(alpha) = fa + alpha, B(alpha) = fb - alpha.  [l1, r1] minimizes
    // T_X, [l2, r2] minimizes T_T (infinite ends: flat that way).
    const double fa = static_cast<double>(qa);
    const double fb = static_cast<double>(qb + D);
    double l1 = -kInf;
    double r1 = kInf;
    if (hops_t_ > 0.0) {
      const double top = static_cast<double>(k0);
      if (2.0 * top >= fa + fb) {
        l1 = fb - top;
        r1 = top - fa;
      } else {
        l1 = r1 = 0.5 * (fb - fa);
      }
    }
    double l2 = -kInf;
    double r2 = kInf;
    if (wa > 0.0 && wb > 0.0) {
      const double balance = (wb * fb - wa * fa) / (wa + wb);
      if (t0 >= wa * (fa + balance)) {
        l2 = fb - t0 / wb;
        r2 = t0 / wa - fa;
      } else {
        l2 = r2 = balance;
      }
    } else if (wa > 0.0) {
      r2 = t0 / wa - fa;
    } else if (wb > 0.0) {
      l2 = fb - t0 / wb;
    }
    double p1 = 0.0;
    double p2 = 0.0;
    if (r1 < l2) {
      p1 = r1;
      p2 = l2;
    } else if (r2 < l1) {
      p1 = l1;
      p2 = r2;
    } else {
      p1 = std::max(l1, l2);
      if (p1 == -kInf) p1 = std::min(r1, r2);
      if (p1 == kInf) p1 = static_cast<double>(lo);
      p2 = p1;
    }
    // The integer minimum is next to the real one: score the integers
    // around each facing end, clipped to the piece.
    double m = kInf;
    for (const double p : {p1, p2}) {
      const double c =
          std::clamp(p, static_cast<double>(lo), static_cast<double>(hi));
      const auto r = static_cast<Bytes>(std::nearbyint(c));
      const Bytes last = std::min(r + 1, hi);
      for (Bytes alpha = r > lo ? r - 1 : lo; alpha <= last; ++alpha) {
        m = std::min(m, at(alpha));
      }
      if (p2 == p1) break;
    }
    return m;
  };

  double best = kInf;
  if (rem == 0) {
    prepare(kNone, kNone, false);
    best = value(0, 0);
  } else {
    // Sweep the pieces: A is the start cell, B the (unwrapped) cell holding
    // the window's last byte x + rem - 1.
    std::size_t A = 0;
    std::size_t B = 0;
    while (cells_[B].end < rem) ++B;
    Bytes full_bytes = 0;
    for (std::size_t i = 1; i < B; ++i) {
      ++full_[cells_[i].tier];
      full_bytes += tiers_[cells_[i].tier].stripe;
    }
    for (Bytes x = 0; x < S;) {
      const Bytes next_a = end_of(A);
      const Bytes next_b = end_of(B) - rem + 1;
      const Bytes x_end = std::min(next_a, next_b);
      best = std::min(best, piece(A, B, x, x_end, full_bytes));
      if (x_end == next_a && ++A < B) {  // cell A + 1 starts the window
        --full_[tier_of(A)];
        full_bytes -= tiers_[tier_of(A)].stripe;
      }
      if (x_end == next_b) {
        if (B > A) {  // cell B is now covered whole
          ++full_[tier_of(B)];
          full_bytes += tiers_[tier_of(B)].stripe;
        }
        ++B;
      }
      x = x_end;
    }
  }
  // Subnormal products carry absolute, not relative, rounding error.
  if (!(best >= 0x1p-960)) return 0.0;
  return best * kWindowShave;
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
