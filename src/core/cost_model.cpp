#include "src/core/cost_model.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/common/interval.hpp"
#include "src/core/closed_form.hpp"
#include "src/core/tiered_cost_model.hpp"

namespace harl::core {

CostParams make_cost_params(std::size_t M, std::size_t N,
                            const storage::TierProfile& hserver,
                            const storage::TierProfile& sserver, Seconds t) {
  CostParams p;
  p.M = M;
  p.N = N;
  p.t = t;
  p.hserver_read = hserver.read;
  p.hserver_write = hserver.write;
  p.sserver_read = sserver.read;
  p.sserver_write = sserver.write;
  return p;
}

TieredCostParams to_tiered(const CostParams& params) {
  TieredCostParams out;
  out.tiers.resize(2);
  out.tiers[0].count = params.M;
  out.tiers[0].profile.name = "hserver";
  out.tiers[0].profile.read = params.hserver_read;
  out.tiers[0].profile.write = params.hserver_write;
  out.tiers[1].count = params.N;
  out.tiers[1].profile.name = "sserver";
  out.tiers[1].profile.read = params.sserver_read;
  out.tiers[1].profile.write = params.sserver_write;
  // A factor vector only travels when it matches the tier's census; CARL
  // builds half-params with M = 0 or N = 0 where the other tier's factors
  // would otherwise dangle against a zero count.
  if (params.hserver_factors.size() == params.M) {
    out.tiers[0].device_factors = params.hserver_factors;
  }
  if (params.sserver_factors.size() == params.N) {
    out.tiers[1].device_factors = params.sserver_factors;
  }
  out.t = params.t;
  out.net_latency = params.net_latency;
  out.net_hops = params.net_hops;
  out.per_stripe_overhead = params.per_stripe_overhead;
  return out;
}

std::uint64_t params_fingerprint(const CostParams& params) {
  return params_fingerprint(to_tiered(params));
}

namespace {

/// Profiles for `op`, in tier order (HServers then SServers).
inline void select_profiles(const CostParams& params, IoOp op,
                            const storage::OpProfile* (&profs)[2]) {
  profs[0] = op == IoOp::kRead ? &params.hserver_read : &params.hserver_write;
  profs[1] = op == IoOp::kRead ? &params.sserver_read : &params.sserver_write;
}

}  // namespace

SubreqGeometry request_geometry(Bytes o, Bytes r, StripePair hs, std::size_t M,
                                std::size_t N) {
  const std::size_t counts[2] = {M, N};
  const Bytes stripes[2] = {hs.h, hs.s};
  TierGeometry out[2];
  tiered_geometry_into(o, r, TierLayout(counts, stripes), out);
  return SubreqGeometry{out[0].max_bytes, out[1].max_bytes, out[0].touched,
                        out[1].touched};
}

SubreqGeometry request_geometry_reference(Bytes o, Bytes r, StripePair hs,
                                          std::size_t M, std::size_t N) {
  const Bytes S = static_cast<Bytes>(M) * hs.h + static_cast<Bytes>(N) * hs.s;
  if (S == 0) throw std::invalid_argument("zero striping period");
  std::vector<Bytes> per_server(M + N, 0);
  Bytes pos = o;
  const Bytes end = o + r;
  while (pos < end) {
    const Bytes within = pos % S;
    // Find the server cell containing `within` by linear scan.
    Bytes cell_base = 0;
    std::size_t server = 0;
    for (std::size_t i = 0; i < M + N; ++i) {
      const Bytes st = i < M ? hs.h : hs.s;
      if (within < cell_base + st) {
        server = i;
        break;
      }
      cell_base += st;
    }
    const Bytes st = server < M ? hs.h : hs.s;
    const Bytes take = std::min(end - pos, cell_base + st - within);
    per_server[server] += take;
    pos += take;
  }
  SubreqGeometry g;
  for (std::size_t i = 0; i < M + N; ++i) {
    if (per_server[i] == 0) continue;
    if (i < M) {
      ++g.m;
      g.s_m = std::max(g.s_m, per_server[i]);
    } else {
      ++g.n;
      g.s_n = std::max(g.s_n, per_server[i]);
    }
  }
  return g;
}

SubreqGeometry fig5_case_a_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N) {
  const Bytes h = hs.h;
  const Bytes s = hs.s;
  if (h == 0 || s == 0 || M == 0 || r == 0) {
    throw std::domain_error("fig5 case (a) needs nonzero stripes and M > 0");
  }
  const Bytes S = static_cast<Bytes>(M) * h + static_cast<Bytes>(N) * s;
  const Bytes r_b = o / S;
  const Bytes r_e = (o + r) / S;
  const Bytes l_b = o - r_b * S;
  const Bytes l_e = (o + r) - r_e * S;
  if (l_b >= M * h || l_e >= M * h) {
    throw std::domain_error("request does not begin and end on HServers");
  }
  const Bytes n_b = l_b / h;
  const Bytes n_e = l_e / h;
  // Fragment sizes (the paper prints l_e where l_b is meant in s_b; and we
  // take s_e as the bytes *into* the ending stripe, which is what makes the
  // dr >= 1 rows exact).
  const Bytes s_b = h - l_b % h;
  const Bytes s_e = l_e % h;
  const std::int64_t dr = static_cast<std::int64_t>(r_e) - static_cast<std::int64_t>(r_b);
  const std::int64_t dc = static_cast<std::int64_t>(n_e) - static_cast<std::int64_t>(n_b);

  SubreqGeometry g;
  if (dr == 0) {
    g.s_n = 0;
    g.n = 0;
    g.m = static_cast<std::size_t>(dc + 1);
    if (dc == 0) {
      g.s_m = s_b;  // paper's value; exact is r (upper bound, see header)
    } else if (dc == 1) {
      g.s_m = std::max(s_b, s_e);
    } else {
      g.s_m = h;
    }
  } else {
    const Bytes drb = static_cast<Bytes>(dr);
    g.s_n = drb * s;
    g.n = N;
    if (dc == 0) {
      g.s_m = std::max(drb * h - h + s_b + s_e, drb * h);
      g.m = M;
    } else if (n_b + 1 == M && n_e == 0) {
      g.s_m = std::max(drb * h - h + s_b, drb * h - h + s_e);
      g.m = dr == 1 ? 2 : M;
    } else {
      g.s_m = drb * h;
      g.m = dc < -1 ? static_cast<std::size_t>(static_cast<std::int64_t>(M) + 1 + dc)
                    : M;
    }
  }
  return g;
}

CostBreakdown request_cost_breakdown(const CostParams& params, IoOp op,
                                     Bytes offset, Bytes size, StripePair hs) {
  // Diagnostic decomposition; the term expressions mirror tiered_cost_kernel
  // exactly so total always equals request_cost.
  CostBreakdown out;
  out.geometry = request_geometry(offset, size, hs, params.M, params.N);
  const SubreqGeometry& g = out.geometry;

  const storage::OpProfile* profs[2];
  select_profiles(params, op, profs);

  const Bytes max_bytes = std::max(g.s_m, g.s_n);
  out.network = params.net_latency + static_cast<double>(params.net_hops) *
                                         params.t *
                                         static_cast<double>(max_bytes);
  out.startup = std::max(startup_expected_max(*profs[0], g.m),
                         startup_expected_max(*profs[1], g.n));
  out.transfer = std::max(static_cast<double>(g.s_m) * profs[0]->per_byte,
                          static_cast<double>(g.s_n) * profs[1]->per_byte);
  if (params.per_stripe_overhead > 0.0) {
    Bytes max_pieces = 0;
    if (hs.h > 0 && g.s_m > 0) {
      max_pieces = std::max(max_pieces, (g.s_m + hs.h - 1) / hs.h);
    }
    if (hs.s > 0 && g.s_n > 0) {
      max_pieces = std::max(max_pieces, (g.s_n + hs.s - 1) / hs.s);
    }
    out.transfer +=
        params.per_stripe_overhead * static_cast<double>(max_pieces);
  }
  out.total = out.network + out.startup + out.transfer;
  return out;
}

Seconds request_cost(const CostParams& params, IoOp op, Bytes offset,
                     Bytes size, StripePair hs) {
  const std::size_t counts[2] = {params.M, params.N};
  const Bytes stripes[2] = {hs.h, hs.s};
  const storage::OpProfile* profs[2];
  select_profiles(params, op, profs);
  TierGeometry scratch[2];
  return tiered_cost_kernel(TierLayout(counts, stripes), profs, params.t,
                            params.net_latency, params.net_hops,
                            params.per_stripe_overhead, offset, size, scratch);
}

}  // namespace harl::core
