// Closed-form sub-request geometry for all four cases of paper Fig. 4.
//
// The paper derives the critical parameters (s_m, s_n, m, n) case by case —
// case (a): request begins and ends on HServers, (b): begins on HServers /
// ends on SServers, (c): begins on SServers / ends on HServers, (d): begins
// and ends on SServers — but prints only case (a)'s table ("Due to space
// limitation...").  This module completes the derivation "by following the
// same arguments", in O(1) per request and *exactly* (the printed case-(a)
// table approximates a few corners; see fig5_case_a_geometry).
//
// Key trick: working with the request's INCLUSIVE last byte e = o + r - 1
// removes every zero-length-fragment corner, so each tier reduces to
//   bytes(column) = full_periods * stripe + begin_partial + end_partial
// with begin/end partials determined by the begin/end columns and fragments.
// The property test closed_form_test.cpp checks equality with the exact
// O(M+N) geometry over randomized sweeps of all four cases.
#pragma once

#include "src/common/divisor.hpp"
#include "src/core/cost_model.hpp"

namespace harl::core {

/// The four begin/end-area cases of paper Fig. 4.
enum class Fig4Case { kA, kB, kC, kD };

/// Classifies request [o, o+r) (r > 0) under stripes `hs` with M HServers
/// and N SServers.  Requires h > 0, s > 0, M > 0, N > 0.
Fig4Case classify_fig4(Bytes o, Bytes r, StripePair hs, std::size_t M,
                       std::size_t N);

/// O(1) closed-form geometry, exact for every case and alignment.
/// Same preconditions as classify_fig4; throws std::invalid_argument.
SubreqGeometry closed_form_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N);

/// The same geometry with the layout's divisors hoisted: `by_period`,
/// `by_h` and `by_s` divide by S = M*h + N*s, h and s (common/divisor.hpp),
/// so a caller scoring many requests against one layout builds them once
/// and pays no hardware divide per request.  Unchecked: the caller
/// guarantees the preconditions above.  The checked overload forwards here.
SubreqGeometry closed_form_geometry(Bytes o, Bytes r, StripePair hs,
                                    std::size_t M, std::size_t N,
                                    const Divisor& by_period,
                                    const Divisor& by_h, const Divisor& by_s);

}  // namespace harl::core
