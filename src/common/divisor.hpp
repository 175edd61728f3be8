// Exact division by a runtime-invariant unsigned 64-bit divisor.
//
// Algorithm 2 divides every request's offset and end by the same handful of
// values per candidate layout — the striping period S and each tier's
// stripe — so each divisor is known long before its dividends.  Divisor
// trades one 128-by-64 division at construction for a multiply-high per
// use: with c = ceil(2^128 / d),
//
//   floor(n / d) == floor(c * n / 2^128)   for every n, d < 2^64
//
// (Lemire, Kaser & Kurz, "Faster remainder by direct computation", 2019:
// the identity is exact whenever the fraction width, 128 bits, is at least
// the dividend width plus log2(d), i.e. 64 + 64).  The remainder is then
// n - q * d.  d == 1 would need c = 2^128 and is kept as the identity.
// No rounding, no range restriction, no fallback: the quotient and
// remainder equal the hardware `/` and `%` for every u64 pair.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace harl {

class Divisor {
 public:
  /// Divides by 1.
  Divisor() = default;

  explicit Divisor(std::uint64_t d) : d_(d) {
    if (d == 0) throw std::invalid_argument("division by zero");
    if (d > 1) {
      // ~0 / d + 1 == ceil(2^128 / d) for every d >= 2 (powers of two
      // included), and it fits: c <= 2^127.
      const Wide c = ~static_cast<Wide>(0) / d + 1;
      hi_ = static_cast<std::uint64_t>(c >> 64);
      lo_ = static_cast<std::uint64_t>(c);
    }
  }

  std::uint64_t value() const { return d_; }

  std::uint64_t quotient(std::uint64_t n) const {
    if (d_ == 1) return n;
    // (c * n) >> 128 with c = hi:lo, as two 64x64->128 products; the sum
    // hi*n + (lo*n >> 64) is at most 2^128 - 2^64 and cannot overflow.
    const Wide low = static_cast<Wide>(lo_) * n;
    const Wide high = static_cast<Wide>(hi_) * n + (low >> 64);
    return static_cast<std::uint64_t>(high >> 64);
  }

  std::uint64_t remainder(std::uint64_t n) const {
    return n - quotient(n) * d_;
  }

 private:
  __extension__ typedef unsigned __int128 Wide;

  std::uint64_t d_ = 1;
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

}  // namespace harl
