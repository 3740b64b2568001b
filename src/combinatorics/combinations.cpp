#include "trigen/combinatorics/combinations.hpp"

#include <stdexcept>
#include <string>

namespace trigen::combinatorics {

std::uint64_t n_choose_k(std::uint64_t n, unsigned k) {
  if (k > n) return 0;
  if (k == 0 || k == n) return 1;
  if (k > n - k) k = static_cast<unsigned>(n - k);
  unsigned __int128 acc = 1;
  for (unsigned i = 1; i <= k; ++i) {
    acc = acc * (n - k + i) / i;  // exact: product of i consecutive ints is divisible by i!
    if (acc > static_cast<unsigned __int128>(~std::uint64_t{0})) {
      detail::throw_rank_overflow("n_choose_k");
    }
  }
  return static_cast<std::uint64_t>(acc);
}

namespace detail {

u128 binom_saturating(std::uint64_t n, unsigned k) noexcept {
  if (k > n) return 0;
  if (k == 0 || k == n) return 1;
  if (k > n - k) k = static_cast<unsigned>(n - k);
  u128 acc = 1;
  for (unsigned i = 1; i <= k; ++i) {
    acc = acc * (n - k + i) / i;
    if (acc >= kBinomSat) return kBinomSat;  // clamp before the next multiply
  }
  return acc;
}

std::uint64_t max_n_with_binom_le(std::uint64_t rank, unsigned k) noexcept {
  // Invariant: C(lo, k) <= rank < C(hi, k).  C(k-1, k) = 0 establishes it;
  // galloping doubles hi until the saturating binomial exceeds rank (it
  // always does: kBinomSat > 2^64 > rank).
  std::uint64_t lo = k - 1;
  std::uint64_t hi = k;
  while (binom_saturating(hi, k) <= rank) {
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (binom_saturating(mid, k) <= rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void throw_rank_overflow(const char* fn) {
  throw std::overflow_error(std::string(fn) + ": rank space exceeds 2^64");
}

}  // namespace detail

}  // namespace trigen::combinatorics
