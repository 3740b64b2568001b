#pragma once
/// \file combinations.hpp
/// \brief k-combination counting and ranking/unranking for arbitrary order.
///
/// The search space of k-way epistasis over M SNPs is the set of strictly
/// increasing k-tuples — C(M,k) of them.  The detectors and the GPU
/// simulator address this space through a *colexicographic rank*: an
/// integer in [0, C(M,k)) that every engine can partition into contiguous
/// work chunks without materializing the combinations.  Every interaction
/// order k in [2, kMaxOrder] gets the same rank/unrank/iterate toolkit
/// through `Combination<K>`.
///
/// All rank accumulation is overflow-checked: C(n,k) grows past 2^64 for
/// modest n once k >= 4 (C(2.6e5, 4) already exceeds it), so the generic
/// rank/unrank functions carry the sums in __int128 and throw a precise
/// std::overflow_error instead of silently wrapping.

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace trigen::combinatorics {

/// Highest interaction order the order-generic stack is instantiated for.
/// A compile-time ceiling: the per-order code (kernels, shard IO, CLI
/// dispatch) is stamped out for every k in [2, kMaxOrder].
inline constexpr unsigned kMaxOrder = 6;

/// Runtime order -> compile-time instantiation: calls
/// `fn(std::integral_constant<unsigned, K>{})` with K == `order` and
/// returns true, or returns false without calling `fn` when `order` lies
/// outside [2, kMaxOrder].  Callers word their own rejection.
template <typename Fn>
bool with_order(std::uint64_t order, Fn&& fn) {
  return [&]<unsigned... I>(std::integer_sequence<unsigned, I...>) {
    return ((order == I + 2 &&
             (fn(std::integral_constant<unsigned, I + 2>{}), true)) ||
            ...);
  }(std::make_integer_sequence<unsigned, kMaxOrder - 1>{});
}

/// C(n, k) in unsigned 64-bit arithmetic.  Throws std::overflow_error when
/// the true value exceeds 2^64-1; returns 0 when k > n.
std::uint64_t n_choose_k(std::uint64_t n, unsigned k);

/// "Elements" metric the paper reports: nCr(M,k) * N (processed
/// combinations times samples, §V).
inline std::uint64_t num_elements(std::uint64_t m, unsigned k,
                                  std::uint64_t n) {
  return n_choose_k(m, k) * n;
}

/// Strictly increasing k-tuple of SNP indices, c[0] < c[1] < ... < c[K-1].
template <unsigned K>
using Combination = std::array<std::uint32_t, K>;

namespace detail {

using u128 = unsigned __int128;

/// Saturation ceiling for binom_saturating: far above any representable
/// rank (2^64) yet low enough that one more multiply by a 32-bit factor
/// cannot overflow the 128-bit carrier.
inline constexpr u128 kBinomSat = u128{1} << 70;

/// C(n, k) exact up to kBinomSat, clamped to kBinomSat above it — the
/// comparison-safe form the rank searches need (every genuine rank is
/// < 2^64 < kBinomSat, so clamped values compare correctly).
u128 binom_saturating(std::uint64_t n, unsigned k) noexcept;

/// max { n : C(n, k) <= rank }; rank-space searches never overflow thanks
/// to the saturating binomial.  k >= 1.
std::uint64_t max_n_with_binom_le(std::uint64_t rank, unsigned k) noexcept;

[[noreturn]] void throw_rank_overflow(const char* fn);

}  // namespace detail

/// Colex rank of a strictly increasing combination:
/// sum_i C(c[i], i+1).  Overflow-checked: throws std::overflow_error
/// ("rank space exceeds 2^64") instead of wrapping.
template <unsigned K>
std::uint64_t rank_combination(const Combination<K>& c) {
  static_assert(K >= 1);
  detail::u128 acc = 0;
  for (unsigned i = 0; i < K; ++i) {
    acc += detail::binom_saturating(c[i], i + 1);
  }
  if (acc > static_cast<detail::u128>(~std::uint64_t{0})) {
    detail::throw_rank_overflow("rank_combination");
  }
  return static_cast<std::uint64_t>(acc);
}

/// Inverse of rank_combination: greedy per-level maximum search from the
/// top level down.  Valid for any rank whose combination fits in 32-bit
/// SNP indices.
template <unsigned K>
Combination<K> unrank_combination(std::uint64_t rank) {
  static_assert(K >= 1);
  Combination<K> c{};
  std::uint64_t rem = rank;
  for (unsigned i = K; i-- > 0;) {
    const std::uint64_t v = detail::max_n_with_binom_le(rem, i + 1);
    c[i] = static_cast<std::uint32_t>(v);
    rem -= static_cast<std::uint64_t>(detail::binom_saturating(v, i + 1));
  }
  return c;
}

/// Calls `fn(const Combination<K>&)` for every combination with rank in
/// [first, last), in rank order, without per-combination unranking cost
/// (one unrank + rolling colex successors).
template <unsigned K, typename Fn>
void for_each_combination(std::uint64_t first, std::uint64_t last, Fn&& fn) {
  if (first >= last) return;
  Combination<K> c = unrank_combination<K>(first);
  for (std::uint64_t r = first; r < last; ++r) {
    fn(static_cast<const Combination<K>&>(c));
    // Colex successor: bump the lowest level with headroom, reset the
    // levels below it to their minimal staircase 0,1,...,i-1.
    unsigned i = 0;
    while (i + 1 < K && c[i] + 1 == c[i + 1]) ++i;
    ++c[i];
    for (unsigned j = 0; j < i; ++j) c[j] = j;
  }
}

}  // namespace trigen::combinatorics
