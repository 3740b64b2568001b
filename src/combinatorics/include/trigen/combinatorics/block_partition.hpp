#pragma once
/// \file block_partition.hpp
/// \brief Combinatorics of the block-combination spaces (any order), the
/// mapping from a combination rank range onto them, and the exact
/// per-prefix last-axis window that clips a blocked scan to that range.
///
/// The cache-blocked engines (paper Algorithm 1, V3/V4/V5) walk multiset
/// block tuples — b0 <= b1 <= ... <= b_{K-1} — instead of individual SNP
/// combinations.  To let the blocked versions participate in rank-range
/// partitioning (heterogeneous CPU+GPU splits, sharded scans, served
/// chunks, permutation shards), this header provides the block-tuple rank
/// math for every order, `partition_block_tuples<K>`, which converts a
/// combination rank range into a contiguous run of block-tuple ranks, and
/// `LastAxisWindow<K>`, which tells the engines, per prefix, exactly which
/// last-axis SNPs fall inside the range.  The `BlockPair`/`BlockTriple`
/// types remain as the named k=2/k=3 views, implemented on the generic
/// machinery.
///
/// Key monotonicity fact: ordering block tuples by colex block rank also
/// orders both the smallest and the largest combination rank each nonempty
/// block tuple contains.  (Sketch, per level i > 0: within fixed higher
/// levels, raising b_i pushes the extremal c_i past the previous block's
/// maximum, and C(c+1, i+1) - C(c, i+1) = C(c, i) exceeds any contribution
/// the levels below can make.)  Hence the block tuples intersecting a
/// contiguous rank range form a contiguous run of block ranks.  Inside that
/// run the engines skip block tuples no window reaches and compute only the
/// in-range last-axis interval of every prefix: a ranged scan evaluates
/// exactly the combinations of its range, never a whole boundary block.

#include <algorithm>
#include <cstdint>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/combinatorics/scheduler.hpp"

namespace trigen::combinatorics {

/// Ordered multiset block tuple b0 <= b1 <= ... <= b_{K-1} (blocks may
/// repeat: the diagonal tuples contain the within-block combinations).
template <unsigned K>
using BlockTuple = std::array<std::uint32_t, K>;

/// Number of block tuples for `nb` blocks: C(nb + K - 1, K) (multiset
/// count).
template <unsigned K>
std::uint64_t num_block_tuples(std::uint64_t nb) {
  return n_choose_k(nb + K - 1, K);
}

/// Colex rank of a multiset tuple: sum_i C(b_i + i, i + 1)
/// (overflow-checked like rank_combination).
template <unsigned K>
std::uint64_t rank_block_tuple(const BlockTuple<K>& t) {
  static_assert(K >= 1);
  detail::u128 acc = 0;
  for (unsigned i = 0; i < K; ++i) {
    acc += detail::binom_saturating(std::uint64_t{t[i]} + i, i + 1);
  }
  if (acc > static_cast<detail::u128>(~std::uint64_t{0})) {
    detail::throw_rank_overflow("rank_block_tuple");
  }
  return static_cast<std::uint64_t>(acc);
}

/// Inverse of rank_block_tuple.
template <unsigned K>
BlockTuple<K> unrank_block_tuple(std::uint64_t rank) {
  static_assert(K >= 1);
  BlockTuple<K> t{};
  std::uint64_t rem = rank;
  for (unsigned i = K; i-- > 0;) {
    // b_i = max { b : C(b + i, i+1) <= rem }.
    const std::uint64_t n = detail::max_n_with_binom_le(rem, i + 1);
    const std::uint64_t b = n > i ? n - i : 0;
    t[i] = static_cast<std::uint32_t>(b);
    rem -= static_cast<std::uint64_t>(detail::binom_saturating(b + i, i + 1));
  }
  return t;
}

/// Advances `t` to the block tuple of the next colex rank: bumps the lowest
/// level with headroom and resets the levels below it to block 0.  Walking
/// a run of block ranks this way costs a few compares per tuple instead of
/// one unrank_block_tuple search each.
template <unsigned K>
void next_block_tuple(BlockTuple<K>& t) {
  unsigned i = 0;
  while (i + 1 < K && t[i] == t[i + 1]) ++i;
  ++t[i];
  for (unsigned j = 0; j < i; ++j) t[j] = 0;
}

/// Geometry of a block decomposition: `m` SNPs cut into blocks of `bs`.
struct BlockGrid {
  std::uint64_t m = 0;   ///< number of SNPs
  std::uint64_t bs = 1;  ///< SNPs per block (B_S)
  std::uint64_t num_blocks() const { return bs == 0 ? 0 : (m + bs - 1) / bs; }
};

/// Colex-minimum `lo` and colex-maximum `hi` combinations of block tuple
/// `bt` on grid `g`; false (outputs unspecified) when the block tuple
/// contains no valid combination (degenerate diagonal blocks for small bs,
/// tail blocks clipped by m).  Every combination c of the block tuple
/// satisfies lo[i] <= c[i] <= hi[i] at every level i.
template <unsigned K>
bool block_tuple_extremes(const BlockGrid& g, const BlockTuple<K>& bt,
                          Combination<K>& lo, Combination<K>& hi) {
  static_assert(K >= 1);
  const std::uint64_t bs = g.bs;
  std::uint64_t end[K];
  // Colex-minimum combination: per level the smallest index inside the
  // block extent that stays strictly above the level below.
  for (unsigned i = 0; i < K; ++i) {
    const std::uint64_t base = std::uint64_t{bt[i]} * bs;
    end[i] = std::min(base + bs, g.m);
    const std::uint64_t v = i == 0 ? base : std::max(base, std::uint64_t{lo[i - 1]} + 1);
    if (v >= end[i]) return false;
    lo[i] = static_cast<std::uint32_t>(v);
  }
  // Colex-maximum combination: per level the largest index that stays
  // strictly below the level above.  The min combination being valid
  // guarantees these clamps stay ordered.
  for (unsigned i = K; i-- > 0;) {
    const std::uint64_t v =
        i + 1 == K ? end[i] - 1
                   : std::min(end[i] - 1, std::uint64_t{hi[i + 1]} - 1);
    hi[i] = static_cast<std::uint32_t>(v);
  }
  return true;
}

/// Combination rank span [lowest, highest + 1) covered by block tuple `bt`
/// on grid `g`.  The contained ranks are generally *not* contiguous within
/// the span (spans of adjacent block tuples overlap); the span only
/// brackets them.  Empty when the block tuple contains no valid
/// combination.
template <unsigned K>
RankRange block_tuple_span(const BlockGrid& g, const BlockTuple<K>& bt) {
  Combination<K> lo{};
  Combination<K> hi{};
  if (!block_tuple_extremes<K>(g, bt, lo, hi)) return {};
  return {rank_combination<K>(lo), rank_combination<K>(hi) + 1};
}

/// A combination rank range mapped onto a block-tuple space (any order).
struct BlockPartition {
  /// Contiguous run of block-tuple ranks covering every block tuple whose
  /// span intersects `clip`.  The run is minimal up to top-layer
  /// granularity; blocks inside it that the range misses are cheap skips
  /// (`LastAxisWindow::admits`).
  RankRange block_ranks;
  /// The combination rank range being covered.
  RankRange clip;
};

/// Maps combination rank range `range` (half-open, within [0, C(g.m, K)))
/// onto the block-tuple space of `g`.  An empty `range` yields an empty
/// run.
template <unsigned K>
BlockPartition partition_block_tuples(const BlockGrid& g, RankRange range) {
  static_assert(K >= 1);
  BlockPartition part;
  part.clip = range;
  if (range.empty() || g.m < K || g.bs == 0) return part;

  // Block tuples whose top layer lies below block(top_first) contain only
  // combinations with top index < top_first, i.e. ranks < range.first:
  // skip the whole prefix.  Tuples above block(top_last) contain only
  // ranks > range.last - 1: skip the whole suffix.  Within the two
  // boundary top layers individual blocks may still miss the range;
  // callers skip those with `LastAxisWindow::admits`.
  const std::uint64_t top_first = unrank_combination<K>(range.first)[K - 1];
  const std::uint64_t top_last = unrank_combination<K>(range.last - 1)[K - 1];
  const std::uint64_t lo = num_block_tuples<K>(top_first / g.bs);
  const std::uint64_t hi = num_block_tuples<K>(top_last / g.bs + 1);
  part.block_ranks = {lo, std::min(hi, num_block_tuples<K>(g.num_blocks()))};
  return part;
}

/// Clip sentinel: covers every possible rank, i.e. "no clipping".
inline constexpr RankRange kFullRange{0, ~std::uint64_t{0}};

/// Exact window on the last axis of a combination rank range, per prefix.
///
/// For a fixed prefix p = (c_0..c_{K-2}) the colex rank C(z, K) + rank(p)
/// only grows with the last index z, so the z whose combination lies in
/// [first, last) form one interval [z_lo, z_hi).  With (a, z_a) =
/// unrank(first) and (b, z_b) = unrank(last - 1), computed once per range:
///   z_lo = z_a if rank(p) >= rank(a), else z_a + 1;
///   z_hi = z_b + 1 if rank(p) <= rank(b), else z_b.
/// Prefix ranks compare like the prefixes themselves in colex order (top
/// index first), so a window costs two short comparisons and no rank
/// arithmetic.  The whole space (`kFullRange`, or a default-constructed
/// window) short-circuits: a full scan pays nothing for the window.
template <unsigned K>
class LastAxisWindow {
 public:
  static_assert(K >= 2);

  /// The whole space.
  LastAxisWindow() = default;
  /// The window of `range`; `kFullRange` is the whole space.  Implicit, so
  /// a rank range can be passed wherever a window is expected.
  LastAxisWindow(RankRange range)
      : range_(range),
        full_(range.first == kFullRange.first &&
              range.last == kFullRange.last) {
    if (full_ || range.empty()) return;
    a_ = unrank_combination<K>(range.first);
    b_ = unrank_combination<K>(range.last - 1);
  }

  bool full() const { return full_; }

  /// Narrows the last-axis interval [lo, hi) of the prefix held in
  /// c[0..K-2] (c[K-1] is ignored) to the z whose combination lies in the
  /// range.  The result may be empty.
  RankRange z_range(const Combination<K>& c, std::uint64_t lo,
                    std::uint64_t hi) const {
    if (full_) return {lo, hi};
    if (range_.empty()) return {};
    return {std::max<std::uint64_t>(lo, a_[K - 1] + (prefix_less(c, a_) ? 1 : 0)),
            std::min<std::uint64_t>(hi, b_[K - 1] + (prefix_less(b_, c) ? 0 : 1))};
  }

  /// False only when no combination of block tuple `bt` lies in the range.
  /// Every prefix of the block tuple sits between the prefixes of its
  /// extreme combinations, and the window bounds only fall as the prefix
  /// rises, so the union of its prefixes' windows lies inside one
  /// interval; an empty one rules the whole block tuple out.  (It is
  /// empty whenever the block tuple's span misses the range.)
  bool admits(const BlockGrid& g, const BlockTuple<K>& bt) const {
    if (full_) return true;
    Combination<K> lo{};
    Combination<K> hi{};
    if (!block_tuple_extremes<K>(g, bt, lo, hi)) return false;
    const std::uint64_t z_end = std::uint64_t{hi[K - 1]} + 1;
    return z_range(hi, lo[K - 1], z_end).first <
           z_range(lo, lo[K - 1], z_end).last;
  }

 private:
  /// Colex order of the prefixes x[0..K-2] and y[0..K-2].
  static bool prefix_less(const Combination<K>& x, const Combination<K>& y) {
    for (unsigned i = K - 1; i-- > 0;) {
      if (x[i] != y[i]) return x[i] < y[i];
    }
    return false;
  }

  RankRange range_ = kFullRange;
  bool full_ = true;
  Combination<K> a_{};  ///< unrank(range.first)
  Combination<K> b_{};  ///< unrank(range.last - 1)
};

// ---------------------------------------------------------------------------
// Named k=3 / k=2 views (the orders the engine grew up with)
// ---------------------------------------------------------------------------

/// Ordered block triple b0 <= b1 <= b2.
struct BlockTriple {
  std::uint32_t b0, b1, b2;
  friend bool operator==(const BlockTriple&, const BlockTriple&) = default;
};

/// Number of block triples for `nb` blocks: C(nb + 2, 3).
std::uint64_t num_block_triples(std::uint64_t nb);

/// Colex rank of a multiset triple: C(b2+2,3) + C(b1+1,2) + C(b0,1).
std::uint64_t rank_block_triple(const BlockTriple& t);

/// Inverse of rank_block_triple.
BlockTriple unrank_block_triple(std::uint64_t rank);

/// Triplet rank span covered by block triple `bt` on grid `g`.
RankRange block_triplet_span(const BlockGrid& g, const BlockTriple& bt);

/// Maps triplet rank range `range` onto the block-triple space of `g`.
BlockPartition partition_block_triples(const BlockGrid& g, RankRange range);

/// Ordered block pair b0 <= b1.
struct BlockPair {
  std::uint32_t b0, b1;
  friend bool operator==(const BlockPair&, const BlockPair&) = default;
};

/// Number of block pairs for `nb` blocks: C(nb + 1, 2).
std::uint64_t num_block_pairs(std::uint64_t nb);

/// Colex rank of a multiset pair: C(b1+1,2) + C(b0,1).
std::uint64_t rank_block_pair(const BlockPair& p);

/// Inverse of rank_block_pair.
BlockPair unrank_block_pair(std::uint64_t rank);

/// Pair rank span covered by block pair `bp` on grid `g`.
RankRange block_pair_span(const BlockGrid& g, const BlockPair& bp);

/// Maps pair rank range `range` onto the block-pair space of `g`.
BlockPartition partition_block_pairs(const BlockGrid& g, RankRange range);

}  // namespace trigen::combinatorics
