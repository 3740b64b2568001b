#pragma once
/// \file blocked_engine.hpp
/// \brief Cache-blocked combination evaluation at any order k >= 2 (paper
/// Algorithm 1, V3/V4/V5, order-generalized).
///
/// The engine walks SNP *block* tuples (b_0 <= ... <= b_{k-1}, each covering
/// B_S SNPs).  For one block tuple it holds the frequency tables of all
/// <= B_S^k contained SNP combinations in an L1-resident array, and streams
/// the sample dimension in B_P-word chunks, so every loaded cache line is
/// reused by up to B_S^{k-1} combinations before eviction.  This is the
/// paper's V3; selecting a vector kernel turns it into V4.
///
/// V5 goes one step further with a recursive *prefix-plane ladder*: all B_S
/// last-axis SNPs of a block tuple share the same length-(k-1) prefix, so
/// the ladder materializes, once per (prefix, sample-chunk), the 3^j
/// intersection planes of each j-SNP prefix (rung j, j = 2..k-1).  Rung 2
/// is built directly from two SNPs' genotype planes; rung j+1 extends rung
/// j by ANDing each plane with one SNP's two stored planes and deriving the
/// third child from the partition identity (the three genotype planes of a
/// SNP partition every sample bit, padding included).  The last rung's
/// planes and popcounts then resolve all three final-axis cells with two
/// ANDs + two POPCNTs per word.  At k = 3 the ladder is exactly the nine
/// x∩y planes of the original pair-plane cache; at k = 2 it degenerates to
/// the counts-only kernel (the chunk popcounts of the four genotype-0/1
/// intersections, completed from the per-SNP genotype counts, *are* the
/// 9-cell table).
///
/// The block-tuple rank math and the rank-range -> block-tuple mapping live
/// in trigen/combinatorics/block_partition.hpp; the names are re-exported
/// here for the engine's callers.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "trigen/combinatorics/block_partition.hpp"
#include "trigen/combinatorics/combinations.hpp"
#include "trigen/common/aligned.hpp"
#include "trigen/core/kernels.hpp"
#include "trigen/core/tiling.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/scoring/contingency.hpp"

namespace trigen::core {

using combinatorics::BlockPair;
using combinatorics::BlockTriple;
using combinatorics::BlockTuple;
using combinatorics::num_block_pairs;
using combinatorics::num_block_triples;
using combinatorics::num_block_tuples;
using combinatorics::rank_block_pair;
using combinatorics::rank_block_triple;
using combinatorics::rank_block_tuple;
using combinatorics::unrank_block_pair;
using combinatorics::unrank_block_triple;
using combinatorics::unrank_block_tuple;

using combinatorics::kFullRange;
using combinatorics::LastAxisWindow;

/// Per-thread scratch for the V5 prefix-plane ladder: rung j
/// (j = 2..order-1) holds the 3^j intersection planes of the current j-SNP
/// prefix restricted to the current sample chunk, plus their chunk
/// popcounts.  Planes share one stride rounded up to a whole number of
/// AVX-512 registers, so every plane start stays 64-byte aligned
/// (aligned_vector provides the base alignment).  At order 3 the ladder is
/// the original pair-plane cache: rung 2's nine x∩y planes and popcounts.
class PrefixPlaneCache {
 public:
  /// Grows the ladder to cover rungs 2..order-1 with at least `words` of
  /// per-plane capacity (never shrinks, so a scan reuses one allocation
  /// across every chunk and block).
  void ensure(unsigned order, std::size_t words) {
    const std::size_t s = (words + dataset::kWordsPerVector - 1) /
                          dataset::kWordsPerVector * dataset::kWordsPerVector;
    if (s <= stride_ && order <= order_) return;
    stride_ = std::max(s, stride_);
    order_ = std::max(std::max(order, 3u), order_);
    std::size_t planes = 0;
    for (unsigned j = 2; j < order_; ++j) planes += pow3(j);
    planes_.assign(planes * stride_, 0);
    pops_.assign(planes, 0);
  }
  /// Pair-plane compatibility surface: rung 2 only (order 3).
  void ensure(std::size_t words) { ensure(3, words); }

  /// Planes of rung `j` (3^j planes of stride() words each).
  Word* rung(unsigned j) { return planes_.data() + rung_offset(j) * stride_; }
  const Word* rung(unsigned j) const {
    return planes_.data() + rung_offset(j) * stride_;
  }
  /// Chunk popcounts of rung `j`'s planes; zeroed by the engine before the
  /// build/extend call that fills them.
  std::uint32_t* rung_pops(unsigned j) { return pops_.data() + rung_offset(j); }
  const std::uint32_t* rung_pops(unsigned j) const {
    return pops_.data() + rung_offset(j);
  }

  /// Rung-2 accessors, the original PairPlaneCache API: the nine x∩y
  /// planes and their chunk popcounts.
  Word* planes() { return rung(2); }
  const Word* planes() const { return rung(2); }
  std::uint32_t* pops() { return rung_pops(2); }
  const std::uint32_t* pops() const { return rung_pops(2); }

  std::size_t stride() const { return stride_; }

 private:
  /// Planes below rung j: sum of 3^i for i in [2, j).
  static std::size_t rung_offset(unsigned j) {
    std::size_t off = 0;
    for (unsigned i = 2; i < j; ++i) off += pow3(i);
    return off;
  }

  unsigned order_ = 0;
  std::size_t stride_ = 0;
  aligned_vector<Word> planes_;
  std::vector<std::uint32_t> pops_;
};

/// The K = 3 ladder (rung 2 alone) is the original pair-plane cache.
using PairPlaneCache = PrefixPlaneCache;

/// Per-thread scratch: frequency tables for all combinations of a block
/// tuple.  Layout: [local][class][3^K] uint32; local =
/// sum (i_j - base_j) * B_S^{K-1-j}.
template <unsigned K>
class TupleBlockScratch {
 public:
  static constexpr std::size_t kCells = scoring::num_cells(K);

  explicit TupleBlockScratch(std::size_t bs)
      : bs_(bs), ft_(locals(bs) * 2 * kCells) {}

  std::size_t bs() const { return bs_; }
  std::uint32_t* table(std::size_t local, int cls) {
    return ft_.data() + (local * 2 + static_cast<std::size_t>(cls)) * kCells;
  }
  /// Zeroes only the tables (both classes) of locals [first, last) — the
  /// engine clears exactly the combinations a block tuple evaluates, so
  /// tail and diagonal blocks skip the untouched bulk of the bs^K array.
  void clear_tables(std::size_t first, std::size_t last) {
    std::fill(ft_.begin() + static_cast<std::ptrdiff_t>(first * 2 * kCells),
              ft_.begin() + static_cast<std::ptrdiff_t>(last * 2 * kCells),
              0u);
  }
  /// V5 prefix-plane ladder (unused and unallocated for V3/V4 scans).
  PrefixPlaneCache& prefix_cache() { return cache_; }
  /// Historical name for the K = 3 ladder.
  PairPlaneCache& pair_cache() { return cache_; }

 private:
  static std::size_t locals(std::size_t bs) {
    std::size_t v = 1;
    for (unsigned i = 0; i < K; ++i) v *= bs;
    return v;
  }

  std::size_t bs_;
  std::vector<std::uint32_t> ft_;
  PrefixPlaneCache cache_;
};

/// Triplet scratch: bs^3 tables of 27 cells.
using BlockScratch = TupleBlockScratch<3>;
/// Pair scratch: bs^2 tables of 9 cells.
using PairBlockScratch = TupleBlockScratch<2>;

namespace engine_detail {

/// Block extents of `bt`: axis j covers SNPs [base[j], end[j]).  False when
/// some axis starts past the last SNP (the block tuple is empty).
template <unsigned K>
bool block_extents(std::size_t m, std::size_t bs, const BlockTuple<K>& bt,
                   std::array<std::size_t, K>& base,
                   std::array<std::size_t, K>& end) {
  for (unsigned j = 0; j < K; ++j) {
    base[j] = bt[j] * bs;
    if (base[j] >= m) return false;
    end[j] = std::min(base[j] + bs, m);
  }
  return true;
}

/// Walks the prefixes (c_0 < ... < c_{K-2}) of a block tuple in loop order
/// (c_0 outermost) and calls `fn(comb, fresh, local, z_lo, z_hi)` for each
/// one whose last-axis window is nonempty: comb[0..K-2] holds the prefix,
/// [z_lo, z_hi) the in-window last-axis SNPs, `local` the prefix's table
/// index (the table of z is local * bs + z - base[K-1]), and `fresh` the
/// lowest axis whose index changed since the previous call (0 on the
/// first), so callers can reuse per-prefix state built on the axes below
/// it.  Prefixes whose window is empty cost two comparisons.
template <unsigned K, typename Fn>
void for_each_prefix(const std::array<std::size_t, K>& base,
                     const std::array<std::size_t, K>& end, std::size_t bs,
                     const combinatorics::LastAxisWindow<K>& window,
                     Fn&& fn) {
  combinatorics::Combination<K> comb{};
  unsigned fresh = 0;
  const auto walk = [&](const auto& self, unsigned j, std::size_t prev,
                        std::size_t local) -> void {
    if (j == K - 1) {
      const combinatorics::RankRange z = window.z_range(
          comb, std::max(base[j], prev + 1), end[j]);
      if (z.empty()) return;
      fn(static_cast<const combinatorics::Combination<K>&>(comb), fresh,
         local, static_cast<std::size_t>(z.first),
         static_cast<std::size_t>(z.last));
      fresh = K - 1;
      return;
    }
    const std::size_t first = j == 0 ? base[0] : std::max(base[j], prev + 1);
    for (std::size_t i = first; i < end[j]; ++i) {
      comb[j] = static_cast<std::uint32_t>(i);
      fresh = std::min(fresh, j);
      self(self, j + 1, i, local * bs + (i - base[j]));
    }
  };
  walk(walk, 0, 0, 0);
}

/// Brings the prefix-plane ladder up to date for the prefix in
/// comb[0..K-2], given that its indices below axis `fresh` are unchanged
/// since the last call (so rungs 2..fresh still hold their planes): rung 2
/// is built from the two leading SNPs, each deeper rung r extends rung r-1
/// by SNP comb[r-1].  Only the last rung's popcounts feed the finalize
/// kernels; intermediate rungs skip the POPCNT work.
template <unsigned K>
void update_ladder(const dataset::PhenoSplitPlanes& planes, int c,
                   const combinatorics::Combination<K>& comb, unsigned fresh,
                   std::size_t w0, std::size_t w1,
                   const CachedKernelSet& cached,
                   const GenericKernelSet& generic, PrefixPlaneCache& cache) {
  for (unsigned r = std::max(2u, fresh + 1); r < K; ++r) {
    if (r == 2) {
      std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
      cached.build(planes.plane(c, comb[0], 0), planes.plane(c, comb[0], 1),
                   planes.plane(c, comb[1], 0), planes.plane(c, comb[1], 1),
                   w0, w1, cache.rung(2), cache.stride(), cache.rung_pops(2));
      continue;
    }
    std::uint32_t* pops = nullptr;
    if (r == K - 1) {
      pops = cache.rung_pops(r);
      std::fill(pops, pops + pow3(r), 0u);
    }
    generic.extend(cache.rung(r - 1), pow3(r - 1), cache.stride(),
                   planes.plane(c, comb[r - 1], 0),
                   planes.plane(c, comb[r - 1], 1), w0, w1, cache.rung(r),
                   cache.stride(), pops);
  }
}

/// Shared skeleton of the blocked scan at any order: block bounds, the
/// block-level range test, the per-prefix last-axis window, targeted
/// scratch clear and table emission.  `accumulate(base, each_prefix)`
/// fills the scratch tables of every in-window combination, where
/// `each_prefix(fn)` runs `for_each_prefix` over this block tuple and
/// window; the direct-kernel (V3/V4) and ladder (V5) engines differ only
/// there.  `on_table(const Combination<K>&, const
/// BasicContingencyTable<K>&)` receives each emitted combination.
template <unsigned K, typename Accumulate, typename OnTable>
void scan_block_tuple_impl(const dataset::PhenoSplitPlanes& planes,
                           const TilingParams& tiling,
                           TupleBlockScratch<K>& scratch,
                           const BlockTuple<K>& bt,
                           const combinatorics::LastAxisWindow<K>& window,
                           Accumulate&& accumulate, OnTable&& on_table) {
  static_assert(K >= 2 && K <= combinatorics::kMaxOrder);
  const std::size_t bs = tiling.bs;
  const std::size_t m = planes.num_snps();
  std::array<std::size_t, K> base;
  std::array<std::size_t, K> end;
  if (!block_extents<K>(m, bs, bt, base, end)) return;
  if (!window.admits(combinatorics::BlockGrid{m, bs}, bt)) return;
  const auto each_prefix = [&](auto&& fn) {
    for_each_prefix<K>(base, end, bs, window, fn);
  };

  // Clear only the tables this block tuple accumulates into: tail blocks
  // cover fewer than bs SNPs per axis, diagonal blocks only the strictly
  // increasing locals and ranged scans only the window, so a full bs^K
  // clear would zero (and finalize would skip) mostly untouched memory.
  // The window of every prefix is a contiguous local run.
  each_prefix([&](const combinatorics::Combination<K>&, unsigned,
                  std::size_t local, std::size_t z_lo, std::size_t z_hi) {
    const std::size_t lo = local * bs + (z_lo - base[K - 1]);
    scratch.clear_tables(lo, lo + (z_hi - z_lo));
  });

  accumulate(base, each_prefix);

  // Finalize: make every row exact and emit tables.
  each_prefix([&](const combinatorics::Combination<K>& prefix, unsigned,
                  std::size_t local, std::size_t z_lo, std::size_t z_hi) {
    combinatorics::Combination<K> comb = prefix;
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      comb[K - 1] = static_cast<std::uint32_t>(z);
      scoring::BasicContingencyTable<K> t;
      for (int c = 0; c < 2; ++c) {
        const std::uint32_t* ft =
            scratch.table(local * bs + (z - base[K - 1]), c);
        auto& row = t.counts[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < TupleBlockScratch<K>::kCells; ++i) {
          row[i] = ft[i];
        }
        if constexpr (K == 2) {
          // The pair count kernel fills cells 0, 1, 3 and 4 only.
          complete_pair_row(planes, c, comb[0], comb[1], row.data());
        } else {
          // NOR padding shows up as phantom all-genotype-2 observations.
          row[TupleBlockScratch<K>::kCells - 1] -=
              static_cast<std::uint32_t>(planes.pad_bits(c));
        }
      }
      on_table(static_cast<const combinatorics::Combination<K>&>(comb), t);
    }
  });
}

}  // namespace engine_detail

// ---------------------------------------------------------------------------
// Order-generic entry points
// ---------------------------------------------------------------------------

/// Evaluates every order-K SNP combination inside block tuple `bt` whose
/// colex rank lies in the range of `clip` and calls `on_table(const
/// Combination<K>&, const BasicContingencyTable<K>&)` for each, using the
/// direct (V3/V4) order-generic kernel.  `scratch.bs()` must equal
/// `tiling.bs`.
///
/// Clipping is exact and costs nothing when off: a block tuple no window
/// reaches returns before any kernel work, and every prefix computes,
/// clears, accumulates and emits only the last-axis SNPs of its window
/// (`LastAxisWindow`).  Pass `kFullRange` (or a default window) to scan the
/// whole block tuple.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const GenericKernelSet& kernels,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      const LastAxisWindow<K>& clip, OnTable&& on_table) {
  const std::size_t bs = tiling.bs;
  engine_detail::scan_block_tuple_impl<K>(
      planes, tiling, scratch, bt, clip,
      [&](const std::array<std::size_t, K>& base, const auto& each_prefix) {
        // Sample-blocked accumulation: for each class, stream B_P words at
        // a time through all combinations of the block tuple (Algorithm 1
        // loop order, generalized to K axes).
        std::array<const Word*, K> g0;
        std::array<const Word*, K> g1;
        for (int c = 0; c < 2; ++c) {
          const std::size_t words = planes.words(c);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            each_prefix([&](const combinatorics::Combination<K>& prefix,
                            unsigned fresh, std::size_t local,
                            std::size_t z_lo, std::size_t z_hi) {
              for (unsigned j = fresh; j + 1 < K; ++j) {
                g0[j] = planes.plane(c, prefix[j], 0);
                g1[j] = planes.plane(c, prefix[j], 1);
              }
              for (std::size_t z = z_lo; z < z_hi; ++z) {
                g0[K - 1] = planes.plane(c, z, 0);
                g1[K - 1] = planes.plane(c, z, 1);
                kernels.direct(g0.data(), g1.data(), K, w0, w1,
                               scratch.table(local * bs + (z - base[K - 1]),
                                             c));
              }
            });
          }
        }
      },
      static_cast<OnTable&&>(on_table));
}

/// Unclipped direct scan: every combination of the block tuple is emitted.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const GenericKernelSet& kernels,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      OnTable&& on_table) {
  scan_block_tuple<K>(planes, tiling, kernels, scratch, bt, kFullRange,
                      static_cast<OnTable&&>(on_table));
}

/// V5 at any order K >= 3: the recursive prefix-plane ladder.  Rung 2 (the
/// 3^2 planes of the two leading SNPs) is built once per (prefix,
/// sample-chunk) by the per-ISA build kernel; each deeper rung j+1 extends
/// rung j by one SNP (two ANDs per plane, third child by the partition
/// identity); the last rung's planes and popcounts resolve all final-axis
/// cells with the two-operand finalize kernel — the prefix streams leave
/// the innermost loop entirely, and no genotype-2 plane of any prefix SNP
/// is ever materialized.  Rungs are built lazily, only for prefixes whose
/// last-axis window is nonempty, and reused while their leading SNPs stay
/// the same.  Bit-identical to the direct kernels for every clip.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const CachedKernelSet& cached,
                      const GenericKernelSet& generic,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      const LastAxisWindow<K>& clip, OnTable&& on_table) {
  static_assert(K >= 3, "the prefix-plane ladder needs a length-2 prefix; "
                        "use the counts-only pair path for K == 2");
  const std::size_t bs = tiling.bs;
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(K, tiling.bp_words);
  engine_detail::scan_block_tuple_impl<K>(
      planes, tiling, scratch, bt, clip,
      [&](const std::array<std::size_t, K>& base, const auto& each_prefix) {
        constexpr std::size_t count = pow3(K - 1);
        for (int c = 0; c < 2; ++c) {
          const std::size_t words = planes.words(c);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            each_prefix([&](const combinatorics::Combination<K>& prefix,
                            unsigned fresh, std::size_t local,
                            std::size_t z_lo, std::size_t z_hi) {
              engine_detail::update_ladder<K>(planes, c, prefix, fresh, w0,
                                              w1, cached, generic, cache);
              for (std::size_t z = z_lo; z < z_hi; ++z) {
                generic.finalize(cache.rung(K - 1), count, cache.stride(),
                                 cache.rung_pops(K - 1),
                                 planes.plane(c, z, 0), planes.plane(c, z, 1),
                                 w0, w1,
                                 scratch.table(local * bs + (z - base[K - 1]),
                                               c));
              }
            });
          }
        }
      },
      static_cast<OnTable&&>(on_table));
}

/// Unclipped ladder scan: every combination of the block tuple is emitted.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const CachedKernelSet& cached,
                      const GenericKernelSet& generic,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      OnTable&& on_table) {
  scan_block_tuple<K>(planes, tiling, cached, generic, scratch, bt,
                      kFullRange, static_cast<OnTable&&>(on_table));
}

// ---------------------------------------------------------------------------
// Third order: the per-ISA triplet instantiation
// ---------------------------------------------------------------------------

/// Evaluates every SNP triplet inside block triple `bt` whose colex rank
/// lies in the range of `clip` and calls `on_table(Triplet, const
/// ContingencyTable&)` for each.  `kernel` is the per-ISA triple-block
/// kernel; `scratch.bs()` must equal `tiling.bs`.  This is the K = 3
/// instantiation of the generic engine skeleton, keeping the hand-tuned
/// three-operand kernels (including their AVX-512 variants) on the hot
/// path.
template <typename OnTable>
void scan_block_triple(const dataset::PhenoSplitPlanes& planes,
                       const TilingParams& tiling, TripleBlockKernel kernel,
                       BlockScratch& scratch, const BlockTriple& bt,
                       const LastAxisWindow<3>& clip, OnTable&& on_table) {
  const std::size_t bs = tiling.bs;
  engine_detail::scan_block_tuple_impl<3>(
      planes, tiling, scratch, BlockTuple<3>{bt.b0, bt.b1, bt.b2}, clip,
      [&](const std::array<std::size_t, 3>& base, const auto& each_prefix) {
        // Sample-blocked accumulation: for each class, stream B_P words at
        // a time through all triplets of the block triple (Algorithm 1
        // loop order).
        for (int c = 0; c < 2; ++c) {
          const std::size_t words = planes.words(c);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            each_prefix([&](const combinatorics::Combination<3>& p, unsigned,
                            std::size_t local, std::size_t z_lo,
                            std::size_t z_hi) {
              for (std::size_t z = z_lo; z < z_hi; ++z) {
                kernel(planes.plane(c, p[0], 0), planes.plane(c, p[0], 1),
                       planes.plane(c, p[1], 0), planes.plane(c, p[1], 1),
                       planes.plane(c, z, 0), planes.plane(c, z, 1), w0, w1,
                       scratch.table(local * bs + (z - base[2]), c));
              }
            });
          }
        }
      },
      [&](const combinatorics::Combination<3>& c,
          const scoring::ContingencyTable& t) {
        on_table(combinatorics::Triplet{c[0], c[1], c[2]}, t);
      });
}

/// Unclipped scan: every triplet of the block triple is emitted.
template <typename OnTable>
void scan_block_triple(const dataset::PhenoSplitPlanes& planes,
                       const TilingParams& tiling, TripleBlockKernel kernel,
                       BlockScratch& scratch, const BlockTriple& bt,
                       OnTable&& on_table) {
  scan_block_triple(planes, tiling, kernel, scratch, bt, kFullRange,
                    static_cast<OnTable&&>(on_table));
}

/// V5 at order 3: same walk as above, but the x∩y planes of each (i0, i1)
/// with a nonempty window are built once per sample chunk into the
/// ladder's rung 2 and the z loop runs the two-operand cached kernel — the
/// x/y plane streams and their nine intersection ANDs leave the innermost
/// loop entirely, and the z-NOR plane is never materialized (cells (gx, gy,
/// 2) derive from the cached chunk popcounts).  Bit-identical to the direct
/// kernels for every clip.
template <typename OnTable>
void scan_block_triple(const dataset::PhenoSplitPlanes& planes,
                       const TilingParams& tiling,
                       const CachedKernelSet& kernels, BlockScratch& scratch,
                       const BlockTriple& bt, const LastAxisWindow<3>& clip,
                       OnTable&& on_table) {
  const std::size_t bs = tiling.bs;
  PairPlaneCache& cache = scratch.pair_cache();
  cache.ensure(tiling.bp_words);
  engine_detail::scan_block_tuple_impl<3>(
      planes, tiling, scratch, BlockTuple<3>{bt.b0, bt.b1, bt.b2}, clip,
      [&](const std::array<std::size_t, 3>& base, const auto& each_prefix) {
        for (int c = 0; c < 2; ++c) {
          const std::size_t words = planes.words(c);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            each_prefix([&](const combinatorics::Combination<3>& p, unsigned,
                            std::size_t local, std::size_t z_lo,
                            std::size_t z_hi) {
              std::fill(cache.pops(), cache.pops() + 9, 0u);
              kernels.build(planes.plane(c, p[0], 0), planes.plane(c, p[0], 1),
                            planes.plane(c, p[1], 0), planes.plane(c, p[1], 1),
                            w0, w1, cache.planes(), cache.stride(),
                            cache.pops());
              for (std::size_t z = z_lo; z < z_hi; ++z) {
                kernels.cached(cache.planes(), cache.stride(), cache.pops(),
                               planes.plane(c, z, 0), planes.plane(c, z, 1),
                               w0, w1,
                               scratch.table(local * bs + (z - base[2]), c));
              }
            });
          }
        }
      },
      [&](const combinatorics::Combination<3>& c,
          const scoring::ContingencyTable& t) {
        on_table(combinatorics::Triplet{c[0], c[1], c[2]}, t);
      });
}

/// Unclipped V5 scan: every triplet of the block triple is emitted.
template <typename OnTable>
void scan_block_triple(const dataset::PhenoSplitPlanes& planes,
                       const TilingParams& tiling,
                       const CachedKernelSet& kernels, BlockScratch& scratch,
                       const BlockTriple& bt, OnTable&& on_table) {
  scan_block_triple(planes, tiling, kernels, scratch, bt, kFullRange,
                    static_cast<OnTable&&>(on_table));
}

// ---------------------------------------------------------------------------
// Second order: the counts-only pair instantiation
// ---------------------------------------------------------------------------

/// Evaluates every SNP pair inside block pair `bp` whose colex rank lies in
/// the range of `clip` and calls `on_table(combinatorics::Pair, const
/// scoring::PairContingencyTable&)` for each.  The counts phase *is* the
/// whole evaluation: the count kernel adds the chunk popcounts of the four
/// x∩y intersections with both genotypes in {0, 1} straight into the pair's
/// table, and the finalize derives the five genotype-2 cells from the
/// per-SNP genotype counts — no third operand, no genotype-2 plane, no
/// padding correction, and no materialized planes (the counts-only kernel
/// retires zero stores and needs no L1 cache budget).  This is the K = 2
/// instantiation of the generic engine skeleton, shared by V3 (scalar
/// kernel), V4 and V5 (identical here — the ladder has no rungs below
/// order 3).
template <typename OnTable>
void scan_block_pair(const dataset::PhenoSplitPlanes& planes,
                     const TilingParams& tiling,
                     const CachedKernelSet& kernels, PairBlockScratch& scratch,
                     const BlockPair& bp, const LastAxisWindow<2>& clip,
                     OnTable&& on_table) {
  const std::size_t bs = tiling.bs;
  engine_detail::scan_block_tuple_impl<2>(
      planes, tiling, scratch, BlockTuple<2>{bp.b0, bp.b1}, clip,
      [&](const std::array<std::size_t, 2>& base, const auto& each_prefix) {
        for (int c = 0; c < 2; ++c) {
          const std::size_t words = planes.words(c);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            each_prefix([&](const combinatorics::Combination<2>& p, unsigned,
                            std::size_t local, std::size_t z_lo,
                            std::size_t z_hi) {
              for (std::size_t z = z_lo; z < z_hi; ++z) {
                kernels.count(planes.plane(c, p[0], 0),
                              planes.plane(c, p[0], 1), planes.plane(c, z, 0),
                              planes.plane(c, z, 1), w0, w1,
                              scratch.table(local * bs + (z - base[1]), c));
              }
            });
          }
        }
      },
      [&](const combinatorics::Combination<2>& c,
          const scoring::PairContingencyTable& t) {
        on_table(combinatorics::Pair{c[0], c[1]}, t);
      });
}

/// Unclipped pair scan: every pair of the block pair is emitted.
template <typename OnTable>
void scan_block_pair(const dataset::PhenoSplitPlanes& planes,
                     const TilingParams& tiling,
                     const CachedKernelSet& kernels, PairBlockScratch& scratch,
                     const BlockPair& bp, OnTable&& on_table) {
  scan_block_pair(planes, tiling, kernels, scratch, bp, kFullRange,
                  static_cast<OnTable&&>(on_table));
}

// ---------------------------------------------------------------------------
// Batched multi-phenotype engines
// ---------------------------------------------------------------------------

/// Per-thread scratch of the batched engines: the prefix-plane ladder, the
/// chunk |prefix ∩ label| popcounts, and the live (1 + P)-slot tables (slot
/// 0 totals, slot 1+p the case table of partition p).  At order >= 3 the
/// tables of all final-axis combinations of one prefix are live together
/// (B_S of them); at order 2 one pair emits before the next starts.
template <unsigned K>
class BatchTupleScratch {
 public:
  static constexpr std::size_t kCells = scoring::num_cells(K);
  /// Planes the label-popcount kernel runs against: the materialized pair
  /// planes at order 2, the last ladder rung otherwise.
  static constexpr std::size_t kPrefixPlanes = K == 2 ? 9 : pow3(K - 1);

  BatchTupleScratch(std::size_t bs, std::size_t slots, std::size_t lstride)
      : bs_(bs),
        slots_(slots),
        tables_((K >= 3 ? bs : 1) * (1 + slots) * kCells),
        label_pops_(kPrefixPlanes * lstride) {}

  std::size_t bs() const { return bs_; }
  std::size_t slots() const { return slots_; }
  /// The (1 + P)-slot table group of final-axis combination `z_rel`.
  std::uint32_t* tables(std::size_t z_rel) {
    return tables_.data() + z_rel * (1 + slots_) * kCells;
  }
  /// Zeroes the table groups of final-axis combinations [0, z_count).
  void clear_tables(std::size_t z_count) {
    std::fill(tables_.begin(),
              tables_.begin() + static_cast<std::ptrdiff_t>(
                                    z_count * (1 + slots_) * kCells),
              0u);
  }
  std::uint32_t* label_pops() { return label_pops_.data(); }
  PrefixPlaneCache& prefix_cache() { return cache_; }

 private:
  std::size_t bs_;
  std::size_t slots_;
  std::vector<std::uint32_t> tables_;
  std::vector<std::uint32_t> label_pops_;
  PrefixPlaneCache cache_;
};

/// Batched ladder scan at any order K >= 3: evaluates every combination of
/// block tuple `bt` within the range of `clip` against ALL partitions of
/// `batch` in one pass, and calls `on_table(const Combination<K>&,
/// std::size_t partition, const BasicContingencyTable<K>&)` for each
/// (partition index ascending within a combination).
///
/// `planes` must be the phenotype-agnostic combined layout
/// (`PhenoSplitPlanes::build_combined`): the ladder streams class 0 (all
/// samples) exactly once per prefix and chunk, the batch kernel counts
/// |prefix ∩ L_p| once per chunk, and each final-axis SNP then costs two
/// broadcast-AND-popcount streams per partition — the plane streaming and
/// ladder build are amortized across all P partitions.  Prefixes whose
/// last-axis window is empty build nothing.  Tables are exact integer
/// counts, so every partition's result is bit-identical to a dedicated
/// sequential scan of that partition.
template <unsigned K, typename OnTable>
void scan_block_tuple_batched(const dataset::PhenoSplitPlanes& planes,
                              const dataset::PhenotypeBatch& batch,
                              const TilingParams& tiling,
                              const CachedKernelSet& cached,
                              const GenericKernelSet& generic,
                              const BatchKernelSet& bkern,
                              BatchTupleScratch<K>& scratch,
                              const BlockTuple<K>& bt,
                              const LastAxisWindow<K>& clip,
                              OnTable&& on_table) {
  static_assert(K >= 3, "the batched ladder needs a length-2 prefix; "
                        "use scan_block_pair_batched for K == 2");
  constexpr std::size_t kCells = BatchTupleScratch<K>::kCells;
  const std::size_t bs = tiling.bs;
  const std::size_t m = planes.num_snps();
  std::array<std::size_t, K> base;
  std::array<std::size_t, K> end;
  if (!engine_detail::block_extents<K>(m, bs, bt, base, end)) return;
  if (!clip.admits(combinatorics::BlockGrid{m, bs}, bt)) return;

  const std::size_t num_labels = batch.size();
  const std::size_t lstride = batch.stride();
  const Word* labels = batch.word_labels();
  const std::size_t words = planes.words(0);
  const std::size_t pad = planes.pad_bits(0);
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(K, tiling.bp_words);
  constexpr std::size_t count = pow3(K - 1);

  engine_detail::for_each_prefix<K>(
      base, end, bs, clip,
      [&](const combinatorics::Combination<K>& prefix, unsigned, std::size_t,
          std::size_t z_lo, std::size_t z_hi) {
        scratch.clear_tables(z_hi - z_lo);
        // Chunk loop inside the prefix: the ladder and the per-chunk label
        // popcounts are built once and reused by every final-axis SNP and
        // every partition.
        for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
          const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
          engine_detail::update_ladder<K>(planes, 0, prefix, 0, w0, w1,
                                          cached, generic, cache);
          const Word* last = cache.rung(K - 1);
          std::fill(scratch.label_pops(),
                    scratch.label_pops() + count * lstride, 0u);
          bkern.label_pops(last, count, cache.stride(), labels, num_labels,
                           lstride, w0, w1, scratch.label_pops());
          for (std::size_t z = z_lo; z < z_hi; ++z) {
            bkern.finalize(last, count, cache.stride(),
                           cache.rung_pops(K - 1), scratch.label_pops(),
                           planes.plane(0, z, 0), planes.plane(0, z, 1),
                           labels, num_labels, lstride, w0, w1,
                           scratch.tables(z - z_lo), kCells);
          }
        }
        // Emit: slot 0 holds the phenotype-independent totals, slot 1+p the
        // exact case table of partition p (label planes are zero-padded).
        // The control table is totals − case; only it inherits the combined
        // planes' phantom all-genotype-2 padding.
        combinatorics::Combination<K> comb = prefix;
        for (std::size_t z = z_lo; z < z_hi; ++z) {
          comb[K - 1] = static_cast<std::uint32_t>(z);
          const std::uint32_t* group = scratch.tables(z - z_lo);
          for (std::size_t p = 0; p < num_labels; ++p) {
            const std::uint32_t* case_ft = group + (1 + p) * kCells;
            scoring::BasicContingencyTable<K> t;
            for (std::size_t i = 0; i < kCells; ++i) {
              t.counts[1][i] = case_ft[i];
              t.counts[0][i] = group[i] - case_ft[i];
            }
            t.counts[0][kCells - 1] -= static_cast<std::uint32_t>(pad);
            on_table(static_cast<const combinatorics::Combination<K>&>(comb),
                     p, t);
          }
        }
      });
}

/// Batched pair scan (K == 2): the nine x∩y planes of each in-window pair
/// are materialized once per chunk; their chunk popcounts are the totals
/// and one label-popcount pass per chunk yields every partition's case
/// cells directly — there is no final axis, so no finalize kernel is
/// involved.  Calls `on_table(const Combination<2>&, std::size_t
/// partition, const PairContingencyTable&)`.
template <typename OnTable>
void scan_block_pair_batched(const dataset::PhenoSplitPlanes& planes,
                             const dataset::PhenotypeBatch& batch,
                             const TilingParams& tiling,
                             const CachedKernelSet& cached,
                             const BatchKernelSet& bkern,
                             BatchTupleScratch<2>& scratch,
                             const BlockPair& bp,
                             const LastAxisWindow<2>& clip,
                             OnTable&& on_table) {
  const std::size_t bs = tiling.bs;
  const std::size_t m = planes.num_snps();
  const BlockTuple<2> bt{bp.b0, bp.b1};
  std::array<std::size_t, 2> base;
  std::array<std::size_t, 2> end;
  if (!engine_detail::block_extents<2>(m, bs, bt, base, end)) return;
  if (!clip.admits(combinatorics::BlockGrid{m, bs}, bt)) return;

  const std::size_t num_labels = batch.size();
  const std::size_t lstride = batch.stride();
  const Word* labels = batch.word_labels();
  const std::size_t words = planes.words(0);
  const std::size_t pad = planes.pad_bits(0);
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(3, tiling.bp_words);

  engine_detail::for_each_prefix<2>(
      base, end, bs, clip,
      [&](const combinatorics::Combination<2>& prefix, unsigned, std::size_t,
          std::size_t z_lo, std::size_t z_hi) {
        combinatorics::Combination<2> comb = prefix;
        for (std::size_t z = z_lo; z < z_hi; ++z) {
          comb[1] = static_cast<std::uint32_t>(z);
          scratch.clear_tables(1);
          std::uint32_t* table = scratch.tables(0);
          for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
            const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
            std::fill(cache.rung_pops(2), cache.rung_pops(2) + 9, 0u);
            cached.build(planes.plane(0, comb[0], 0),
                         planes.plane(0, comb[0], 1), planes.plane(0, z, 0),
                         planes.plane(0, z, 1), w0, w1, cache.rung(2),
                         cache.stride(), cache.rung_pops(2));
            std::fill(scratch.label_pops(),
                      scratch.label_pops() + 9 * lstride, 0u);
            bkern.label_pops(cache.rung(2), 9, cache.stride(), labels,
                             num_labels, lstride, w0, w1,
                             scratch.label_pops());
            for (std::size_t t = 0; t < 9; ++t) {
              table[t] += cache.rung_pops(2)[t];
              for (std::size_t p = 0; p < num_labels; ++p) {
                table[(1 + p) * 9 + t] +=
                    scratch.label_pops()[t * lstride + p];
              }
            }
          }
          for (std::size_t p = 0; p < num_labels; ++p) {
            const std::uint32_t* case_ft = table + (1 + p) * 9;
            scoring::PairContingencyTable t;
            for (std::size_t i = 0; i < 9; ++i) {
              t.counts[1][i] = case_ft[i];
              t.counts[0][i] = table[i] - case_ft[i];
            }
            t.counts[0][8] -= static_cast<std::uint32_t>(pad);
            on_table(static_cast<const combinatorics::Combination<2>&>(comb),
                     p, t);
          }
        }
      });
}

}  // namespace trigen::core
