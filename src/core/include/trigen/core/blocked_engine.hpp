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
/// paper's V3; selecting a vector kernel turns it into V4.  One direct
/// engine serves every order: its `DirectKernel<K>` is the counts-only pair
/// kernel at k = 2, the paper's per-ISA triple-block kernel at k = 3 and the
/// order-generic direct kernel above that.
///
/// V5 goes one step further with a recursive *prefix-plane ladder*: all B_S
/// last-axis SNPs of a block tuple share the same length-(k-1) prefix, so
/// the ladder materializes, once per (prefix, sample-chunk), the
/// intersection planes of each j-SNP prefix (rung j, j = 2..k-1) and the
/// last-axis loop only combines the last rung with each z.
///
/// At k = 3 the ladder counts only the eight genotype-{0,1}^3 cells: rung 2
/// holds the four planes xa∩yb with a, b in {0, 1} (`extend01` straight
/// from x's two stored planes, no NOR plane), each z costs 8 ANDs + 8
/// POPCNTs per word (`finalize` with count 4, the (a, b, 2) cells from the
/// chunk popcounts), and at emit `complete_triple_row` derives the fifteen
/// cells with genotype 2 at x or y from the xz and yz {0,1} pair tables,
/// which a per-thread `PairTableCache` counts once per last-axis block.
///
/// At k >= 4 rung j holds all 3^j planes: rung 2 is built directly from
/// two SNPs' genotype planes, rung j+1 extends rung j by ANDing each plane
/// with one SNP's two stored planes and deriving the third child from the
/// partition identity (the three genotype planes of a SNP partition every
/// sample bit, padding included), and the last rung's planes and popcounts
/// resolve all three final-axis cells with two ANDs + two POPCNTs per word.
/// At k = 2 the ladder has no rungs, so V5 runs the direct engine: the
/// chunk popcounts of the four genotype-0/1 intersections, completed from
/// the per-SNP genotype counts, *are* the 9-cell table.
///
/// The batched engine (`scan_block_tuple_batched`) scores P phenotype
/// partitions in one pass over the phenotype-agnostic combined layout.  At
/// k = 2 it runs the sequential word-vector kernels over the batch's
/// partition-major label planes (`PhenotypeBatch::plane`): per pair and
/// chunk, `extend01` forms the four x_a ∩ z_b planes and two `finalize`
/// passes with count = P count every partition's case cells against them,
/// so the sample words stay the vector axis (4 of the 9 cells, the rest
/// completed from per-SNP and per-partition genotype counts).  At k >= 3 it
/// runs the lane kernels (BatchKernelSet) against the last rung of the full
/// ladder and the word-interleaved label rows (`PhenotypeBatch::
/// word_labels`), broadcasting each cell word across the partitions.
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

using combinatorics::BlockTuple;
using combinatorics::num_block_tuples;
using combinatorics::rank_block_tuple;
using combinatorics::unrank_block_tuple;

using combinatorics::kFullRange;
using combinatorics::LastAxisWindow;

/// Per-thread scratch for the V5 prefix-plane ladder: rung j
/// (j = 2..order-1) holds the 3^j intersection planes of the current j-SNP
/// prefix restricted to the current sample chunk, plus their chunk
/// popcounts.  Planes share one stride rounded up to a whole number of
/// AVX-512 registers, so every plane start stays 64-byte aligned
/// (aligned_vector provides the base alignment).  The order-3 scan uses
/// only the first four planes of rung 2 (its xa∩yb, a, b in {0, 1}), and
/// the batched order-2 engine holds a pair's four x_a ∩ z_b planes there;
/// the batched order-3 engine uses all nine.
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

  /// Rung-2 accessors: the x∩y planes and their chunk popcounts.
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

/// Per-thread cache of the pair tables that complete order-3 rows
/// (complete_triple_row): for every SNP u and every SNP z of one last-axis
/// block, the four {0,1} cells of pair (u, z) per class, in
/// kPairCountCells order.  A table is counted by the pair count kernel over
/// the whole class the first time an emitted triplet needs it, and every
/// table is dropped when the cache moves to another block, so memory stays
/// O(M · B_S) (32 bytes per slot), a full scan counts each pair about once
/// per thread (about 3/M of the triplet work), and a ranged scan counts
/// only the pairs its windows touch.
class PairTableCache {
 public:
  /// Serves the last-axis block of `planes` whose SNPs start at `z_base`
  /// (at most `bs` of them), dropping every table counted for another
  /// block, block size or dataset.
  void select(const dataset::PhenoSplitPlanes& planes, std::size_t bs,
              std::size_t z_base) {
    if (&planes == planes_ && bs == bs_ && z_base == z_base_) return;
    planes_ = &planes;
    bs_ = bs;
    z_base_ = z_base;
    tables_.resize(planes.num_snps() * bs * 8);
    counted_.assign(planes.num_snps() * bs, 0);
  }

  /// Class-`c` cells of the pair (u, z), z in the selected block, counted
  /// with `count` (both classes) on first use.
  const std::uint32_t* row(PairPlaneCountKernel count, std::size_t u,
                           std::size_t z, int c) {
    const std::size_t slot = u * bs_ + (z - z_base_);
    std::uint32_t* t = tables_.data() + slot * 8;
    if (counted_[slot] == 0) {
      const dataset::PhenoSplitPlanes& p = *planes_;
      for (int k = 0; k < 2; ++k) {
        std::uint32_t cells[9] = {};
        count(p.plane(k, u, 0), p.plane(k, u, 1), p.plane(k, z, 0),
              p.plane(k, z, 1), 0, p.words(k), cells);
        for (std::size_t i = 0; i < 4; ++i) {
          t[static_cast<std::size_t>(k) * 4 + i] = cells[kPairCountCells[i]];
        }
      }
      counted_[slot] = 1;
    }
    return t + static_cast<std::size_t>(c) * 4;
  }

 private:
  const dataset::PhenoSplitPlanes* planes_ = nullptr;
  std::size_t bs_ = 0;
  std::size_t z_base_ = 0;
  std::vector<std::uint32_t> tables_;  ///< [u][z - z_base][class][4]
  std::vector<std::uint8_t> counted_;  ///< [u][z - z_base]
};

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
  /// Pair tables completing V5 order-3 rows (unallocated otherwise).
  PairTableCache& pair_tables() { return pairs_; }

 private:
  static std::size_t locals(std::size_t bs) {
    std::size_t v = 1;
    for (unsigned i = 0; i < K; ++i) v *= bs;
    return v;
  }

  std::size_t bs_;
  std::vector<std::uint32_t> ft_;
  PrefixPlaneCache cache_;
  PairTableCache pairs_;
};

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

/// Row completion of the direct engine (every order, DirectKernel<K>) and
/// of the nine-plane ladder (V5, k >= 4): copies the class-`c` table `ft`
/// into `row` and makes it exact with complete_direct_row.
template <unsigned K>
auto full_row(const dataset::PhenoSplitPlanes& planes) {
  return [&planes](const combinatorics::Combination<K>& comb, int c,
                   const std::uint32_t* ft, std::uint32_t* row) {
    std::copy(ft, ft + scoring::num_cells(K), row);
    complete_direct_row<K>(planes, c, comb, row);
  };
}

/// Shared skeleton of the blocked scan at any order: block bounds, the
/// block-level range test, the per-prefix last-axis window, targeted
/// scratch clear and table emission.  `accumulate(base, each_prefix)`
/// fills the scratch tables of every in-window combination, where
/// `each_prefix(fn)` runs `for_each_prefix` over this block tuple and
/// window, and `complete_row(comb, c, ft, row)` turns the accumulated
/// class-`c` table `ft` into the exact 3^K-cell `row`; the direct-kernel
/// (V3/V4) and ladder (V5) engines differ only there.  `on_table(const
/// Combination<K>&, const BasicContingencyTable<K>&)` receives each
/// emitted combination.
template <unsigned K, typename Accumulate, typename CompleteRow,
          typename OnTable>
void scan_block_tuple_impl(const dataset::PhenoSplitPlanes& planes,
                           const TilingParams& tiling,
                           TupleBlockScratch<K>& scratch,
                           const BlockTuple<K>& bt,
                           const combinatorics::LastAxisWindow<K>& window,
                           Accumulate&& accumulate, CompleteRow&& complete_row,
                           OnTable&& on_table) {
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
        complete_row(static_cast<const combinatorics::Combination<K>&>(comb),
                     c, scratch.table(local * bs + (z - base[K - 1]), c),
                     t.counts[static_cast<std::size_t>(c)].data());
      }
      on_table(static_cast<const combinatorics::Combination<K>&>(comb), t);
    }
  });
}

}  // namespace engine_detail

// ---------------------------------------------------------------------------
// Single-phenotype engines: direct (V3/V4, and V5 at k = 2) and ladder (V5)
// ---------------------------------------------------------------------------

/// Evaluates every order-K SNP combination inside block tuple `bt` whose
/// colex rank lies in the range of `clip` and calls `on_table(const
/// Combination<K>&, const BasicContingencyTable<K>&)` for each, using the
/// direct kernel of order K (V3 with the scalar strategy, V4 with a vector
/// one; also V5 at K = 2).  `scratch.bs()` must equal `tiling.bs`.
///
/// Clipping is exact and costs nothing when off: a block tuple no window
/// reaches returns before any kernel work, and every prefix computes,
/// clears, accumulates and emits only the last-axis SNPs of its window
/// (`LastAxisWindow`).  Pass `kFullRange` (or a default window) to scan the
/// whole block tuple.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const DirectKernel<K>& kernel,
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
                kernel(g0.data(), g1.data(), w0, w1,
                       scratch.table(local * bs + (z - base[K - 1]), c));
              }
            });
          }
        }
      },
      engine_detail::full_row<K>(planes), static_cast<OnTable&&>(on_table));
}

/// V5 at any order K >= 3: the recursive prefix-plane ladder.  Rungs are
/// built once per (prefix, sample-chunk), lazily — only for prefixes whose
/// last-axis window is nonempty — and reused while their leading SNPs stay
/// the same, so the prefix streams leave the innermost loop entirely and no
/// genotype-2 plane of any prefix SNP is ever materialized.
///
/// K = 3 counts 8 of the 27 cells: rung 2 holds the four xa∩yb planes
/// (a, b in {0, 1}, built by `generic.extend01`), the z loop runs
/// `generic.finalize` with count 4 into the first twelve cells of each
/// scratch table, and the emit completes each row from the scratch
/// `PairTableCache` (pair tables counted by `cached.count`) with
/// complete_triple_row.
///
/// K >= 4 keeps all 3^j planes per rung: rung 2 comes from the per-ISA
/// nine-plane build kernel, each deeper rung j+1 extends rung j by one SNP
/// (two ANDs per plane, third child by the partition identity), and the
/// last rung's planes and popcounts resolve all final-axis cells with the
/// two-operand finalize kernel.  Bit-identical to the direct kernels for
/// every clip.
template <unsigned K, typename OnTable>
void scan_block_tuple(const dataset::PhenoSplitPlanes& planes,
                      const TilingParams& tiling,
                      const CachedKernelSet& cached,
                      const GenericKernelSet& generic,
                      TupleBlockScratch<K>& scratch, const BlockTuple<K>& bt,
                      const LastAxisWindow<K>& clip, OnTable&& on_table) {
  static_assert(K >= 3, "the prefix-plane ladder needs a length-2 prefix; "
                        "K == 2 runs the direct engine");
  const std::size_t bs = tiling.bs;
  PrefixPlaneCache& cache = scratch.prefix_cache();
  cache.ensure(K, tiling.bp_words);
  // Prefix planes per final-axis kernel call: the four {0,1} planes of the
  // order-3 rung, 3^(K-1) otherwise.
  constexpr std::size_t count = K == 3 ? 4 : pow3(K - 1);
  const auto accumulate = [&](const std::array<std::size_t, K>& base,
                              const auto& each_prefix) {
    for (int c = 0; c < 2; ++c) {
      const std::size_t words = planes.words(c);
      for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
        const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
        each_prefix([&](const combinatorics::Combination<K>& prefix,
                        unsigned fresh, std::size_t local, std::size_t z_lo,
                        std::size_t z_hi) {
          if constexpr (K == 3) {
            // Rung 1 is a view: x's two stored planes sit words(c) apart.
            std::fill(cache.rung_pops(2), cache.rung_pops(2) + count, 0u);
            generic.extend01(planes.plane(c, prefix[0], 0) + w0, 2, words,
                             planes.plane(c, prefix[1], 0),
                             planes.plane(c, prefix[1], 1), w0, w1,
                             cache.rung(2), cache.stride(),
                             cache.rung_pops(2));
          } else {
            engine_detail::update_ladder<K>(planes, c, prefix, fresh, w0, w1,
                                            cached, generic, cache);
          }
          for (std::size_t z = z_lo; z < z_hi; ++z) {
            generic.finalize(cache.rung(K - 1), count, cache.stride(),
                             cache.rung_pops(K - 1), planes.plane(c, z, 0),
                             planes.plane(c, z, 1), w0, w1,
                             scratch.table(local * bs + (z - base[K - 1]), c));
          }
        });
      }
    }
  };
  if constexpr (K == 3) {
    PairTableCache& pairs = scratch.pair_tables();
    pairs.select(planes, bs, static_cast<std::size_t>(bt[2]) * bs);
    engine_detail::scan_block_tuple_impl<3>(
        planes, tiling, scratch, bt, clip, accumulate,
        [&](const combinatorics::Combination<3>& comb, int c,
            const std::uint32_t* ft, std::uint32_t* row) {
          complete_triple_row(planes, c, comb[0], comb[1], comb[2],
                              pairs.row(cached.count, comb[0], comb[2], c),
                              pairs.row(cached.count, comb[1], comb[2], c),
                              ft, row);
        },
        static_cast<OnTable&&>(on_table));
  } else {
    engine_detail::scan_block_tuple_impl<K>(
        planes, tiling, scratch, bt, clip, accumulate,
        engine_detail::full_row<K>(planes), static_cast<OnTable&&>(on_table));
  }
}

// ---------------------------------------------------------------------------
// Batched multi-phenotype engine
// ---------------------------------------------------------------------------

/// Per-thread cache of the per-partition case genotype counts that complete
/// the batched order-2 rows: |s_b ∩ L_p| for b in {0, 1}, every SNP s of the
/// combined layout and every partition p of a batch.  A SNP's counts are
/// taken the first time an emitted pair needs them, by one `finalize` over
/// the batch's partition-major label planes (count = P, s's two stored
/// planes as the operands, all words), and kept for the whole scan: they
/// serve s both as x (the (a, 2) cells) and as z (the (2, b) cells) of every
/// later pair, so a full scan counts each SNP once per thread and a ranged
/// scan only the SNPs its pairs touch.  Memory is 12 bytes per SNP and
/// partition.
class CaseGenotypeCounts {
 public:
  /// Serves `planes` (the combined layout) against `batch`, dropping every
  /// count taken for another dataset or batch.
  void select(const dataset::PhenoSplitPlanes& planes,
              const dataset::PhenotypeBatch& batch) {
    if (&planes == planes_ && &batch == batch_) return;
    planes_ = &planes;
    batch_ = &batch;
    counts_.resize(planes.num_snps() * 3 * batch.size());
    counted_.assign(planes.num_snps(), 0);
    no_pops_.assign(batch.size(), 0);
  }

  /// |s_b ∩ L_p| of SNP `s` at [p * 3 + b], b in {0, 1} (the layout
  /// `finalize` leaves; entry b = 2 is unused), counted with `finalize` on
  /// first use.
  const std::uint32_t* of(PrefixFinalKernel finalize, std::size_t s) {
    const std::size_t num_labels = batch_->size();
    std::uint32_t* t = counts_.data() + s * 3 * num_labels;
    if (counted_[s] == 0) {
      std::fill(t, t + 3 * num_labels, 0u);
      finalize(batch_->plane(0), num_labels, batch_->words(), no_pops(),
               planes_->plane(0, s, 0), planes_->plane(0, s, 1), 0,
               batch_->words(), t);
      counted_[s] = 1;
    }
    return t;
  }

  /// P zero prefix popcounts, for `finalize` passes over the label planes
  /// whose genotype-2 outputs (entry 2 of each triple) are never read.
  const std::uint32_t* no_pops() const { return no_pops_.data(); }

 private:
  const dataset::PhenoSplitPlanes* planes_ = nullptr;
  const dataset::PhenotypeBatch* batch_ = nullptr;
  std::vector<std::uint32_t> counts_;   ///< [snp][partition][3]
  std::vector<std::uint8_t> counted_;   ///< [snp]
  std::vector<std::uint32_t> no_pops_;  ///< [partition], all zero
};

/// Per-thread scratch of the batched engine: the prefix-plane ladder (the
/// last rung at order >= 3; at order 2 its first four planes hold a pair's
/// x_a ∩ z_b chunk planes), the chunk |prefix ∩ label| popcounts (order
/// >= 3), the order-2 CaseGenotypeCounts, and one table group for each of
/// the B_S final-axis combinations of a prefix.  At order >= 3 a group is
/// 1 + P tables (slot 0 the totals, slot 1+p the case table of partition
/// p).  At order 2 it holds the four counted totals cells {0,1} x {0,1} at
/// [a * 2 + b], then for a = 0 and 1 the P (a, 0), (a, 1), unused triples
/// `finalize` accumulates, at [4 + a * 3P + p * 3 + b]; 4 + 6P cells fit in
/// the 9 (1 + P) of a group.
template <unsigned K>
class BatchTupleScratch {
 public:
  static constexpr std::size_t kCells = scoring::num_cells(K);

  BatchTupleScratch(std::size_t bs, std::size_t slots, std::size_t lstride)
      : bs_(bs),
        slots_(slots),
        tables_(bs * (1 + slots) * kCells),
        label_pops_(K >= 3 ? pow3(K - 1) * lstride : 0) {}

  std::size_t bs() const { return bs_; }
  std::size_t slots() const { return slots_; }
  /// The table group of final-axis combination `z_rel`.
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
  /// Rows of |prefix plane ∩ L_p|, `lstride` lanes each: one per prefix
  /// plane (3^(K-1); unallocated at order 2).
  std::uint32_t* label_pops() { return label_pops_.data(); }
  PrefixPlaneCache& prefix_cache() { return cache_; }
  /// Per-partition case genotype counts completing order-2 rows
  /// (unallocated at higher orders).
  CaseGenotypeCounts& case_counts() { return case_counts_; }

 private:
  std::size_t bs_;
  std::size_t slots_;
  std::vector<std::uint32_t> tables_;
  std::vector<std::uint32_t> label_pops_;
  PrefixPlaneCache cache_;
  CaseGenotypeCounts case_counts_;
};

namespace engine_detail {

/// The batched order-2 pass over the pairs of one block pair: with
/// `each_prefix` as in scan_block_tuple_impl, counts every in-window pair
/// (x, z) against all partitions of `batch` with the sequential word-vector
/// kernels and emits its P tables.  Per pair and chunk, `extend01` over x's
/// two stored planes and z writes the four planes u_ab = x_a ∩ z_b (a, b in
/// {0, 1}) to the scratch ladder and adds their pops, the totals' {0,1}
/// cells; two `finalize` passes with count = P over the partition-major
/// label planes take (u_a0, u_a1) as operands and add every partition's
/// case cells (a, 0) and (a, 1).  The emit completes the totals with
/// complete_pair_row over the combined layout's one class, and each case
/// row's (a, 2) and (2, b) cells from the per-SNP case genotype counts
/// (CaseGenotypeCounts) with complete_pair_y2_column and
/// complete_pair_x2_row.  No genotype-2 plane is formed, so there is no
/// padding term.
template <typename EachPrefix, typename OnTable>
void scan_pairs_batched(const dataset::PhenoSplitPlanes& planes,
                        const dataset::PhenotypeBatch& batch,
                        const TilingParams& tiling,
                        const GenericKernelSet& generic,
                        BatchTupleScratch<2>& scratch,
                        const EachPrefix& each_prefix, OnTable&& on_table) {
  const std::size_t num_labels = batch.size();
  const std::size_t words = planes.words(0);
  PrefixPlaneCache& cache = scratch.prefix_cache();
  // B_P may exceed the plane (the order-2 budget allows chunks of
  // thousands of words); the pair planes only ever hold one chunk.
  cache.ensure(3, std::min(tiling.bp_words, words));
  Word* const u = cache.rung(2);
  const std::size_t us = cache.stride();
  CaseGenotypeCounts& case_counts = scratch.case_counts();
  case_counts.select(planes, batch);

  each_prefix([&](const combinatorics::Combination<2>& prefix, unsigned,
                  std::size_t, std::size_t z_lo, std::size_t z_hi) {
    const std::size_t x = prefix[0];
    scratch.clear_tables(z_hi - z_lo);
    // Chunk loop outside the z loop: the chunk's label planes and x's
    // planes stay hot for every z of the window.
    for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
      const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        std::uint32_t* group = scratch.tables(z - z_lo);
        // Rung 1 is a view: x's two stored planes sit `words` apart.
        generic.extend01(planes.plane(0, x, 0) + w0, 2, words,
                         planes.plane(0, z, 0), planes.plane(0, z, 1), w0,
                         w1, u, us, group);
        for (std::size_t a = 0; a < 2; ++a) {
          generic.finalize(batch.plane(0) + w0, num_labels, batch.words(),
                           case_counts.no_pops(), u + 2 * a * us,
                           u + (2 * a + 1) * us, 0, w1 - w0,
                           group + 4 + a * 3 * num_labels);
        }
      }
    }
    combinatorics::Combination<2> comb = prefix;
    const std::uint32_t* cx = case_counts.of(generic.finalize, x);
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      comb[1] = static_cast<std::uint32_t>(z);
      const std::uint32_t* group = scratch.tables(z - z_lo);
      std::uint32_t totals[9] = {group[0], group[1], 0, group[2], group[3]};
      complete_pair_row(planes, 0, x, z, totals);
      const std::uint32_t* cz = case_counts.of(generic.finalize, z);
      for (std::size_t p = 0; p < num_labels; ++p) {
        const std::uint32_t* a0 = group + 4 + p * 3;
        const std::uint32_t* a1 = a0 + 3 * num_labels;
        scoring::BasicContingencyTable<2> t;
        std::uint32_t* row = t.counts[1].data();
        row[0] = a0[0];
        row[1] = a0[1];
        row[3] = a1[0];
        row[4] = a1[1];
        complete_pair_y2_column(cx[p * 3], cx[p * 3 + 1], row);
        complete_pair_x2_row(cz[p * 3], cz[p * 3 + 1],
                             static_cast<std::uint32_t>(batch.cases(p)), row);
        for (std::size_t i = 0; i < 9; ++i) {
          t.counts[0][i] = totals[i] - row[i];
        }
        on_table(static_cast<const combinatorics::Combination<2>&>(comb), p,
                 t);
      }
    }
  });
}

}  // namespace engine_detail

/// Batched scan at any order K: evaluates every combination of block tuple
/// `bt` within the range of `clip` against ALL partitions of `batch` in one
/// pass, and calls `on_table(const Combination<K>&, std::size_t partition,
/// const BasicContingencyTable<K>&)` for each (partition index ascending
/// within a combination).  `planes` must be the phenotype-agnostic combined
/// layout (`PhenoSplitPlanes::build_combined`), read from class 0 (all
/// samples).  Prefixes whose last-axis window is empty build nothing.
///
/// K = 2 counts 4 of the 9 cells per pair, for the totals and every
/// partition, with the sequential word-vector kernels over the batch's
/// partition-major label planes (engine_detail::scan_pairs_batched): the
/// sample words are the vector axis, and a pair costs four AND + POPCNT
/// streams per label plane.  `cached` and `bkern` are unused.
///
/// K >= 3 runs the ladder (update_ladder, all 3^(K-1) planes of the last
/// rung) once per prefix and chunk, the lane kernel `bkern.label_pops`
/// counts |prefix ∩ L_p| once per chunk over the word-interleaved label
/// rows, and each final-axis SNP then costs two broadcast-AND-popcount
/// streams per prefix plane and partition (`bkern.finalize`) — the plane
/// streaming and prefix work are amortized across all P partitions.  Every
/// cell is counted; the control table inherits the combined planes' phantom
/// all-genotype-2 padding, subtracted at emit.
///
/// Tables are exact integer counts at every order, so every partition's
/// result is bit-identical to a dedicated sequential scan of that
/// partition.
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
  const std::size_t bs = tiling.bs;
  const std::size_t m = planes.num_snps();
  std::array<std::size_t, K> base;
  std::array<std::size_t, K> end;
  if (!engine_detail::block_extents<K>(m, bs, bt, base, end)) return;
  if (!clip.admits(combinatorics::BlockGrid{m, bs}, bt)) return;
  const auto each_prefix = [&](auto&& fn) {
    engine_detail::for_each_prefix<K>(base, end, bs, clip, fn);
  };
  if constexpr (K == 2) {
    engine_detail::scan_pairs_batched(planes, batch, tiling, generic, scratch,
                                      each_prefix,
                                      static_cast<OnTable&&>(on_table));
  } else {
    constexpr std::size_t kCells = BatchTupleScratch<K>::kCells;
    const std::size_t num_labels = batch.size();
    const std::size_t lstride = batch.stride();
    const Word* labels = batch.word_labels();
    const std::size_t words = planes.words(0);
    constexpr std::size_t count = pow3(K - 1);
    PrefixPlaneCache& cache = scratch.prefix_cache();
    cache.ensure(K, tiling.bp_words);

    each_prefix([&](const combinatorics::Combination<K>& prefix, unsigned,
                    std::size_t, std::size_t z_lo, std::size_t z_hi) {
      scratch.clear_tables(z_hi - z_lo);
      // Chunk loop inside the prefix: the ladder and the per-chunk label
      // popcounts are built once and reused by every final-axis SNP and
      // every partition.
      for (std::size_t w0 = 0; w0 < words; w0 += tiling.bp_words) {
        const std::size_t w1 = std::min(w0 + tiling.bp_words, words);
        engine_detail::update_ladder<K>(planes, 0, prefix, 0, w0, w1, cached,
                                        generic, cache);
        const Word* rung = cache.rung(K - 1);
        std::fill(scratch.label_pops(),
                  scratch.label_pops() + count * lstride, 0u);
        bkern.label_pops(rung, count, cache.stride(), labels, num_labels,
                         lstride, w0, w1, scratch.label_pops());
        for (std::size_t z = z_lo; z < z_hi; ++z) {
          bkern.finalize(rung, count, cache.stride(), cache.rung_pops(K - 1),
                         scratch.label_pops(), planes.plane(0, z, 0),
                         planes.plane(0, z, 1), labels, num_labels, lstride,
                         w0, w1, scratch.tables(z - z_lo), kCells);
        }
      }
      // Emit: slot 0 holds the phenotype-independent totals, slot 1+p the
      // exact case table of partition p (label planes are zero-padded),
      // and the control table is totals − case.
      combinatorics::Combination<K> comb = prefix;
      for (std::size_t z = z_lo; z < z_hi; ++z) {
        comb[K - 1] = static_cast<std::uint32_t>(z);
        const std::uint32_t* group = scratch.tables(z - z_lo);
        for (std::size_t p = 0; p < num_labels; ++p) {
          const std::uint32_t* case_ft = group + (1 + p) * kCells;
          scoring::BasicContingencyTable<K> t;
          std::copy(case_ft, case_ft + kCells, t.counts[1].begin());
          for (std::size_t i = 0; i < kCells; ++i) {
            t.counts[0][i] = group[i] - t.counts[1][i];
          }
          // Only the control table inherits the combined planes' phantom
          // all-genotype-2 padding.
          t.counts[0][kCells - 1] -=
              static_cast<std::uint32_t>(planes.pad_bits(0));
          on_table(static_cast<const combinatorics::Combination<K>&>(comb),
                   p, t);
        }
      }
    });
  }
}

}  // namespace trigen::core
