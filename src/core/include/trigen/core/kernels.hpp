#pragma once
/// \file kernels.hpp
/// \brief Contingency-table construction kernels (paper §IV-A, Algorithm 1).
///
/// The computational core of epistasis detection is filling the 27x2
/// frequency table for a SNP triplet.  Two kernel shapes exist:
///
///  * the **V1 kernel** consumes the naive `BitPlanesV1` layout: three
///    genotype planes per SNP plus the phenotype plane — 27 genotype
///    combinations x 2 classes x (4 ANDs + 1 POPCNT) per word;
///  * the **triple-block kernel** consumes one phenotype class of the
///    `PhenoSplitPlanes` layout over a word range: genotype 2 is inferred
///    by NOR, there is no phenotype AND, and the word range allows the
///    blocked engine (V3/V4/V5) to tile the sample dimension.
///
/// Every kernel family has one implementation per vectorization strategy
/// (scalar, AVX2 + extracts, AVX2 Harley-Seal, AVX-512 + extracts,
/// AVX-512 + VPOPCNTDQ), matching the per-ISA strategies of the paper's
/// V4; the scalar implementations double as the V2/V3 kernels and as the
/// reference the vector ones are tested against.  The strategies differ
/// only in vector width and in how a popcount is taken, so each vector
/// kernel shape is written once, as a template over a per-strategy policy
/// (src/core/kernels_simd.hpp), and instantiated per strategy.
///
/// The blocked engine's direct (V3/V4) path names one kernel per order,
/// chosen at compile time by `DirectKernel<K>` / `get_direct_kernel<K>`:
/// the counts-only pair kernel at k = 2, the triple-block kernel at k = 3
/// and the order-generic `direct` kernel above that.  The detectors'
/// single-combination `contingency` uses the same choice.
///
/// The **V5** order-3 path counts only the eight genotype-{0,1}^3 cells.
/// Once per (x, y, sample chunk) the order-generic `extend01` kernel
/// materializes the four planes xa∩yb with a, b in {0, 1} (plus their
/// popcounts) straight from the two stored planes of each SNP, and the
/// generic `finalize` kernel with count = 4 combines them with a z operand:
/// 8 ANDs + 8 POPCNTs per word against V4's 42 ANDs + 27 POPCNTs.  The
/// (a, b, 2) cells come from the chunk popcounts (the z genotype planes
/// partition every bit), and `complete_triple_row` derives the fifteen
/// cells with genotype 2 at x or y from the xz and yz pair tables of the
/// counts-only pair kernel plus the per-SNP genotype counts.  Every step is
/// exact integer arithmetic, so V5 is bit-identical to V2-V4.  The
/// nine-plane `pair_plane_build` kernel remains only as rung 2 of the
/// k >= 4 ladder and of the batched k >= 3 engine (the batched k = 2 path
/// runs the batch kernels straight over x's two stored planes).
/// `triple_block_cached` has no caller in the engines any more and no body
/// of its own: it is the generic `finalize` kernel at count 9, kept only
/// for perfbench's kernel probe and the kernel benchmarks.
///
/// NOR padding: plane tail bits are zero, so an inferred genotype-2 plane
/// has ones there and the kernels that form one over-count the
/// all-genotype-2 cell by exactly the class's padding-bit count.  Callers
/// subtract `PhenoSplitPlanes::pad_bits` once per class after the last word
/// block (see blocked_engine.hpp) — keeping the hot loop mask-free.  The
/// pair count kernel, the V5 order-3 path and the batched pair path are the
/// exception: they read only the stored, zero-padded genotype 0/1 planes
/// and never form a genotype-2 plane, so their counted cells are exact and
/// `complete_pair_row` / `complete_pair_x2_row` / `complete_triple_row`
/// derive the rest from per-SNP (or per-partition) genotype counts, with no
/// padding term at all.

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "trigen/combinatorics/combinations.hpp"
#include "trigen/dataset/bitplanes.hpp"
#include "trigen/scoring/contingency.hpp"

namespace trigen::core {

using dataset::Word;

/// Accumulates the 27 genotype-combination counts of one phenotype class
/// for the triplet whose class planes are (x0,x1), (y0,y1), (z0,z1), over
/// words [w_begin, w_end).  Adds into `ft27` (not zeroed here).
using TripleBlockKernel = void (*)(const Word* x0, const Word* x1,
                                   const Word* y0, const Word* y1,
                                   const Word* z0, const Word* z1,
                                   std::size_t w_begin, std::size_t w_end,
                                   std::uint32_t* ft27);

/// Pair-plane build (rung 2 of the nine-plane ladder): materializes the
/// nine x∩y genotype intersection planes of one (x, y) SNP pair for words
/// [w_begin, w_end).  Plane p = gx*3 + gy is written to
/// `xy[p*stride + (w - w_begin)]`; each plane's popcount over the chunk is
/// *added* into `xy_pop9[p]` (callers zero it per chunk).
/// `stride` must be >= w_end - w_begin; planes start 64-byte aligned when
/// `xy` is 64-byte aligned and `stride` is a multiple of 16 words.
using PairPlaneBuildKernel = void (*)(const Word* x0, const Word* x1,
                                      const Word* y0, const Word* y1,
                                      std::size_t w_begin, std::size_t w_end,
                                      Word* xy, std::size_t stride,
                                      std::uint32_t* xy_pop9);

/// Pair-plane-cached triple kernel: accumulates the 27 counts of one
/// triplet from the nine cached planes of its (x, y) pair plus the z
/// operand planes.  The cache is read at relative offsets [0, w_end -
/// w_begin); z0/z1 are indexed absolutely at [w_begin, w_end).  Cells
/// (gx, gy, 2) are derived from the chunk popcounts:
/// |xy ∩ z2| = xy_pop9[p] - |xy ∩ z0| - |xy ∩ z1| (the z
/// genotype planes partition every bit, padding included, so the phantom
/// (2,2,2) padding observations behave exactly as in the direct kernels).
/// Adds into `ft27` (not zeroed here).
using TripleBlockCachedKernel = void (*)(const Word* xy, std::size_t stride,
                                         const std::uint32_t* xy_pop9,
                                         const Word* z0, const Word* z1,
                                         std::size_t w_begin,
                                         std::size_t w_end,
                                         std::uint32_t* ft27);

/// Counts-only pair kernel: over [w_begin, w_end), *adds* the popcounts of
/// the four intersections xa∩yb with a, b in {0, 1} into `xy_pop9[a*3 + b]`
/// (cells 0, 1, 3 and 4 of a 9-cell pair row) and leaves the other five
/// cells untouched — four AND + four POPCNT per word, no genotype-2 NOR and
/// no stores.  Because a SNP's three genotype planes partition its class,
/// the genotype-2 cells follow exactly from the per-SNP genotype counts
/// once the whole sample range is summed (complete_pair_row).
using PairPlaneCountKernel = void (*)(const Word* x0, const Word* x1,
                                      const Word* y0, const Word* y1,
                                      std::size_t w_begin, std::size_t w_end,
                                      std::uint32_t* xy_pop9);

/// The pair-row cells a PairPlaneCountKernel counts, in kernel order.
inline constexpr std::size_t kPairCountCells[4] = {0, 1, 3, 4};

/// Completes the x = 2 row of a pair row whose x = 0 and x = 1 rows hold
/// exact counts over a set of `n` samples, `sy0` and `sy1` of which have
/// genotype 0 and 1 at y (a SNP's three genotypes partition every set):
///   n(2,b) = S_y(b) − n(0,b) − n(1,b),
///   n(2,2) = n − Σ_{a<2, g} n(a,g) − n(2,0) − n(2,1).
/// Overwrites cells 6, 7 and 8.  complete_pair_row applies it to a class;
/// the batched pair path applies it to the totals and to the case set of
/// every partition.
inline void complete_pair_x2_row(std::uint32_t sy0, std::uint32_t sy1,
                                 std::uint32_t n, std::uint32_t* row) {
  row[6] = sy0 - row[0] - row[3];
  row[7] = sy1 - row[1] - row[4];
  row[8] = n - row[0] - row[1] - row[2] - row[3] - row[4] - row[5] - row[6] -
           row[7];
}

/// Completes one class row of the pair (x, y) table whose cells 0, 1, 3
/// and 4 hold the exact counts over the whole class (as a
/// PairPlaneCountKernel leaves them): with S_x(a) the class's count of
/// genotype a at x, n(a,2) = S_x(a) − n(a,0) − n(a,1), and the x = 2 row
/// follows from S_y(b) and the class size (complete_pair_x2_row).
/// Overwrites cells 2, 5, 6, 7 and 8.
inline void complete_pair_row(const dataset::PhenoSplitPlanes& p, int c,
                              std::size_t x, std::size_t y,
                              std::uint32_t* row) {
  row[2] = p.genotype_count(c, x, 0) - row[0] - row[1];
  row[5] = p.genotype_count(c, x, 1) - row[3] - row[4];
  complete_pair_x2_row(p.genotype_count(c, y, 0), p.genotype_count(c, y, 1),
                       static_cast<std::uint32_t>(p.samples(c)), row);
}

/// The twelve order-3 cells the V5 path counts: n(a, b, g) for a, b in
/// {0, 1} and every g sit at ft12[(a*2 + b)*3 + g], the layout the
/// finalize kernel leaves after a four-plane extend01 rung.
///
/// Completes one class row of the triplet (x, y, z) table from those cells
/// (exact over the whole class) and the four {0,1} cells of the pair
/// tables (x, z) and (y, z), in kPairCountCells order as a
/// PairPlaneCountKernel leaves them.  With the pair tables completed by
/// complete_pair_row, every cell with a genotype-2 at x or y follows from
/// the partition of each class by a SNP's three genotypes:
///   n(a,2,g) = n_xz(a,g) − n(a,0,g) − n(a,1,g),
///   n(2,b,g) = n_yz(b,g) − n(0,b,g) − n(1,b,g),
///   n(2,2,g) = n_xz(2,g) − n(2,0,g) − n(2,1,g).
/// Writes all 27 cells of `row`.
inline void complete_triple_row(const dataset::PhenoSplitPlanes& p, int c,
                                std::size_t x, std::size_t y, std::size_t z,
                                const std::uint32_t* xz4,
                                const std::uint32_t* yz4,
                                const std::uint32_t* ft12,
                                std::uint32_t* row) {
  std::uint32_t xz[9] = {xz4[0], xz4[1], 0, xz4[2], xz4[3]};
  std::uint32_t yz[9] = {yz4[0], yz4[1], 0, yz4[2], yz4[3]};
  complete_pair_row(p, c, x, z, xz);
  complete_pair_row(p, c, y, z, yz);
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t a = 0; a < 2; ++a) {
      for (std::size_t b = 0; b < 2; ++b) {
        row[a * 9 + b * 3 + g] = ft12[(a * 2 + b) * 3 + g];
      }
      row[a * 9 + 6 + g] =
          xz[a * 3 + g] - row[a * 9 + g] - row[a * 9 + 3 + g];
    }
    for (std::size_t b = 0; b < 2; ++b) {
      row[18 + b * 3 + g] = yz[b * 3 + g] - row[b * 3 + g] - row[9 + b * 3 + g];
    }
    row[24 + g] = xz[6 + g] - row[18 + g] - row[21 + g];
  }
}

/// The nine-plane V5 phases for one vectorization strategy plus the
/// counts-only pair kernel.  `build` is rung 2 of the k >= 4 ladder and of
/// the batched k >= 3 engine; `count` is the k = 2 direct kernel and fills
/// the pair tables of the V5 order-3 path; `cached` is the strategy's
/// generic `finalize` at count 9, called only by perfbench's kernel probe
/// and the kernel benchmarks.
struct CachedKernelSet {
  PairPlaneBuildKernel build = nullptr;
  TripleBlockCachedKernel cached = nullptr;
  PairPlaneCountKernel count = nullptr;
};

// ---------------------------------------------------------------------------
// Order-generic kernels (the K >= 4 rungs of the prefix-plane ladder)
// ---------------------------------------------------------------------------
//
// The V5 identity generalizes to any order: rung j of the ladder holds the
// 3^j genotype intersection planes of a j-SNP prefix.  Extending the
// prefix by one SNP ANDs each cached plane P with the SNP's two explicit
// genotype planes and derives the third child from the partition identity
// (the SNP's three genotype planes partition every sample bit, padding
// included, so P∩s2 = P ^ (P∩s0) ^ (P∩s1)).  The final SNP never
// materializes planes at all: |P∩z2| = |P| - |P∩z0| - |P∩z1|, exactly the
// triple-cached kernel with 3^(K-2) prefixes instead of 9.  `extend01`
// keeps only the two genotype-{0,1} children, the rung of the order-3
// 2^k-cell path.  Every strategy carries its own extend01; VPOPCNTDQ also
// carries its own finalize, and the rest of the family runs the widest
// compiled AVX2 (or scalar) body.

/// Ladder extension: for each of `count` cached prefix planes
/// (`prefix[t*stride + rel]`, rel in [0, w_end - w_begin)), writes the
/// three child planes P∩s0, P∩s1, P∩s2 to `out[(t*3 + g)*out_stride +
/// rel]`.  s0/s1 are indexed absolutely at [w_begin, w_end).  When
/// `out_pops` is non-null the child plane popcounts over the chunk are
/// *added* into `out_pops[t*3 + g]` (callers zero per chunk) — needed only
/// when the output rung is the final cached rung K-1.
using PrefixExtendKernel = void (*)(const Word* prefix, std::size_t count,
                                    std::size_t stride, const Word* s0,
                                    const Word* s1, std::size_t w_begin,
                                    std::size_t w_end, Word* out,
                                    std::size_t out_stride,
                                    std::uint32_t* out_pops);

/// {0,1} extension (`extend01`, same signature): for each of `count`
/// prefix planes writes only the two children P∩s0 and P∩s1 to
/// `out[(t*2 + g)*out_stride + rel]`, g in {0, 1}, and — when `out_pops`
/// is non-null — *adds* their chunk popcounts into `out_pops[t*2 + g]`.
/// At order 3 the prefix is x's two stored planes (`prefix` = x0 + w_begin,
/// `stride` = the class's words, since x1 directly follows x0), so the
/// four output planes are xa∩yb, a, b in {0, 1}, in finalize order.

/// Ladder final rung: accumulates the 3^K counts of one combination from
/// the `count` = 3^(K-1) cached prefix planes plus the last SNP's operand
/// planes; cell layout ft[t*3 + g] matches cell = sum g_j * 3^(K-1-j).
/// Semantics otherwise identical to TripleBlockCachedKernel (which is this
/// kernel with count = 9); any count works, e.g. count = 4 over an
/// extend01 rung fills the twelve cells complete_triple_row reads.  Adds
/// into `ft` (not zeroed here).
using PrefixFinalKernel = void (*)(const Word* prefix, std::size_t count,
                                   std::size_t stride,
                                   const std::uint32_t* prefix_pops,
                                   const Word* z0, const Word* z1,
                                   std::size_t w_begin, std::size_t w_end,
                                   std::uint32_t* ft);

/// Direct (uncached) order-k contingency kernel, the V4 analogue for
/// K >= 4: `g0[i]`/`g1[i]` are SNP i's two explicit genotype planes
/// (genotype 2 inferred by NOR), and the 3^k cell counts are accumulated
/// into `ft` with cell = sum g_j * 3^(k-1-j).  Requires 2 <= k <=
/// combinatorics::kMaxOrder.  Adds into `ft` (not zeroed here).
using TupleBlockKernel = void (*)(const Word* const* g0, const Word* const* g1,
                                  unsigned k, std::size_t w_begin,
                                  std::size_t w_end, std::uint32_t* ft);

/// The order-generic kernel family for one vectorization strategy.
struct GenericKernelSet {
  PrefixExtendKernel extend = nullptr;
  PrefixExtendKernel extend01 = nullptr;
  PrefixFinalKernel finalize = nullptr;
  TupleBlockKernel direct = nullptr;
};

// ---------------------------------------------------------------------------
// Batched multi-phenotype kernels (P partitions per cached-prefix pass)
// ---------------------------------------------------------------------------
//
// Everything upstream of the final case/control split — streaming genotype
// planes, building the prefix-plane ladder — is phenotype-independent.  The
// batched kernels exploit that: the engine builds the ladder over *combined*
// planes (all samples, no class split) once, and the final popcount pass
// scores P phenotype partitions at a time against a word-interleaved label
// matrix `labels[w * lstride + p]` (lane p of row w is word w of partition
// p's case plane; rows are padded to a whole vector register).  Per cell
// word u = prefix ∩ z the vector kernels broadcast u and AND it against 8
// or 16 label lanes per instruction, so the marginal cost of one extra
// phenotype is ~1/8 (AVX2) or ~1/16 (AVX-512) of a dedicated pass.  Label
// planes have zero tail bits, so case counts need no padding correction;
// control rows are derived as totals - cases with the usual all-genotype-2
// padding subtraction on the totals side.  At order 2 the prefix planes are
// x's two stored planes (count = 2), no genotype-2 plane is formed and the
// x = 2 rows are completed from genotype counts instead, with no padding
// term.

/// Chunk popcounts |prefix_t ∩ L_p| for every cached plane t and label lane
/// p: `label_pops[t * lstride + p]` is *added to* (callers zero per chunk).
/// The prefix planes are read at relative offsets [0, w_end - w_begin);
/// labels are indexed absolutely as `labels[w * lstride + p]`.  These are
/// the batch analogue of the ladder's rung popcounts: computed once per
/// (prefix, chunk) and amortized over every last-axis SNP, they resolve the
/// per-partition genotype-2 case cells via the partition identity.
using BatchLabelPopsKernel = void (*)(const Word* prefix, std::size_t count,
                                      std::size_t stride, const Word* labels,
                                      std::size_t num_labels,
                                      std::size_t lstride, std::size_t w_begin,
                                      std::size_t w_end,
                                      std::uint32_t* label_pops);

/// Batched finalize: accumulates, from `count` cached prefix planes plus
/// the last SNP's operand planes, the totals table AND one case table per
/// label lane.  `ft` holds 1 + num_labels consecutive tables of `ft_stride`
/// cells each (cell = t*3 + g, as in PrefixFinalKernel): slot 0 is the
/// totals table (all samples; genotype-2 cells from `prefix_pops`), slot
/// 1 + p the case table of partition p (genotype-2 cells from
/// `label_pops[t * lstride + p]`).  Adds into `ft` (not zeroed here).
using BatchFinalKernel = void (*)(const Word* prefix, std::size_t count,
                                  std::size_t stride,
                                  const std::uint32_t* prefix_pops,
                                  const std::uint32_t* label_pops,
                                  const Word* z0, const Word* z1,
                                  const Word* labels, std::size_t num_labels,
                                  std::size_t lstride, std::size_t w_begin,
                                  std::size_t w_end, std::uint32_t* ft,
                                  std::size_t ft_stride);

/// The batched multi-phenotype kernel pair for one vectorization strategy.
struct BatchKernelSet {
  BatchLabelPopsKernel label_pops = nullptr;
  BatchFinalKernel finalize = nullptr;
};

/// Vectorization strategy of the triple-block kernel.
enum class KernelIsa {
  kScalar,         ///< 32-bit words, builtin POPCNT (V2/V3 and AVX-less V4)
  kAvx2,           ///< 256-bit AND/NOR, 4x extract + scalar POPCNT
  kAvx2HarleySeal, ///< 256-bit AND/NOR, vpshufb nibble-LUT popcount
                   ///< (ablation: the SWAR alternative to extract+POPCNT
                   ///< on AVX CPUs without vector POPCNT)
  kAvx512Extract,  ///< 512-bit AND/NOR, extracti64x4 + extract + scalar POPCNT
  kAvx512Vpopcnt,  ///< 512-bit AND/NOR, VPOPCNTDQ + per-cell reduce
};

/// All strategies compiled into this binary.
const std::vector<KernelIsa>& all_kernel_isas();

/// True when the host CPU can execute `isa`.
bool kernel_available(KernelIsa isa);

/// Widest strategy available on the host.
KernelIsa best_kernel_isa();

std::string kernel_isa_name(KernelIsa isa);

/// Inverse of kernel_isa_name ("scalar", "avx2", "avx2-harley-seal",
/// "avx512-extract", "avx512-vpopcnt"); nullopt for unknown names.  Only
/// names of strategies compiled into this binary resolve — callers decide
/// whether an unavailable-on-this-host strategy is an error (the CLI's
/// --isa / TRIGEN_ISA validation) or a fallback.
std::optional<KernelIsa> parse_kernel_isa(const std::string& name);

/// Fetch the kernel for `isa`; throws std::runtime_error if unavailable.
TripleBlockKernel get_kernel(KernelIsa isa);

/// Fetch the V5 two-phase kernel set for `isa`; throws std::runtime_error
/// if unavailable.  Availability is identical to get_kernel's: every ISA
/// that carries a triple-block kernel carries the cached pair as well.
/// `cached` runs get_generic_kernels(isa).finalize at count 9.
CachedKernelSet get_cached_kernels(KernelIsa isa);

/// Fetch the order-generic kernel family for `isa`; throws
/// std::runtime_error if unavailable.  `extend01` is always the strategy's
/// own body.  VPOPCNTDQ also gets its own `finalize`; `extend`, `direct`
/// and every other strategy's `finalize` are the widest compiled generic
/// path (AVX2 when built, scalar otherwise): any host that can execute an
/// AVX-512 strategy can execute AVX2, and the generics are exact on every
/// path.  (An extract + scalar POPCNT AVX-512 finalize measured no faster
/// than the AVX2 body at k = 3 or 4.)
GenericKernelSet get_generic_kernels(KernelIsa isa);

/// The direct (V3/V4) kernel of order K, chosen at compile time: the
/// counts-only pair kernel at K = 2 (cells 0, 1, 3 and 4 only, completed by
/// complete_pair_row), the paper's per-ISA triple-block kernel at K = 3 and
/// the order-generic `direct` kernel above that (both NOR-padded).  The
/// call adds the class counts of the combination whose i-th SNP has the
/// genotype planes g0[i], g1[i] over words [w_begin, w_end) into `ft`.
template <unsigned K>
struct DirectKernel {
  using Fn = std::conditional_t<
      K == 2, PairPlaneCountKernel,
      std::conditional_t<K == 3, TripleBlockKernel, TupleBlockKernel>>;
  Fn fn = nullptr;

  void operator()(const Word* const* g0, const Word* const* g1,
                  std::size_t w_begin, std::size_t w_end,
                  std::uint32_t* ft) const {
    if constexpr (K == 2) {
      fn(g0[0], g1[0], g0[1], g1[1], w_begin, w_end, ft);
    } else if constexpr (K == 3) {
      fn(g0[0], g1[0], g0[1], g1[1], g0[2], g1[2], w_begin, w_end, ft);
    } else {
      fn(g0, g1, K, w_begin, w_end, ft);
    }
  }
};

/// Fetch the order-K direct kernel for `isa`; throws std::runtime_error if
/// unavailable.
template <unsigned K>
DirectKernel<K> get_direct_kernel(KernelIsa isa) {
  if constexpr (K == 2) {
    return {get_cached_kernels(isa).count};
  } else if constexpr (K == 3) {
    return {get_kernel(isa)};
  } else {
    return {get_generic_kernels(isa).direct};
  }
}

/// Fetch the batched multi-phenotype kernels for `isa`; throws
/// std::runtime_error if unavailable.  The scalar strategy maps to the
/// scalar batch kernels; both AVX2 strategies share one LUT-based variant
/// (per-dword popcounts need the nibble LUT regardless of the triple
/// kernel's popcount strategy); the AVX-512 strategies keep dedicated
/// variants.  Every variant is exact, so batched scans are bit-identical
/// across the mapping.
BatchKernelSet get_batch_kernels(KernelIsa isa);

/// Words processed per kernel iteration (1, 8 or 16): callers sizing word
/// blocks should use multiples of this for full-vector main loops.
std::size_t kernel_vector_words(KernelIsa isa);

// ---------------------------------------------------------------------------
// Whole-combination conveniences (any order K in [2, kMaxOrder])
// ---------------------------------------------------------------------------

/// Turns the class-`c` counts a DirectKernel<K> accumulated over the whole
/// class into the exact 3^K-cell `row`: the pair rows complete their
/// genotype-2 cells from genotype counts (complete_pair_row), the
/// NOR-padded kernels above order 2 drop the class's padding bits from the
/// all-genotype-2 cell.
template <unsigned K>
void complete_direct_row(const dataset::PhenoSplitPlanes& p, int c,
                         const combinatorics::Combination<K>& snps,
                         std::uint32_t* row) {
  if constexpr (K == 2) {
    complete_pair_row(p, c, snps[0], snps[1], row);
  } else {
    row[scoring::num_cells(K) - 1] -= static_cast<std::uint32_t>(p.pad_bits(c));
  }
}

/// V1: naive evaluation from the Fig.-1 layout — per-cell ANDs of every
/// SNP's explicit genotype plane with the phenotype / negated phenotype
/// plane.  Zero-padded genotype planes contribute nothing, so no pad
/// correction.
template <unsigned K>
scoring::BasicContingencyTable<K> contingency_v1(
    const dataset::BitPlanesV1& p, const combinatorics::Combination<K>& snps);

/// V2+: evaluation from the phenotype-split layout with the order-K direct
/// kernel for `isa` over the full sample range, completed by
/// complete_direct_row.  No index checks (BasicDetector::contingency
/// validates first).
template <unsigned K>
scoring::BasicContingencyTable<K> contingency_split(
    const dataset::PhenoSplitPlanes& p,
    const combinatorics::Combination<K>& snps,
    KernelIsa isa = KernelIsa::kScalar);

}  // namespace trigen::core
