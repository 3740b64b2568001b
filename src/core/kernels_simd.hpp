#pragma once
/// \file kernels_simd.hpp
/// \brief Every vector kernel body, written once per kernel shape over a
/// vectorization-strategy policy (paper §IV-A).
///
/// The paper's per-ISA V4 strategies differ only in the vector width and in
/// how a popcount is taken, so each kernel shape below is one template over
/// a policy `P` that the per-ISA translation units define:
///
///   V, kWords            vector type and its width in Words (8 or 16)
///   load(p), store(p, v) unaligned load / store of kWords words
///   vand, vxor, nor      bitwise ops (nor forms an inferred genotype-2 plane)
///   broadcast(w)         w in every 32-bit lane
///   add32, lane_popcnt   lane-wise add and per-32-bit-lane popcount (the
///                        batched kernels keep one label partition per lane)
///   Acc, zero(), add(acc, v), sum(acc)
///                        the popcount accumulator: add folds the set bits of
///                        v into acc, sum reduces acc to one count
///   kFinalizeGroup       prefix planes one finalize pass shares each z word
///                        across (1 = plane by plane, up to 4)
///   kLabelPopsGroups, kBatchFinalGroups
///                        the batch kernels' register windows, in groups of
///                        kWords label lanes
///
/// The policy TUs (kernels_avx2.cpp, kernels_avx512.cpp,
/// kernels_avx512vpopcnt.cpp) each compile with their own ISA flags and hold
/// only their policies, their kernel tables and the instantiations.  Every
/// template and helper here sits in an unnamed namespace, so each TU's copy
/// has internal linkage and the linker can never hand a body built for one
/// ISA to another TU.  For the same reason scalar bit counts go through
/// popcount_word / popcount64 below, not the std::popcount template (except
/// under MSVC, which has no __builtin_popcount).
/// No intrinsic appears in this file: a kernel body cannot fork per ISA.
///
/// Word tails shorter than one vector go to the scalar bodies
/// (kernels_scalar.cpp) where a shape has no partition-identity term to
/// carry, and are counted inline otherwise.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "kernels_detail.hpp"

namespace trigen::core::detail {
namespace {

#if defined(_MSC_VER) && !defined(__clang__)
inline std::uint32_t popcount_word(Word v) {
  return static_cast<std::uint32_t>(std::popcount(v));
}

inline std::uint32_t popcount64(std::uint64_t v) {
  return static_cast<std::uint32_t>(std::popcount(v));
}
#else
inline std::uint32_t popcount_word(Word v) {
  return static_cast<std::uint32_t>(__builtin_popcount(v));
}

inline std::uint32_t popcount64(std::uint64_t v) {
  return static_cast<std::uint32_t>(__builtin_popcountll(v));
}
#endif

/// Set bits of one vector under the policy's popcount strategy.
template <class P>
inline std::uint32_t popcount_vector(typename P::V v) {
  return P::sum(P::add(P::zero(), v));
}

/// The three genotype planes of one SNP at word w: the two stored planes
/// and genotype 2 inferred by NOR.
template <class P>
inline void load_genotypes(typename P::V (&g)[3], const Word* g0,
                           const Word* g1, std::size_t w) {
  g[0] = P::load(g0 + w);
  g[1] = P::load(g1 + w);
  g[2] = P::nor(g[0], g[1]);
}

/// Calls f(std::integral_constant<int, G>{}) for the runtime size g in
/// [1, Max]: register windows are compile-time array sizes.
template <int Max, class F>
inline void with_group(std::size_t g, const F& f) {
  if constexpr (Max >= 1) {
    if (g == Max) {
      f(std::integral_constant<int, Max>{});
    } else {
      with_group<Max - 1>(g, f);
    }
  }
}

/// TripleBlockKernel: 27 AND-chains and popcounts per vector of words, one
/// accumulator per cell reduced once at the end.
template <class P>
void triple_block(const Word* TRIGEN_RESTRICT x0,
                  const Word* TRIGEN_RESTRICT x1,
                  const Word* TRIGEN_RESTRICT y0,
                  const Word* TRIGEN_RESTRICT y1,
                  const Word* TRIGEN_RESTRICT z0,
                  const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                  std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft27) {
  typename P::Acc acc[27];
  for (auto& a : acc) a = P::zero();
  std::size_t w = w_begin;
  for (; w + P::kWords <= w_end; w += P::kWords) {
    typename P::V xg[3], yg[3], zg[3];
    load_genotypes<P>(xg, x0, x1, w);
    load_genotypes<P>(yg, y0, y1, w);
    load_genotypes<P>(zg, z0, z1, w);
    int cell = 0;
    for (int gx = 0; gx < 3; ++gx) {
      for (int gy = 0; gy < 3; ++gy) {
        const typename P::V xy = P::vand(xg[gx], yg[gy]);
        for (int gz = 0; gz < 3; ++gz) {
          acc[cell] = P::add(acc[cell], P::vand(xy, zg[gz]));
          ++cell;
        }
      }
    }
  }
  for (int cell = 0; cell < 27; ++cell) ft27[cell] += P::sum(acc[cell]);
  triple_block_scalar(x0, x1, y0, y1, z0, z1, w, w_end, ft27);
}

/// PairPlaneBuildKernel: stores the nine x∩y planes and counts them.
template <class P>
void pair_plane_build(const Word* TRIGEN_RESTRICT x0,
                      const Word* TRIGEN_RESTRICT x1,
                      const Word* TRIGEN_RESTRICT y0,
                      const Word* TRIGEN_RESTRICT y1, std::size_t w_begin,
                      std::size_t w_end, Word* TRIGEN_RESTRICT xy,
                      std::size_t stride,
                      std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  typename P::Acc acc[9];
  for (auto& a : acc) a = P::zero();
  std::size_t w = w_begin;
  for (; w + P::kWords <= w_end; w += P::kWords) {
    typename P::V xg[3], yg[3];
    load_genotypes<P>(xg, x0, x1, w);
    load_genotypes<P>(yg, y0, y1, w);
    const std::size_t rel = w - w_begin;
    for (int p = 0; p < 9; ++p) {
      const typename P::V v = P::vand(xg[p / 3], yg[p % 3]);
      P::store(xy + static_cast<std::size_t>(p) * stride + rel, v);
      acc[p] = P::add(acc[p], v);
    }
  }
  for (int p = 0; p < 9; ++p) xy_pop9[p] += P::sum(acc[p]);
  pair_plane_build_scalar(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                          stride, xy_pop9);
}

/// PairPlaneCountKernel: the four xa∩yb counts, a, b in {0, 1}.
template <class P>
void pair_plane_count(const Word* TRIGEN_RESTRICT x0,
                      const Word* TRIGEN_RESTRICT x1,
                      const Word* TRIGEN_RESTRICT y0,
                      const Word* TRIGEN_RESTRICT y1, std::size_t w_begin,
                      std::size_t w_end,
                      std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  typename P::Acc acc[4];
  for (auto& a : acc) a = P::zero();
  std::size_t w = w_begin;
  for (; w + P::kWords <= w_end; w += P::kWords) {
    const typename P::V xg[2] = {P::load(x0 + w), P::load(x1 + w)};
    const typename P::V yg[2] = {P::load(y0 + w), P::load(y1 + w)};
    for (int p = 0; p < 4; ++p) {
      acc[p] = P::add(acc[p], P::vand(xg[p / 2], yg[p % 2]));
    }
  }
  // Cell a*3 + b of the pair row: kPairCountCells.
  for (int p = 0; p < 4; ++p) xy_pop9[(p / 2) * 3 + p % 2] += P::sum(acc[p]);
  if (w < w_end) pair_plane_count_scalar(x0, x1, y0, y1, w, w_end, xy_pop9);
}

/// PrefixExtendKernel with kChildren = 3 (`extend`: P∩s0, P∩s1 and the
/// partition remainder P∩s2 = P ^ (P∩s0) ^ (P∩s1)) or kChildren = 2
/// (`extend01`).
template <class P, int kChildren>
void prefix_extend(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                   std::size_t stride, const Word* TRIGEN_RESTRICT s0,
                   const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                   std::size_t w_end, Word* TRIGEN_RESTRICT out,
                   std::size_t out_stride,
                   std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  const std::size_t vec_end = n - n % P::kWords;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o = out + t * kChildren * out_stride;
    typename P::Acc acc[kChildren];
    for (auto& a : acc) a = P::zero();
    for (std::size_t r = 0; r < vec_end; r += P::kWords) {
      const typename P::V p = P::load(pt + r);
      typename P::V c[3];
      c[0] = P::vand(p, P::load(s0 + w_begin + r));
      c[1] = P::vand(p, P::load(s1 + w_begin + r));
      if constexpr (kChildren == 3) c[2] = P::vxor(P::vxor(p, c[0]), c[1]);
      for (int g = 0; g < kChildren; ++g) {
        P::store(o + static_cast<std::size_t>(g) * out_stride + r, c[g]);
        acc[g] = P::add(acc[g], c[g]);
      }
    }
    if (out_pops != nullptr) {
      for (int g = 0; g < kChildren; ++g) {
        out_pops[t * kChildren + static_cast<std::size_t>(g)] +=
            P::sum(acc[g]);
      }
    }
  }
  if (vec_end < n) {
    (kChildren == 3 ? prefix_extend_scalar : prefix_extend01_scalar)(
        prefix + vec_end, count, stride, s0, s1, w_begin + vec_end, w_end,
        out + vec_end, out_stride, out_pops);
  }
}

/// Finalize over G consecutive prefix planes: each z word is loaded once
/// and ANDed against all G planes; the 2*G accumulators are reduced once
/// at the end.
template <class P, int G>
void prefix_final_group(const Word* TRIGEN_RESTRICT prefix, std::size_t stride,
                        const std::uint32_t* TRIGEN_RESTRICT pops,
                        const Word* TRIGEN_RESTRICT z0,
                        const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                        std::size_t n, std::uint32_t* TRIGEN_RESTRICT ft) {
  typename P::Acc a0[G], a1[G];
  for (int g = 0; g < G; ++g) {
    a0[g] = P::zero();
    a1[g] = P::zero();
  }
  std::size_t r = 0;
  for (; r + P::kWords <= n; r += P::kWords) {
    const typename P::V v0 = P::load(z0 + w_begin + r);
    const typename P::V v1 = P::load(z1 + w_begin + r);
    for (int g = 0; g < G; ++g) {
      const typename P::V v =
          P::load(prefix + static_cast<std::size_t>(g) * stride + r);
      a0[g] = P::add(a0[g], P::vand(v, v0));
      a1[g] = P::add(a1[g], P::vand(v, v1));
    }
  }
  std::uint32_t c0[G], c1[G];
  for (int g = 0; g < G; ++g) {
    c0[g] = P::sum(a0[g]);
    c1[g] = P::sum(a1[g]);
  }
  for (; r < n; ++r) {
    for (int g = 0; g < G; ++g) {
      const Word v = prefix[static_cast<std::size_t>(g) * stride + r];
      c0[g] += popcount_word(v & z0[w_begin + r]);
      c1[g] += popcount_word(v & z1[w_begin + r]);
    }
  }
  for (int g = 0; g < G; ++g) {
    ft[g * 3 + 0] += c0[g];
    ft[g * 3 + 1] += c1[g];
    ft[g * 3 + 2] += pops[g] - c0[g] - c1[g];
  }
}

/// PrefixFinalKernel: whole groups of P::kFinalizeGroup planes, then one
/// smaller group for the rest.
template <class P>
void prefix_final(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                  std::size_t stride,
                  const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                  const Word* TRIGEN_RESTRICT z0,
                  const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                  std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft) {
  constexpr int kGroup = P::kFinalizeGroup;
  const std::size_t n = w_end - w_begin;
  std::size_t t = 0;
  for (; t + kGroup <= count; t += kGroup) {
    prefix_final_group<P, kGroup>(prefix + t * stride, stride,
                                  prefix_pops + t, z0, z1, w_begin, n,
                                  ft + t * 3);
  }
  with_group<kGroup - 1>(count - t, [&](auto g) {
    prefix_final_group<P, decltype(g)::value>(prefix + t * stride, stride,
                                              prefix_pops + t, z0, z1,
                                              w_begin, n, ft + t * 3);
  });
}

/// TupleBlockKernel: depth-first product over the k genotype axes, reusing
/// each partial AND across its three children.
template <class P>
void tuple_block(const Word* const* TRIGEN_RESTRICT g0,
                 const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                 std::size_t w_begin, std::size_t w_end,
                 std::uint32_t* TRIGEN_RESTRICT ft) {
  typename P::V g[combinatorics::kMaxOrder][3];
  std::size_t w = w_begin;
  for (; w + P::kWords <= w_end; w += P::kWords) {
    for (unsigned i = 0; i < k; ++i) load_genotypes<P>(g[i], g0[i], g1[i], w);
    const auto descend = [&](const auto& self, unsigned i,
                             typename P::V acc, std::size_t cell) -> void {
      if (i == k) {
        ft[cell] += popcount_vector<P>(acc);
        return;
      }
      for (int gi = 0; gi < 3; ++gi) {
        self(self, i + 1, P::vand(acc, g[i][gi]),
             cell * 3 + static_cast<std::size_t>(gi));
      }
    };
    descend(descend, 0, P::broadcast(~Word{0}), 0);
  }
  tuple_block_scalar(g0, g1, k, w, w_end, ft);
}

/// Batched label pops over a window of G label groups: one pass over the
/// words with the prefix word broadcast once and G lane-wise accumulators.
/// Vectorized across label lanes, not words, so there is no word tail.
template <class P, int G>
void batch_label_pops_window(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
    std::size_t p_last, std::size_t lstride, std::size_t w_begin,
    std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT label_pops) {
  constexpr std::size_t kLanes = P::kWords;
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    typename P::V acc[G];
    for (int g = 0; g < G; ++g) acc[g] = P::broadcast(0);
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = pt[r];
      if (v == 0) continue;
      const Word* TRIGEN_RESTRICT row =
          labels + (w_begin + r) * lstride + p_begin;
      const typename P::V b = P::broadcast(v);
      for (int g = 0; g < G; ++g) {
        acc[g] = P::add32(
            acc[g], P::lane_popcnt(P::vand(b, P::load(row + kLanes * g))));
      }
    }
    alignas(64) Word lanes[kLanes];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + kLanes * static_cast<std::size_t>(g);
      const std::size_t pe = pg + kLanes < p_last ? pg + kLanes : p_last;
      P::store(lanes, acc[g]);
      for (std::size_t p = pg; p < pe; ++p) {
        label_pops[t * lstride + p] += lanes[p - pg];
      }
    }
  }
}

/// Batched finalize over a window of G label groups: u0/u1, the per-chunk
/// totals and the two broadcasts are computed once per word and amortized
/// across all kWords*G partitions, with 2*G lane-wise accumulators.
template <class P, int G>
void batch_final_window(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
    const std::uint32_t* TRIGEN_RESTRICT label_pops,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
    std::size_t p_last, std::size_t lstride, std::size_t w_begin,
    std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft,
    std::size_t ft_stride, bool totals_pass) {
  constexpr std::size_t kLanes = P::kWords;
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    typename P::V a0[G], a1[G];
    for (int g = 0; g < G; ++g) {
      a0[g] = P::broadcast(0);
      a1[g] = P::broadcast(0);
    }
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word u0 = pt[r] & z0[w_begin + r];
      const Word u1 = pt[r] & z1[w_begin + r];
      if (totals_pass) {
        c0 += popcount_word(u0);
        c1 += popcount_word(u1);
      }
      if ((u0 | u1) == 0) continue;
      const Word* TRIGEN_RESTRICT row =
          labels + (w_begin + r) * lstride + p_begin;
      const typename P::V b0 = P::broadcast(u0);
      const typename P::V b1 = P::broadcast(u1);
      for (int g = 0; g < G; ++g) {
        const typename P::V l = P::load(row + kLanes * g);
        a0[g] = P::add32(a0[g], P::lane_popcnt(P::vand(b0, l)));
        a1[g] = P::add32(a1[g], P::lane_popcnt(P::vand(b1, l)));
      }
    }
    if (totals_pass) {
      ft[t * 3 + 0] += c0;
      ft[t * 3 + 1] += c1;
      ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
    }
    alignas(64) Word l0[kLanes];
    alignas(64) Word l1[kLanes];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + kLanes * static_cast<std::size_t>(g);
      const std::size_t pe = pg + kLanes < p_last ? pg + kLanes : p_last;
      P::store(l0, a0[g]);
      P::store(l1, a1[g]);
      for (std::size_t p = pg; p < pe; ++p) {
        const std::uint32_t v0 = l0[p - pg];
        const std::uint32_t v1 = l1[p - pg];
        std::uint32_t* TRIGEN_RESTRICT ftp = ft + (1 + p) * ft_stride + t * 3;
        ftp[0] += v0;
        ftp[1] += v1;
        ftp[2] += label_pops[t * lstride + p] - v0 - v1;
      }
    }
  }
}

/// Runs `window(p0, pe, G)` over the label lanes in windows of up to
/// kMaxGroups groups of P::kWords lanes.
template <class P, int kMaxGroups, class F>
inline void for_each_label_window(std::size_t num_labels, const F& window) {
  constexpr std::size_t kLanes = P::kWords;
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + kLanes - 1) / kLanes;
    const std::size_t g = left < kMaxGroups ? left : kMaxGroups;
    const std::size_t pe =
        p0 + kLanes * g < num_labels ? p0 + kLanes * g : num_labels;
    with_group<kMaxGroups>(g, [&](auto G) { window(p0, pe, G); });
    p0 += kLanes * g;
  }
}

/// BatchLabelPopsKernel.
template <class P>
void batch_label_pops(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                      std::size_t stride, const Word* TRIGEN_RESTRICT labels,
                      std::size_t num_labels, std::size_t lstride,
                      std::size_t w_begin, std::size_t w_end,
                      std::uint32_t* TRIGEN_RESTRICT label_pops) {
  for_each_label_window<P, P::kLabelPopsGroups>(
      num_labels, [&](std::size_t p0, std::size_t pe, auto g) {
        batch_label_pops_window<P, decltype(g)::value>(
            prefix, count, stride, labels, p0, pe, lstride, w_begin, w_end,
            label_pops);
      });
}

/// BatchFinalKernel: the totals table is counted in the first window only.
template <class P>
void batch_final(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                 std::size_t stride,
                 const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                 const std::uint32_t* TRIGEN_RESTRICT label_pops,
                 const Word* TRIGEN_RESTRICT z0,
                 const Word* TRIGEN_RESTRICT z1,
                 const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
                 std::size_t lstride, std::size_t w_begin, std::size_t w_end,
                 std::uint32_t* TRIGEN_RESTRICT ft, std::size_t ft_stride) {
  for_each_label_window<P, P::kBatchFinalGroups>(
      num_labels, [&](std::size_t p0, std::size_t pe, auto g) {
        batch_final_window<P, decltype(g)::value>(
            prefix, count, stride, prefix_pops, label_pops, z0, z1, labels,
            p0, pe, lstride, w_begin, w_end, ft, ft_stride, p0 == 0);
      });
}

}  // namespace
}  // namespace trigen::core::detail
