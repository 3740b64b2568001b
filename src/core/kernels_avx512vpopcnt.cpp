/// \file kernels_avx512vpopcnt.cpp
/// \brief AVX-512 VPOPCNTDQ triple-block kernel (Ice Lake SP strategy).
///
/// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq regardless of the
/// global architecture flags; only executed after the runtime dispatcher
/// confirms support.

#include "kernels_detail.hpp"

#include <bit>

#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
#include <immintrin.h>

namespace trigen::core::detail {

void triple_block_avx512_vpopcnt(const Word* TRIGEN_RESTRICT x0,
                                 const Word* TRIGEN_RESTRICT x1,
                                 const Word* TRIGEN_RESTRICT y0,
                                 const Word* TRIGEN_RESTRICT y1,
                                 const Word* TRIGEN_RESTRICT z0,
                                 const Word* TRIGEN_RESTRICT z1,
                                 std::size_t w_begin, std::size_t w_end,
                                 std::uint32_t* TRIGEN_RESTRICT ft27) {
  // Ice Lake SP strategy (§IV-A, last paragraph): vector POPCNT per cell,
  // frequency table updated with a reduction.  The table is kept as 27
  // lane-wise vector accumulators for the duration of the word loop — the
  // per-lane count over one call is bounded by 32 bits per word, so 32-bit
  // lanes cannot overflow for any plane shorter than 2^26 words — and each
  // accumulator is reduced exactly once at the end.
  const __m512i ones = _mm512_set1_epi32(-1);
  __m512i acc[27];
  for (auto& a : acc) a = _mm512_setzero_si512();

  std::size_t w = w_begin;
  for (; w + 16 <= w_end; w += 16) {
    __m512i xg[3], yg[3], zg[3];
    xg[0] = _mm512_loadu_si512(reinterpret_cast<const void*>(x0 + w));
    xg[1] = _mm512_loadu_si512(reinterpret_cast<const void*>(x1 + w));
    xg[2] = _mm512_xor_si512(_mm512_or_si512(xg[0], xg[1]), ones);
    yg[0] = _mm512_loadu_si512(reinterpret_cast<const void*>(y0 + w));
    yg[1] = _mm512_loadu_si512(reinterpret_cast<const void*>(y1 + w));
    yg[2] = _mm512_xor_si512(_mm512_or_si512(yg[0], yg[1]), ones);
    zg[0] = _mm512_loadu_si512(reinterpret_cast<const void*>(z0 + w));
    zg[1] = _mm512_loadu_si512(reinterpret_cast<const void*>(z1 + w));
    zg[2] = _mm512_xor_si512(_mm512_or_si512(zg[0], zg[1]), ones);

    int cell = 0;
    for (int gx = 0; gx < 3; ++gx) {
      for (int gy = 0; gy < 3; ++gy) {
        const __m512i xy = _mm512_and_si512(xg[gx], yg[gy]);
        for (int gz = 0; gz < 3; ++gz) {
          acc[cell] = _mm512_add_epi32(
              acc[cell],
              _mm512_popcnt_epi32(_mm512_and_si512(xy, zg[gz])));
          ++cell;
        }
      }
    }
  }
  for (int cell = 0; cell < 27; ++cell) {
    ft27[cell] +=
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc[cell]));
  }
  triple_block_scalar(x0, x1, y0, y1, z0, z1, w, w_end, ft27);
}

void pair_plane_build_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  const __m512i ones = _mm512_set1_epi32(-1);
  __m512i acc[9];
  for (auto& a : acc) a = _mm512_setzero_si512();

  std::size_t w = w_begin;
  for (; w + 16 <= w_end; w += 16) {
    __m512i xg[3], yg[3];
    xg[0] = _mm512_loadu_si512(reinterpret_cast<const void*>(x0 + w));
    xg[1] = _mm512_loadu_si512(reinterpret_cast<const void*>(x1 + w));
    xg[2] = _mm512_xor_si512(_mm512_or_si512(xg[0], xg[1]), ones);
    yg[0] = _mm512_loadu_si512(reinterpret_cast<const void*>(y0 + w));
    yg[1] = _mm512_loadu_si512(reinterpret_cast<const void*>(y1 + w));
    yg[2] = _mm512_xor_si512(_mm512_or_si512(yg[0], yg[1]), ones);
    const std::size_t rel = w - w_begin;
    for (int p = 0; p < 9; ++p) {
      const __m512i v = _mm512_and_si512(xg[p / 3], yg[p % 3]);
      _mm512_storeu_si512(
          reinterpret_cast<void*>(xy + static_cast<std::size_t>(p) * stride +
                                  rel),
          v);
      acc[p] = _mm512_add_epi32(acc[p], _mm512_popcnt_epi32(v));
    }
  }
  for (int p = 0; p < 9; ++p) {
    xy_pop9[p] +=
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc[p]));
  }
  pair_plane_build_scalar(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                          stride, xy_pop9);
}

void pair_plane_count_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  __m512i acc[4];
  for (auto& a : acc) a = _mm512_setzero_si512();

  std::size_t w = w_begin;
  for (; w + 16 <= w_end; w += 16) {
    const __m512i xg[2] = {
        _mm512_loadu_si512(reinterpret_cast<const void*>(x0 + w)),
        _mm512_loadu_si512(reinterpret_cast<const void*>(x1 + w))};
    const __m512i yg[2] = {
        _mm512_loadu_si512(reinterpret_cast<const void*>(y0 + w)),
        _mm512_loadu_si512(reinterpret_cast<const void*>(y1 + w))};
    for (int p = 0; p < 4; ++p) {
      acc[p] = _mm512_add_epi32(
          acc[p],
          _mm512_popcnt_epi32(_mm512_and_si512(xg[p / 2], yg[p % 2])));
    }
  }
  for (int p = 0; p < 4; ++p) {
    xy_pop9[kPairCountCells[p]] +=
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc[p]));
  }
  if (w < w_end) pair_plane_count_scalar(x0, x1, y0, y1, w, w_end, xy_pop9);
}

void triple_block_cached_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27) {
  for (int p = 0; p < 9; ++p) {
    const Word* TRIGEN_RESTRICT xyp =
        xy + static_cast<std::size_t>(p) * stride;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t w = w_begin;
    for (; w + 16 <= w_end; w += 16) {
      const __m512i v =
          _mm512_loadu_si512(reinterpret_cast<const void*>(xyp + (w - w_begin)));
      acc0 = _mm512_add_epi32(
          acc0, _mm512_popcnt_epi32(_mm512_and_si512(
                    v, _mm512_loadu_si512(
                           reinterpret_cast<const void*>(z0 + w)))));
      acc1 = _mm512_add_epi32(
          acc1, _mm512_popcnt_epi32(_mm512_and_si512(
                    v, _mm512_loadu_si512(
                           reinterpret_cast<const void*>(z1 + w)))));
    }
    std::uint32_t c0 =
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc0));
    std::uint32_t c1 =
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc1));
    for (; w < w_end; ++w) {
      const Word v = xyp[w - w_begin];
      c0 += static_cast<std::uint32_t>(std::popcount(v & z0[w]));
      c1 += static_cast<std::uint32_t>(std::popcount(v & z1[w]));
    }
    const int cell = (p / 3) * 9 + (p % 3) * 3;
    ft27[cell] += c0;
    ft27[cell + 1] += c1;
    ft27[cell + 2] += xy_pop9[p] - c0 - c1;
  }
}

void prefix_extend01_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 2 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 2 + 1) * out_stride;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    std::size_t r = 0;
    for (; r + 16 <= n; r += 16) {
      const __m512i p =
          _mm512_loadu_si512(reinterpret_cast<const void*>(pt + r));
      const __m512i a = _mm512_and_si512(
          p,
          _mm512_loadu_si512(reinterpret_cast<const void*>(s0 + w_begin + r)));
      const __m512i b = _mm512_and_si512(
          p,
          _mm512_loadu_si512(reinterpret_cast<const void*>(s1 + w_begin + r)));
      _mm512_storeu_si512(reinterpret_cast<void*>(o0 + r), a);
      _mm512_storeu_si512(reinterpret_cast<void*>(o1 + r), b);
      acc0 = _mm512_add_epi32(acc0, _mm512_popcnt_epi32(a));
      acc1 = _mm512_add_epi32(acc1, _mm512_popcnt_epi32(b));
    }
    std::uint32_t c0 =
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc0));
    std::uint32_t c1 =
        static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc1));
    for (; r < n; ++r) {
      const Word a = pt[r] & s0[w_begin + r];
      const Word b = pt[r] & s1[w_begin + r];
      o0[r] = a;
      o1[r] = b;
      c0 += static_cast<std::uint32_t>(std::popcount(a));
      c1 += static_cast<std::uint32_t>(std::popcount(b));
    }
    if (out_pops != nullptr) {
      out_pops[t * 2 + 0] += c0;
      out_pops[t * 2 + 1] += c1;
    }
  }
}

namespace {

/// Finalize over G <= 4 consecutive prefix planes: each z word is loaded
/// once per group and ANDed against all G planes; the 2*G lane-wise
/// accumulators are reduced once at the end (32-bit lanes cannot overflow
/// for any plane shorter than 2^26 words).
template <int G>
void prefix_final_group_vpopcnt(const Word* TRIGEN_RESTRICT prefix,
                                std::size_t stride,
                                const std::uint32_t* TRIGEN_RESTRICT pops,
                                const Word* TRIGEN_RESTRICT z0,
                                const Word* TRIGEN_RESTRICT z1,
                                std::size_t w_begin, std::size_t n,
                                std::uint32_t* TRIGEN_RESTRICT ft) {
  __m512i a0[G];
  __m512i a1[G];
  for (int g = 0; g < G; ++g) {
    a0[g] = _mm512_setzero_si512();
    a1[g] = _mm512_setzero_si512();
  }
  std::size_t r = 0;
  for (; r + 16 <= n; r += 16) {
    const __m512i v0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(z0 + w_begin + r));
    const __m512i v1 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(z1 + w_begin + r));
    for (int g = 0; g < G; ++g) {
      const __m512i v = _mm512_loadu_si512(reinterpret_cast<const void*>(
          prefix + static_cast<std::size_t>(g) * stride + r));
      a0[g] = _mm512_add_epi32(a0[g],
                               _mm512_popcnt_epi32(_mm512_and_si512(v, v0)));
      a1[g] = _mm512_add_epi32(a1[g],
                               _mm512_popcnt_epi32(_mm512_and_si512(v, v1)));
    }
  }
  std::uint32_t c0[G];
  std::uint32_t c1[G];
  for (int g = 0; g < G; ++g) {
    c0[g] = static_cast<std::uint32_t>(_mm512_reduce_add_epi32(a0[g]));
    c1[g] = static_cast<std::uint32_t>(_mm512_reduce_add_epi32(a1[g]));
  }
  for (; r < n; ++r) {
    for (int g = 0; g < G; ++g) {
      const Word v = prefix[static_cast<std::size_t>(g) * stride + r];
      c0[g] += static_cast<std::uint32_t>(std::popcount(v & z0[w_begin + r]));
      c1[g] += static_cast<std::uint32_t>(std::popcount(v & z1[w_begin + r]));
    }
  }
  for (int g = 0; g < G; ++g) {
    ft[g * 3 + 0] += c0[g];
    ft[g * 3 + 1] += c1[g];
    ft[g * 3 + 2] += pops[g] - c0[g] - c1[g];
  }
}

}  // namespace

void prefix_final_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft) {
  const std::size_t n = w_end - w_begin;
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    prefix_final_group_vpopcnt<4>(prefix + t * stride, stride,
                                  prefix_pops + t, z0, z1, w_begin, n,
                                  ft + t * 3);
  }
  const Word* const rest = prefix + t * stride;
  switch (count - t) {
    case 3:
      prefix_final_group_vpopcnt<3>(rest, stride, prefix_pops + t, z0, z1,
                                    w_begin, n, ft + t * 3);
      break;
    case 2:
      prefix_final_group_vpopcnt<2>(rest, stride, prefix_pops + t, z0, z1,
                                    w_begin, n, ft + t * 3);
      break;
    case 1:
      prefix_final_group_vpopcnt<1>(rest, stride, prefix_pops + t, z0, z1,
                                    w_begin, n, ft + t * 3);
      break;
    default: break;
  }
}

namespace {

// Batched label-pops over a window of G sixteen-lane label groups: one pass
// over the words, the prefix word broadcast once, G register accumulators,
// native per-dword VPOPCNTD popcounts — no LUT, no vector-width word tail.
template <int G>
void batch_label_pops_window_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
    std::size_t p_last, std::size_t lstride, std::size_t w_begin,
    std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT label_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    __m512i acc[G];
    for (int g = 0; g < G; ++g) acc[g] = _mm512_setzero_si512();
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = pt[r];
      if (v == 0) continue;
      const Word* TRIGEN_RESTRICT row =
          labels + (w_begin + r) * lstride + p_begin;
      const __m512i b = _mm512_set1_epi32(static_cast<int>(v));
      for (int g = 0; g < G; ++g) {
        const __m512i l = _mm512_loadu_si512(
            reinterpret_cast<const void*>(row + 16 * g));
        acc[g] = _mm512_add_epi32(
            acc[g], _mm512_popcnt_epi32(_mm512_and_si512(b, l)));
      }
    }
    alignas(64) std::uint32_t lanes[16];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + 16 * static_cast<std::size_t>(g);
      const std::size_t pe = pg + 16 < p_last ? pg + 16 : p_last;
      _mm512_store_si512(reinterpret_cast<void*>(lanes), acc[g]);
      for (std::size_t p = pg; p < pe; ++p)
        label_pops[t * lstride + p] += lanes[p - pg];
    }
  }
}

// Batched finalize over a window of G label groups: u0/u1, the per-chunk
// totals and the two broadcasts are computed once per word and amortized
// across all 16*G partitions, with 2*G register accumulators.
template <int G>
void batch_final_window_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
    const std::uint32_t* TRIGEN_RESTRICT label_pops,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
    std::size_t p_last, std::size_t lstride, std::size_t w_begin,
    std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft,
    std::size_t ft_stride, bool totals_pass) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    __m512i a0[G];
    __m512i a1[G];
    for (int g = 0; g < G; ++g) {
      a0[g] = _mm512_setzero_si512();
      a1[g] = _mm512_setzero_si512();
    }
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const Word u0 = pt[r] & z0[w_begin + r];
      const Word u1 = pt[r] & z1[w_begin + r];
      if (totals_pass) {
        c0 += static_cast<std::uint32_t>(std::popcount(u0));
        c1 += static_cast<std::uint32_t>(std::popcount(u1));
      }
      if ((u0 | u1) == 0) continue;
      const Word* TRIGEN_RESTRICT row =
          labels + (w_begin + r) * lstride + p_begin;
      const __m512i b0 = _mm512_set1_epi32(static_cast<int>(u0));
      const __m512i b1 = _mm512_set1_epi32(static_cast<int>(u1));
      for (int g = 0; g < G; ++g) {
        const __m512i l = _mm512_loadu_si512(
            reinterpret_cast<const void*>(row + 16 * g));
        a0[g] = _mm512_add_epi32(
            a0[g], _mm512_popcnt_epi32(_mm512_and_si512(b0, l)));
        a1[g] = _mm512_add_epi32(
            a1[g], _mm512_popcnt_epi32(_mm512_and_si512(b1, l)));
      }
    }
    if (totals_pass) {
      ft[t * 3 + 0] += c0;
      ft[t * 3 + 1] += c1;
      ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
    }
    alignas(64) std::uint32_t l0[16];
    alignas(64) std::uint32_t l1[16];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + 16 * static_cast<std::size_t>(g);
      const std::size_t pe = pg + 16 < p_last ? pg + 16 : p_last;
      _mm512_store_si512(reinterpret_cast<void*>(l0), a0[g]);
      _mm512_store_si512(reinterpret_cast<void*>(l1), a1[g]);
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

}  // namespace

void batch_label_pops_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
    std::size_t lstride, std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT label_pops) {
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + 15) / 16;
    const std::size_t g = left < 8 ? left : 8;
    const std::size_t pe =
        p0 + 16 * g < num_labels ? p0 + 16 * g : num_labels;
    switch (g) {
#define TRIGEN_BLP_CASE(G)                                                  \
  case G:                                                                   \
    batch_label_pops_window_vpopcnt<G>(prefix, count, stride, labels, p0,   \
                                       pe, lstride, w_begin, w_end,         \
                                       label_pops);                         \
    break;
      TRIGEN_BLP_CASE(1)
      TRIGEN_BLP_CASE(2)
      TRIGEN_BLP_CASE(3)
      TRIGEN_BLP_CASE(4)
      TRIGEN_BLP_CASE(5)
      TRIGEN_BLP_CASE(6)
      TRIGEN_BLP_CASE(7)
      TRIGEN_BLP_CASE(8)
#undef TRIGEN_BLP_CASE
      default: break;
    }
    p0 += 16 * g;
  }
}

void batch_final_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
    const std::uint32_t* TRIGEN_RESTRICT label_pops,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
    std::size_t lstride, std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft, std::size_t ft_stride) {
  bool totals_pass = true;
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + 15) / 16;
    const std::size_t g = left < 8 ? left : 8;
    const std::size_t pe =
        p0 + 16 * g < num_labels ? p0 + 16 * g : num_labels;
    switch (g) {
#define TRIGEN_BF_CASE(G)                                                   \
  case G:                                                                   \
    batch_final_window_vpopcnt<G>(prefix, count, stride, prefix_pops,       \
                                  label_pops, z0, z1, labels, p0, pe,       \
                                  lstride, w_begin, w_end, ft, ft_stride,   \
                                  totals_pass);                             \
    break;
      TRIGEN_BF_CASE(1)
      TRIGEN_BF_CASE(2)
      TRIGEN_BF_CASE(3)
      TRIGEN_BF_CASE(4)
      TRIGEN_BF_CASE(5)
      TRIGEN_BF_CASE(6)
      TRIGEN_BF_CASE(7)
      TRIGEN_BF_CASE(8)
#undef TRIGEN_BF_CASE
      default: break;
    }
    totals_pass = false;
    p0 += 16 * g;
  }
}

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX512VPOPCNT
