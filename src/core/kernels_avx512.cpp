/// \file kernels_avx512.cpp
/// \brief AVX-512 + extract triple-block kernel (Skylake-SP strategy).
///
/// Compiled with -mavx512f -mavx512bw regardless of the global architecture
/// flags; only executed after the runtime dispatcher confirms support.

#include "kernels_detail.hpp"

#include <bit>

#if defined(TRIGEN_KERNEL_AVX512)
#include <immintrin.h>

namespace trigen::core::detail {
namespace {

/// Skylake-SP strategy: two-level extraction feeding the scalar POPCNT unit
/// (the overhead that makes CI2 the slowest CPU per core in Fig. 3).
inline std::uint32_t popcnt512_extract(__m512i v) {
  const __m256i lo = _mm512_extracti64x4_epi64(v, 0);
  const __m256i hi = _mm512_extracti64x4_epi64(v, 1);
  return static_cast<std::uint32_t>(
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(lo, 0))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(lo, 1))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(lo, 2))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(lo, 3))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(hi, 0))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(hi, 1))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(hi, 2))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(hi, 3))));
}

/// Per-32-bit-lane set-bit counts: nibble LUT (AVX-512BW byte shuffle)
/// summed into dwords via maddubs(×1) + madd(×1).  The batched kernels
/// need lane-separated counts (one label partition per dword lane), so the
/// extract strategy above does not apply.
inline __m512i lane_popcnt_epi32_512(__m512i v) {
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
  const __m512i bytes = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                        _mm512_shuffle_epi8(lut, hi));
  return _mm512_madd_epi16(_mm512_maddubs_epi16(bytes, _mm512_set1_epi8(1)),
                           _mm512_set1_epi16(1));
}

}  // namespace

void triple_block_avx512_extract(const Word* TRIGEN_RESTRICT x0,
                                 const Word* TRIGEN_RESTRICT x1,
                                 const Word* TRIGEN_RESTRICT y0,
                                 const Word* TRIGEN_RESTRICT y1,
                                 const Word* TRIGEN_RESTRICT z0,
                                 const Word* TRIGEN_RESTRICT z1,
                                 std::size_t w_begin, std::size_t w_end,
                                 std::uint32_t* TRIGEN_RESTRICT ft27) {
  const __m512i ones = _mm512_set1_epi32(-1);
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
          ft27[cell++] += popcnt512_extract(_mm512_and_si512(xy, zg[gz]));
        }
      }
    }
  }
  triple_block_scalar(x0, x1, y0, y1, z0, z1, w, w_end, ft27);
}

void pair_plane_build_avx512_extract(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  const __m512i ones = _mm512_set1_epi32(-1);
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
      xy_pop9[p] += popcnt512_extract(v);
    }
  }
  pair_plane_build_scalar(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                          stride, xy_pop9);
}

void pair_plane_count_avx512_extract(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  std::uint32_t c[4] = {};
  std::size_t w = w_begin;
  for (; w + 16 <= w_end; w += 16) {
    const __m512i xg[2] = {
        _mm512_loadu_si512(reinterpret_cast<const void*>(x0 + w)),
        _mm512_loadu_si512(reinterpret_cast<const void*>(x1 + w))};
    const __m512i yg[2] = {
        _mm512_loadu_si512(reinterpret_cast<const void*>(y0 + w)),
        _mm512_loadu_si512(reinterpret_cast<const void*>(y1 + w))};
    for (int p = 0; p < 4; ++p) {
      c[p] += popcnt512_extract(_mm512_and_si512(xg[p / 2], yg[p % 2]));
    }
  }
  for (int p = 0; p < 4; ++p) xy_pop9[kPairCountCells[p]] += c[p];
  if (w < w_end) pair_plane_count_scalar(x0, x1, y0, y1, w, w_end, xy_pop9);
}

void triple_block_cached_avx512_extract(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27) {
  for (int p = 0; p < 9; ++p) {
    const Word* TRIGEN_RESTRICT xyp =
        xy + static_cast<std::size_t>(p) * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    std::size_t w = w_begin;
    for (; w + 16 <= w_end; w += 16) {
      const __m512i v =
          _mm512_loadu_si512(reinterpret_cast<const void*>(xyp + (w - w_begin)));
      c0 += popcnt512_extract(_mm512_and_si512(
          v, _mm512_loadu_si512(reinterpret_cast<const void*>(z0 + w))));
      c1 += popcnt512_extract(_mm512_and_si512(
          v, _mm512_loadu_si512(reinterpret_cast<const void*>(z1 + w))));
    }
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

void prefix_extend01_avx512_extract(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 2 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 2 + 1) * out_stride;
    std::uint32_t c0 = 0, c1 = 0;
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
      c0 += popcnt512_extract(a);
      c1 += popcnt512_extract(b);
    }
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

// Batched label-pops over a window of G sixteen-lane label groups.  One pass
// over the words with the prefix word broadcast ONCE and G register
// accumulators keeps the per-word cost at G fused AND+POPCNT+ADD triples;
// the old one-group-at-a-time layout re-streamed the prefix plane and redid
// the broadcast for every group.
template <int G>
void batch_label_pops_window_avx512(
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
            acc[g], lane_popcnt_epi32_512(_mm512_and_si512(b, l)));
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
void batch_final_window_avx512(
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
            a0[g], lane_popcnt_epi32_512(_mm512_and_si512(b0, l)));
        a1[g] = _mm512_add_epi32(
            a1[g], lane_popcnt_epi32_512(_mm512_and_si512(b1, l)));
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

void batch_label_pops_avx512(const Word* TRIGEN_RESTRICT prefix,
                             std::size_t count, std::size_t stride,
                             const Word* TRIGEN_RESTRICT labels,
                             std::size_t num_labels, std::size_t lstride,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT label_pops) {
  // Vectorized across label lanes (no vector-width word tail), windowed so
  // up to eight 16-lane groups share each broadcast prefix word.
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + 15) / 16;
    const std::size_t g = left < 8 ? left : 8;
    const std::size_t pe =
        p0 + 16 * g < num_labels ? p0 + 16 * g : num_labels;
    switch (g) {
#define TRIGEN_BLP_CASE(G)                                                 \
  case G:                                                                  \
    batch_label_pops_window_avx512<G>(prefix, count, stride, labels, p0,   \
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

void batch_final_avx512(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                        std::size_t stride,
                        const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                        const std::uint32_t* TRIGEN_RESTRICT label_pops,
                        const Word* TRIGEN_RESTRICT z0,
                        const Word* TRIGEN_RESTRICT z1,
                        const Word* TRIGEN_RESTRICT labels,
                        std::size_t num_labels, std::size_t lstride,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft,
                        std::size_t ft_stride) {
  bool totals_pass = true;
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + 15) / 16;
    const std::size_t g = left < 8 ? left : 8;
    const std::size_t pe =
        p0 + 16 * g < num_labels ? p0 + 16 * g : num_labels;
    switch (g) {
#define TRIGEN_BF_CASE(G)                                                  \
  case G:                                                                  \
    batch_final_window_avx512<G>(prefix, count, stride, prefix_pops,       \
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

#endif  // TRIGEN_KERNEL_AVX512
