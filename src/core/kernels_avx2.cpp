/// \file kernels_avx2.cpp
/// \brief AVX2 triple-block kernels (paper §IV-A, the "AVX" V4 strategy).
///
/// This translation unit is compiled with -mavx2 regardless of the global
/// architecture flags; nothing here may run unless the runtime dispatcher
/// has confirmed AVX2 support via cpu_features().

#include "kernels_detail.hpp"

#include <bit>

#if defined(TRIGEN_KERNEL_AVX2)
#include <immintrin.h>

namespace trigen::core::detail {
namespace {

/// Sum of set bits in a 256-bit register via the paper's AVX strategy:
/// four 64-bit extracts, each fed to the scalar POPCNT unit.
inline std::uint32_t popcnt256_extract(__m256i v) {
  return static_cast<std::uint32_t>(
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2))) +
      std::popcount(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3))));
}

/// Per-byte set-bit counts of `v` via the Harley-Seal nibble LUT (Mula's
/// algorithm): the SWAR alternative to extract + scalar POPCNT.
inline __m256i hs_popcnt_bytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Folds the per-byte counts of `v` into `acc`'s four 64-bit lanes (SAD
/// against zero cannot overflow for any realistic plane length).
inline __m256i hs_accumulate(__m256i acc, __m256i v) {
  return _mm256_add_epi64(
      acc, _mm256_sad_epu8(hs_popcnt_bytes(v), _mm256_setzero_si256()));
}

/// Per-32-bit-lane set-bit counts: nibble-LUT bytes summed into dwords via
/// maddubs(×1) + madd(×1).  Keeps counts lane-separated, which the batched
/// kernels need (one label partition per dword lane).
inline __m256i lane_popcnt_epi32(__m256i v) {
  return _mm256_madd_epi16(
      _mm256_maddubs_epi16(hs_popcnt_bytes(v), _mm256_set1_epi8(1)),
      _mm256_set1_epi16(1));
}

/// Horizontal sum of the four 64-bit lanes of a SAD accumulator.
inline std::uint32_t hsum_sad256(__m256i acc) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 1)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 2)) +
      static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 3)));
}

}  // namespace

void triple_block_avx2(const Word* TRIGEN_RESTRICT x0,
                       const Word* TRIGEN_RESTRICT x1,
                       const Word* TRIGEN_RESTRICT y0,
                       const Word* TRIGEN_RESTRICT y1,
                       const Word* TRIGEN_RESTRICT z0,
                       const Word* TRIGEN_RESTRICT z1,
                       std::size_t w_begin, std::size_t w_end,
                       std::uint32_t* TRIGEN_RESTRICT ft27) {
  const __m256i ones = _mm256_set1_epi32(-1);
  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    // No vector NOR on AVX CPUs: OR followed by XOR with all-ones (§IV-A).
    __m256i xg[3], yg[3], zg[3];
    xg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w));
    xg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w));
    xg[2] = _mm256_xor_si256(_mm256_or_si256(xg[0], xg[1]), ones);
    yg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w));
    yg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w));
    yg[2] = _mm256_xor_si256(_mm256_or_si256(yg[0], yg[1]), ones);
    zg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z0 + w));
    zg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z1 + w));
    zg[2] = _mm256_xor_si256(_mm256_or_si256(zg[0], zg[1]), ones);

    int cell = 0;
    for (int gx = 0; gx < 3; ++gx) {
      for (int gy = 0; gy < 3; ++gy) {
        const __m256i xy = _mm256_and_si256(xg[gx], yg[gy]);
        for (int gz = 0; gz < 3; ++gz) {
          ft27[cell++] += popcnt256_extract(_mm256_and_si256(xy, zg[gz]));
        }
      }
    }
  }
  triple_block_scalar(x0, x1, y0, y1, z0, z1, w, w_end, ft27);
}

void triple_block_avx2_harley_seal(const Word* TRIGEN_RESTRICT x0,
                                   const Word* TRIGEN_RESTRICT x1,
                                   const Word* TRIGEN_RESTRICT y0,
                                   const Word* TRIGEN_RESTRICT y1,
                                   const Word* TRIGEN_RESTRICT z0,
                                   const Word* TRIGEN_RESTRICT z1,
                                   std::size_t w_begin, std::size_t w_end,
                                   std::uint32_t* TRIGEN_RESTRICT ft27) {
  // Ablation strategy: nibble-LUT popcount bytes folded with SAD into
  // 64-bit lanes per cell; one final extract chain per cell.
  const __m256i ones = _mm256_set1_epi32(-1);
  __m256i acc[27];
  for (auto& a : acc) a = _mm256_setzero_si256();

  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    __m256i xg[3], yg[3], zg[3];
    xg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w));
    xg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w));
    xg[2] = _mm256_xor_si256(_mm256_or_si256(xg[0], xg[1]), ones);
    yg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w));
    yg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w));
    yg[2] = _mm256_xor_si256(_mm256_or_si256(yg[0], yg[1]), ones);
    zg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z0 + w));
    zg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z1 + w));
    zg[2] = _mm256_xor_si256(_mm256_or_si256(zg[0], zg[1]), ones);

    int cell = 0;
    for (int gx = 0; gx < 3; ++gx) {
      for (int gy = 0; gy < 3; ++gy) {
        const __m256i xy = _mm256_and_si256(xg[gx], yg[gy]);
        for (int gz = 0; gz < 3; ++gz) {
          acc[cell] = hs_accumulate(acc[cell], _mm256_and_si256(xy, zg[gz]));
          ++cell;
        }
      }
    }
  }
  for (int cell = 0; cell < 27; ++cell) {
    ft27[cell] += hsum_sad256(acc[cell]);
  }
  triple_block_scalar(x0, x1, y0, y1, z0, z1, w, w_end, ft27);
}

void pair_plane_build_avx2(const Word* TRIGEN_RESTRICT x0,
                           const Word* TRIGEN_RESTRICT x1,
                           const Word* TRIGEN_RESTRICT y0,
                           const Word* TRIGEN_RESTRICT y1,
                           std::size_t w_begin, std::size_t w_end,
                           Word* TRIGEN_RESTRICT xy, std::size_t stride,
                           std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  const __m256i ones = _mm256_set1_epi32(-1);
  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    __m256i xg[3], yg[3];
    xg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w));
    xg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w));
    xg[2] = _mm256_xor_si256(_mm256_or_si256(xg[0], xg[1]), ones);
    yg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w));
    yg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w));
    yg[2] = _mm256_xor_si256(_mm256_or_si256(yg[0], yg[1]), ones);
    const std::size_t rel = w - w_begin;
    for (int p = 0; p < 9; ++p) {
      const __m256i v = _mm256_and_si256(xg[p / 3], yg[p % 3]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(
                              xy + static_cast<std::size_t>(p) * stride + rel),
                          v);
      xy_pop9[p] += popcnt256_extract(v);
    }
  }
  pair_plane_build_scalar(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                          stride, xy_pop9);
}

void triple_block_cached_avx2(const Word* TRIGEN_RESTRICT xy,
                              std::size_t stride,
                              const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
                              const Word* TRIGEN_RESTRICT z0,
                              const Word* TRIGEN_RESTRICT z1,
                              std::size_t w_begin, std::size_t w_end,
                              std::uint32_t* TRIGEN_RESTRICT ft27) {
  for (int p = 0; p < 9; ++p) {
    const Word* TRIGEN_RESTRICT xyp =
        xy + static_cast<std::size_t>(p) * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    std::size_t w = w_begin;
    for (; w + 8 <= w_end; w += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(xyp + (w - w_begin)));
      c0 += popcnt256_extract(_mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z0 + w))));
      c1 += popcnt256_extract(_mm256_and_si256(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z1 + w))));
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

void pair_plane_count_avx2(const Word* TRIGEN_RESTRICT x0,
                           const Word* TRIGEN_RESTRICT x1,
                           const Word* TRIGEN_RESTRICT y0,
                           const Word* TRIGEN_RESTRICT y1,
                           std::size_t w_begin, std::size_t w_end,
                           std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  std::uint32_t c[4] = {};
  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    const __m256i xg[2] = {
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w))};
    const __m256i yg[2] = {
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w))};
    for (int p = 0; p < 4; ++p) {
      c[p] += popcnt256_extract(_mm256_and_si256(xg[p / 2], yg[p % 2]));
    }
  }
  for (int p = 0; p < 4; ++p) xy_pop9[kPairCountCells[p]] += c[p];
  if (w < w_end) pair_plane_count_scalar(x0, x1, y0, y1, w, w_end, xy_pop9);
}

void pair_plane_build_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  const __m256i ones = _mm256_set1_epi32(-1);
  __m256i acc[9];
  for (auto& a : acc) a = _mm256_setzero_si256();

  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    __m256i xg[3], yg[3];
    xg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w));
    xg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w));
    xg[2] = _mm256_xor_si256(_mm256_or_si256(xg[0], xg[1]), ones);
    yg[0] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w));
    yg[1] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w));
    yg[2] = _mm256_xor_si256(_mm256_or_si256(yg[0], yg[1]), ones);
    const std::size_t rel = w - w_begin;
    for (int p = 0; p < 9; ++p) {
      const __m256i v = _mm256_and_si256(xg[p / 3], yg[p % 3]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(
                              xy + static_cast<std::size_t>(p) * stride + rel),
                          v);
      acc[p] = hs_accumulate(acc[p], v);
    }
  }
  for (int p = 0; p < 9; ++p) {
    xy_pop9[p] += hsum_sad256(acc[p]);
  }
  pair_plane_build_scalar(x0, x1, y0, y1, w, w_end, xy + (w - w_begin),
                          stride, xy_pop9);
}

void pair_plane_count_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9) {
  __m256i acc[4];
  for (auto& a : acc) a = _mm256_setzero_si256();

  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    const __m256i xg[2] = {
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x0 + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + w))};
    const __m256i yg[2] = {
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y0 + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y1 + w))};
    for (int p = 0; p < 4; ++p) {
      acc[p] = hs_accumulate(acc[p], _mm256_and_si256(xg[p / 2], yg[p % 2]));
    }
  }
  for (int p = 0; p < 4; ++p) {
    xy_pop9[kPairCountCells[p]] += hsum_sad256(acc[p]);
  }
  if (w < w_end) pair_plane_count_scalar(x0, x1, y0, y1, w, w_end, xy_pop9);
}

void triple_block_cached_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27) {
  for (int p = 0; p < 9; ++p) {
    const Word* TRIGEN_RESTRICT xyp =
        xy + static_cast<std::size_t>(p) * stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    std::size_t w = w_begin;
    for (; w + 8 <= w_end; w += 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(xyp + (w - w_begin)));
      acc0 = hs_accumulate(
          acc0, _mm256_and_si256(v, _mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(
                                            z0 + w))));
      acc1 = hs_accumulate(
          acc1, _mm256_and_si256(v, _mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(
                                            z1 + w))));
    }
    std::uint32_t c0 = hsum_sad256(acc0);
    std::uint32_t c1 = hsum_sad256(acc1);
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

void prefix_extend_avx2(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                        std::size_t stride, const Word* TRIGEN_RESTRICT s0,
                        const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                        std::size_t w_end, Word* TRIGEN_RESTRICT out,
                        std::size_t out_stride,
                        std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 3 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 3 + 1) * out_stride;
    Word* TRIGEN_RESTRICT o2 = out + (t * 3 + 2) * out_stride;
    std::uint32_t c0 = 0, c1 = 0, c2 = 0;
    std::size_t r = 0;
    for (; r + 8 <= n; r += 8) {
      const __m256i p =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pt + r));
      const __m256i a = _mm256_and_si256(
          p, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(s0 + w_begin + r)));
      const __m256i b = _mm256_and_si256(
          p, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(s1 + w_begin + r)));
      const __m256i c = _mm256_xor_si256(_mm256_xor_si256(p, a), b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o0 + r), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o1 + r), b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o2 + r), c);
      c0 += popcnt256_extract(a);
      c1 += popcnt256_extract(b);
      c2 += popcnt256_extract(c);
    }
    for (; r < n; ++r) {
      const Word p = pt[r];
      const Word a = p & s0[w_begin + r];
      const Word b = p & s1[w_begin + r];
      const Word c = p ^ a ^ b;
      o0[r] = a;
      o1[r] = b;
      o2[r] = c;
      c0 += static_cast<std::uint32_t>(std::popcount(a));
      c1 += static_cast<std::uint32_t>(std::popcount(b));
      c2 += static_cast<std::uint32_t>(std::popcount(c));
    }
    if (out_pops != nullptr) {
      out_pops[t * 3 + 0] += c0;
      out_pops[t * 3 + 1] += c1;
      out_pops[t * 3 + 2] += c2;
    }
  }
}

namespace {

/// extend01 with the popcount strategy `Pop` (extract or Harley-Seal):
/// `Pop::add(acc, v)` folds the bit count of v into a per-plane accumulator
/// and `Pop::sum(acc)` reduces it.
template <typename Pop>
void prefix_extend01_avx2_with(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    Word* TRIGEN_RESTRICT o0 = out + (t * 2 + 0) * out_stride;
    Word* TRIGEN_RESTRICT o1 = out + (t * 2 + 1) * out_stride;
    typename Pop::Acc acc0 = Pop::zero();
    typename Pop::Acc acc1 = Pop::zero();
    std::size_t r = 0;
    for (; r + 8 <= n; r += 8) {
      const __m256i p =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pt + r));
      const __m256i a = _mm256_and_si256(
          p, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(s0 + w_begin + r)));
      const __m256i b = _mm256_and_si256(
          p, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(s1 + w_begin + r)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o0 + r), a);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o1 + r), b);
      acc0 = Pop::add(acc0, a);
      acc1 = Pop::add(acc1, b);
    }
    std::uint32_t c0 = Pop::sum(acc0);
    std::uint32_t c1 = Pop::sum(acc1);
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

struct ExtractPop {
  using Acc = std::uint32_t;
  static Acc zero() { return 0; }
  static Acc add(Acc acc, __m256i v) { return acc + popcnt256_extract(v); }
  static std::uint32_t sum(Acc acc) { return acc; }
};

struct HarleySealPop {
  using Acc = __m256i;
  static Acc zero() { return _mm256_setzero_si256(); }
  static Acc add(Acc acc, __m256i v) { return hs_accumulate(acc, v); }
  static std::uint32_t sum(Acc acc) { return hsum_sad256(acc); }
};

}  // namespace

void prefix_extend01_avx2(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  prefix_extend01_avx2_with<ExtractPop>(prefix, count, stride, s0, s1,
                                        w_begin, w_end, out, out_stride,
                                        out_pops);
}

void prefix_extend01_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops) {
  prefix_extend01_avx2_with<HarleySealPop>(prefix, count, stride, s0, s1,
                                           w_begin, w_end, out, out_stride,
                                           out_pops);
}

void prefix_final_avx2(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                       std::size_t stride,
                       const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                       const Word* TRIGEN_RESTRICT z0,
                       const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                       std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    std::size_t r = 0;
    for (; r + 8 <= n; r += 8) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pt + r));
      c0 += popcnt256_extract(_mm256_and_si256(
          v, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(z0 + w_begin + r))));
      c1 += popcnt256_extract(_mm256_and_si256(
          v, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(z1 + w_begin + r))));
    }
    for (; r < n; ++r) {
      const Word v = pt[r];
      c0 += static_cast<std::uint32_t>(std::popcount(v & z0[w_begin + r]));
      c1 += static_cast<std::uint32_t>(std::popcount(v & z1[w_begin + r]));
    }
    ft[t * 3 + 0] += c0;
    ft[t * 3 + 1] += c1;
    ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
  }
}

void tuple_block_avx2(const Word* const* TRIGEN_RESTRICT g0,
                      const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                      std::size_t w_begin, std::size_t w_end,
                      std::uint32_t* TRIGEN_RESTRICT ft) {
  const __m256i ones = _mm256_set1_epi32(-1);
  __m256i g[combinatorics::kMaxOrder][3];
  std::size_t w = w_begin;
  for (; w + 8 <= w_end; w += 8) {
    for (unsigned i = 0; i < k; ++i) {
      g[i][0] =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g0[i] + w));
      g[i][1] =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g1[i] + w));
      g[i][2] = _mm256_xor_si256(_mm256_or_si256(g[i][0], g[i][1]), ones);
    }
    const auto descend = [&](const auto& self, unsigned i, __m256i acc,
                             std::size_t cell) -> void {
      if (i == k) {
        ft[cell] += popcnt256_extract(acc);
        return;
      }
      for (int gi = 0; gi < 3; ++gi) {
        self(self, i + 1, _mm256_and_si256(acc, g[i][gi]),
             cell * 3 + static_cast<std::size_t>(gi));
      }
    };
    descend(descend, 0, ones, 0);
  }
  tuple_block_scalar(g0, g1, k, w, w_end, ft);
}

namespace {

// Batched label-pops over a window of G eight-lane label groups: one pass
// over the words, the prefix word broadcast once, G register accumulators.
// G is capped at 4 — AVX2 has sixteen ymm registers and lane_popcnt_epi32
// needs scratch, so wider windows would spill.
template <int G>
void batch_label_pops_window_avx2(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT labels, std::size_t p_begin,
    std::size_t p_last, std::size_t lstride, std::size_t w_begin,
    std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT label_pops) {
  const std::size_t n = w_end - w_begin;
  for (std::size_t t = 0; t < count; ++t) {
    const Word* TRIGEN_RESTRICT pt = prefix + t * stride;
    __m256i acc[G];
    for (int g = 0; g < G; ++g) acc[g] = _mm256_setzero_si256();
    for (std::size_t r = 0; r < n; ++r) {
      const Word v = pt[r];
      if (v == 0) continue;
      const Word* TRIGEN_RESTRICT row =
          labels + (w_begin + r) * lstride + p_begin;
      const __m256i b = _mm256_set1_epi32(static_cast<int>(v));
      for (int g = 0; g < G; ++g) {
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + 8 * g));
        acc[g] = _mm256_add_epi32(
            acc[g], lane_popcnt_epi32(_mm256_and_si256(b, l)));
      }
    }
    alignas(32) std::uint32_t lanes[8];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + 8 * static_cast<std::size_t>(g);
      const std::size_t pe = pg + 8 < p_last ? pg + 8 : p_last;
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[g]);
      for (std::size_t p = pg; p < pe; ++p)
        label_pops[t * lstride + p] += lanes[p - pg];
    }
  }
}

// Batched finalize over a window of G label groups: u0/u1, the per-chunk
// totals and the two broadcasts are computed once per word and amortized
// across all 8*G partitions.  G is capped at 2 (2*G accumulators plus the
// popcount scratch must fit sixteen ymm registers).
template <int G>
void batch_final_window_avx2(
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
    __m256i a0[G];
    __m256i a1[G];
    for (int g = 0; g < G; ++g) {
      a0[g] = _mm256_setzero_si256();
      a1[g] = _mm256_setzero_si256();
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
      const __m256i b0 = _mm256_set1_epi32(static_cast<int>(u0));
      const __m256i b1 = _mm256_set1_epi32(static_cast<int>(u1));
      for (int g = 0; g < G; ++g) {
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + 8 * g));
        a0[g] = _mm256_add_epi32(
            a0[g], lane_popcnt_epi32(_mm256_and_si256(b0, l)));
        a1[g] = _mm256_add_epi32(
            a1[g], lane_popcnt_epi32(_mm256_and_si256(b1, l)));
      }
    }
    if (totals_pass) {
      ft[t * 3 + 0] += c0;
      ft[t * 3 + 1] += c1;
      ft[t * 3 + 2] += prefix_pops[t] - c0 - c1;
    }
    alignas(32) std::uint32_t l0[8];
    alignas(32) std::uint32_t l1[8];
    for (int g = 0; g < G; ++g) {
      const std::size_t pg = p_begin + 8 * static_cast<std::size_t>(g);
      const std::size_t pe = pg + 8 < p_last ? pg + 8 : p_last;
      _mm256_store_si256(reinterpret_cast<__m256i*>(l0), a0[g]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(l1), a1[g]);
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

void batch_label_pops_avx2(const Word* TRIGEN_RESTRICT prefix,
                           std::size_t count, std::size_t stride,
                           const Word* TRIGEN_RESTRICT labels,
                           std::size_t num_labels, std::size_t lstride,
                           std::size_t w_begin, std::size_t w_end,
                           std::uint32_t* TRIGEN_RESTRICT label_pops) {
  // Vectorized across label lanes, not words: each prefix word is broadcast
  // and ANDed against eight partitions' label words at once.  Lane count is
  // independent of the word range, so there is no scalar word tail.
  for (std::size_t p0 = 0; p0 < num_labels;) {
    const std::size_t left = (num_labels - p0 + 7) / 8;
    const std::size_t g = left < 4 ? left : 4;
    const std::size_t pe = p0 + 8 * g < num_labels ? p0 + 8 * g : num_labels;
    switch (g) {
#define TRIGEN_BLP_CASE(G)                                                \
  case G:                                                                 \
    batch_label_pops_window_avx2<G>(prefix, count, stride, labels, p0,    \
                                    pe, lstride, w_begin, w_end,          \
                                    label_pops);                          \
    break;
      TRIGEN_BLP_CASE(1)
      TRIGEN_BLP_CASE(2)
      TRIGEN_BLP_CASE(3)
      TRIGEN_BLP_CASE(4)
#undef TRIGEN_BLP_CASE
      default: break;
    }
    p0 += 8 * g;
  }
}

void batch_final_avx2(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
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
    const std::size_t left = (num_labels - p0 + 7) / 8;
    const std::size_t g = left < 2 ? left : 2;
    const std::size_t pe = p0 + 8 * g < num_labels ? p0 + 8 * g : num_labels;
    switch (g) {
#define TRIGEN_BF_CASE(G)                                                 \
  case G:                                                                 \
    batch_final_window_avx2<G>(prefix, count, stride, prefix_pops,        \
                               label_pops, z0, z1, labels, p0, pe,        \
                               lstride, w_begin, w_end, ft, ft_stride,    \
                               totals_pass);                              \
    break;
      TRIGEN_BF_CASE(1)
      TRIGEN_BF_CASE(2)
#undef TRIGEN_BF_CASE
      default: break;
    }
    totals_pass = false;
    p0 += 8 * g;
  }
}

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX2
