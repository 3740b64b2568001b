/// \file kernels_avx512.cpp
/// \brief AVX-512 + extract policy (Skylake-SP strategy) and its kernel
/// table.
///
/// Compiled with -mavx512f -mavx512bw regardless of the global architecture
/// flags; only executed after the runtime dispatcher confirms support.  The
/// kernel bodies are the templates of kernels_simd.hpp.

#include "kernels_detail.hpp"

#if defined(TRIGEN_KERNEL_AVX512)
#include <immintrin.h>

#include "kernels_simd.hpp"

namespace trigen::core::detail {
namespace {

/// Set bits of `v`'s four 64-bit lanes, each extracted to scalar POPCNT.
inline std::uint32_t popcount_quarters(__m256i v) {
  return popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0))) +
         popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1))) +
         popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2))) +
         popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3)));
}

/// Skylake-SP strategy: 512-bit AND/NOR, each popcount taken by two-level
/// extraction feeding the scalar POPCNT unit (the overhead that makes CI2
/// the slowest CPU per core in Fig. 3).
struct Avx512Extract {
  using V = __m512i;
  static constexpr std::size_t kWords = 16;
  static constexpr int kFinalizeGroup = 1;
  static constexpr int kLabelPopsGroups = 8;
  static constexpr int kBatchFinalGroups = 8;

  static V load(const Word* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store(Word* p, V v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static V vand(V a, V b) { return _mm512_and_si512(a, b); }
  static V vxor(V a, V b) { return _mm512_xor_si512(a, b); }
  static V nor(V a, V b) {
    return _mm512_xor_si512(_mm512_or_si512(a, b), _mm512_set1_epi32(-1));
  }
  static V broadcast(Word w) { return _mm512_set1_epi32(static_cast<int>(w)); }
  static V add32(V a, V b) { return _mm512_add_epi32(a, b); }
  // Nibble LUT (AVX-512BW byte shuffle) summed into dwords via
  // maddubs(x1) + madd(x1): the extract strategy keeps no lanes apart.
  static V lane_popcnt(V v) {
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

  using Acc = std::uint32_t;
  static Acc zero() { return 0; }
  static Acc add(Acc acc, V v) {
    return acc + popcount_quarters(_mm512_extracti64x4_epi64(v, 0)) +
           popcount_quarters(_mm512_extracti64x4_epi64(v, 1));
  }
  static std::uint32_t sum(Acc acc) { return acc; }
};

}  // namespace

constinit const KernelTable kAvx512ExtractKernels = {
    .triple = &triple_block<Avx512Extract>,
    .build = &pair_plane_build<Avx512Extract>,
    .count = &pair_plane_count<Avx512Extract>,
    .extend01 = &prefix_extend<Avx512Extract, 2>,
    .label_pops = &batch_label_pops<Avx512Extract>,
    .batch_final = &batch_final<Avx512Extract>,
};

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX512
