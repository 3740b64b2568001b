/// \file kernels_avx2.cpp
/// \brief AVX2 policies (paper §IV-A, the "AVX" V4 strategy, plus the
/// Harley-Seal ablation) and their kernel tables.
///
/// This translation unit is compiled with -mavx2 regardless of the global
/// architecture flags; nothing here may run unless the runtime dispatcher
/// has confirmed AVX2 support via cpu_features().  The kernel bodies are
/// the templates of kernels_simd.hpp.

#include "kernels_detail.hpp"

#if defined(TRIGEN_KERNEL_AVX2)
#include <immintrin.h>

#include "kernels_simd.hpp"

namespace trigen::core::detail {
namespace {

/// Per-byte set-bit counts of `v` via the nibble LUT (Mula's algorithm).
inline __m256i popcnt_bytes(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// The paper's AVX strategy: 256-bit AND/NOR, each popcount taken as four
/// 64-bit extracts fed to the scalar POPCNT unit.
struct Avx2Extract {
  using V = __m256i;
  static constexpr std::size_t kWords = 8;
  static constexpr int kFinalizeGroup = 1;
  // Sixteen ymm registers: wider batch windows would spill next to the
  // nibble-LUT scratch.
  static constexpr int kLabelPopsGroups = 4;
  static constexpr int kBatchFinalGroups = 2;

  static V load(const Word* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(Word* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V vand(V a, V b) { return _mm256_and_si256(a, b); }
  static V vxor(V a, V b) { return _mm256_xor_si256(a, b); }
  // No vector NOR on AVX CPUs: OR followed by XOR with all-ones (§IV-A).
  static V nor(V a, V b) {
    return _mm256_xor_si256(_mm256_or_si256(a, b), _mm256_set1_epi32(-1));
  }
  static V broadcast(Word w) { return _mm256_set1_epi32(static_cast<int>(w)); }
  static V add32(V a, V b) { return _mm256_add_epi32(a, b); }
  // Nibble-LUT bytes summed into dwords via maddubs(x1) + madd(x1).
  static V lane_popcnt(V v) {
    return _mm256_madd_epi16(
        _mm256_maddubs_epi16(popcnt_bytes(v), _mm256_set1_epi8(1)),
        _mm256_set1_epi16(1));
  }

  using Acc = std::uint32_t;
  static Acc zero() { return 0; }
  static Acc add(Acc acc, V v) {
    return acc +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2))) +
           popcount64(static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3)));
  }
  static std::uint32_t sum(Acc acc) { return acc; }
};

/// Ablation: the SWAR alternative to extract + POPCNT.  Nibble-LUT byte
/// counts are folded by SAD into 64-bit lanes (no overflow for any
/// realistic plane length), with one extract chain per reduction.
struct Avx2HarleySeal : Avx2Extract {
  using Acc = __m256i;
  static Acc zero() { return _mm256_setzero_si256(); }
  static Acc add(Acc acc, V v) {
    return _mm256_add_epi64(
        acc, _mm256_sad_epu8(popcnt_bytes(v), _mm256_setzero_si256()));
  }
  static std::uint32_t sum(Acc acc) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 0)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 1)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 2)) +
        static_cast<std::uint64_t>(_mm256_extract_epi64(acc, 3)));
  }
};

}  // namespace

// Both AVX2 strategies share the extract batch kernels: per-dword popcounts
// need the nibble LUT whatever the strategy.
constinit const KernelTable kAvx2ExtractKernels = {
    .triple = &triple_block<Avx2Extract>,
    .build = &pair_plane_build<Avx2Extract>,
    .count = &pair_plane_count<Avx2Extract>,
    .extend = &prefix_extend<Avx2Extract, 3>,
    .extend01 = &prefix_extend<Avx2Extract, 2>,
    .finalize = &prefix_final<Avx2Extract>,
    .direct = &tuple_block<Avx2Extract>,
    .label_pops = &batch_label_pops<Avx2Extract>,
    .batch_final = &batch_final<Avx2Extract>,
};

constinit const KernelTable kAvx2HarleySealKernels = {
    .triple = &triple_block<Avx2HarleySeal>,
    .build = &pair_plane_build<Avx2HarleySeal>,
    .count = &pair_plane_count<Avx2HarleySeal>,
    .extend01 = &prefix_extend<Avx2HarleySeal, 2>,
};

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX2
