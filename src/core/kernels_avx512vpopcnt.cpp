/// \file kernels_avx512vpopcnt.cpp
/// \brief AVX-512 VPOPCNTDQ policy (Ice Lake SP strategy) and its kernel
/// table.
///
/// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq regardless of the
/// global architecture flags; only executed after the runtime dispatcher
/// confirms support.  The kernel bodies are the templates of
/// kernels_simd.hpp.

#include "kernels_detail.hpp"

#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
#include <immintrin.h>

#include "kernels_simd.hpp"

namespace trigen::core::detail {
namespace {

/// Ice Lake SP strategy (§IV-A, last paragraph): vector POPCNT per cell
/// into lane-wise accumulators, each reduced once per call.  The per-lane
/// count over one call is bounded by 32 bits per word, so 32-bit lanes
/// cannot overflow for any plane shorter than 2^26 words.
struct Avx512Vpopcnt {
  using V = __m512i;
  static constexpr std::size_t kWords = 16;
  // Finalize loads each z word once per group of up to four prefix planes.
  static constexpr int kFinalizeGroup = 4;
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
  static V lane_popcnt(V v) { return _mm512_popcnt_epi32(v); }

  using Acc = V;
  static Acc zero() { return _mm512_setzero_si512(); }
  static Acc add(Acc acc, V v) {
    return _mm512_add_epi32(acc, _mm512_popcnt_epi32(v));
  }
  static std::uint32_t sum(Acc acc) {
    return static_cast<std::uint32_t>(_mm512_reduce_add_epi32(acc));
  }
};

}  // namespace

constinit const KernelTable kAvx512VpopcntKernels = {
    .triple = &triple_block<Avx512Vpopcnt>,
    .build = &pair_plane_build<Avx512Vpopcnt>,
    .count = &pair_plane_count<Avx512Vpopcnt>,
    .extend01 = &prefix_extend<Avx512Vpopcnt, 2>,
    .finalize = &prefix_final<Avx512Vpopcnt>,
    .label_pops = &batch_label_pops<Avx512Vpopcnt>,
    .batch_final = &batch_final<Avx512Vpopcnt>,
};

}  // namespace trigen::core::detail

#endif  // TRIGEN_KERNEL_AVX512VPOPCNT
