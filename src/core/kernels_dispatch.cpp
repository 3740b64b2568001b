/// \file kernels_dispatch.cpp
/// \brief Runtime kernel registry and dispatcher (paper §IV-A).
///
/// Compiled WITHOUT any ISA-specific flags: this translation unit must be
/// executable on any x86-64 (or non-x86) host, because it runs before — and
/// decides whether — any vector code is entered.  Which per-ISA variants the
/// build compiled in arrives via the TRIGEN_KERNEL_* compile definitions
/// (see src/core/CMakeLists.txt); whether the host can execute them is
/// answered by cpu_features().  Both must agree before get_kernel() hands
/// out a vector kernel — runtime dispatch is the single authority on what
/// executes.

#include <stdexcept>

#include "kernels_detail.hpp"
#include "trigen/common/cpuid.hpp"
#include "trigen/core/kernel_config.hpp"
#include "trigen/core/kernels.hpp"

namespace trigen::core {

const std::vector<KernelIsa>& all_kernel_isas() {
  static const std::vector<KernelIsa> v = [] {
    std::vector<KernelIsa> out = {KernelIsa::kScalar};
#if defined(TRIGEN_KERNEL_AVX2)
    out.push_back(KernelIsa::kAvx2);
    out.push_back(KernelIsa::kAvx2HarleySeal);
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    out.push_back(KernelIsa::kAvx512Extract);
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    out.push_back(KernelIsa::kAvx512Vpopcnt);
#endif
    return out;
  }();
  return v;
}

bool kernel_available(KernelIsa isa) {
  const auto& f = cpu_features();
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2HarleySeal:
#if defined(TRIGEN_KERNEL_AVX2)
      return f.avx2;
#else
      return false;
#endif
    case KernelIsa::kAvx512Extract:
#if defined(TRIGEN_KERNEL_AVX512)
      return f.avx512f && f.avx512bw;
#else
      return false;
#endif
    case KernelIsa::kAvx512Vpopcnt:
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
      return f.avx512f && f.avx512bw && f.avx512vpopcntdq;
#else
      return false;
#endif
  }
  return false;
}

KernelIsa best_kernel_isa() {
  KernelIsa best = KernelIsa::kScalar;
  for (const KernelIsa isa : all_kernel_isas()) {
    if (kernel_available(isa)) best = isa;
  }
  return best;
}

std::string kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx2HarleySeal: return "avx2-harley-seal";
    case KernelIsa::kAvx512Extract: return "avx512-extract";
    case KernelIsa::kAvx512Vpopcnt: return "avx512-vpopcnt";
  }
  return "unknown";
}

std::optional<KernelIsa> parse_kernel_isa(const std::string& name) {
  for (const KernelIsa isa : all_kernel_isas()) {
    if (kernel_isa_name(isa) == name) return isa;
  }
  return std::nullopt;
}

std::string kernel_family_name(KernelFamily f) {
  switch (f) {
    case KernelFamily::kPairCount: return "pair_count";
    case KernelFamily::kTripleBlock: return "triple_block";
    case KernelFamily::kTripleBlockCached: return "triple_block_cached";
    case KernelFamily::kPairPlaneBuild: return "pair_plane_build";
    case KernelFamily::kTupleBlock: return "tuple_block";
    case KernelFamily::kPrefixLadder: return "prefix_ladder";
    case KernelFamily::kFinalizeBatched: return "finalize_batched";
  }
  return "unknown";
}

std::optional<KernelFamily> parse_kernel_family(const std::string& name) {
  static const KernelFamily all[] = {
      KernelFamily::kPairCount,       KernelFamily::kTripleBlock,
      KernelFamily::kTripleBlockCached, KernelFamily::kPairPlaneBuild,
      KernelFamily::kTupleBlock,      KernelFamily::kPrefixLadder,
      KernelFamily::kFinalizeBatched,
  };
  for (const KernelFamily f : all) {
    if (kernel_family_name(f) == name) return f;
  }
  return std::nullopt;
}

TripleBlockKernel get_kernel(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  switch (isa) {
    case KernelIsa::kScalar:
      return &detail::triple_block_scalar;
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
      return &detail::triple_block_avx2;
    case KernelIsa::kAvx2HarleySeal:
      return &detail::triple_block_avx2_harley_seal;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      return &detail::triple_block_avx512_extract;
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      return &detail::triple_block_avx512_vpopcnt;
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
}

CachedKernelSet get_cached_kernels(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  switch (isa) {
    case KernelIsa::kScalar:
      return {&detail::pair_plane_build_scalar,
              &detail::triple_block_cached_scalar,
              &detail::pair_plane_count_scalar};
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
      return {&detail::pair_plane_build_avx2,
              &detail::triple_block_cached_avx2,
              &detail::pair_plane_count_avx2};
    case KernelIsa::kAvx2HarleySeal:
      return {&detail::pair_plane_build_avx2_harley_seal,
              &detail::triple_block_cached_avx2_harley_seal,
              &detail::pair_plane_count_avx2_harley_seal};
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      return {&detail::pair_plane_build_avx512_extract,
              &detail::triple_block_cached_avx512_extract,
              &detail::pair_plane_count_avx512_extract};
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      return {&detail::pair_plane_build_avx512_vpopcnt,
              &detail::triple_block_cached_avx512_vpopcnt,
              &detail::pair_plane_count_avx512_vpopcnt};
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
}

GenericKernelSet get_generic_kernels(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  // Each strategy has its own extend01, and VPOPCNTDQ its own finalize;
  // the rest maps to the widest compiled generic path.  An
  // AVX-512-capable host always executes AVX2, and every variant is exact,
  // so results are bit-identical across the mapping.
#if defined(TRIGEN_KERNEL_AVX2)
  GenericKernelSet k{&detail::prefix_extend_avx2, nullptr,
                     &detail::prefix_final_avx2, &detail::tuple_block_avx2};
#else
  GenericKernelSet k{&detail::prefix_extend_scalar, nullptr,
                     &detail::prefix_final_scalar, &detail::tuple_block_scalar};
#endif
  switch (isa) {
    case KernelIsa::kScalar:
      return {&detail::prefix_extend_scalar, &detail::prefix_extend01_scalar,
              &detail::prefix_final_scalar, &detail::tuple_block_scalar};
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
      k.extend01 = &detail::prefix_extend01_avx2;
      return k;
    case KernelIsa::kAvx2HarleySeal:
      k.extend01 = &detail::prefix_extend01_avx2_harley_seal;
      return k;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      k.extend01 = &detail::prefix_extend01_avx512_extract;
      return k;
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      k.extend01 = &detail::prefix_extend01_avx512_vpopcnt;
      k.finalize = &detail::prefix_final_avx512_vpopcnt;
      return k;
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
}

BatchKernelSet get_batch_kernels(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  switch (isa) {
    case KernelIsa::kScalar:
      return {&detail::batch_label_pops_scalar, &detail::batch_final_scalar};
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2HarleySeal:
      // Per-dword popcounts need the nibble LUT regardless of the triple
      // kernel's popcount strategy, so both AVX2 variants share one batch
      // implementation (exact, hence bit-identical across the mapping).
      return {&detail::batch_label_pops_avx2, &detail::batch_final_avx2};
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      return {&detail::batch_label_pops_avx512, &detail::batch_final_avx512};
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      return {&detail::batch_label_pops_avx512_vpopcnt,
              &detail::batch_final_avx512_vpopcnt};
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
}

std::size_t kernel_vector_words(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return 1;
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2HarleySeal: return 8;
    case KernelIsa::kAvx512Extract:
    case KernelIsa::kAvx512Vpopcnt: return 16;
  }
  return 1;
}

}  // namespace trigen::core
