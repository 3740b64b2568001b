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
    // The lookup ablation first: best_kernel_isa() takes the last entry
    // the host runs, so an AVX2-only host defaults to the paper's extract.
    out.push_back(KernelIsa::kAvx2Lookup);
    out.push_back(KernelIsa::kAvx2);
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
    case KernelIsa::kAvx2Lookup:
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
    case KernelIsa::kAvx2Lookup: return "avx2-lookup";
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

namespace {

/// The table whose bodies fill every entry a strategy does not own: the
/// widest compiled generic path.  Any host that can execute an AVX-512
/// strategy can execute AVX2, and every body is exact, so results are
/// bit-identical across the mapping.
#if defined(TRIGEN_KERNEL_AVX2)
const detail::KernelTable& kWidestGeneric = detail::kAvx2ExtractKernels;
#else
const detail::KernelTable& kWidestGeneric = detail::kScalarKernels;
#endif

/// The kernel set of `isa` with every null entry filled from
/// kWidestGeneric; throws when `isa` cannot run on this host.
detail::KernelTable kernel_table(KernelIsa isa) {
  if (!kernel_available(isa)) {
    throw std::runtime_error("kernel '" + kernel_isa_name(isa) +
                             "' not available on this host");
  }
  detail::KernelTable t;
  switch (isa) {
    case KernelIsa::kScalar:
      t = detail::kScalarKernels;
      break;
#if defined(TRIGEN_KERNEL_AVX2)
    case KernelIsa::kAvx2:
      t = detail::kAvx2ExtractKernels;
      break;
    case KernelIsa::kAvx2Lookup:
      t = detail::kAvx2LookupKernels;
      break;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
    case KernelIsa::kAvx512Extract:
      t = detail::kAvx512ExtractKernels;
      break;
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
    case KernelIsa::kAvx512Vpopcnt:
      t = detail::kAvx512VpopcntKernels;
      break;
#endif
    default:
      throw std::runtime_error("kernel not compiled in");
  }
  const detail::KernelTable& w = kWidestGeneric;
  if (t.extend == nullptr) t.extend = w.extend;
  if (t.finalize == nullptr) t.finalize = w.finalize;
  if (t.direct == nullptr) t.direct = w.direct;
  if (t.label_pops == nullptr) t.label_pops = w.label_pops;
  if (t.batch_final == nullptr) t.batch_final = w.batch_final;
  return t;
}

/// CachedKernelSet::cached of strategy I: its finalize at count 9.
template <KernelIsa I>
void finalize_nine_planes(const Word* xy, std::size_t stride,
                          const std::uint32_t* xy_pop9, const Word* z0,
                          const Word* z1, std::size_t w_begin,
                          std::size_t w_end, std::uint32_t* ft27) {
  static const PrefixFinalKernel finalize = kernel_table(I).finalize;
  finalize(xy, 9, stride, xy_pop9, z0, z1, w_begin, w_end, ft27);
}

}  // namespace

TripleBlockKernel get_kernel(KernelIsa isa) {
  return kernel_table(isa).triple;
}

CachedKernelSet get_cached_kernels(KernelIsa isa) {
  const detail::KernelTable t = kernel_table(isa);
  TripleBlockCachedKernel cached = nullptr;
  switch (isa) {
    case KernelIsa::kScalar:
      cached = &finalize_nine_planes<KernelIsa::kScalar>;
      break;
    case KernelIsa::kAvx2:
      cached = &finalize_nine_planes<KernelIsa::kAvx2>;
      break;
    case KernelIsa::kAvx2Lookup:
      cached = &finalize_nine_planes<KernelIsa::kAvx2Lookup>;
      break;
    case KernelIsa::kAvx512Extract:
      cached = &finalize_nine_planes<KernelIsa::kAvx512Extract>;
      break;
    case KernelIsa::kAvx512Vpopcnt:
      cached = &finalize_nine_planes<KernelIsa::kAvx512Vpopcnt>;
      break;
  }
  return {t.build, cached, t.count};
}

GenericKernelSet get_generic_kernels(KernelIsa isa) {
  const detail::KernelTable t = kernel_table(isa);
  return {t.extend, t.extend01, t.finalize, t.direct};
}

BatchKernelSet get_batch_kernels(KernelIsa isa) {
  const detail::KernelTable t = kernel_table(isa);
  return {t.label_pops, t.batch_final};
}

std::size_t kernel_vector_words(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return 1;
    case KernelIsa::kAvx2:
    case KernelIsa::kAvx2Lookup: return 8;
    case KernelIsa::kAvx512Extract:
    case KernelIsa::kAvx512Vpopcnt: return 16;
  }
  return 1;
}

}  // namespace trigen::core
