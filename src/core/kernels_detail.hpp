#pragma once
/// \file kernels_detail.hpp
/// \brief Internal declarations of the per-strategy kernel tables.
///
/// Each vector strategy lives in a policy translation unit
/// (kernels_avx2.cpp, kernels_avx512.cpp, kernels_avx512vpopcnt.cpp) that
/// the build system compiles with exactly the ISA flags that strategy needs
/// (-mavx2 / -mavx512f -mavx512bw / -mavx512vpopcntdq) and that
/// instantiates the shared kernel templates of kernels_simd.hpp over its
/// policy.  The dispatch registry in kernels_dispatch.cpp is compiled
/// portably and selects among the tables at runtime via cpu_features(), so
/// a binary built without -march=native still carries every variant the
/// compiler can emit and never executes one the host cannot run.
///
/// Which variants were compiled in is communicated by the build system
/// through the TRIGEN_KERNEL_AVX2 / TRIGEN_KERNEL_AVX512 /
/// TRIGEN_KERNEL_AVX512VPOPCNT macros (target-wide compile definitions).
///
/// Every kernel parameter is __restrict-qualified: the engine never passes
/// aliasing planes (SNP indices of a combination are strictly increasing,
/// and the V5 cache is written only by the build phase), and the qualifier
/// lets the compiler keep plane words in registers across the unrolled
/// cell loops.

#include <cstddef>
#include <cstdint>

#include "trigen/core/kernels.hpp"

#if defined(_MSC_VER)
#define TRIGEN_RESTRICT __restrict
#else
#define TRIGEN_RESTRICT __restrict__
#endif

namespace trigen::core::detail {

/// The kernel bodies one vectorization strategy owns.  A null entry is one
/// the strategy does not carry: the get_*_kernels registry fills it from
/// the widest compiled generic table (AVX2 extract, or scalar).
/// `CachedKernelSet::cached` has no entry: it is `finalize` at count 9.
struct KernelTable {
  TripleBlockKernel triple = nullptr;
  PairPlaneBuildKernel build = nullptr;
  PairPlaneCountKernel count = nullptr;
  PrefixExtendKernel extend = nullptr;
  PrefixExtendKernel extend01 = nullptr;
  PrefixFinalKernel finalize = nullptr;
  TupleBlockKernel direct = nullptr;
  BatchLabelPopsKernel label_pops = nullptr;
  BatchFinalKernel batch_final = nullptr;
};

// kernels_scalar.cpp; always present.
extern const KernelTable kScalarKernels;
#if defined(TRIGEN_KERNEL_AVX2)
// kernels_avx2.cpp (compiled with -mavx2).
extern const KernelTable kAvx2ExtractKernels;
extern const KernelTable kAvx2LookupKernels;
#endif
#if defined(TRIGEN_KERNEL_AVX512)
// kernels_avx512.cpp (compiled with -mavx512f -mavx512bw).
extern const KernelTable kAvx512ExtractKernels;
#endif
#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
// kernels_avx512vpopcnt.cpp (compiled with -mavx512vpopcntdq).
extern const KernelTable kAvx512VpopcntKernels;
#endif

// The scalar bodies the vector kernels hand their word tails to.
void triple_block_scalar(const Word* TRIGEN_RESTRICT x0,
                         const Word* TRIGEN_RESTRICT x1,
                         const Word* TRIGEN_RESTRICT y0,
                         const Word* TRIGEN_RESTRICT y1,
                         const Word* TRIGEN_RESTRICT z0,
                         const Word* TRIGEN_RESTRICT z1,
                         std::size_t w_begin, std::size_t w_end,
                         std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_build_scalar(const Word* TRIGEN_RESTRICT x0,
                             const Word* TRIGEN_RESTRICT x1,
                             const Word* TRIGEN_RESTRICT y0,
                             const Word* TRIGEN_RESTRICT y1,
                             std::size_t w_begin, std::size_t w_end,
                             Word* TRIGEN_RESTRICT xy, std::size_t stride,
                             std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void pair_plane_count_scalar(const Word* TRIGEN_RESTRICT x0,
                             const Word* TRIGEN_RESTRICT x1,
                             const Word* TRIGEN_RESTRICT y0,
                             const Word* TRIGEN_RESTRICT y1,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void prefix_extend_scalar(const Word* TRIGEN_RESTRICT prefix,
                          std::size_t count, std::size_t stride,
                          const Word* TRIGEN_RESTRICT s0,
                          const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                          std::size_t w_end, Word* TRIGEN_RESTRICT out,
                          std::size_t out_stride,
                          std::uint32_t* TRIGEN_RESTRICT out_pops);
void prefix_extend01_scalar(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT s0, const Word* TRIGEN_RESTRICT s1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT out,
    std::size_t out_stride, std::uint32_t* TRIGEN_RESTRICT out_pops);
void tuple_block_scalar(const Word* const* TRIGEN_RESTRICT g0,
                        const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft);

}  // namespace trigen::core::detail
