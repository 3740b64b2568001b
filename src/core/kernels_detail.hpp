#pragma once
/// \file kernels_detail.hpp
/// \brief Internal declarations of the per-ISA triple-block kernel
/// implementations.
///
/// Each vector implementation lives in its own translation unit
/// (kernels_avx2.cpp, kernels_avx512.cpp, kernels_avx512vpopcnt.cpp) that the
/// build system compiles with exactly the ISA flags that implementation
/// needs (-mavx2 / -mavx512f -mavx512bw / -mavx512vpopcntdq).  The dispatch
/// registry in kernels_dispatch.cpp is compiled portably and selects among
/// them at runtime via cpu_features(), so a binary built without
/// -march=native still carries every variant the compiler can emit and never
/// executes one the host cannot run.
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

// Defined in kernels_scalar.cpp; always present.
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
void triple_block_cached_scalar(const Word* TRIGEN_RESTRICT xy,
                                std::size_t stride,
                                const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
                                const Word* TRIGEN_RESTRICT z0,
                                const Word* TRIGEN_RESTRICT z1,
                                std::size_t w_begin, std::size_t w_end,
                                std::uint32_t* TRIGEN_RESTRICT ft27);
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
void prefix_final_scalar(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                         std::size_t stride,
                         const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                         const Word* TRIGEN_RESTRICT z0,
                         const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                         std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft);
void tuple_block_scalar(const Word* const* TRIGEN_RESTRICT g0,
                        const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft);
void batch_label_pops_scalar(const Word* TRIGEN_RESTRICT prefix,
                             std::size_t count, std::size_t stride,
                             const Word* TRIGEN_RESTRICT labels,
                             std::size_t num_labels, std::size_t lstride,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT label_pops);
void batch_final_scalar(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                        std::size_t stride,
                        const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                        const std::uint32_t* TRIGEN_RESTRICT label_pops,
                        const Word* TRIGEN_RESTRICT z0,
                        const Word* TRIGEN_RESTRICT z1,
                        const Word* TRIGEN_RESTRICT labels,
                        std::size_t num_labels, std::size_t lstride,
                        std::size_t w_begin, std::size_t w_end,
                        std::uint32_t* TRIGEN_RESTRICT ft,
                        std::size_t ft_stride);

#if defined(TRIGEN_KERNEL_AVX2)
// Defined in kernels_avx2.cpp (compiled with -mavx2).
void triple_block_avx2(const Word* TRIGEN_RESTRICT x0,
                       const Word* TRIGEN_RESTRICT x1,
                       const Word* TRIGEN_RESTRICT y0,
                       const Word* TRIGEN_RESTRICT y1,
                       const Word* TRIGEN_RESTRICT z0,
                       const Word* TRIGEN_RESTRICT z1,
                       std::size_t w_begin, std::size_t w_end,
                       std::uint32_t* TRIGEN_RESTRICT ft27);
void triple_block_avx2_harley_seal(const Word* TRIGEN_RESTRICT x0,
                                   const Word* TRIGEN_RESTRICT x1,
                                   const Word* TRIGEN_RESTRICT y0,
                                   const Word* TRIGEN_RESTRICT y1,
                                   const Word* TRIGEN_RESTRICT z0,
                                   const Word* TRIGEN_RESTRICT z1,
                                   std::size_t w_begin, std::size_t w_end,
                                   std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_build_avx2(const Word* TRIGEN_RESTRICT x0,
                           const Word* TRIGEN_RESTRICT x1,
                           const Word* TRIGEN_RESTRICT y0,
                           const Word* TRIGEN_RESTRICT y1,
                           std::size_t w_begin, std::size_t w_end,
                           Word* TRIGEN_RESTRICT xy, std::size_t stride,
                           std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void triple_block_cached_avx2(const Word* TRIGEN_RESTRICT xy,
                              std::size_t stride,
                              const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
                              const Word* TRIGEN_RESTRICT z0,
                              const Word* TRIGEN_RESTRICT z1,
                              std::size_t w_begin, std::size_t w_end,
                              std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_count_avx2(const Word* TRIGEN_RESTRICT x0,
                           const Word* TRIGEN_RESTRICT x1,
                           const Word* TRIGEN_RESTRICT y0,
                           const Word* TRIGEN_RESTRICT y1,
                           std::size_t w_begin, std::size_t w_end,
                           std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void pair_plane_build_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void triple_block_cached_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_count_avx2_harley_seal(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void prefix_extend_avx2(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                        std::size_t stride, const Word* TRIGEN_RESTRICT s0,
                        const Word* TRIGEN_RESTRICT s1, std::size_t w_begin,
                        std::size_t w_end, Word* TRIGEN_RESTRICT out,
                        std::size_t out_stride,
                        std::uint32_t* TRIGEN_RESTRICT out_pops);
void prefix_final_avx2(const Word* TRIGEN_RESTRICT prefix, std::size_t count,
                       std::size_t stride,
                       const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
                       const Word* TRIGEN_RESTRICT z0,
                       const Word* TRIGEN_RESTRICT z1, std::size_t w_begin,
                       std::size_t w_end, std::uint32_t* TRIGEN_RESTRICT ft);
void tuple_block_avx2(const Word* const* TRIGEN_RESTRICT g0,
                      const Word* const* TRIGEN_RESTRICT g1, unsigned k,
                      std::size_t w_begin, std::size_t w_end,
                      std::uint32_t* TRIGEN_RESTRICT ft);
void batch_label_pops_avx2(const Word* TRIGEN_RESTRICT prefix,
                           std::size_t count, std::size_t stride,
                           const Word* TRIGEN_RESTRICT labels,
                           std::size_t num_labels, std::size_t lstride,
                           std::size_t w_begin, std::size_t w_end,
                           std::uint32_t* TRIGEN_RESTRICT label_pops);
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
                      std::size_t ft_stride);
#endif

#if defined(TRIGEN_KERNEL_AVX512)
// Defined in kernels_avx512.cpp (compiled with -mavx512f -mavx512bw).
void triple_block_avx512_extract(const Word* TRIGEN_RESTRICT x0,
                                 const Word* TRIGEN_RESTRICT x1,
                                 const Word* TRIGEN_RESTRICT y0,
                                 const Word* TRIGEN_RESTRICT y1,
                                 const Word* TRIGEN_RESTRICT z0,
                                 const Word* TRIGEN_RESTRICT z1,
                                 std::size_t w_begin, std::size_t w_end,
                                 std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_build_avx512_extract(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void triple_block_cached_avx512_extract(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_count_avx512_extract(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void batch_label_pops_avx512(const Word* TRIGEN_RESTRICT prefix,
                             std::size_t count, std::size_t stride,
                             const Word* TRIGEN_RESTRICT labels,
                             std::size_t num_labels, std::size_t lstride,
                             std::size_t w_begin, std::size_t w_end,
                             std::uint32_t* TRIGEN_RESTRICT label_pops);
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
                        std::size_t ft_stride);
#endif

#if defined(TRIGEN_KERNEL_AVX512VPOPCNT)
// Defined in kernels_avx512vpopcnt.cpp (compiled with -mavx512vpopcntdq).
void triple_block_avx512_vpopcnt(const Word* TRIGEN_RESTRICT x0,
                                 const Word* TRIGEN_RESTRICT x1,
                                 const Word* TRIGEN_RESTRICT y0,
                                 const Word* TRIGEN_RESTRICT y1,
                                 const Word* TRIGEN_RESTRICT z0,
                                 const Word* TRIGEN_RESTRICT z1,
                                 std::size_t w_begin, std::size_t w_end,
                                 std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_build_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end, Word* TRIGEN_RESTRICT xy,
    std::size_t stride, std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void triple_block_cached_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT xy, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT xy_pop9,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft27);
void pair_plane_count_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT x0, const Word* TRIGEN_RESTRICT x1,
    const Word* TRIGEN_RESTRICT y0, const Word* TRIGEN_RESTRICT y1,
    std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT xy_pop9);
void batch_label_pops_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
    std::size_t lstride, std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT label_pops);
void batch_final_avx512_vpopcnt(
    const Word* TRIGEN_RESTRICT prefix, std::size_t count, std::size_t stride,
    const std::uint32_t* TRIGEN_RESTRICT prefix_pops,
    const std::uint32_t* TRIGEN_RESTRICT label_pops,
    const Word* TRIGEN_RESTRICT z0, const Word* TRIGEN_RESTRICT z1,
    const Word* TRIGEN_RESTRICT labels, std::size_t num_labels,
    std::size_t lstride, std::size_t w_begin, std::size_t w_end,
    std::uint32_t* TRIGEN_RESTRICT ft, std::size_t ft_stride);
#endif

}  // namespace trigen::core::detail
