# TrigenSimd.cmake — per-ISA compiler flag detection for the SIMD kernels.
#
# The kernel translation units (src/core/kernels_avx2.cpp, ...) are
# compiled with per-file ISA flags so that a portable build (no
# -march=native) still carries every vector variant the compiler can emit.
# Runtime dispatch via trigen::cpu_features() remains the single authority
# on what actually executes.
#
# Defines, for each ISA tier the compiler supports:
#   TRIGEN_HAVE_AVX2            / TRIGEN_AVX2_FLAGS            (-mavx2)
#   TRIGEN_HAVE_AVX512          / TRIGEN_AVX512_FLAGS          (-mavx512f -mavx512bw)
#   TRIGEN_HAVE_AVX512VPOPCNT   / TRIGEN_AVX512VPOPCNT_FLAGS   (+ -mavx512vpopcntdq)
#
# The *_FLAGS variables are CMake lists suitable for COMPILE_OPTIONS.
# Detection compiles a real intrinsic snippet (not just flag acceptance) so
# it also works with MSVC's /arch: model and catches broken toolchains.

include(CheckCXXSourceCompiles)

function(_trigen_check_isa out_var flags source)
  string(REPLACE ";" " " _flags_str "${flags}")
  set(CMAKE_REQUIRED_FLAGS "${_flags_str}")
  check_cxx_source_compiles("${source}" ${out_var})
endfunction()

if(MSVC)
  set(_trigen_avx2_flags "/arch:AVX2")
  set(_trigen_avx512_flags "/arch:AVX512")
  set(_trigen_avx512vp_flags "/arch:AVX512")
else()
  set(_trigen_avx2_flags "-mavx2")
  set(_trigen_avx512_flags "-mavx512f;-mavx512bw")
  set(_trigen_avx512vp_flags "-mavx512f;-mavx512bw;-mavx512vpopcntdq")
endif()

_trigen_check_isa(TRIGEN_HAVE_AVX2 "${_trigen_avx2_flags}" "
#include <immintrin.h>
int main() {
  __m256i v = _mm256_set1_epi8(1);
  v = _mm256_sad_epu8(v, _mm256_setzero_si256());
  return static_cast<int>(_mm256_extract_epi64(v, 0) == 8);
}")

_trigen_check_isa(TRIGEN_HAVE_AVX512 "${_trigen_avx512_flags}" "
#include <immintrin.h>
int main() {
  __m512i v = _mm512_set1_epi32(1);
  v = _mm512_and_si512(v, v);
  __m256i lo = _mm512_extracti64x4_epi64(v, 0);
  return static_cast<int>(_mm256_extract_epi64(lo, 0) != 0);
}")

_trigen_check_isa(TRIGEN_HAVE_AVX512VPOPCNT "${_trigen_avx512vp_flags}" "
#include <immintrin.h>
int main() {
  __m512i v = _mm512_set1_epi32(7);
  v = _mm512_popcnt_epi32(v);
  return _mm512_reduce_add_epi32(v) == 48 ? 0 : 1;
}")

if(TRIGEN_HAVE_AVX2)
  set(TRIGEN_AVX2_FLAGS "${_trigen_avx2_flags}")
endif()
if(TRIGEN_HAVE_AVX512)
  set(TRIGEN_AVX512_FLAGS "${_trigen_avx512_flags}")
endif()
if(TRIGEN_HAVE_AVX512VPOPCNT)
  set(TRIGEN_AVX512VPOPCNT_FLAGS "${_trigen_avx512vp_flags}")
endif()

message(STATUS "trigen SIMD variants: avx2=${TRIGEN_HAVE_AVX2} "
               "avx512=${TRIGEN_HAVE_AVX512} "
               "avx512vpopcnt=${TRIGEN_HAVE_AVX512VPOPCNT}")

# trigen_add_isa_source(<target> <tier> <source>)
#
# Adds <source> to <target> compiled with the flags of ISA <tier> (one of
# AVX2, AVX512, AVX512VPOPCNT), and defines TRIGEN_KERNEL_<tier>=1 on the
# whole target so the portable dispatch TU knows the variant exists.  No-op
# when the compiler does not support the tier.  Per-ISA TUs guard their
# bodies on TRIGEN_KERNEL_<tier> (not on compiler macros like __AVX2__,
# which MSVC's /arch model does not always define).
function(trigen_add_isa_source target tier source)
  if(NOT TRIGEN_HAVE_${tier})
    return()
  endif()
  target_sources(${target} PRIVATE ${source})
  set(_options "${TRIGEN_${tier}_FLAGS}")
  # GCC 12 reports -W(maybe-)uninitialized from inside its own AVX-512
  # intrinsic header (the undefined-vector operand of
  # _mm512_extracti64x4_epi64 and _mm512_broadcast_i32x4); those two
  # warnings are off in the AVX-512 sources only.
  if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU" AND tier MATCHES "^AVX512")
    list(APPEND _options -Wno-maybe-uninitialized -Wno-uninitialized)
  endif()
  set_source_files_properties(${source}
    PROPERTIES COMPILE_OPTIONS "${_options}")
  target_compile_definitions(${target} PRIVATE TRIGEN_KERNEL_${tier}=1)
endfunction()
