// AVX2 sketch-cell kernels — the one translation unit compiled with -mavx2
// (see CMakeLists). Runtime CPUID dispatch in sketch_kernel.cpp keeps
// binaries safe on CPUs without AVX2; nothing in here may be referenced
// unless cpu_supports_avx2() said yes.
//
// Every loop is elementwise over wrapping uint32_t lanes, so the results
// are bit-identical to the portable kernel for every input — asserted by
// tests/sketch/test_sketch_kernels.cpp over all repo sketch shapes.
#if defined(EYW_HAVE_AVX2_SKETCH)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "sketch/sketch_kernel.hpp"

namespace eyw::sketch {
namespace {

void avx2_add(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi32(a, b));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void avx2_sub(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_sub_epi32(a, b));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void avx2_row_min(std::uint32_t* out, const std::uint32_t* row,
                  const std::uint32_t* idx, std::size_t n) {
  // Eight scattered cells per gather; min_epu32 keeps the unsigned
  // semantics of the scalar loop. Indices are < width <= 2^31 by the
  // kernel contract, so the signed gather index is safe.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i ix =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i cells = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(row), ix, sizeof(std::uint32_t));
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_min_epu32(cur, cells));
  }
  for (; i < n; ++i) {
    const std::uint32_t c = row[idx[i]];
    if (c < out[i]) out[i] = c;
  }
}

constexpr SketchKernel kAvx2{avx2_add, avx2_sub, avx2_row_min, "avx2"};

}  // namespace

namespace detail {
const SketchKernel& avx2_kernel_impl() noexcept { return kAvx2; }
}  // namespace detail

}  // namespace eyw::sketch

#endif  // EYW_HAVE_AVX2_SKETCH
