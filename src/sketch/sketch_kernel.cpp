#include "sketch/sketch_kernel.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define EYW_X86_64 1
#endif

namespace eyw::sketch {

namespace detail {
#if defined(EYW_HAVE_AVX2_SKETCH)
// Defined in sketch_kernel_avx2.cpp (compiled with -mavx2).
const SketchKernel& avx2_kernel_impl() noexcept;
#endif
}  // namespace detail

namespace {

void portable_add(std::uint32_t* dst, const std::uint32_t* src,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void portable_sub(std::uint32_t* dst, const std::uint32_t* src,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void portable_row_min(std::uint32_t* out, const std::uint32_t* row,
                      const std::uint32_t* idx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = row[idx[i]];
    if (c < out[i]) out[i] = c;
  }
}

constexpr SketchKernel kPortable{portable_add, portable_sub, portable_row_min,
                                 "portable"};

const SketchKernel* resolve_active() noexcept {
  const char* pref = std::getenv("EYW_SKETCH_KERNEL");
  const bool force_portable =
      pref != nullptr && std::strcmp(pref, "portable") == 0;
  if (!force_portable) {
    if (const SketchKernel* avx2 = avx2_sketch_kernel()) return avx2;
  }
  // "avx2" requested but unavailable degrades to portable — the override is
  // a test knob, not a correctness switch, and portable is always right.
  return &kPortable;
}

}  // namespace

const SketchKernel& portable_sketch_kernel() noexcept { return kPortable; }

bool cpu_supports_avx2() noexcept {
#if defined(EYW_X86_64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kAvx2 = 1u << 5;  // EBX bit 5
  return (ebx & kAvx2) != 0;
#else
  return false;
#endif
}

const SketchKernel* avx2_sketch_kernel() noexcept {
#if defined(EYW_HAVE_AVX2_SKETCH)
  static const bool usable = cpu_supports_avx2();
  return usable ? &detail::avx2_kernel_impl() : nullptr;
#else
  return nullptr;
#endif
}

const SketchKernel& active_sketch_kernel() noexcept {
  static const SketchKernel* chosen = resolve_active();
  return *chosen;
}

}  // namespace eyw::sketch
