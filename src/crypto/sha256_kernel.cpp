#include "crypto/sha256_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define EYW_X86_64 1
#endif

namespace eyw::crypto {

namespace detail {
#if defined(EYW_HAVE_SHANI_KERNEL)
// Defined in sha256_shani.cpp (compiled with -msha -msse4.1).
void shani_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t count);
#endif
#if defined(EYW_HAVE_AVX512_SHA256)
// Defined in sha256_avx512.cpp (compiled with -mavx512f -mavx512vl).
void avx512_counter_words(const std::uint8_t block[64], std::size_t ctr_off,
                          std::uint64_t first, std::uint32_t* out,
                          std::size_t words);
#endif
}  // namespace detail

namespace {

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

void portable_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t count) {
  for (std::size_t blk = 0; blk < count; ++blk, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 =
          h + s1 + ch + kSha256K[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

constexpr Sha256Kernel kPortable{portable_compress, nullptr, "portable"};

#if defined(EYW_HAVE_SHANI_KERNEL)
constexpr Sha256Kernel kShani{detail::shani_compress, nullptr, "shani"};
#endif

#if defined(EYW_HAVE_AVX512_SHA256)
/// AVX-512F + AVX-512VL in CPUID and opmask/ZMM state enabled in XCR0.
bool cpu_supports_avx512() noexcept {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kOsxsave = 1u << 27;  // ECX bit 27
  if ((ecx & kOsxsave) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kAvx512FVl = (1u << 16) | (1u << 31);  // EBX F, VL
  if ((ebx & kAvx512FVl) != kAvx512FVl) return false;
  // CPUID only says the core has the units; XCR0 says the OS saves and
  // restores their state across context switches: SSE, AVX, opmask,
  // ZMM_Hi256 and Hi16_ZMM (bits 1, 2, 5, 6, 7).
  unsigned int xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned int kZmmState = 0xE6;
  return (xcr0_lo & kZmmState) == kZmmState;
}
#endif

const Sha256Kernel* resolve_active() noexcept {
  const char* env = std::getenv("EYW_SHA256_KERNEL");
  const std::string_view pref = env != nullptr ? env : "auto";
  if (pref == "portable") return &kPortable;
  const Sha256Kernel* avx512 = avx512_sha256_kernel();
  const Sha256Kernel* shani = shani_sha256_kernel();
  // A named backend the build or CPU lacks degrades to portable — the
  // override is a test knob, not a correctness switch, and portable is
  // always right.
  if (pref == "shani") return shani != nullptr ? shani : &kPortable;
  if (pref == "avx512") return avx512 != nullptr ? avx512 : &kPortable;
  if (avx512 != nullptr) return avx512;
  if (shani != nullptr) return shani;
  return &kPortable;
}

}  // namespace

const Sha256Kernel& portable_sha256_kernel() noexcept { return kPortable; }

bool cpu_supports_sha_ni() noexcept {
#if defined(EYW_X86_64)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned int kShaNi = 1u << 29;  // EBX bit 29
  return (ebx & kShaNi) != 0;
#else
  return false;
#endif
}

const Sha256Kernel* shani_sha256_kernel() noexcept {
#if defined(EYW_HAVE_SHANI_KERNEL)
  static const bool usable = cpu_supports_sha_ni();
  return usable ? &kShani : nullptr;
#else
  return nullptr;
#endif
}

const Sha256Kernel* avx512_sha256_kernel() noexcept {
#if defined(EYW_HAVE_AVX512_SHA256)
  // Single blocks go to the best one-block compression beside it.
  static const Sha256Kernel kernel{
      shani_sha256_kernel() != nullptr ? shani_sha256_kernel()->compress
                                       : portable_compress,
      detail::avx512_counter_words, "avx512"};
  static const bool usable = cpu_supports_avx512();
  return usable ? &kernel : nullptr;
#else
  return nullptr;
#endif
}

void sha256_counter_words(const Sha256Kernel& kernel,
                          const std::uint8_t block[64], std::size_t ctr_off,
                          std::uint64_t first, std::uint32_t* out,
                          std::size_t words) noexcept {
  // Below one batch the wide kernel would hash idle lanes.
  if (kernel.counter_words != nullptr && words >= 8 * kSha256CounterLanes) {
    kernel.counter_words(block, ctr_off, first, out, words);
    return;
  }
  // One single-block compression per counter, the state words copied out
  // as they are.
  std::uint8_t blk[64];
  std::memcpy(blk, block, sizeof(blk));
  for (std::uint64_t ctr = first; words > 0; ++ctr) {
    for (int i = 0; i < 8; ++i)
      blk[ctr_off + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(ctr >> (56 - 8 * i));
    std::uint32_t st[8];
    std::memcpy(st, kSha256Iv, sizeof(st));
    kernel.compress(st, blk, 1);
    const std::size_t take = std::min<std::size_t>(8, words);
    std::memcpy(out, st, take * sizeof(std::uint32_t));
    out += take;
    words -= take;
  }
}

const Sha256Kernel& active_sha256_kernel() noexcept {
  static const Sha256Kernel* chosen = resolve_active();
  return *chosen;
}

}  // namespace eyw::crypto
