// Runtime-dispatched SHA-256 compression kernels, mirroring the
// Montgomery (crypto/mont_kernel.hpp) and sketch-cell
// (sketch/sketch_kernel.hpp) arrangement: a portable scalar compression
// that is always available and always right, plus x86 SHA-NI and AVX-512
// implementations selected by CPUID at first use.
//
// Why the compression function specifically: the per-round blinding hot
// loop is counter-mode pad expansion — one SHA-256 compression per 32
// output bytes, tens of thousands of compressions per reporter per
// round (crypto/blinding.cpp). Everything above the compression (message
// scheduling of the padded block, digest byte order) is shared, so the
// kernels agree bit-for-bit by construction and finalize stays
// bit-identical whichever backend runs.
//
// Contract:
//   * `state` is the eight working variables a..h as uint32 words;
//     `blocks` points at `count` contiguous 64-byte message blocks.
//   * `compress` folds every block into `state` in order (the standard
//     Merkle–Damgård chaining). No alignment requirement on `blocks`.
//   * `counter_words` is a wide counter-mode expansion, set only by a
//     backend that has one (AVX-512; nullptr otherwise). It takes one
//     prepared message block (seed, an 8-byte big-endian counter at
//     `ctr_off`, FIPS padding; see sha256_expand_into) and, for k in
//     [0, words), writes out[k] = state word k mod 8 of the compression,
//     from the IV, of that block with counter first + k / 8. These are
//     the expansion stream's big-endian words in native order. The
//     counter bytes already in `block` are ignored; `ctr_off` <= 47; no
//     alignment requirement on `out`. Callers go through
//     sha256_counter_words, which runs the one-block loop otherwise.
//   * `EYW_SHA256_KERNEL=portable|shani|avx512|auto` overrides selection
//     (read once); requesting an unavailable backend degrades to
//     portable.
#pragma once

#include <cstddef>
#include <cstdint>

namespace eyw::crypto {

/// FIPS 180-4 round constants and initial hash value, shared by every
/// backend.
alignas(64) inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
inline constexpr std::uint32_t kSha256Iv[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

struct Sha256Kernel {
  void (*compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count);
  void (*counter_words)(const std::uint8_t block[64], std::size_t ctr_off,
                        std::uint64_t first, std::uint32_t* out,
                        std::size_t words);
  const char* name;  // "portable" | "shani" | "avx512"
};

/// Blocks per AVX-512 counter-mode batch (one per 32-bit lane). Shorter
/// expansions gain nothing from the wide kernel and stay on `compress`.
inline constexpr std::size_t kSha256CounterLanes = 16;

/// Counter-mode words (the `counter_words` contract) through `kernel`:
/// its wide `counter_words` for a batch or more, else one `compress` of
/// the prepared block per counter. Over the portable kernel this is the
/// differential oracle for the wide one.
void sha256_counter_words(const Sha256Kernel& kernel,
                          const std::uint8_t block[64], std::size_t ctr_off,
                          std::uint64_t first, std::uint32_t* out,
                          std::size_t words) noexcept;

/// The scalar FIPS 180-4 compression; always available, the differential
/// oracle for every other backend.
[[nodiscard]] const Sha256Kernel& portable_sha256_kernel() noexcept;

/// The SHA-NI kernel, or nullptr when not compiled in or the CPU lacks
/// the SHA extensions.
[[nodiscard]] const Sha256Kernel* shani_sha256_kernel() noexcept;

/// The 16-lane AVX-512 counter-mode kernel (its `compress` is SHA-NI's
/// when present, else portable), or nullptr when not compiled in, the
/// CPU lacks AVX-512F/VL, or the OS does not save ZMM/opmask state.
[[nodiscard]] const Sha256Kernel* avx512_sha256_kernel() noexcept;

/// CPUID leaf 7 SHA-extensions probe (false on non-x86 builds).
[[nodiscard]] bool cpu_supports_sha_ni() noexcept;

/// The kernel every Sha256 instance uses, chosen once per process:
/// AVX-512, else SHA-NI, else portable, unless EYW_SHA256_KERNEL says
/// otherwise.
[[nodiscard]] const Sha256Kernel& active_sha256_kernel() noexcept;

}  // namespace eyw::crypto
