// SHA-NI SHA-256 compression — the one translation unit compiled with
// -msha -msse4.1 (CMakeLists.txt). Never called unless CPUID reports the
// SHA extensions (sha256_kernel.cpp gates dispatch), so the intrinsics
// here cannot fault on older CPUs.
//
// The sha256rnds2 instruction runs two rounds per issue on the packed
// (ABEF, CDGH) state layout; sha256msg1/msg2 do the message-schedule
// sigma work four lanes at a time. One compression drops from ~64 scalar
// round bodies to 32 rnds2 issues — the counter-mode pad expansion in
// blinding goes roughly 5x faster, and the chaining math is the exact
// FIPS 180-4 recurrence, so digests are bit-identical to the portable
// loop.
#include "crypto/sha256_kernel.hpp"

#if defined(EYW_HAVE_SHANI_KERNEL)

#include <immintrin.h>

namespace eyw::crypto::detail {

void shani_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t count) {
  // Big-endian message words -> lane bytes.
  const __m128i kSwap = _mm_set_epi64x(
      static_cast<long long>(0x0c0d0e0f08090a0bULL),
      static_cast<long long>(0x0405060700010203ULL));

  // Repack a..h (two plain 4-word vectors) into the (ABEF, CDGH) layout
  // sha256rnds2 works on.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH

  while (count-- > 0) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;

    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kSwap);
    }

    // Sixteen 4-round groups. Group i consumes msg[i mod 4] (= W[4i..4i+3])
    // and, while more schedule is needed, rotates the next vector forward:
    //   W[4(i+1)..] = msg2( msg1(m[i+1], m[i+2]) + alignr(m[i], m[i+3], 4),
    //                       m[i] )
    // — the standard SHA-NI schedule recurrence, expressed once instead of
    // unrolled sixteen times.
    for (int i = 0; i < 16; ++i) {
      __m128i m = _mm_add_epi32(
          msg[i & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256K[4 * i])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, m);
      m = _mm_shuffle_epi32(m, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, m);
      if (i >= 3 && i < 15) {
        const __m128i carry =
            _mm_alignr_epi8(msg[i & 3], msg[(i + 3) & 3], 4);
        msg[(i + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(
                _mm_sha256msg1_epu32(msg[(i + 1) & 3], msg[(i + 2) & 3]),
                carry),
            msg[i & 3]);
      }
    }

    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
    blocks += 64;
  }

  // Back to the plain a..h word order.
  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);         // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);            // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

}  // namespace eyw::crypto::detail

#endif  // EYW_HAVE_SHANI_KERNEL
