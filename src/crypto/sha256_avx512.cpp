// 16-lane AVX-512 counter-mode SHA-256 — the one translation unit
// compiled with -mavx512f -mavx512vl (CMakeLists.txt). Never called
// unless CPUID and XCR0 report usable AVX-512 (sha256_kernel.cpp gates
// dispatch), so nothing here can fault on older CPUs or kernels.
//
// Counter-mode pad blocks are independent and differ only in the counter
// bytes, so each 32-bit lane runs one whole compression: lane l hashes
// counter first + l. Message words before the counter are the same in
// every lane, so the rounds that consume only them run once, scalar, and
// the lanes start from the broadcast result. The round functions map onto
// vprord and vpternlogd (Σ/σ are three-way XORs, Ch and Maj one
// ternary-logic op each), and the per-lane states are transposed back to
// the per-block word order the expansion stream uses. Same FIPS 180-4
// recurrence as the portable loop, so the words are bit-identical.
//
// Kept apart from the SHA-NI unit on purpose: sha256rnds2 is a
// legacy-SSE encoding, and wide-vector code in the same function would
// pay the AVX/SSE transition penalty on every switch (a blind measured
// ~100x slower). Here the compiler's vzeroupper at function exit keeps
// the upper state clean for the callers' SSE code.
#include "crypto/sha256_kernel.hpp"

#if defined(EYW_HAVE_AVX512_SHA256)

// GCC 12's AVX-512 intrinsics pass a self-initialized "undefined" vector
// as the unused merge source, which -Wuninitialized then reports inside
// every caller (a header false positive); no value here is read
// uninitialized.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#include <cstring>

namespace eyw::crypto::detail {
namespace {

constexpr std::size_t kLanes = kSha256CounterLanes;

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

template <int N>
__m512i vrotr(__m512i x) noexcept {
  return _mm512_ror_epi32(x, N);
}

__m512i xor3(__m512i a, __m512i b, __m512i c) noexcept {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

struct Lanes {
  __m512i a, b, c, d, e, f, g, h;
};

/// One round in every lane; `w` is the message word W[t].
inline void sha_round(Lanes& s, __m512i w, std::uint32_t k) noexcept {
  const __m512i big_s1 =
      xor3(vrotr<6>(s.e), vrotr<11>(s.e), vrotr<25>(s.e));
  const __m512i ch = _mm512_ternarylogic_epi32(s.e, s.f, s.g, 0xCA);
  const __m512i t1 = _mm512_add_epi32(
      _mm512_add_epi32(s.h, big_s1),
      _mm512_add_epi32(ch, _mm512_add_epi32(w, _mm512_set1_epi32(
                                                   static_cast<int>(k)))));
  const __m512i big_s0 =
      xor3(vrotr<2>(s.a), vrotr<13>(s.a), vrotr<22>(s.a));
  const __m512i maj = _mm512_ternarylogic_epi32(s.a, s.b, s.c, 0xE8);
  s.h = s.g;
  s.g = s.f;
  s.f = s.e;
  s.e = _mm512_add_epi32(s.d, t1);
  s.d = s.c;
  s.c = s.b;
  s.b = s.a;
  s.a = _mm512_add_epi32(t1, _mm512_add_epi32(big_s0, maj));
}

/// W[t] for t >= 16 from the rolling 16-word window.
inline __m512i schedule(const __m512i w[16], int t) noexcept {
  const __m512i w15 = w[(t - 15) & 15];
  const __m512i w2 = w[(t - 2) & 15];
  const __m512i s0 = xor3(vrotr<7>(w15), vrotr<18>(w15),
                          _mm512_srli_epi32(w15, 3));
  const __m512i s1 = xor3(vrotr<17>(w2), vrotr<19>(w2),
                          _mm512_srli_epi32(w2, 10));
  return _mm512_add_epi32(
      _mm512_add_epi32(w[t & 15], s0),
      _mm512_add_epi32(w[(t - 7) & 15], s1));
}

/// Stores the 8 x 16 state (word-major) as 16 consecutive 8-word blocks.
inline void store_transposed(const __m512i s[8], std::uint32_t* out) noexcept {
  // Within each 128-bit chunk c: 32-bit then 64-bit interleaves leave
  // u[k] = lane 4c+k words 0..3 and u[4+k] = lane 4c+k words 4..7.
  __m512i t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm512_unpacklo_epi32(s[i], s[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(s[i], s[i + 1]);
  }
  __m512i u[8];
  for (int q = 0; q < 8; q += 4) {
    u[q] = _mm512_unpacklo_epi64(t[q], t[q + 2]);
    u[q + 1] = _mm512_unpackhi_epi64(t[q], t[q + 2]);
    u[q + 2] = _mm512_unpacklo_epi64(t[q + 1], t[q + 3]);
    u[q + 3] = _mm512_unpackhi_epi64(t[q + 1], t[q + 3]);
  }
  // Then 128-bit chunk shuffles: x[k] holds lane k's and lane 4+k's
  // halves, y[k] lane 8+k's and lane 12+k's; output vector j is lanes
  // 2j and 2j+1, both halves each.
  __m512i x[4], y[4];
  for (int k = 0; k < 4; ++k) {
    x[k] = _mm512_shuffle_i32x4(u[k], u[k + 4], 0x44);
    y[k] = _mm512_shuffle_i32x4(u[k], u[k + 4], 0xEE);
  }
  for (int j = 0; j < 8; ++j) {
    const __m512i* src = j < 4 ? x : y;
    const int k = 2 * (j & 1);
    const __m512i v =
        (j & 2) == 0 ? _mm512_shuffle_i32x4(src[k], src[k + 1], 0x88)
                     : _mm512_shuffle_i32x4(src[k], src[k + 1], 0xDD);
    _mm512_storeu_si512(out + 16 * j, v);
  }
}

}  // namespace

void avx512_counter_words(const std::uint8_t block[64], std::size_t ctr_off,
                          std::uint64_t first, std::uint32_t* out,
                          std::size_t words) {
  // Only message words [lo, hi] hold counter bytes.
  const std::size_t lo = ctr_off / 4;
  const std::size_t hi = (ctr_off + 7) / 4;
  std::uint8_t lane_block[64];
  std::memcpy(lane_block, block, sizeof(lane_block));
  std::uint32_t base[16];
  for (std::size_t i = 0; i < 16; ++i) base[i] = load_be32(block + 4 * i);

  // Rounds 0..lo-1 read lane-invariant words: run them once.
  std::uint32_t pre[8];
  std::memcpy(pre, kSha256Iv, sizeof(pre));
  for (std::size_t t = 0; t < lo; ++t) {
    const std::uint32_t s1 = rotr(pre[4], 6) ^ rotr(pre[4], 11) ^ rotr(pre[4], 25);
    const std::uint32_t ch = (pre[4] & pre[5]) ^ (~pre[4] & pre[6]);
    const std::uint32_t t1 = pre[7] + s1 + ch + kSha256K[t] + base[t];
    const std::uint32_t s0 = rotr(pre[0], 2) ^ rotr(pre[0], 13) ^ rotr(pre[0], 22);
    const std::uint32_t maj =
        (pre[0] & pre[1]) ^ (pre[0] & pre[2]) ^ (pre[1] & pre[2]);
    for (std::size_t i = 7; i > 0; --i) pre[i] = pre[i - 1];
    pre[4] += t1;
    pre[0] = t1 + s0 + maj;
  }
  const auto bcast = [](std::uint32_t v) {
    return _mm512_set1_epi32(static_cast<int>(v));
  };
  const Lanes start{bcast(pre[0]), bcast(pre[1]), bcast(pre[2]),
                    bcast(pre[3]), bcast(pre[4]), bcast(pre[5]),
                    bcast(pre[6]), bcast(pre[7])};

  alignas(64) std::uint32_t lane_words[3][kLanes];
  alignas(64) std::uint32_t tail[8 * kLanes];
  for (std::uint64_t ctr = first;; ctr += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t c = ctr + l;
      for (int i = 0; i < 8; ++i)
        lane_block[ctr_off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(c >> (56 - 8 * i));
      for (std::size_t i = lo; i <= hi; ++i)
        lane_words[i - lo][l] = load_be32(lane_block + 4 * i);
    }
    __m512i w[16];
    for (std::size_t i = 0; i < 16; ++i)
      w[i] = i >= lo && i <= hi
                 ? _mm512_load_si512(lane_words[i - lo])
                 : bcast(base[i]);

    Lanes s = start;
    for (std::size_t t = lo; t < 16; ++t) sha_round(s, w[t], kSha256K[t]);
#pragma GCC unroll 48
    for (int t = 16; t < 64; ++t) {
      w[t & 15] = schedule(w, t);
      sha_round(s, w[t & 15], kSha256K[t]);
    }
    const __m512i state[8] = {
        _mm512_add_epi32(s.a, bcast(kSha256Iv[0])),
        _mm512_add_epi32(s.b, bcast(kSha256Iv[1])),
        _mm512_add_epi32(s.c, bcast(kSha256Iv[2])),
        _mm512_add_epi32(s.d, bcast(kSha256Iv[3])),
        _mm512_add_epi32(s.e, bcast(kSha256Iv[4])),
        _mm512_add_epi32(s.f, bcast(kSha256Iv[5])),
        _mm512_add_epi32(s.g, bcast(kSha256Iv[6])),
        _mm512_add_epi32(s.h, bcast(kSha256Iv[7]))};

    if (words >= 8 * kLanes) {
      store_transposed(state, out);
      out += 8 * kLanes;
      words -= 8 * kLanes;
      if (words == 0) return;
    } else {
      store_transposed(state, tail);
      std::memcpy(out, tail, words * sizeof(std::uint32_t));
      return;
    }
  }
}

}  // namespace eyw::crypto::detail

#endif  // EYW_HAVE_AVX512_SHA256
