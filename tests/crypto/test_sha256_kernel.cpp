// Differential suite for the SHA-256 kernels: the SHA-NI backend must
// agree bit-for-bit with the portable scalar compression on single
// blocks, multi-block chains, and through the public digest /
// counter-mode-expansion APIs; the AVX-512 counter-mode entry must agree
// with the portable one (a loop over the scalar compression). Each suite
// skips cleanly when its backend is not compiled in or the CPU lacks it —
// the portable kernel is the oracle.
#include "crypto/sha256_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace eyw::crypto {
namespace {

class Sha256KernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    shani_ = shani_sha256_kernel();
    if (shani_ == nullptr)
      GTEST_SKIP() << "SHA-NI kernel unavailable (not compiled in or CPU "
                      "lacks SHA extensions) — portable compression is the "
                      "only backend, nothing to differentiate";
  }

  const Sha256Kernel* shani_ = nullptr;
  const Sha256Kernel& portable_ = portable_sha256_kernel();
};

TEST_F(Sha256KernelDifferential, SingleBlockAgreesOnRandomInputs) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t block[64];
    for (std::uint8_t& b : block) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, block, 1);
    shani_->compress(got, block, 1);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "trial " << trial;
  }
}

TEST_F(Sha256KernelDifferential, MultiBlockChainingAgrees) {
  util::Rng rng(42);
  // Chained compressions over every count a bulk update() might issue,
  // including the empty call.
  for (const std::size_t blocks : {0u, 1u, 2u, 3u, 7u, 16u, 65u}) {
    std::vector<std::uint8_t> data(blocks * 64);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, data.data(), blocks);
    shani_->compress(got, data.data(), blocks);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << blocks << " blocks";
  }
}

TEST_F(Sha256KernelDifferential, UnalignedBlockPointersAgree) {
  util::Rng rng(43);
  std::vector<std::uint8_t> backing(64 * 3 + 16);
  for (std::uint8_t& b : backing) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t off = 0; off < 16; ++off) {
    std::uint32_t want[8], got[8];
    for (int i = 0; i < 8; ++i)
      want[i] = got[i] = static_cast<std::uint32_t>(rng.next());
    portable_.compress(want, backing.data() + off, 3);
    shani_->compress(got, backing.data() + off, 3);
    EXPECT_EQ(0, std::memcmp(want, got, sizeof(want))) << "offset " << off;
  }
}

class Sha256CounterDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    avx512_ = avx512_sha256_kernel();
    if (avx512_ == nullptr)
      GTEST_SKIP() << "AVX-512 kernel unavailable (not compiled in, CPU "
                      "lacks AVX-512F/VL, or OS does not save ZMM state)";
  }

  /// A prepared counter-mode block for a random `seed_len`-byte seed:
  /// seed, 8 counter bytes (left random — the kernels must ignore them),
  /// 0x80, zeros, 64-bit big-endian bit length.
  static std::array<std::uint8_t, 64> block_for(std::size_t seed_len,
                                                util::Rng& rng) {
    std::array<std::uint8_t, 64> block{};
    for (std::size_t i = 0; i < seed_len + 8; ++i)
      block[i] = static_cast<std::uint8_t>(rng.next());
    block[seed_len + 8] = 0x80;
    const std::uint64_t bits = (seed_len + 8) * 8;
    for (int i = 0; i < 8; ++i)
      block[56 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    return block;
  }

  const Sha256Kernel* avx512_ = nullptr;
  const Sha256Kernel& portable_ = portable_sha256_kernel();
};

TEST_F(Sha256CounterDifferential, AgreesAcrossCountersAndLengths) {
  util::Rng rng(45);
  // 2^32 - 3: lanes cross into the high counter word mid-batch.
  const std::uint64_t firsts[] = {0, 15, 16, (1ull << 32) - 3};
  // Seed lengths put the counter at every alignment, including the
  // blinding seed (32 bytes: counter = message words 8 and 9).
  for (const std::size_t seed_len : {0u, 5u, 31u, 32u, 47u}) {
    const auto block = block_for(seed_len, rng);
    for (const std::uint64_t first : firsts) {
      for (std::size_t blocks = 1; blocks <= 40; ++blocks) {
        for (const std::size_t words : {8 * blocks, 8 * blocks - 3}) {
          std::vector<std::uint32_t> want(words), got(words);
          sha256_counter_words(portable_, block.data(), seed_len, first,
                               want.data(), words);
          avx512_->counter_words(block.data(), seed_len, first, got.data(),
                                 words);
          EXPECT_EQ(want, got) << "seed " << seed_len << " first " << first
                               << " words " << words;
        }
      }
    }
  }
}

TEST_F(Sha256CounterDifferential, UnalignedOutputPointersAgree) {
  util::Rng rng(46);
  const auto block = block_for(32, rng);
  constexpr std::size_t kWords = 8 * 37;
  std::vector<std::uint32_t> want(kWords);
  sha256_counter_words(portable_, block.data(), 32, 7, want.data(), kWords);
  std::vector<std::uint32_t> backing(kWords + 16);
  for (std::size_t off = 0; off < 16; ++off) {
    std::fill(backing.begin(), backing.end(), 0xdeadbeefu);
    avx512_->counter_words(block.data(), 32, 7, backing.data() + off, kWords);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), backing.begin() + off))
        << "offset " << off;
    // Nothing written past the requested words.
    for (std::size_t k = off + kWords; k < backing.size(); ++k)
      EXPECT_EQ(backing[k], 0xdeadbeefu) << "offset " << off << " word " << k;
  }
}

// The word form of the expansion is the byte stream read big-endian, from
// any starting block, on whichever backend is active.
TEST(Sha256KernelGlue, ExpandWordsMatchesByteStream) {
  util::Rng rng(47);
  std::array<std::uint8_t, 32> seed;
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  const auto bytes = sha256_expand(seed, 4 * 8 * 300);
  for (const std::uint64_t first : {0u, 1u, 17u, 100u}) {
    for (const std::size_t words : {1u, 8u, 127u, 128u, 129u, 1031u}) {
      if (8 * first + words > bytes.size() / 4) continue;
      std::vector<std::uint32_t> got(words);
      sha256_expand_words(seed, first, got);
      for (std::size_t k = 0; k < words; ++k) {
        const std::size_t b = 4 * (8 * first + k);
        const std::uint32_t want =
            (static_cast<std::uint32_t>(bytes[b]) << 24) |
            (static_cast<std::uint32_t>(bytes[b + 1]) << 16) |
            (static_cast<std::uint32_t>(bytes[b + 2]) << 8) |
            static_cast<std::uint32_t>(bytes[b + 3]);
        ASSERT_EQ(got[k], want)
            << "first " << first << " words " << words << " k " << k;
      }
    }
  }
}

// The known-answer vectors guard the glue above the kernel (padding,
// digest byte order) — whichever backend is active must still be SHA-256.
TEST(Sha256KernelGlue, FipsVectorsHoldOnActiveKernel) {
  const Digest empty = sha256(std::string_view(""));
  const char* want_empty =
      "\xe3\xb0\xc4\x42\x98\xfc\x1c\x14\x9a\xfb\xf4\xc8\x99\x6f\xb9\x24"
      "\x27\xae\x41\xe4\x64\x9b\x93\x4c\xa4\x95\x99\x1b\x78\x52\xb8\x55";
  EXPECT_EQ(0, std::memcmp(empty.data(), want_empty, 32));

  const Digest abc = sha256(std::string_view("abc"));
  const char* want_abc =
      "\xba\x78\x16\xbf\x8f\x01\xcf\xea\x41\x41\x40\xde\x5d\xae\x22\x23"
      "\xb0\x03\x61\xa3\x96\x17\x7a\x9c\xb4\x10\xff\x61\xf2\x00\x15\xad";
  EXPECT_EQ(0, std::memcmp(abc.data(), want_abc, 32));

  // Two-block message (56 bytes forces the length into a second block).
  const Digest two = sha256(std::string_view(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  const char* want_two =
      "\x24\x8d\x6a\x61\xd2\x06\x38\xb8\xe5\xc0\x26\x93\x0c\x3e\x60\x39"
      "\xa3\x3c\xe4\x59\x64\xff\x21\x67\xf6\xec\xed\xd4\x19\xdb\x06\xc1";
  EXPECT_EQ(0, std::memcmp(two.data(), want_two, 32));
}

// The expansion fast path (prepared padded block, raw compressions from
// the IV) must produce exactly the incremental-API stream for every
// length split, including non-multiple-of-32 tails.
TEST(Sha256KernelGlue, ExpandFastPathMatchesIncrementalReference) {
  util::Rng rng(44);
  std::array<std::uint8_t, 32> seed;
  for (std::uint8_t& b : seed) b = static_cast<std::uint8_t>(rng.next());
  for (const std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u, 4096u}) {
    std::vector<std::uint8_t> fast(len);
    sha256_expand_into(seed, fast);
    std::vector<std::uint8_t> want(len);
    std::uint64_t counter = 0;
    std::size_t off = 0;
    while (off < want.size()) {
      Sha256 h;
      h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
      h.update_u64(counter++);
      const Digest d = h.finish();
      const std::size_t take = std::min<std::size_t>(32, want.size() - off);
      std::memcpy(want.data() + off, d.data(), take);
      off += take;
    }
    EXPECT_EQ(fast, want) << "len " << len;
  }
}

TEST(Sha256KernelSelection, ActiveKernelRespectsEnvOverride) {
  const Sha256Kernel& active = active_sha256_kernel();
  const std::string_view name = active.name;
  const char* env = ::getenv("EYW_SHA256_KERNEL");
  const std::string_view pref = env != nullptr ? env : "auto";
  if (pref == "portable") {
    EXPECT_EQ(name, "portable");
  } else if (pref == "shani" || pref == "avx512") {
    EXPECT_TRUE(name == pref || name == "portable");  // unavailable: portable
  } else {
    EXPECT_TRUE(name == "portable" || name == "shani" || name == "avx512");
  }
  if (name == "shani") {
    EXPECT_NE(shani_sha256_kernel(), nullptr);
  }
  if (name == "avx512") {
    EXPECT_NE(avx512_sha256_kernel(), nullptr);
  }
  // Automatic selection picks the widest backend the host has.
  if (pref == "auto" && avx512_sha256_kernel() != nullptr) {
    EXPECT_EQ(name, "avx512");
  }
}

}  // namespace
}  // namespace eyw::crypto
