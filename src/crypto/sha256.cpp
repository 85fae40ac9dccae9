#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernel.hpp"

namespace eyw::crypto {

namespace {

/// Longest seed whose counter-mode block (seed || counter || 0x80 ||
/// 64-bit length) fits one 64-byte message block.
constexpr std::size_t kMaxCounterSeed = 64 - 8 - 1 - 8;

/// The padded one-block message seed || counter || 0x80 || 0... ||
/// bit length, exactly what update()+finish() would build; the counter
/// bytes at `ctr_off` are the kernel's to fill.
struct CounterBlock {
  std::uint8_t bytes[64] = {0};
  std::size_t ctr_off = 0;

  explicit CounterBlock(std::span<const std::uint8_t> seed) noexcept
      : ctr_off(seed.size()) {
    std::memcpy(bytes, seed.data(), seed.size());
    bytes[ctr_off + 8] = 0x80;
    const std::uint64_t bit_len =
        (static_cast<std::uint64_t>(seed.size()) + 8) * 8;
    for (int i = 0; i < 8; ++i)
      bytes[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
};

}  // namespace

Sha256::Sha256() noexcept : h_(std::to_array(kSha256Iv)) {}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  active_sha256_kernel().compress(h_.data(), block, 1);
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  // All remaining full blocks in one kernel call (the multi-block form
  // exists for exactly this: long messages pay one dispatch, not one per
  // 64 bytes).
  if (const std::size_t full = (data.size() - off) / 64; full > 0) {
    active_sha256_kernel().compress(h_.data(), data.data() + off, full);
    off += full * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256& Sha256::update_u64(std::uint64_t v) noexcept {
  std::uint8_t be[8];
  for (int i = 0; i < 8; ++i)
    be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  return update(std::span<const std::uint8_t>(be, 8));
}

Digest Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  const std::uint8_t pad = 0x80;
  update(std::span<const std::uint8_t>(&pad, 1));
  const std::uint8_t zero = 0x00;
  while (buf_len_ != 56)
    update(std::span<const std::uint8_t>(&zero, 1));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  // Bypass update() for the length field so total_len_ bookkeeping (already
  // captured in bit_len) cannot recurse.
  std::memcpy(buf_.data() + 56, len_be, 8);
  process_block(buf_.data());

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 24);
    out[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 16);
    out[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(h_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) noexcept {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k.data(), key.data(), key.size());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad).update(message);
  const Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(opad).update(inner_digest);
  return outer.finish();
}

std::uint64_t digest_to_u64(const Digest& d) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

std::vector<std::uint8_t> sha256_expand(std::span<const std::uint8_t> seed,
                                        std::size_t len) {
  std::vector<std::uint8_t> out(len);
  sha256_expand_into(seed, out);
  return out;
}

void sha256_expand_into(std::span<const std::uint8_t> seed,
                        std::span<std::uint8_t> out) noexcept {
  // Hot path: seed || counter || padding fits a single message block, so
  // each output block is one raw compression of the prepared block from
  // the IV — no Sha256 object, no byte-at-a-time padding. Streams here are
  // short (an OPRF hash-to-group is 5 blocks), so each block takes the
  // counter-mode entry's one-block loop.
  if (seed.size() <= kMaxCounterSeed) {
    const CounterBlock blk(seed);
    const Sha256Kernel& kernel = active_sha256_kernel();
    for (std::size_t off = 0, counter = 0; off < out.size();
         off += 32, ++counter) {
      std::uint32_t st[8];
      sha256_counter_words(kernel, blk.bytes, blk.ctr_off, counter, st, 8);
      std::uint8_t digest[32];
      for (int i = 0; i < 8; ++i) {
        digest[4 * i] = static_cast<std::uint8_t>(st[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(st[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(st[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(st[i]);
      }
      std::memcpy(out.data() + off, digest,
                  std::min<std::size_t>(32, out.size() - off));
    }
    return;
  }
  std::uint64_t counter = 0;
  std::size_t off = 0;
  while (off < out.size()) {
    Sha256 h;
    h.update(seed);
    h.update_u64(counter++);
    const Digest d = h.finish();
    const std::size_t take = std::min<std::size_t>(d.size(), out.size() - off);
    std::memcpy(out.data() + off, d.data(), take);
    off += take;
  }
}

void sha256_expand_words(const Digest& seed, std::uint64_t first_block,
                         std::span<std::uint32_t> out) noexcept {
  const CounterBlock blk(seed);
  sha256_counter_words(active_sha256_kernel(), blk.bytes, blk.ctr_off,
                       first_block, out.data(), out.size());
}

}  // namespace eyw::crypto
