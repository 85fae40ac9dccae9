// SHA-256 and HMAC-SHA256, implemented from scratch (FIPS 180-4 / RFC 2104).
//
// The privacy protocol uses SHA-256 as: the hash H(.) inside the Kursawe
// blinding-factor derivation, the hash-to-group and output hash G(.) of the
// RSA-based OPRF, and the PRF that maps OPRF outputs to ad identifiers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace eyw::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  Sha256& update(std::span<const std::uint8_t> data) noexcept;
  Sha256& update(std::string_view data) noexcept;
  /// Append a 64-bit integer in big-endian byte order (domain separation of
  /// counters, cell indices, round numbers).
  Sha256& update_u64(std::uint64_t v) noexcept;

  /// Finalize and return the digest. The object must not be reused after.
  [[nodiscard]] Digest finish() noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] Digest sha256(std::string_view data) noexcept;

/// HMAC-SHA256 (RFC 2104).
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message) noexcept;

/// First 8 bytes of a digest as a big-endian u64 (convenient PRF output).
[[nodiscard]] std::uint64_t digest_to_u64(const Digest& d) noexcept;

/// Arbitrary-length output via counter-mode expansion of SHA-256:
/// out = SHA256(seed||0) || SHA256(seed||1) || ... truncated to `len`.
[[nodiscard]] std::vector<std::uint8_t> sha256_expand(
    std::span<const std::uint8_t> seed, std::size_t len);

/// sha256_expand writing into caller-owned storage (allocation-free).
/// Fills out.size() bytes.
void sha256_expand_into(std::span<const std::uint8_t> seed,
                        std::span<std::uint8_t> out) noexcept;

/// The same stream, for a digest seed, as native-order 32-bit words:
/// out[k] is big-endian word 8 * first_block + k of sha256_expand(seed,
/// ...), i.e. state word k mod 8 of SHA256(seed || first_block + k / 8).
/// This is the blinding pads' form (one pad cell per word), with no byte
/// round trip.
void sha256_expand_words(const Digest& seed, std::uint64_t first_block,
                         std::span<std::uint32_t> out) noexcept;

}  // namespace eyw::crypto
