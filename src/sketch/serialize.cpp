#include "sketch/serialize.hpp"

#include <stdexcept>

namespace eyw::sketch {

namespace {

constexpr std::uint32_t kMagic = 0x53575945;  // "EYWS" little-endian
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 4 + 4 + 8 + 8;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint16_t u16() { return static_cast<std::uint16_t>(u32_n(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u32_n(4)); }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }

 private:
  std::uint64_t u32_n(std::size_t n) {
    if (pos_ + n > bytes_.size())
      throw std::invalid_argument("decode_frame: truncated input");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void append(std::vector<std::uint8_t>& out, FrameKind kind,
            const CmsParams& params, std::uint64_t seed, std::uint64_t round,
            std::span<const std::uint32_t> cells) {
  if (cells.size() != params.cells())
    throw std::invalid_argument("encode: cell count does not match geometry");
  // Mirror the decode-side cap: a geometry no peer will accept should fail
  // here, at the party that configured it, not as remote Error replies.
  if (cells.size() > kMaxFrameCells)
    throw std::invalid_argument("encode: cell count above kMaxFrameCells");
  out.reserve(out.size() + encoded_size(params));
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  put_u16(out, static_cast<std::uint16_t>(kind));
  put_u32(out, static_cast<std::uint32_t>(params.depth));
  put_u32(out, static_cast<std::uint32_t>(params.width));
  put_u64(out, seed);
  put_u64(out, round);
  for (const std::uint32_t c : cells) put_u32(out, c);
}

}  // namespace

std::size_t encoded_size(const CmsParams& params) noexcept {
  return kHeaderBytes + params.cells() * 4;
}

std::vector<std::uint8_t> encode_sketch(const CountMinSketch& cms) {
  std::vector<std::uint8_t> out;
  append(out, FrameKind::kPlainSketch, cms.params(), cms.hash_seed(),
         /*round=*/0, cms.cells());
  return out;
}

std::vector<std::uint8_t> encode_blinded_report(
    const CmsParams& params, std::uint64_t round,
    std::span<const std::uint32_t> blinded_cells) {
  std::vector<std::uint8_t> out;
  append_blinded_report(out, params, round, blinded_cells);
  return out;
}

void append_blinded_report(std::vector<std::uint8_t>& out,
                           const CmsParams& params, std::uint64_t round,
                           std::span<const std::uint32_t> blinded_cells) {
  append(out, FrameKind::kBlindedReport, params, /*seed=*/0, round,
         blinded_cells);
}

DecodedFrame decode_frame(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u32() != kMagic) throw std::invalid_argument("decode_frame: bad magic");
  if (r.u16() != kVersion)
    throw std::invalid_argument("decode_frame: unsupported version");
  DecodedFrame frame;
  const std::uint16_t kind = r.u16();
  if (kind != static_cast<std::uint16_t>(FrameKind::kPlainSketch) &&
      kind != static_cast<std::uint16_t>(FrameKind::kBlindedReport))
    throw std::invalid_argument("decode_frame: unknown frame kind");
  frame.kind = static_cast<FrameKind>(kind);
  frame.params.depth = r.u32();
  frame.params.width = r.u32();
  frame.hash_seed = r.u64();
  frame.round = r.u64();
  if (frame.params.depth == 0 || frame.params.width == 0)
    throw std::invalid_argument("decode_frame: degenerate geometry");
  // Reject oversized geometry before the expected-size arithmetic: with
  // u32 dimensions, depth * width * 4 can wrap std::size_t and collide
  // with a small crafted input, which would then drive a huge allocation.
  if (frame.params.depth > kMaxFrameCells / frame.params.width)
    throw std::invalid_argument("decode_frame: cell count above cap");
  if (bytes.size() != kHeaderBytes + frame.params.cells() * 4)
    throw std::invalid_argument("decode_frame: payload size mismatch");
  frame.cells.reserve(frame.params.cells());
  for (std::size_t i = 0; i < frame.params.cells(); ++i)
    frame.cells.push_back(r.u32());
  return frame;
}

CountMinSketch sketch_from_frame(const DecodedFrame& frame) {
  if (frame.kind != FrameKind::kPlainSketch)
    throw std::invalid_argument(
        "sketch_from_frame: frame is not a plaintext sketch");
  return CountMinSketch::from_cells(frame.params, frame.hash_seed,
                                    frame.cells);
}

}  // namespace eyw::sketch
