#include "proto/message.hpp"

#include <bit>
#include <cstring>

namespace eyw::proto {

namespace {

bool known_kind(std::uint16_t k) {
  return k >= static_cast<std::uint16_t>(MsgKind::kRosterAnnounce) &&
         k <= static_cast<std::uint16_t>(MsgKind::kHello);
}

bool known_version(std::uint16_t v) {
  return v == kProtoVersion || v == kProtoVersionMux;
}

void require_kind(const EnvelopeView& env, MsgKind want) {
  if (env.kind != want)
    throw ProtoError(ErrorCode::kUnknownKind,
                     std::string("decode: expected ") + to_string(want) +
                         ", got " + to_string(env.kind));
}

void require_kind(const Envelope& env, MsgKind want) {
  require_kind(as_view(env), want);
}

/// Shared body of the two element-vector messages (roster, OPRF batches):
///   element_bytes u32 | count u32 | count * element_bytes key material.
/// Elements are big-endian, zero-padded to element_bytes.
void put_elements(WireWriter& w, std::uint32_t element_bytes,
                  std::span<const crypto::Bignum> elements) {
  w.u32(element_bytes);
  w.u32(static_cast<std::uint32_t>(elements.size()));
  for (const crypto::Bignum& e : elements) {
    const auto bytes = e.to_bytes_be(element_bytes);
    w.bytes(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
}

std::vector<crypto::Bignum> get_elements(WireReader& r,
                                         std::uint32_t& element_bytes,
                                         std::size_t max_count,
                                         const char* what) {
  element_bytes = r.u32();
  const std::uint32_t count = r.u32();
  if (element_bytes == 0 || element_bytes > kMaxGroupElementBytes)
    throw ProtoError(ErrorCode::kOversized,
                     std::string(what) + ": bad element size");
  if (count > max_count)
    throw ProtoError(ErrorCode::kOversized,
                     std::string(what) + ": element count above cap");
  // Declared size must be backed by actual payload before any allocation
  // sized from it (count <= 2^20 and element_bytes <= 2^14, so the product
  // cannot overflow).
  if (static_cast<std::uint64_t>(count) * element_bytes > r.remaining())
    throw ProtoError(ErrorCode::kTruncated,
                     std::string(what) + ": declared elements exceed payload");
  std::vector<crypto::Bignum> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(crypto::Bignum::from_bytes_be(r.bytes(element_bytes)));
  return out;
}

/// Shared body of BlindedReport / Adjustment: participant u32 followed by a
/// complete sketch-layer 'EYWS' blinded-report frame. The sketch decoder's
/// std::invalid_argument surfaces as a proto kMalformed.
struct CellsBody {
  std::uint32_t participant = 0;
  sketch::CmsParams params;
  std::vector<std::uint32_t> cells;
};

/// An envelope header announcing a `payload_bytes` payload, in a buffer
/// reserved for the payload plus mux headroom: the mux write path can
/// splice in a stream id and a length prefix without reallocating
/// (mux_frame_with_prefix_inplace); the encoded bytes are unchanged.
WireWriter envelope_writer(MsgKind kind, std::uint32_t sender,
                           std::uint64_t round, std::size_t payload_bytes) {
  if (payload_bytes > kMaxPayloadBytes)
    throw ProtoError(ErrorCode::kOversized, "encode_envelope: payload too big");
  WireWriter w(kEnvelopeHeaderBytes + payload_bytes + kMuxHeadroomBytes);
  w.u32(kEnvelopeMagic);
  w.u16(kProtoVersion);
  w.u16(static_cast<std::uint16_t>(kind));
  w.u32(sender);
  w.u64(round);
  w.u32(static_cast<std::uint32_t>(payload_bytes));
  return w;
}

std::vector<std::uint8_t> encode_cells_body(MsgKind kind,
                                            std::uint32_t participant,
                                            std::uint64_t round,
                                            const sketch::CmsParams& params,
                                            std::span<const std::uint32_t> cells) {
  // One allocation per report: envelope, participant and the sketch frame
  // are written straight into the buffer that goes on the wire.
  WireWriter w = envelope_writer(kind, participant, round,
                                 4 + sketch::encoded_size(params));
  w.u32(participant);
  std::vector<std::uint8_t> out = w.take();
  sketch::append_blinded_report(out, params, round, cells);
  return out;
}

CellsBody decode_cells_body(const EnvelopeView& env, const char* what) {
  WireReader r(env.payload);
  CellsBody body;
  body.participant = r.u32();
  // The envelope sender is authoritative for routing (the sharded front
  // door checks it), so a payload claiming a different participant is
  // forged or corrupted — refuse it rather than letting the two layers
  // disagree about who reported.
  if (body.participant != env.sender)
    throw ProtoError(ErrorCode::kMalformed,
                     std::string(what) + ": participant != envelope sender");
  const auto frame_bytes = r.bytes(r.remaining());
  sketch::DecodedFrame frame;
  try {
    frame = sketch::decode_frame(frame_bytes);
  } catch (const std::invalid_argument& e) {
    throw ProtoError(ErrorCode::kMalformed,
                     std::string(what) + ": bad cell frame: " + e.what());
  }
  if (frame.kind != sketch::FrameKind::kBlindedReport)
    throw ProtoError(ErrorCode::kMalformed,
                     std::string(what) + ": embedded frame is not blinded");
  if (frame.round != env.round)
    throw ProtoError(ErrorCode::kMalformed,
                     std::string(what) + ": frame round != envelope round");
  body.params = frame.params;
  body.cells = std::move(frame.cells);
  return body;
}

}  // namespace

const char* to_string(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kRosterAnnounce: return "roster-announce";
    case MsgKind::kBlindedReport: return "blinded-report";
    case MsgKind::kAdjustmentRequest: return "adjustment-request";
    case MsgKind::kAdjustment: return "adjustment";
    case MsgKind::kThresholdBroadcast: return "threshold-broadcast";
    case MsgKind::kOprfEvalRequest: return "oprf-eval-request";
    case MsgKind::kOprfEvalResponse: return "oprf-eval-response";
    case MsgKind::kShardedSubmit: return "sharded-submit";
    case MsgKind::kAck: return "ack";
    case MsgKind::kError: return "error";
    case MsgKind::kBeginRound: return "begin-round";
    case MsgKind::kMissingQuery: return "missing-query";
    case MsgKind::kMissingList: return "missing-list";
    case MsgKind::kFinalizeRequest: return "finalize-request";
    case MsgKind::kRoundSummary: return "round-summary";
    case MsgKind::kOprfKeyQuery: return "oprf-key-query";
    case MsgKind::kOprfKeyAnswer: return "oprf-key-answer";
    case MsgKind::kHello: return "hello";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_envelope(
    MsgKind kind, std::uint32_t sender, std::uint64_t round,
    std::span<const std::uint8_t> payload) {
  WireWriter w = envelope_writer(kind, sender, round, payload.size());
  w.bytes(payload);
  return w.take();
}

EnvelopeView decode_envelope_view(std::span<const std::uint8_t> bytes) {
  WireReader r(bytes);
  if (r.u32() != kEnvelopeMagic)
    throw ProtoError(ErrorCode::kBadMagic, "decode_envelope: bad magic");
  const std::uint16_t version = r.u16();
  if (!known_version(version))
    throw ProtoError(ErrorCode::kBadVersion,
                     "decode_envelope: unsupported version");
  const std::uint16_t kind = r.u16();
  if (!known_kind(kind))
    throw ProtoError(ErrorCode::kUnknownKind,
                     "decode_envelope: unknown message kind");
  EnvelopeView env;
  env.kind = static_cast<MsgKind>(kind);
  env.sender = r.u32();
  env.round = r.u64();
  const std::uint32_t length = r.u32();
  if (length > kMaxPayloadBytes)
    throw ProtoError(ErrorCode::kOversized,
                     "decode_envelope: declared payload above cap");
  if (version == kProtoVersionMux) env.stream = r.u32();
  if (length != r.remaining()) {
    throw ProtoError(length > r.remaining() ? ErrorCode::kTruncated
                                            : ErrorCode::kTrailingBytes,
                     "decode_envelope: payload length mismatch");
  }
  env.payload = r.bytes(length);
  env.raw = bytes;
  return env;
}

Envelope decode_envelope(std::span<const std::uint8_t> bytes) {
  const EnvelopeView v = decode_envelope_view(bytes);
  Envelope env;
  env.kind = v.kind;
  env.sender = v.sender;
  env.round = v.round;
  env.stream = v.stream;
  env.payload.assign(v.payload.begin(), v.payload.end());
  return env;
}

std::optional<MsgKind> peek_kind(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < kEnvelopeHeaderBytes) return std::nullopt;
  const auto u16_at = [&](std::size_t off) {
    return static_cast<std::uint16_t>(frame[off] |
                                      (frame[off + 1] << 8));
  };
  const std::uint32_t magic =
      static_cast<std::uint32_t>(frame[0]) | (frame[1] << 8) |
      (frame[2] << 16) | (static_cast<std::uint32_t>(frame[3]) << 24);
  if (magic != kEnvelopeMagic || !known_version(u16_at(4)))
    return std::nullopt;
  const std::uint16_t kind = u16_at(6);
  if (!known_kind(kind)) return std::nullopt;
  return static_cast<MsgKind>(kind);
}

std::optional<std::uint32_t> peek_sender(
    std::span<const std::uint8_t> frame) noexcept {
  // Valid exactly when peek_kind is: same header, sender at offset 8
  // (both envelope versions — the stream id sits after the length field).
  if (!peek_kind(frame)) return std::nullopt;
  return static_cast<std::uint32_t>(frame[8]) | (frame[9] << 8) |
         (frame[10] << 16) | (static_cast<std::uint32_t>(frame[11]) << 24);
}

std::optional<std::uint32_t> peek_stream(
    std::span<const std::uint8_t> frame) noexcept {
  if (!peek_kind(frame)) return std::nullopt;
  const std::uint16_t version =
      static_cast<std::uint16_t>(frame[4] | (frame[5] << 8));
  if (version == kProtoVersion) return 0;  // legacy lane
  if (frame.size() < kMuxEnvelopeHeaderBytes) return std::nullopt;
  return static_cast<std::uint32_t>(frame[24]) | (frame[25] << 8) |
         (frame[26] << 16) | (static_cast<std::uint32_t>(frame[27]) << 24);
}

std::vector<std::uint8_t> add_stream(std::span<const std::uint8_t> frame,
                                     std::uint32_t stream) {
  if (frame.size() < kEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated, "add_stream: short frame");
  if (static_cast<std::uint16_t>(frame[4] | (frame[5] << 8)) != kProtoVersion)
    throw ProtoError(ErrorCode::kBadVersion,
                     "add_stream: input is not a version-1 frame");
  std::vector<std::uint8_t> out;
  out.reserve(frame.size() + 4);
  out.assign(frame.begin(), frame.begin() + kEnvelopeHeaderBytes);
  out[4] = static_cast<std::uint8_t>(kProtoVersionMux);
  out[5] = static_cast<std::uint8_t>(kProtoVersionMux >> 8);
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(stream >> (8 * i)));
  out.insert(out.end(), frame.begin() + kEnvelopeHeaderBytes, frame.end());
  return out;
}

StrippedFrame strip_stream(std::span<const std::uint8_t> frame) {
  if (frame.size() < kEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated, "strip_stream: short frame");
  const auto version =
      static_cast<std::uint16_t>(frame[4] | (frame[5] << 8));
  StrippedFrame out;
  if (version == kProtoVersion) {  // legacy frame on a mux connection
    out.frame.assign(frame.begin(), frame.end());
    return out;
  }
  if (version != kProtoVersionMux)
    throw ProtoError(ErrorCode::kBadVersion, "strip_stream: unknown version");
  if (frame.size() < kMuxEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated,
                     "strip_stream: header ends before the stream id");
  out.stream = static_cast<std::uint32_t>(frame[24]) | (frame[25] << 8) |
               (frame[26] << 16) |
               (static_cast<std::uint32_t>(frame[27]) << 24);
  out.frame.reserve(frame.size() - 4);
  out.frame.assign(frame.begin(), frame.begin() + kEnvelopeHeaderBytes);
  out.frame[4] = static_cast<std::uint8_t>(kProtoVersion);
  out.frame[5] = static_cast<std::uint8_t>(kProtoVersion >> 8);
  out.frame.insert(out.frame.end(), frame.begin() + kMuxEnvelopeHeaderBytes,
                   frame.end());
  return out;
}

namespace {

void require_v1_frame(const std::vector<std::uint8_t>& frame,
                      const char* what) {
  if (frame.size() < kEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated, std::string(what) + ": short frame");
  if (static_cast<std::uint16_t>(frame[4] | (frame[5] << 8)) != kProtoVersion)
    throw ProtoError(ErrorCode::kBadVersion,
                     std::string(what) + ": input is not a version-1 frame");
}

void put_u32_at(std::vector<std::uint8_t>& frame, std::size_t off,
                std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    frame[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

void add_stream_inplace(std::vector<std::uint8_t>& frame,
                        std::uint32_t stream) {
  require_v1_frame(frame, "add_stream");
  const std::size_t payload = frame.size() - kEnvelopeHeaderBytes;
  frame.resize(frame.size() + 4);
  std::memmove(frame.data() + kMuxEnvelopeHeaderBytes,
               frame.data() + kEnvelopeHeaderBytes, payload);
  frame[4] = static_cast<std::uint8_t>(kProtoVersionMux);
  frame[5] = static_cast<std::uint8_t>(kProtoVersionMux >> 8);
  put_u32_at(frame, kEnvelopeHeaderBytes, stream);
}

std::uint32_t strip_stream_inplace(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated, "strip_stream: short frame");
  const auto version = static_cast<std::uint16_t>(frame[4] | (frame[5] << 8));
  if (version == kProtoVersion) return 0;  // legacy frame on a mux connection
  if (version != kProtoVersionMux)
    throw ProtoError(ErrorCode::kBadVersion, "strip_stream: unknown version");
  if (frame.size() < kMuxEnvelopeHeaderBytes)
    throw ProtoError(ErrorCode::kTruncated,
                     "strip_stream: header ends before the stream id");
  const std::uint32_t stream =
      static_cast<std::uint32_t>(frame[24]) | (frame[25] << 8) |
      (frame[26] << 16) | (static_cast<std::uint32_t>(frame[27]) << 24);
  std::memmove(frame.data() + kEnvelopeHeaderBytes,
               frame.data() + kMuxEnvelopeHeaderBytes,
               frame.size() - kMuxEnvelopeHeaderBytes);
  frame.resize(frame.size() - 4);
  frame[4] = static_cast<std::uint8_t>(kProtoVersion);
  frame[5] = static_cast<std::uint8_t>(kProtoVersion >> 8);
  return stream;
}

void mux_frame_with_prefix_inplace(std::vector<std::uint8_t>& frame,
                                   std::uint32_t stream) {
  require_v1_frame(frame, "add_stream");
  // One back-to-front pass: payload up 8 (past prefix + stream slots),
  // header up 4 (past the prefix), then fill prefix, version and stream.
  const std::size_t payload = frame.size() - kEnvelopeHeaderBytes;
  const std::uint32_t framed_len =
      static_cast<std::uint32_t>(frame.size() + 4);  // v2 frame = v1 + stream
  frame.resize(frame.size() + kMuxHeadroomBytes);
  std::memmove(frame.data() + 4 + kMuxEnvelopeHeaderBytes,
               frame.data() + kEnvelopeHeaderBytes, payload);
  std::memmove(frame.data() + 4, frame.data(), kEnvelopeHeaderBytes);
  put_u32_at(frame, 0, framed_len);
  frame[4 + 4] = static_cast<std::uint8_t>(kProtoVersionMux);
  frame[4 + 5] = static_cast<std::uint8_t>(kProtoVersionMux >> 8);
  put_u32_at(frame, 4 + kEnvelopeHeaderBytes, stream);
}

// ------------------------------------------------------------ RosterAnnounce

std::vector<std::uint8_t> RosterAnnounce::encode(std::uint64_t round) const {
  WireWriter w(8 + public_keys.size() * element_bytes);
  put_elements(w, element_bytes, public_keys);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kRosterAnnounce, kServerSender, round,
                         payload);
}

RosterAnnounce RosterAnnounce::decode(const Envelope& env) {
  require_kind(env, MsgKind::kRosterAnnounce);
  WireReader r(env.payload);
  RosterAnnounce out;
  out.public_keys =
      get_elements(r, out.element_bytes, kMaxRosterKeys, "roster-announce");
  r.expect_done();
  return out;
}

// ------------------------------------------------------------- BlindedReport

std::vector<std::uint8_t> BlindedReport::encode(std::uint64_t round) const {
  return encode_cells_body(MsgKind::kBlindedReport, participant, round, params,
                           cells);
}

BlindedReport BlindedReport::decode(const EnvelopeView& env) {
  require_kind(env, MsgKind::kBlindedReport);
  auto body = decode_cells_body(env, "blinded-report");
  return {body.participant, body.params, std::move(body.cells)};
}

// --------------------------------------------------------- AdjustmentRequest

std::vector<std::uint8_t> AdjustmentRequest::encode(std::uint64_t round) const {
  WireWriter w(4 + missing.size() * 4);
  w.u32(static_cast<std::uint32_t>(missing.size()));
  for (const std::uint32_t m : missing) w.u32(m);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kAdjustmentRequest, kServerSender, round,
                         payload);
}

AdjustmentRequest AdjustmentRequest::decode(const Envelope& env) {
  require_kind(env, MsgKind::kAdjustmentRequest);
  WireReader r(env.payload);
  const std::uint32_t count = r.u32();
  if (count > kMaxMissing)
    throw ProtoError(ErrorCode::kOversized,
                     "adjustment-request: missing list above cap");
  if (static_cast<std::uint64_t>(count) * 4 > r.remaining())
    throw ProtoError(ErrorCode::kTruncated,
                     "adjustment-request: declared list exceeds payload");
  AdjustmentRequest out;
  out.missing.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.missing.push_back(r.u32());
  r.expect_done();
  return out;
}

// ---------------------------------------------------------------- Adjustment

std::vector<std::uint8_t> Adjustment::encode(std::uint64_t round) const {
  return encode_cells_body(MsgKind::kAdjustment, participant, round, params,
                           cells);
}

Adjustment Adjustment::decode(const EnvelopeView& env) {
  require_kind(env, MsgKind::kAdjustment);
  auto body = decode_cells_body(env, "adjustment");
  return {body.participant, body.params, std::move(body.cells)};
}

// -------------------------------------------------------- ThresholdBroadcast

std::vector<std::uint8_t> ThresholdBroadcast::encode(std::uint64_t round) const {
  WireWriter w(16);
  w.u64(std::bit_cast<std::uint64_t>(users_threshold));
  w.u32(reports);
  w.u32(roster);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kThresholdBroadcast, kServerSender, round,
                         payload);
}

ThresholdBroadcast ThresholdBroadcast::decode(const Envelope& env) {
  require_kind(env, MsgKind::kThresholdBroadcast);
  WireReader r(env.payload);
  ThresholdBroadcast out;
  out.users_threshold = std::bit_cast<double>(r.u64());
  out.reports = r.u32();
  out.roster = r.u32();
  r.expect_done();
  return out;
}

// ------------------------------------------------------------- OPRF messages

std::vector<std::uint8_t> OprfEvalRequest::encode(std::uint32_t sender) const {
  WireWriter w(8 + elements.size() * element_bytes);
  put_elements(w, element_bytes, elements);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kOprfEvalRequest, sender, /*round=*/0,
                         payload);
}

OprfEvalRequest OprfEvalRequest::decode(const EnvelopeView& env) {
  require_kind(env, MsgKind::kOprfEvalRequest);
  WireReader r(env.payload);
  OprfEvalRequest out;
  out.elements =
      get_elements(r, out.element_bytes, kMaxOprfBatch, "oprf-eval-request");
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> OprfEvalResponse::encode() const {
  WireWriter w(8 + elements.size() * element_bytes);
  put_elements(w, element_bytes, elements);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kOprfEvalResponse, kServerSender,
                         /*round=*/0, payload);
}

OprfEvalResponse OprfEvalResponse::decode(const Envelope& env) {
  require_kind(env, MsgKind::kOprfEvalResponse);
  WireReader r(env.payload);
  OprfEvalResponse out;
  out.elements =
      get_elements(r, out.element_bytes, kMaxOprfBatch, "oprf-eval-response");
  r.expect_done();
  return out;
}

// ------------------------------------------------------------- ShardedSubmit

std::vector<std::uint8_t> ShardedSubmit::encode(std::uint32_t sender,
                                                std::uint64_t round) const {
  WireWriter w(8 + inner.size());
  w.u32(shard);
  w.u32(static_cast<std::uint32_t>(inner.size()));
  w.bytes(std::span<const std::uint8_t>(inner.data(), inner.size()));
  const auto payload = w.take();
  return encode_envelope(MsgKind::kShardedSubmit, sender, round, payload);
}

ShardedSubmitView decode_sharded_view(const EnvelopeView& env) {
  require_kind(env, MsgKind::kShardedSubmit);
  WireReader r(env.payload);
  ShardedSubmitView out;
  out.shard = r.u32();
  const std::uint32_t inner_len = r.u32();
  if (inner_len != r.remaining())
    throw ProtoError(inner_len > r.remaining() ? ErrorCode::kTruncated
                                               : ErrorCode::kTrailingBytes,
                     "sharded-submit: inner length mismatch");
  out.inner = r.bytes(inner_len);
  return out;
}

ShardedSubmit ShardedSubmit::decode(const Envelope& env) {
  const ShardedSubmitView v = decode_sharded_view(as_view(env));
  ShardedSubmit out;
  out.shard = v.shard;
  out.inner.assign(v.inner.begin(), v.inner.end());
  return out;
}

// ------------------------------------------------------------ control plane

std::vector<std::uint8_t> BeginRound::encode(std::uint64_t round) const {
  WireWriter w(4);
  w.u32(roster);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kBeginRound, kServerSender, round, payload);
}

BeginRound BeginRound::decode(const EnvelopeView& env) {
  require_kind(env, MsgKind::kBeginRound);
  WireReader r(env.payload);
  BeginRound out;
  out.roster = r.u32();
  r.expect_done();
  // The declared roster sizes every per-participant structure the round
  // allocates (and the missing-list scan iterates it), so it is capped
  // like every other untrusted count — before the backend sees it.
  if (out.roster == 0)
    throw ProtoError(ErrorCode::kMalformed, "begin-round: empty roster");
  if (out.roster > kMaxRosterKeys)
    throw ProtoError(ErrorCode::kOversized,
                     "begin-round: roster above cap");
  return out;
}

std::vector<std::uint8_t> MissingList::encode(std::uint64_t round) const {
  WireWriter w(4 + missing.size() * 4);
  w.u32(static_cast<std::uint32_t>(missing.size()));
  for (const std::uint32_t m : missing) w.u32(m);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kMissingList, kServerSender, round, payload);
}

MissingList MissingList::decode(const Envelope& env) {
  require_kind(env, MsgKind::kMissingList);
  WireReader r(env.payload);
  const std::uint32_t count = r.u32();
  if (count > kMaxMissing)
    throw ProtoError(ErrorCode::kOversized,
                     "missing-list: list above cap");
  if (static_cast<std::uint64_t>(count) * 4 > r.remaining())
    throw ProtoError(ErrorCode::kTruncated,
                     "missing-list: declared list exceeds payload");
  MissingList out;
  out.missing.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.missing.push_back(r.u32());
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> RoundSummary::encode(std::uint64_t round) const {
  WireWriter w(20 + counts.size() * 8 + sketch_frame.size());
  w.u64(std::bit_cast<std::uint64_t>(users_threshold));
  w.u32(reports);
  w.u32(roster);
  w.u32(static_cast<std::uint32_t>(counts.size()));
  for (const double c : counts) w.u64(std::bit_cast<std::uint64_t>(c));
  w.bytes(std::span<const std::uint8_t>(sketch_frame.data(),
                                        sketch_frame.size()));
  const auto payload = w.take();
  return encode_envelope(MsgKind::kRoundSummary, kServerSender, round,
                         payload);
}

RoundSummary RoundSummary::decode(const Envelope& env) {
  require_kind(env, MsgKind::kRoundSummary);
  WireReader r(env.payload);
  RoundSummary out;
  out.users_threshold = std::bit_cast<double>(r.u64());
  out.reports = r.u32();
  out.roster = r.u32();
  const std::uint32_t count = r.u32();
  if (count > kMaxSummaryCounts)
    throw ProtoError(ErrorCode::kOversized,
                     "round-summary: distribution above cap");
  if (static_cast<std::uint64_t>(count) * 8 > r.remaining())
    throw ProtoError(ErrorCode::kTruncated,
                     "round-summary: declared distribution exceeds payload");
  out.counts.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out.counts.push_back(std::bit_cast<double>(r.u64()));
  // The rest is the aggregate 'EYWS' frame; the sketch decoder validates it
  // (geometry, cell-count cap) when the summary is turned into a result.
  const auto frame = r.bytes(r.remaining());
  out.sketch_frame.assign(frame.begin(), frame.end());
  return out;
}

std::vector<std::uint8_t> OprfKeyAnswer::encode() const {
  WireWriter w(8 + 2 * element_bytes);
  put_elements(w, element_bytes, std::vector<crypto::Bignum>{n, e});
  const auto payload = w.take();
  return encode_envelope(MsgKind::kOprfKeyAnswer, kServerSender, /*round=*/0,
                         payload);
}

OprfKeyAnswer OprfKeyAnswer::decode(const Envelope& env) {
  require_kind(env, MsgKind::kOprfKeyAnswer);
  WireReader r(env.payload);
  OprfKeyAnswer out;
  auto elements = get_elements(r, out.element_bytes, 2, "oprf-key-answer");
  if (elements.size() != 2)
    throw ProtoError(ErrorCode::kMalformed,
                     "oprf-key-answer: expected exactly N and e");
  r.expect_done();
  out.n = std::move(elements[0]);
  out.e = std::move(elements[1]);
  return out;
}

std::vector<std::uint8_t> Hello::encode(std::uint32_t sender) const {
  WireWriter w(4);
  w.u32(capabilities);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kHello, sender, /*round=*/0, payload);
}

Hello Hello::decode(const EnvelopeView& env) {
  require_kind(env, MsgKind::kHello);
  WireReader r(env.payload);
  Hello out;
  out.capabilities = r.u32();
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> encode_missing_query(std::uint64_t round) {
  return encode_envelope(MsgKind::kMissingQuery, kServerSender, round, {});
}

std::vector<std::uint8_t> encode_finalize_request(std::uint64_t round) {
  return encode_envelope(MsgKind::kFinalizeRequest, kServerSender, round, {});
}

std::vector<std::uint8_t> encode_oprf_key_query() {
  return encode_envelope(MsgKind::kOprfKeyQuery, /*sender=*/0, /*round=*/0,
                         {});
}

// -------------------------------------------------------------- Ack / Error

std::vector<std::uint8_t> encode_ack() {
  return encode_envelope(MsgKind::kAck, kServerSender, /*round=*/0, {});
}

std::vector<std::uint8_t> ErrorReply::encode() const {
  std::string clipped = detail;
  if (clipped.size() > kMaxErrorDetailBytes)
    clipped.resize(kMaxErrorDetailBytes);
  WireWriter w(8 + clipped.size());
  w.u16(static_cast<std::uint16_t>(code));
  w.u16(static_cast<std::uint16_t>(clipped.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(clipped.data()), clipped.size()));
  // The retry-after hint is a trailing optional: omitted when zero, so
  // every hintless Error reply stays byte-identical to the version-1
  // baseline (asserted by the old/new interop tests).
  if (retry_after_ms != 0) w.u32(retry_after_ms);
  const auto payload = w.take();
  return encode_envelope(MsgKind::kError, kServerSender, /*round=*/0, payload);
}

ErrorReply ErrorReply::decode(const Envelope& env) {
  require_kind(env, MsgKind::kError);
  WireReader r(env.payload);
  ErrorReply out;
  out.code = static_cast<ErrorCode>(r.u16());
  const std::uint16_t len = r.u16();
  const auto detail = r.bytes(len);
  out.detail.assign(detail.begin(), detail.end());
  if (r.remaining() == 4) out.retry_after_ms = r.u32();
  r.expect_done();
  return out;
}

Envelope expect_reply(std::span<const std::uint8_t> bytes, MsgKind expected) {
  Envelope env = decode_envelope(bytes);
  if (env.kind == MsgKind::kError) {
    const ErrorReply err = ErrorReply::decode(env);
    throw ProtoError(err.code, "peer replied " + std::string(to_string(err.code)) +
                                   ": " + err.detail);
  }
  if (env.kind != expected)
    throw ProtoError(ErrorCode::kUnknownKind,
                     std::string("expected ") + to_string(expected) + ", got " +
                         to_string(env.kind));
  return env;
}

}  // namespace eyw::proto
