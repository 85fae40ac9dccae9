#include "crypto/blinding.hpp"

#include <algorithm>
#include <stdexcept>

#include "sketch/sketch_kernel.hpp"
#include "util/thread_pool.hpp"

namespace eyw::crypto {

BlindingParticipant::BlindingParticipant(
    const DhGroup& group, std::size_t index, DhKeyPair keypair,
    std::span<const Bignum> all_public_keys, util::ThreadPool* pool)
    : index_(index),
      pool_(pool != nullptr ? pool : &util::ThreadPool::shared()) {
  if (index >= all_public_keys.size())
    throw std::invalid_argument("BlindingParticipant: index out of roster");
  if (all_public_keys[index] != keypair.public_key)
    throw std::invalid_argument(
        "BlindingParticipant: roster disagrees with own public key");
  pair_keys_.resize(all_public_keys.size());
  // One Montgomery context for the whole roster; the per-peer modexps are
  // independent and fan out across cores (each writes only its own slot,
  // so the derived keys are identical to the serial loop's).
  const Montgomery mont_p(group.p);
  pool_->parallel_for(all_public_keys.size(), [&](std::size_t j) {
    if (j == index_) return;
    const Bignum secret =
        dh_shared_secret(mont_p, keypair.private_key, all_public_keys[j]);
    pair_keys_[j] = dh_secret_to_key(secret);
  });
}

void BlindingParticipant::fold_pads(std::span<const std::size_t> peers,
                                    std::size_t cells, std::uint64_t round,
                                    BlindCell* acc) const {
  // Each pad cell is one native-order state word of the counter-mode
  // stream, so the kernel's words fold straight into the accumulator —
  // a stack slice at a time, no per-peer pad or byte stream.
  constexpr std::size_t kSliceCells = 1024;
  BlindCell words[kSliceCells];
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  for (const std::size_t j : peers) {
    Sha256 h;
    h.update(std::span<const std::uint8_t>(pair_keys_[j].data(),
                                           pair_keys_[j].size()));
    h.update_u64(round);
    const Digest seed = h.finish();
    const auto fold = index_ > j ? kernel.add_cells : kernel.sub_cells;
    for (std::size_t off = 0; off < cells; off += kSliceCells) {
      const std::size_t n = std::min(kSliceCells, cells - off);
      sha256_expand_words(seed, off / 8, std::span<BlindCell>(words, n));
      fold(acc + off, words, n);
    }
  }
}

std::vector<BlindCell> BlindingParticipant::accumulate_pads(
    std::span<const std::size_t> peers, std::size_t cells,
    std::uint64_t round) const {
  // Pad expansion dominates (one SHA-256 stream per peer). A one-thread
  // pool folds every pad into the result directly; otherwise the peer
  // list splits into contiguous chunks, each with a private accumulator,
  // folded in order. Wrapping 32-bit adds make the result bit-identical
  // to the serial loop for any chunking.
  std::vector<BlindCell> out(cells, 0);
  if (peers.empty()) return out;
  if (pool_->size() == 1) {
    fold_pads(peers, cells, round, out.data());
    return out;
  }
  const std::size_t chunks = std::min(peers.size(), pool_->size() * 4);
  const std::size_t per_chunk = (peers.size() + chunks - 1) / chunks;
  std::vector<std::vector<BlindCell>> partial(chunks);
  pool_->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = std::min(peers.size(), c * per_chunk);
    const std::size_t end = std::min(peers.size(), begin + per_chunk);
    partial[c].assign(cells, 0);
    fold_pads(peers.subspan(begin, end - begin), cells, round,
              partial[c].data());
  });
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  for (const auto& acc : partial)
    kernel.add_cells(out.data(), acc.data(), cells);
  return out;
}

std::vector<BlindCell> BlindingParticipant::blinding_vector(
    std::size_t cells, std::uint64_t round) const {
  std::vector<std::size_t> peers;
  peers.reserve(pair_keys_.size() - 1);
  for (std::size_t j = 0; j < pair_keys_.size(); ++j) {
    if (j != index_) peers.push_back(j);
  }
  return accumulate_pads(peers, cells, round);
}

std::vector<BlindCell> BlindingParticipant::blind(
    std::span<const BlindCell> cells, std::uint64_t round) const {
  std::vector<BlindCell> out = blinding_vector(cells.size(), round);
  sketch::active_sketch_kernel().add_cells(out.data(), cells.data(),
                                           cells.size());
  return out;
}

std::vector<BlindCell> BlindingParticipant::adjustment_for_missing(
    std::size_t cells, std::uint64_t round,
    std::span<const std::size_t> missing) const {
  for (std::size_t j : missing) {
    if (j == index_)
      throw std::invalid_argument("adjustment_for_missing: self in missing set");
    if (j >= pair_keys_.size())
      throw std::invalid_argument("adjustment_for_missing: unknown participant");
  }
  return accumulate_pads(missing, cells, round);
}

std::vector<BlindCell> aggregate_blinded(
    std::span<const std::vector<BlindCell>> reports) {
  if (reports.empty()) return {};
  const std::size_t cells = reports.front().size();
  std::vector<BlindCell> out(cells, 0);
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  for (const auto& r : reports) {
    if (r.size() != cells)
      throw std::invalid_argument("aggregate_blinded: size mismatch");
    kernel.add_cells(out.data(), r.data(), cells);
  }
  return out;
}

void apply_adjustment(std::vector<BlindCell>& aggregate,
                      std::span<const BlindCell> adjustment) {
  if (aggregate.size() != adjustment.size())
    throw std::invalid_argument("apply_adjustment: size mismatch");
  sketch::active_sketch_kernel().sub_cells(aggregate.data(), adjustment.data(),
                                           aggregate.size());
}

std::size_t roster_bytes(const DhGroup& group, std::size_t participants) {
  if (participants == 0) return 0;
  return participants * group.element_bytes() +                // uploads
         participants * (participants - 1) * group.element_bytes();  // downloads
}

}  // namespace eyw::crypto
