#include "server/backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/message.hpp"
#include "sketch/serialize.hpp"
#include "sketch/sketch_kernel.hpp"
#include "util/thread_pool.hpp"

namespace eyw::server {

BackendServer::BackendServer(BackendConfig config) : config_(config) {
  if (config_.id_space == 0)
    throw std::invalid_argument("BackendServer: id_space == 0");
  if (config_.cms_params.cells() == 0)
    throw std::invalid_argument("BackendServer: empty CMS geometry");
  // A geometry that cannot travel as a report — above the sketch cell cap,
  // or whose encoded envelope payload (participant u32 + 'EYWS' frame)
  // would exceed the proto payload cap — is refused at configuration time
  // instead of as per-report Error frames mid-round. The short-circuit
  // keeps encoded_size() from overflowing on absurd dimensions.
  if (config_.cms_params.cells() > sketch::kMaxFrameCells ||
      4 + sketch::encoded_size(config_.cms_params) > proto::kMaxPayloadBytes)
    throw std::invalid_argument("BackendServer: geometry above wire caps");
}

void BackendServer::begin_round(std::uint64_t round, std::size_t roster_size) {
  round_ = round;
  open_ = true;
  roster_size_ = roster_size;
  cells_.clear();
  reporters_.clear();
  adjusters_.clear();
  bytes_received_ = 0;
}

void BackendServer::fold(std::vector<crypto::BlindCell> cells, bool add) {
  // Wrapping u32 addition commutes, so folding submissions as they arrive
  // is bit-identical to summing them at finalize in any order — and the
  // round holds one cell vector instead of one per submission.
  if (cells_.empty()) {
    if (add) {
      cells_ = std::move(cells);
      return;
    }
    cells_.assign(cells.size(), 0);
  }
  const sketch::SketchKernel& kernel = sketch::active_sketch_kernel();
  (add ? kernel.add_cells : kernel.sub_cells)(cells_.data(), cells.data(),
                                              cells_.size());
}

void BackendServer::submit_report(std::size_t participant_index,
                                  std::vector<crypto::BlindCell> blinded_cells) {
  if (participant_index >= roster_size_)
    throw std::invalid_argument("submit_report: index outside roster");
  if (blinded_cells.size() != config_.cms_params.cells())
    throw std::invalid_argument("submit_report: cell-count mismatch");
  // Duplicate refusal sees snapshot-restored reporters too (they are in
  // the same set): after a crash-recovery, a reporter whose pre-crash
  // submission survived in the checkpoint retrying its report is the
  // common case, not a corner one.
  if (!reporters_.insert(participant_index).second)
    throw std::invalid_argument("submit_report: duplicate report");
  fold(std::move(blinded_cells), /*add=*/true);
  bytes_received_ += config_.cms_params.bytes();
}

std::vector<std::size_t> BackendServer::missing_participants() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < roster_size_; ++i)
    if (!has_report(i)) out.push_back(i);
  return out;
}

void BackendServer::submit_adjustment(
    std::size_t participant_index, std::vector<crypto::BlindCell> adjustment) {
  if (!has_report(participant_index))
    throw std::invalid_argument(
        "submit_adjustment: adjustments come from reporters only");
  if (adjustment.size() != config_.cms_params.cells())
    throw std::invalid_argument("submit_adjustment: cell-count mismatch");
  if (!adjusters_.insert(participant_index).second)
    throw std::invalid_argument("submit_adjustment: duplicate adjustment");
  fold(std::move(adjustment), /*add=*/false);
  bytes_received_ += config_.cms_params.bytes();
}

std::vector<double> scan_users_counts(const sketch::CountMinSketch& aggregate,
                                      std::uint64_t id_space,
                                      util::ThreadPool& pool) {
  // Ids that correspond to no real ad mostly query to 0 and are dropped by
  // UsersDistribution::from_counts; hash collisions inside the CMS are why
  // the estimated threshold sits slightly above the actual one (Figure 2).
  std::vector<std::uint32_t> raw(id_space);
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t chunks = (id_space + kChunk - 1) / kChunk;
  pool.parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunk;
    const std::uint64_t end = std::min(id_space, begin + kChunk);
    aggregate.query_range(
        begin, end,
        std::span<std::uint32_t>(raw.data() + begin,
                                 static_cast<std::size_t>(end - begin)));
  });
  return {raw.begin(), raw.end()};
}

std::vector<crypto::BlindCell> BackendServer::partial_aggregate() const {
  return cells_.empty()
             ? std::vector<crypto::BlindCell>(config_.cms_params.cells(), 0)
             : cells_;
}

RoundResult finalize_from_cells(const BackendConfig& config,
                                std::span<const crypto::BlindCell> cells,
                                std::size_t reports, std::size_t roster,
                                util::ThreadPool& pool) {
  RoundResult result{
      .aggregate = sketch::CountMinSketch::from_cells(
          config.cms_params, config.cms_hash_seed, cells),
      .distribution = {},
      .users_threshold = 0.0,
      .reports = reports,
      .roster = roster,
  };
  const std::vector<double> counts =
      scan_users_counts(result.aggregate, config.id_space, pool);
  result.distribution = core::UsersDistribution::from_counts(counts);
  result.users_threshold = result.distribution.threshold(config.users_rule);
  return result;
}

RoundResult BackendServer::finalize_round(util::ThreadPool* pool) {
  if (pool == nullptr) pool = &util::ThreadPool::shared();
  const std::size_t reports = reports_received();
  const std::size_t adjustments = adjustments_received();
  if (reports == 0)
    throw std::logic_error("finalize_round: no reports received");
  if (reports != roster_size_ && adjustments != reports) {
    throw std::logic_error(
        "finalize_round: missing clients but not all adjustments received");
  }

  last_result_ = finalize_from_cells(config_, partial_aggregate(), reports,
                                     roster_size_, *pool);
  return *last_result_;
}

RoundSnapshot BackendServer::snapshot_round() const {
  RoundSnapshot snap;
  snap.round = round_;
  snap.roster = roster_size_;
  snap.bytes_received = bytes_received_;
  snap.params = config_.cms_params;
  snap.base_cells = partial_aggregate();
  snap.reporters.assign(reporters_.begin(), reporters_.end());
  snap.adjusters.assign(adjusters_.begin(), adjusters_.end());
  return snap;
}

void BackendServer::restore_round(const RoundSnapshot& snapshot) {
  if (snapshot.params != config_.cms_params)
    throw std::invalid_argument("restore_round: geometry != backend config");
  if (!snapshot.base_cells.empty() &&
      snapshot.base_cells.size() != config_.cms_params.cells())
    throw std::invalid_argument("restore_round: base-cell count mismatch");
  std::uint32_t prev = 0;
  bool first = true;
  for (const std::uint32_t p : snapshot.reporters) {
    if (p >= snapshot.roster || (!first && p <= prev))
      throw std::invalid_argument("restore_round: bad reporter set");
    prev = p;
    first = false;
  }
  std::set<std::size_t> reporters(snapshot.reporters.begin(),
                                  snapshot.reporters.end());
  for (const std::uint32_t p : snapshot.adjusters) {
    if (!reporters.contains(p))
      throw std::invalid_argument(
          "restore_round: adjuster outside the reporter set");
  }

  begin_round(snapshot.round, snapshot.roster);
  cells_ = snapshot.base_cells;
  reporters_ = std::move(reporters);
  adjusters_.insert(snapshot.adjusters.begin(), snapshot.adjusters.end());
  bytes_received_ = snapshot.bytes_received;
}

std::optional<double> BackendServer::users_for(std::uint64_t ad_id) const {
  if (!last_result_) return std::nullopt;
  return static_cast<double>(last_result_->aggregate.query(ad_id));
}

std::optional<double> BackendServer::users_threshold() const {
  if (!last_result_) return std::nullopt;
  return last_result_->users_threshold;
}

}  // namespace eyw::server
