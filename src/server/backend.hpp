// The back-end server (Section 5): collects blinded CMS reports, aggregates
// and unblinds them, estimates the #Users(a) counters over the enumerable
// ad-ID space, and derives the Users_th threshold that is distributed back
// to every client.
//
// RoundBackend is the abstract ingestion/finalization surface the round
// protocol talks to: BackendServer is the single-node implementation,
// server::BackendCluster (cluster.hpp) the sharded front door. The
// coordinator and the proto endpoints only see RoundBackend, so swapping a
// single server for an N-shard cluster changes no protocol code.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/global_view.hpp"
#include "crypto/blinding.hpp"
#include "sketch/count_min.hpp"
#include "util/thread_pool.hpp"

namespace eyw::server {

struct BackendConfig {
  sketch::CmsParams cms_params;
  std::uint64_t cms_hash_seed = 0;
  /// Over-estimated |A|: the server queries the aggregate for every id in
  /// [0, id_space) (Section 6.1).
  std::uint64_t id_space = 0;
  core::ThresholdRule users_rule = core::ThresholdRule::kMean;
};

/// The durable essence of an in-flight round: everything finalize (and
/// the duplicate/missing/adjustment-eligibility checks) needs, and
/// nothing more. Per-participant cell vectors are deliberately absent —
/// aggregation only ever observes their wrapping sum, so a snapshot
/// stores the blinded partial sum plus *who* contributed. The storage
/// layer serializes this as a checkpoint (storage/checkpoint.hpp) and a
/// crashed backend resumes from it bit-identical to an uninterrupted
/// run.
struct RoundSnapshot {
  std::uint64_t round = 0;
  std::size_t roster = 0;
  std::size_t bytes_received = 0;
  /// Geometry of base_cells (must match the backend's own config).
  sketch::CmsParams params;
  /// Blinded partial sum of every snapshotted report, adjustments
  /// applied. Empty means all-zero (a round with no submissions yet).
  std::vector<crypto::BlindCell> base_cells;
  /// Participants whose report / adjustment is folded into base_cells,
  /// sorted ascending.
  std::vector<std::uint32_t> reporters;
  std::vector<std::uint32_t> adjusters;
};

/// Everything the back-end derives from one reporting round.
struct RoundResult {
  sketch::CountMinSketch aggregate;
  core::UsersDistribution distribution;
  double users_threshold = 0.0;
  /// Reports received / roster size.
  std::size_t reports = 0;
  std::size_t roster = 0;
};

/// The ingestion + finalization API of "the back-end" as the round protocol
/// sees it, independent of whether one server or a shard cluster answers.
class RoundBackend {
 public:
  virtual ~RoundBackend() = default;

  [[nodiscard]] virtual const BackendConfig& config() const noexcept = 0;

  /// Begin a reporting round for a roster of `roster_size` clients.
  virtual void begin_round(std::uint64_t round, std::size_t roster_size) = 0;

  /// The round begin_round last opened (0 before any round). What the
  /// proto endpoint validates submission envelopes against: a stale or
  /// out-of-phase frame must never be aggregated into a different round
  /// than the one it was built for.
  [[nodiscard]] virtual std::uint64_t current_round() const noexcept = 0;

  /// Whether begin_round has opened a round (and no later round has
  /// superseded it). The proto endpoint uses this to refuse a replayed
  /// BeginRound for the round already open — re-beginning would silently
  /// wipe every accepted submission, so a byte-identical resubmission of
  /// the control frame must be kRejected, never re-applied. Aggregating
  /// backends override; pure proxies (RemoteBackend) keep the false
  /// default — the authoritative state lives on the other end.
  [[nodiscard]] virtual bool round_open() const noexcept { return false; }

  /// Accept one client's blinded report (cells must match CMS geometry).
  virtual void submit_report(std::size_t participant_index,
                             std::vector<crypto::BlindCell> blinded_cells) = 0;

  /// Indices that have not reported (the "missing" list of the
  /// fault-tolerance round).
  [[nodiscard]] virtual std::vector<std::size_t> missing_participants()
      const = 0;

  /// Accept one reporter's adjustment for the missing set.
  virtual void submit_adjustment(std::size_t participant_index,
                                 std::vector<crypto::BlindCell> adjustment) = 0;

  /// Submission variants carrying the already-validated wire bytes the
  /// cells were decoded from (the endpoint's view of the accepted frame).
  /// Plain aggregating backends ignore the bytes — these defaults just
  /// delegate — but a journaling decorator (DurableBackend) overrides
  /// them to persist the captured frame instead of re-encoding an
  /// identical one per submission. `frame` is only valid for the duration
  /// of the call (it aliases the dispatcher's pooled buffer); an empty
  /// span means "no capture available" and must behave exactly like the
  /// plain submit.
  virtual void submit_report_frame(std::size_t participant_index,
                                   std::vector<crypto::BlindCell> blinded_cells,
                                   std::span<const std::uint8_t> frame) {
    (void)frame;
    submit_report(participant_index, std::move(blinded_cells));
  }
  virtual void submit_adjustment_frame(
      std::size_t participant_index, std::vector<crypto::BlindCell> adjustment,
      std::span<const std::uint8_t> frame) {
    (void)frame;
    submit_adjustment(participant_index, std::move(adjustment));
  }

  /// Aggregate, cancel blindings (applying any adjustments), query the full
  /// id space, and compute the distribution + threshold. `pool` fans the
  /// id-space scan (nullptr = the process-wide shared pool).
  [[nodiscard]] virtual RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) = 0;

  /// Capture the current round's durable state (see RoundSnapshot). The
  /// aggregating backends implement this; backends that merely proxy
  /// (RemoteBackend) keep the throwing default — the state lives on the
  /// other end.
  [[nodiscard]] virtual RoundSnapshot snapshot_round() const {
    throw std::logic_error("snapshot_round: backend is not snapshottable");
  }

  /// Replace round state with `snapshot` (recovery's first step; journal
  /// replay then re-applies the submissions the snapshot does not cover
  /// through the normal submit path). Throws std::invalid_argument on a
  /// snapshot inconsistent with this backend's config.
  virtual void restore_round(const RoundSnapshot& snapshot) {
    (void)snapshot;
    throw std::logic_error("restore_round: backend is not restorable");
  }
};

/// Scan the (over-provisioned) id space of `aggregate` as batched row-major
/// sketch queries, fanned across `pool` in contiguous id chunks (each chunk
/// fills only its own output slice, so the scan is deterministic for any
/// thread count). Shared by the single server and the sharded cluster so
/// both finalize paths are the same code — identical results by
/// construction.
[[nodiscard]] std::vector<double> scan_users_counts(
    const sketch::CountMinSketch& aggregate, std::uint64_t id_space,
    util::ThreadPool& pool);

/// Shared tail of every finalize path (single server and cluster):
/// rebuild the aggregate sketch from fully unblinded cells, scan the id
/// space across `pool`, and derive the distribution + Users_th under
/// `config`'s rule. Keeping this in one place is what makes the cluster
/// identical to the single server by construction.
[[nodiscard]] RoundResult finalize_from_cells(
    const BackendConfig& config, std::span<const crypto::BlindCell> cells,
    std::size_t reports, std::size_t roster, util::ThreadPool& pool);

class BackendServer final : public RoundBackend {
 public:
  explicit BackendServer(BackendConfig config);

  [[nodiscard]] const BackendConfig& config() const noexcept override {
    return config_;
  }

  void begin_round(std::uint64_t round, std::size_t roster_size) override;

  [[nodiscard]] std::uint64_t current_round() const noexcept override {
    return round_;
  }

  [[nodiscard]] bool round_open() const noexcept override { return open_; }

  void submit_report(std::size_t participant_index,
                     std::vector<crypto::BlindCell> blinded_cells) override;

  [[nodiscard]] std::vector<std::size_t> missing_participants() const override;

  void submit_adjustment(std::size_t participant_index,
                         std::vector<crypto::BlindCell> adjustment) override;

  /// Whether clients are missing is answered from internal state (reports
  /// received vs roster size) — no missing list is recomputed or taken on
  /// trust.
  [[nodiscard]] RoundResult finalize_round(
      util::ThreadPool* pool = nullptr) override;

  [[nodiscard]] RoundSnapshot snapshot_round() const override;
  void restore_round(const RoundSnapshot& snapshot) override;

  /// This node's blinded partial sum: received reports summed cell-wise
  /// with its adjustments applied (on top of any restored snapshot base),
  /// no completeness checks and no scan. A cluster front door merges
  /// these across shards before unblinding makes sense; all-zero when the
  /// node received nothing this round.
  [[nodiscard]] std::vector<crypto::BlindCell> partial_aggregate() const;

  /// Reports received this round (live + restored).
  [[nodiscard]] std::size_t reports_received() const noexcept {
    return reporters_.size();
  }
  /// Whether `participant` has reported this round (O(log reports); the
  /// cluster's missing scan asks its routed shard instead of diffing
  /// full-roster missing lists).
  [[nodiscard]] bool has_report(std::size_t participant) const noexcept {
    return reporters_.contains(participant);
  }
  /// Adjustments received this round (live + restored).
  [[nodiscard]] std::size_t adjustments_received() const noexcept {
    return adjusters_.size();
  }

  /// Estimated #Users for one ad id, from the last finalized round.
  [[nodiscard]] std::optional<double> users_for(std::uint64_t ad_id) const;
  /// Users_th from the last finalized round.
  [[nodiscard]] std::optional<double> users_threshold() const;

  /// Payload bytes received this round (reports + adjustments, 4 B/cell —
  /// the cell vectors themselves, excluding envelope framing, which the
  /// transport layer accounts for).
  [[nodiscard]] std::size_t bytes_received() const noexcept {
    return bytes_received_;
  }

 private:
  BackendConfig config_;
  std::uint64_t round_ = 0;
  bool open_ = false;
  std::size_t roster_size_ = 0;
  /// Adds (report) or subtracts (adjustment) one submission's cells into
  /// the round's running sum.
  void fold(std::vector<crypto::BlindCell> cells, bool add);

  // The round as its blinded sum plus membership sets — the same shape as
  // RoundSnapshot, so a restored round and a live one are one state:
  // submissions are folded into cells_ on arrival (empty = all-zero) and
  // no per-participant vector is kept.
  std::vector<crypto::BlindCell> cells_;
  std::set<std::size_t> reporters_;
  std::set<std::size_t> adjusters_;
  std::size_t bytes_received_ = 0;
  std::optional<RoundResult> last_result_;
};

}  // namespace eyw::server
