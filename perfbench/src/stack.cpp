#include "stack.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

namespace perfbench {

namespace server = eyw::server;
namespace proto = eyw::proto;

server::BackendConfig bench_config() {
  return {.cms_params = {.depth = 4, .width = 256},
          .cms_hash_seed = 3,
          .id_space = 10'000,
          .users_rule = eyw::core::ThresholdRule::kMean};
}

std::uint64_t submission_request_id(proto::MsgKind kind, std::uint64_t round,
                                    std::uint32_t participant) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         ((round & 0xffffffffULL) << 24) | (participant & 0xffffffULL);
}

/// Pass-through RoundBackend that times one submit path and finalize.
/// Every other call forwards untouched, so the decorated chain produces
/// the same bits as the plain one.
class Stack::TimedBackend final : public server::RoundBackend {
 public:
  TimedBackend(server::RoundBackend& inner, Tracer& tracer, SpanName submit,
               SpanName finalize)
      : inner_(inner), tracer_(tracer), submit_(submit), finalize_(finalize) {}

  const server::BackendConfig& config() const noexcept override {
    return inner_.config();
  }
  void begin_round(std::uint64_t round, std::size_t roster) override {
    inner_.begin_round(round, roster);
  }
  std::uint64_t current_round() const noexcept override {
    return inner_.current_round();
  }
  bool round_open() const noexcept override { return inner_.round_open(); }
  void submit_report(std::size_t participant,
                     std::vector<eyw::crypto::BlindCell> cells) override {
    ScopedSpan span(&tracer_, submit_);
    inner_.submit_report(participant, std::move(cells));
  }
  void submit_report_frame(std::size_t participant,
                           std::vector<eyw::crypto::BlindCell> cells,
                           std::span<const std::uint8_t> frame) override {
    ScopedSpan span(&tracer_, submit_);
    inner_.submit_report_frame(participant, std::move(cells), frame);
  }
  std::vector<std::size_t> missing_participants() const override {
    return inner_.missing_participants();
  }
  void submit_adjustment(std::size_t participant,
                         std::vector<eyw::crypto::BlindCell> cells) override {
    inner_.submit_adjustment(participant, std::move(cells));
  }
  void submit_adjustment_frame(std::size_t participant,
                               std::vector<eyw::crypto::BlindCell> cells,
                               std::span<const std::uint8_t> frame) override {
    inner_.submit_adjustment_frame(participant, std::move(cells), frame);
  }
  server::RoundResult finalize_round(eyw::util::ThreadPool* pool) override {
    if (finalize_ == SpanName::kCount) return inner_.finalize_round(pool);
    ScopedSpan span(&tracer_, finalize_);
    return inner_.finalize_round(pool);
  }
  server::RoundSnapshot snapshot_round() const override {
    return inner_.snapshot_round();
  }
  void restore_round(const server::RoundSnapshot& snapshot) override {
    inner_.restore_round(snapshot);
  }

 private:
  server::RoundBackend& inner_;
  Tracer& tracer_;
  SpanName submit_;
  SpanName finalize_;
};

Stack::Stack(StackOptions options)
    : options_(std::move(options)),
      tracer_(options_.tracer),
      oprf_rng_(kOprfKeySeed),
      oprf_(oprf_rng_, 1024),
      cluster_(bench_config(), /*shards=*/2) {
  // A journal left by a killed run would be recovered into this stack.
  std::filesystem::remove_all(options_.journal_dir);
  server::RoundBackend* inner = &cluster_;
  if (tracer_ != nullptr) {
    apply_timer_ = std::make_unique<TimedBackend>(
        cluster_, *tracer_, SpanName::kSketchApply, SpanName::kFinalizeScan);
    inner = apply_timer_.get();
  }
  server::DurabilityConfig durability;
  durability.dir = options_.journal_dir;
  durable_ = std::make_unique<server::DurableBackend>(*inner, durability);
  server::RoundBackend* front = durable_.get();
  if (tracer_ != nullptr) {
    journal_timer_ = std::make_unique<TimedBackend>(
        *durable_, *tracer_, SpanName::kJournalSubmit, SpanName::kCount);
    front = journal_timer_.get();
  }
  backend_ep_ = std::make_unique<server::BackendEndpoint>(
      *front, &cluster_, /*serve_control=*/true);

  proto::FrameHandler handler =
      [this](std::span<const std::uint8_t> frame) { return route(frame); };
  if (tracer_ != nullptr)
    handler = [this](std::span<const std::uint8_t> frame) {
      return traced_handle(frame);
    };
  dispatcher_ = std::make_unique<server::AsyncDispatcher>(
      std::move(handler), cluster_.shard_count(),
      server::cluster_lane_router(cluster_), server::control_plane_barrier(),
      server::DispatcherLimits{.counters = &backend_ep_->counters()});

  proto::AsyncFrameHandler async_handler = dispatcher_->handler();
  if (tracer_ != nullptr)
    async_handler = [this](std::vector<std::uint8_t> frame,
                           proto::CompletionFn done) {
      traced_submit(std::move(frame), std::move(done));
    };
  server_ = std::make_unique<proto::FrameServer>(
      std::move(async_handler),
      proto::FrameServerOptions{
          .port = 0,
          .backlog = static_cast<int>(
              std::max<std::size_t>(256, options_.max_connections)),
          .max_connections = options_.max_connections});
  dispatcher_->set_frame_recycler(server_->frame_recycler());

  if (tracer_ != nullptr)
    sampler_ = std::thread([this] {
      while (!sampler_stop_.load(std::memory_order_relaxed)) {
        const std::uint64_t depth = dispatcher_->pending();
        if (depth > lane_depth_max_.load(std::memory_order_relaxed))
          lane_depth_max_.store(depth, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
}

Stack::~Stack() { stop(); }

void Stack::stop() {
  if (stopped_) return;
  stopped_ = true;
  sampler_stop_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
  server_->stop();
  dispatcher_->stop();
  durable_->shutdown();
  std::error_code ec;
  std::filesystem::remove_all(options_.journal_dir, ec);
}

std::vector<std::uint8_t> Stack::route(std::span<const std::uint8_t> frame) {
  const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
  if (kind == proto::MsgKind::kOprfEvalRequest ||
      kind == proto::MsgKind::kOprfKeyQuery)
    return oprf_ep_.handle(frame);
  return backend_ep_->handle(frame);
}

void Stack::traced_submit(std::vector<std::uint8_t> frame,
                          proto::CompletionFn done) {
  const std::int64_t arrived = now_ns();
  std::uint64_t request = 0;
  const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
  if (kind == proto::MsgKind::kBlindedReport ||
      kind == proto::MsgKind::kAdjustment) {
    try {
      const proto::EnvelopeView env = proto::decode_envelope_view(frame);
      request = submission_request_id(*kind, env.round, env.sender);
    } catch (const proto::ProtoError&) {
      // Undecodable frames are refused by the endpoint; just untraced.
    }
  }
  {
    std::lock_guard<std::mutex> lock(arrivals_mu_);
    arrivals_[frame.data()] = Arrival{request, arrived};
  }
  proto::CompletionFn traced_done =
      [tracer = tracer_, request, done = std::move(done)](
          std::vector<std::uint8_t> reply) {
        const std::int64_t t = now_ns();
        tracer->record(SpanName::kComplete, t, t, request);
        done(std::move(reply));
      };
  dispatcher_->submit(std::move(frame), std::move(traced_done));
}

std::vector<std::uint8_t> Stack::traced_handle(
    std::span<const std::uint8_t> frame) {
  const std::int64_t started = now_ns();
  Arrival arrival{0, started};
  {
    std::lock_guard<std::mutex> lock(arrivals_mu_);
    if (const auto it = arrivals_.find(frame.data()); it != arrivals_.end()) {
      arrival = it->second;
      arrivals_.erase(it);
    }
  }
  tracer_->record(SpanName::kLaneWait, arrival.at_ns, started, arrival.request);
  RequestScope request(tracer_, arrival.request);
  ScopedSpan dispatch(tracer_, SpanName::kDispatch);
  const std::optional<proto::MsgKind> kind = proto::peek_kind(frame);
  if (kind == proto::MsgKind::kOprfEvalRequest) {
    ScopedSpan eval(tracer_, SpanName::kOprfEval);
    return oprf_ep_.handle(frame);
  }
  if (kind == proto::MsgKind::kOprfKeyQuery) return oprf_ep_.handle(frame);
  ScopedSpan endpoint(tracer_, SpanName::kEndpoint);
  return backend_ep_->handle(frame);
}

void add_counter_layers(Metrics& layers, const StackCounters& before,
                        const StackCounters& after,
                        std::uint64_t lane_depth_max,
                        std::uint64_t unavailable_retries) {
  const auto count = [](std::uint64_t v) {
    return Metric{static_cast<double>(v), "count", 0};
  };
  layers["proto.pool_misses"] = count(after.pool_misses - before.pool_misses);
  layers["proto.frames_pooled"] =
      count(after.frames_pooled - before.frames_pooled);
  layers["proto.eventfd_wakeups"] =
      count(after.eventfd_wakeups - before.eventfd_wakeups);
  layers["proto.streams_shed"] = count(after.streams_shed - before.streams_shed);
  layers["proto.unavailable_retries"] = count(unavailable_retries);
  layers["server.dispatcher_shed"] =
      count(after.dispatcher_shed - before.dispatcher_shed);
  layers["server.lane_depth_max"] = count(lane_depth_max);
  const std::uint64_t records = after.journal_records - before.journal_records;
  const std::uint64_t fsyncs = after.journal_fsyncs - before.journal_fsyncs;
  layers["storage.records_per_fsync"] = {
      fsyncs == 0 ? 0.0
                  : static_cast<double>(records) / static_cast<double>(fsyncs),
      "ratio", fsyncs};
  layers["storage.enqueue_stalls"] =
      count(after.enqueue_stalls - before.enqueue_stalls);
  layers["storage.journal_reencodes"] = count(after.journal_reencodes);
}

StackCounters Stack::counters() const {
  const proto::FrameServerStats s = server_->stats();
  const eyw::storage::DurabilityStats d = durable_->stats();
  return {.frames_pooled = s.reactor.frames_pooled,
          .pool_misses = s.reactor.pool_misses,
          .eventfd_wakeups = s.reactor.eventfd_wakeups,
          .streams_shed = s.reactor.streams_shed,
          .dispatcher_shed = dispatcher_->shed(),
          .journal_records = d.records,
          .journal_fsyncs = d.fsyncs,
          .enqueue_stalls = d.enqueue_stalls,
          .journal_reencodes = durable_->journal_reencodes()};
}

}  // namespace perfbench
