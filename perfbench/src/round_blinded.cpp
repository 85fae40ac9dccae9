// round_blinded: a closed loop of full weekly rounds at the paper's
// Table 1 roster (500 reporters, the SimConfig default). Each reporter's
// true cells are its BrowserExtension sketch of one seeded simulated
// week on the default 4x256 geometry; blinding is real and pairwise, a
// seeded ~5% of reporters drop out each round so the adjustment phase
// runs, reports travel as mux streams over at most nproc connections,
// and the server journals with group commit.
//
// Why: client pad work is O(roster x cells) SHA-256 while the server sees
// ~500 frames per round, so crypto dominates and ingest barely registers
// — the workload where a blinding change (e.g. grouped blinding) shows.
#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "client/url_mapper.hpp"
#include "crypto/dh.hpp"
#include "proto/client_reactor.hpp"
#include "scenario/harness.hpp"
#include "server/backend.hpp"
#include "server/remote_backend.hpp"
#include "sketch/sketch_kernel.hpp"
#include "stack.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace crypto = eyw::crypto;
namespace proto = eyw::proto;
namespace server = eyw::server;

/// Share of reporters (per mille) that drop out of each round.
constexpr std::uint64_t kDropPerMille = 50;

/// Run `body` on `threads` threads and rethrow the first exception.
template <typename Body>
void run_threads(std::size_t threads, Body body) {
  std::vector<std::thread> pool;
  std::vector<std::exception_ptr> errors(threads);
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        body();
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

class RoundBlinded final : public Workload {
 public:
  explicit RoundBlinded(const Options& options) : options_(options) {
    // The DH group is a published deployment parameter, not an input:
    // fixed, so set-up time does not depend on a safe-prime search.
    eyw::util::Rng group_rng(31);
    group_ = crypto::DhGroup::generate(group_rng, 256);
    const Week week = simulate_week(options.seed);
    eyw::client::HashUrlMapper mapper(bench_config().id_space);
    true_cells_ = week_sketches(week, mapper);
    n_ = true_cells_.size();
    const std::size_t cpus = cpu_count();
    client_threads_ = cpus > 1 ? cpus - kClientShards : 1;
    // With the control connection, nproc connections in all.
    connections_ = std::min(cpus > 1 ? cpus - 1 : 1, n_);
  }

  void setup(Tracer* tracer) override {
    tracer_ = tracer;
    ++setups_;
    stack_ = std::make_unique<Stack>(StackOptions{
        .journal_dir = options_.work_dir + "/journal-round_blinded-" +
                       std::to_string(setups_),
        .max_connections = connections_ + 8,
        .tracer = tracer});

    // Roster: every reporter's keypair, then each BlindingParticipant
    // derives its 499 pair keys. One reporter per client thread at a time,
    // each on a one-thread pool, so the client side uses exactly
    // client_threads_ cores.
    eyw::util::Rng rng(derive_seed(options_.seed, 0x6b65));
    const crypto::DhContext ctx(group_);
    std::vector<crypto::DhKeyPair> keys;
    std::vector<crypto::Bignum> publics;
    keys.reserve(n_);
    publics.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      keys.push_back(ctx.keygen(rng));
      publics.push_back(keys.back().public_key);
    }
    serial_pool_ = std::make_unique<eyw::util::ThreadPool>(1);
    participants_.clear();
    participants_.resize(n_);
    std::atomic<std::size_t> cursor{0};
    run_threads(client_threads_, [&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < n_;) {
        ScopedSpan span(tracer_, SpanName::kRosterSetup);
        participants_[i].emplace(group_, i, keys[i],
                                 std::span<const crypto::Bignum>(publics),
                                 serial_pool_.get());
      }
    });

    reactor_ = std::make_unique<proto::ClientReactor>(proto::ClientReactorOptions{
        .shards = kClientShards, .backoff_jitter_seed = options_.seed});
    control_ = reactor_->open("127.0.0.1", stack_->port());
    remote_ = std::make_unique<server::RemoteBackend>(*control_, bench_config());
    for (std::size_t k = 0; k < connections_; ++k)
      muxes_.push_back(reactor_->open_mux("127.0.0.1", stack_->port()));
    streams_.clear();
    for (std::size_t i = 0; i < n_; ++i)
      streams_.push_back(muxes_[i % muxes_.size()]->open_stream());

    // Warm-up: one exchange per connection negotiates mux and connects.
    Completions warm;
    warm.expect(muxes_.size());
    for (std::size_t k = 0; k < muxes_.size(); ++k)
      streams_[k]->exchange_async(
          proto::encode_oprf_key_query(), [&warm](proto::AsyncResult r) {
            warm.done(r.ok() && proto::peek_kind(r.reply) ==
                                    proto::MsgKind::kOprfKeyAnswer);
          });
    warm.wait();
    if (warm.failed() != 0)
      throw std::runtime_error("round_blinded: warm-up exchange failed");
  }

  Segment measure(double seconds) override {
    Segment seg;
    Samples report_ms;
    Samples round_s;
    std::int64_t busy_ns = 0;
    std::int64_t blind_ns = 0;
    std::int64_t reports_wall_ns = 0;
    std::vector<RoundRecord> records;
    const StackCounters counters_before = stack_->counters();
    const std::uint64_t retries_before = reactor_->counters().unavailable_retries;
    const std::int64_t start = now_ns();
    for (std::uint64_t round = 1;; ++round) {
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      if (records.size() >= 2 && elapsed >= seconds) break;
      RoundRecord rec = run_round(round, seg, report_ms, busy_ns, blind_ns,
                                  reports_wall_ns);
      round_s.add(rec.wall_s);
      records.push_back(std::move(rec));
    }
    if (tracer_ != nullptr)
      add_counter_layers(
          seg.layers, counters_before, stack_->counters(),
          stack_->lane_depth_max(),
          reactor_->counters().unavailable_retries - retries_before);

    // Output checks: pads and adjustments cancel to the reporters' true
    // cells, and the threshold equals an in-process BackendServer's.
    const std::size_t cells = bench_config().cms_params.cells();
    for (const RoundRecord& rec : records) {
      std::vector<crypto::BlindCell> expected(cells, 0);
      server::BackendServer reference(bench_config());
      reference.begin_round(rec.round, n_);
      for (std::size_t i = 0; i < n_; ++i) {
        if (rec.dropped[i]) continue;
        eyw::sketch::active_sketch_kernel().add_cells(
            expected.data(), true_cells_[i].data(), cells);
        reference.submit_report(i, true_cells_[i]);
      }
      for (std::size_t i = 0; i < n_; ++i)
        if (!rec.dropped[i])
          reference.submit_adjustment(
              i, std::vector<crypto::BlindCell>(cells, 0));
      const server::RoundResult want = reference.finalize_round();
      const auto got = rec.result->aggregate.cells();
      seg.check(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()),
                "round " + std::to_string(rec.round) +
                    ": aggregate != wrapping sum of reporters' true cells");
      seg.check(eyw::scenario::results_identical(want, *rec.result),
                "round " + std::to_string(rec.round) +
                    ": result differs from the in-process BackendServer");
    }

    const double wall_total = round_s.sum();
    seg.e2e["throughput_per_s"] = {
        static_cast<double>(report_ms.size()) / wall_total, "1/s",
        report_ms.size()};
    seg.e2e["latency_p50_ms"] = {report_ms.median(), "ms", report_ms.size()};
    seg.detail["round_wall_s"] = {round_s.median(), "s", round_s.size()};
    seg.detail["report_p50_ms"] = seg.e2e["latency_p50_ms"];
    seg.detail["report_p90_ms"] = {report_ms.quantile(0.90), "ms",
                                   report_ms.size()};
    seg.detail["report_p99_ms"] = {report_ms.quantile(0.99), "ms",
                                   report_ms.size()};
    seg.detail["rounds"] = {static_cast<double>(records.size()), "count", 0};
    if (tracer_ != nullptr) {
      const double capacity =
          static_cast<double>(client_threads_) * static_cast<double>(reports_wall_ns);
      seg.layers["client.busy_ratio"] = {static_cast<double>(busy_ns) / capacity,
                                         "ratio", 0};
      seg.layers["crypto.blind_share"] = {
          static_cast<double>(blind_ns) / capacity, "ratio", 0};
    }
    seg.resources = {{"client_threads", client_threads_},
                     {"client_reactor_shards", kClientShards},
                     {"mux_connections", connections_},
                     {"control_connections", 1},
                     {"mux_streams", n_},
                     {"roster", n_},
                     {"server_reactor_shards", stack_->reactor_shards()},
                     {"dispatch_lanes", stack_->dispatch_lanes()}};
    return seg;
  }

  void teardown() override {
    streams_.clear();
    muxes_.clear();
    remote_.reset();
    control_.reset();
    if (reactor_) reactor_->stop();
    reactor_.reset();
    participants_.clear();
    serial_pool_.reset();
    if (stack_) stack_->stop();
    stack_.reset();
  }

 private:
  static constexpr std::size_t kClientShards = 1;

  struct RoundRecord {
    std::uint64_t round = 0;
    std::vector<bool> dropped;
    std::optional<server::RoundResult> result;
    double wall_s = 0.0;
  };

  /// Send one frame on reporter `i`'s stream; the ack records the
  /// latency since `started` into `latency_ns[i]` (-1 if refused).
  void send(std::size_t i, proto::MsgKind kind, std::uint64_t round,
            std::vector<std::uint8_t> frame, std::int64_t started,
            std::vector<std::int64_t>& latency_ns, Completions& acks) {
    const std::uint64_t request = submission_request_id(
        kind, round, static_cast<std::uint32_t>(i));
    const std::int64_t sent = now_ns();
    streams_[i]->exchange_async(
        std::move(frame), [this, i, started, sent, request, &latency_ns,
                           &acks](proto::AsyncResult r) {
          const std::int64_t t = now_ns();
          const bool ok =
              r.ok() && proto::peek_kind(r.reply) == proto::MsgKind::kAck;
          latency_ns[i] = ok ? t - started : -1;
          if (tracer_ != nullptr)
            tracer_->record(SpanName::kAck, sent, t, request);
          acks.done(ok);
        });
    if (tracer_ != nullptr)
      tracer_->record(SpanName::kClientSend, sent, now_ns(), request);
  }

  RoundRecord run_round(std::uint64_t round, Segment& seg, Samples& report_ms,
                        std::int64_t& busy_ns, std::int64_t& blind_ns,
                        std::int64_t& reports_wall_ns) {
    const server::BackendConfig config = bench_config();
    const std::size_t cells = config.cms_params.cells();
    RoundRecord rec;
    rec.round = round;
    rec.dropped.assign(n_, false);
    eyw::util::Rng drop_rng(derive_seed(options_.seed, 0xd709 + round));
    std::vector<std::size_t> expected_missing;
    for (std::size_t i = 0; i < n_; ++i)
      if (drop_rng.below(1000) < kDropPerMille) {
        rec.dropped[i] = true;
        expected_missing.push_back(i);
      }
    if (expected_missing.empty()) {  // keep the adjustment phase running
      rec.dropped[n_ - 1] = true;
      expected_missing.push_back(n_ - 1);
    }
    const std::size_t reporting = n_ - expected_missing.size();

    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer_, SpanName::kPhaseBegin);
      remote_->begin_round(round, n_);
    }

    // Reports: client threads blind, encode and send as each is ready.
    std::vector<std::int64_t> latency_ns(n_, -1);
    Completions acks;
    acks.expect(reporting);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::int64_t> busy{0};
    std::atomic<std::int64_t> blind{0};
    const std::int64_t reports_start = now_ns();
    run_threads(client_threads_, [&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < n_;) {
        if (rec.dropped[i]) continue;
        const std::int64_t s0 = now_ns();
        std::vector<crypto::BlindCell> blinded;
        {
          ScopedSpan span(tracer_, SpanName::kBlind);
          blinded = participants_[i]->blind(true_cells_[i], round);
        }
        const std::int64_t s1 = now_ns();
        std::vector<std::uint8_t> frame;
        {
          ScopedSpan span(tracer_, SpanName::kEncode);
          frame = proto::BlindedReport{.participant =
                                           static_cast<std::uint32_t>(i),
                                       .params = config.cms_params,
                                       .cells = std::move(blinded)}
                      .encode(round);
        }
        busy.fetch_add(now_ns() - s0, std::memory_order_relaxed);
        blind.fetch_add(s1 - s0, std::memory_order_relaxed);
        send(i, proto::MsgKind::kBlindedReport, round, std::move(frame), s0,
             latency_ns, acks);
      }
    });
    acks.wait();
    const std::int64_t reports_end = now_ns();
    if (tracer_ != nullptr)
      tracer_->record(SpanName::kPhaseReports, reports_start, reports_end, 0);
    busy_ns += busy.load();
    blind_ns += blind.load();
    reports_wall_ns += reports_end - reports_start;
    for (const std::int64_t ns : latency_ns)
      if (ns >= 0) report_ms.add(static_cast<double>(ns) / 1e6);
    seg.attempted += reporting;
    seg.failed += acks.failed();

    std::vector<std::size_t> missing;
    {
      ScopedSpan span(tracer_, SpanName::kPhaseMissing);
      missing = remote_->missing_participants();
    }
    seg.check(missing == expected_missing,
              "round " + std::to_string(round) +
                  ": server's missing list != the dropped reporters");

    // Adjustment: every reporter cancels the pads it shared with the
    // missing ones.
    std::vector<std::int64_t> adjust_ns(n_, -1);
    Completions adjust_acks;
    adjust_acks.expect(reporting);
    cursor.store(0);
    const std::int64_t adjust_start = now_ns();
    run_threads(client_threads_, [&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < n_;) {
        if (rec.dropped[i]) continue;
        const std::int64_t s0 = now_ns();
        std::vector<crypto::BlindCell> adjustment;
        {
          ScopedSpan span(tracer_, SpanName::kAdjust);
          adjustment = participants_[i]->adjustment_for_missing(
              cells, round, std::span<const std::size_t>(missing));
        }
        std::vector<std::uint8_t> frame;
        {
          ScopedSpan span(tracer_, SpanName::kEncode);
          frame = proto::Adjustment{.participant = static_cast<std::uint32_t>(i),
                                    .params = config.cms_params,
                                    .cells = std::move(adjustment)}
                      .encode(round);
        }
        send(i, proto::MsgKind::kAdjustment, round, std::move(frame), s0,
             adjust_ns, adjust_acks);
      }
    });
    adjust_acks.wait();
    if (tracer_ != nullptr)
      tracer_->record(SpanName::kPhaseAdjust, adjust_start, now_ns(), 0);
    seg.attempted += reporting;
    seg.failed += adjust_acks.failed();

    {
      ScopedSpan span(tracer_, SpanName::kPhaseFinalize);
      rec.result = remote_->finalize_round();
    }
    rec.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    return rec;
  }

  Options options_;
  crypto::DhGroup group_;
  std::vector<std::vector<crypto::BlindCell>> true_cells_;
  std::size_t n_ = 0;
  std::size_t client_threads_ = 1;
  std::size_t connections_ = 1;
  std::size_t setups_ = 0;
  Tracer* tracer_ = nullptr;

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<eyw::util::ThreadPool> serial_pool_;
  std::vector<std::optional<crypto::BlindingParticipant>> participants_;
  std::unique_ptr<proto::ClientReactor> reactor_;
  std::shared_ptr<proto::ClientChannel> control_;
  std::unique_ptr<server::RemoteBackend> remote_;
  std::vector<std::shared_ptr<proto::MuxChannel>> muxes_;
  std::vector<std::shared_ptr<proto::MuxStream>> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_round_blinded(const Options& options) {
  return std::make_unique<RoundBlinded>(options);
}

}  // namespace perfbench
