// ingest_open: an open loop of report submissions at fixed offered
// rates. Tens of thousands of logical reporters are mux streams over at
// most nproc connections; report frames are pre-encoded in set-up with
// seeded random cells (a send copies one and stamps participant and
// round), so no client crypto runs in the timed region. Each rate step is
// one round, opened and closed over the control plane, with the
// group-commit journal on. Every report is timed from the moment it was
// due, and the generator's own lateness is reported.
//
// Why: it drives every server ingest hop — reactor read and assembly,
// lane queue, decode and validate, journal capture, sketch apply, reply
// write — at rates where queueing shows. It does no blinding, so a
// blinding change must not move it.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "proto/client_reactor.hpp"
#include "server/remote_backend.hpp"
#include "sketch/sketch_kernel.hpp"
#include "stack.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace crypto = eyw::crypto;
namespace proto = eyw::proto;
namespace server = eyw::server;

/// The fixed low and high offered rates (reports/s) the latency figures
/// are taken at, and how many steps (rounds) each gets. Many short steps
/// rather than one long one: on a shared host a step's median moves with
/// where the scheduler happened to put the threads, and the pooled
/// median of many steps moves much less.
constexpr double kLowRate = 5'000;
constexpr double kHighRate = 20'000;
constexpr int kLowSteps = 8;
constexpr int kHighSteps = 4;
/// The capacity ladder: each pass bisects [kHighRate, kCeilingRate]
/// kBisections times, moving up after a sustained step and down after
/// one that is not; the sustained rate is the best of kPasses passes (a
/// pass slowed by other load on the host only lowers itself).
constexpr double kCeilingRate = 80'000;
constexpr int kBisections = 5;
constexpr int kPasses = 5;
/// Share of the measured seconds one fixed-rate step / one capacity step
/// lasts.
constexpr double kFixedShare = 0.03;
constexpr double kCapacityShare = 0.02;
/// A rate is sustained when the limit percentile of its ack latency stays
/// under this limit and the unacked backlog at the end of the step is
/// below one limit's worth of offered reports.
constexpr double kLatencyLimitUs = 5'000;
constexpr double kLimitPercentile = 0.90;
/// Distinct seeded cell vectors reporters draw from.
constexpr std::size_t kCellPool = 64;
/// Frame-pool misses allowed over the fixed-rate steps once warm: the
/// pool's free-list cap, independent of how many reports were offered,
/// so a recycle leak (one miss per report) fails while a transient
/// in-flight peak does not.
constexpr std::uint64_t kPoolMissBudget = 4096;

struct StepResult {
  Samples ack_us;
  Samples late_us;
  double achieved_per_s = 0.0;
  bool sustained = false;

  /// Pool another step at the same rate into this one.
  void merge(const StepResult& other) {
    ack_us.append(other.ack_us);
    late_us.append(other.late_us);
    achieved_per_s = std::max(achieved_per_s, other.achieved_per_s);
    sustained = sustained || other.sustained;
  }
};

class IngestOpen final : public Workload {
 public:
  explicit IngestOpen(const Options& options) : options_(options) {
    const std::size_t cpus = cpu_count();
    client_shards_ = cpus > 1 ? cpus - 1 : 1;  // plus the generator thread
    connections_ = cpus > 1 ? cpus - 1 : 1;  // plus the control connection
    // Enough streams for the largest step.
    max_reporters_ =
        std::max(step_reports(kHighRate, kFixedShare, options.seconds),
                 step_reports(kCeilingRate, kCapacityShare, options.seconds));
    const std::size_t cells = bench_config().cms_params.cells();
    eyw::util::Rng rng(derive_seed(options.seed, 0x1a9e));
    cell_pool_.resize(kCellPool);
    for (auto& v : cell_pool_) {
      v.resize(cells);
      for (auto& c : v) c = static_cast<crypto::BlindCell>(rng.below(4));
    }
    // One encoded report per cell vector; a send copies one and stamps
    // its participant and round. The stamp must reproduce the encoder
    // byte for byte, or the run stops here.
    for (const auto& c : cell_pool_)
      templates_.push_back(report_frame(c, 0, 0));
    for (const std::uint32_t participant : {1u, 4'097u, 65'537u})
      for (const std::uint64_t round : {1u, 300u})
        if (stamped(templates_[3], participant, round) !=
            report_frame(cell_pool_[3], participant, round))
          throw std::runtime_error(
              "ingest_open: stamped frame differs from BlindedReport::encode");
  }

  void setup(Tracer* tracer) override {
    tracer_ = tracer;
    ++setups_;
    round_ = 0;
    stack_ = std::make_unique<Stack>(StackOptions{
        .journal_dir = options_.work_dir + "/journal-ingest_open-" +
                       std::to_string(setups_),
        .max_connections = connections_ + 8,
        .tracer = tracer});
    reactor_ = std::make_unique<proto::ClientReactor>(proto::ClientReactorOptions{
        .shards = client_shards_, .backoff_jitter_seed = options_.seed});
    control_ = reactor_->open("127.0.0.1", stack_->port());
    remote_ = std::make_unique<server::RemoteBackend>(*control_, bench_config());
    for (std::size_t k = 0; k < connections_; ++k)
      muxes_.push_back(reactor_->open_mux("127.0.0.1", stack_->port()));
    streams_.clear();
    streams_.reserve(max_reporters_);
    for (std::size_t i = 0; i < max_reporters_; ++i)
      streams_.push_back(muxes_[i % muxes_.size()]->open_stream());
    // Warm-up: a short step at the low rate connects every mux channel
    // and fills the server's buffer pool. Untraced, so the spans cover
    // only the measured steps.
    if (tracer != nullptr) tracer->set_enabled(false);
    const StepResult warm = run_step(
        kLowRate, static_cast<std::size_t>(kLowRate * 0.3), nullptr);
    if (tracer != nullptr) tracer->set_enabled(true);
    if (warm.ack_us.size() == 0)
      throw std::runtime_error("ingest_open: warm-up step failed");
  }

  Segment measure(double seconds) override {
    Segment seg;
    // The generator sleeps between sends; a 1 ns timer slack lets it wake
    // on schedule instead of up to the default 50 us late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const StackCounters before = stack_->counters();
    const std::uint64_t retries_before = reactor_->counters().unavailable_retries;
    StepResult low;
    for (int r = 0; r < kLowSteps; ++r)
      low.merge(run_step(kLowRate, step_reports(kLowRate, kFixedShare, seconds),
                         &seg));
    StepResult high;
    for (int r = 0; r < kHighSteps; ++r)
      high.merge(run_step(
          kHighRate, step_reports(kHighRate, kFixedShare, seconds), &seg));
    const StackCounters after_fixed = stack_->counters();
    // Memory up to the first stack's fixed-rate steps. The capacity
    // passes overload the stack on purpose, and how much the server then
    // holds varies with each stall of the host.
    if (fixed_rss_mb_ == 0.0) fixed_rss_mb_ = peak_rss_mb();
    seg.e2e["peak_rss_mb"] = {fixed_rss_mb_, "MB", 0};

    // Sustained rate: per pass, the best achieved rate of a sustained
    // step (the fixed high rate's when none is); the best pass.
    const double floor = high.sustained ? high.achieved_per_s : low.achieved_per_s;
    Samples passes;
    std::size_t rungs = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      double best = floor;
      double lo = kHighRate;
      double hi = kCeilingRate;
      for (int i = 0; i < kBisections; ++i) {
        const double rate = (lo + hi) / 2;
        const StepResult step =
            run_step(rate, step_reports(rate, kCapacityShare, seconds), &seg);
        if (step.sustained) {
          best = std::max(best, step.achieved_per_s);
          ++rungs;
        }
        (step.sustained ? lo : hi) = rate;
      }
      passes.add(best);
    }
    const double sustained = passes.quantile(1.0);
    const StackCounters after = stack_->counters();
    if (tracer_ != nullptr)
      add_counter_layers(
          seg.layers, before, after, stack_->lane_depth_max(),
          reactor_->counters().unavailable_retries - retries_before);

    const std::uint64_t misses = after_fixed.pool_misses - before.pool_misses;
    seg.check(misses <= kPoolMissBudget,
              "frame pool missed " + std::to_string(misses) +
                  " times over the fixed-rate steps after warm-up (budget " +
                  std::to_string(kPoolMissBudget) + ")");
    seg.check(after.journal_reencodes == 0, "journal re-encoded submissions");

    seg.e2e["throughput_per_s"] = {sustained, "1/s", rungs};
    // The end-to-end latency is taken at the low rate: at the high rate it
    // also carries how close the host's current capacity is to the
    // offered rate, which varies from run to run on a shared host.
    seg.e2e["latency_p50_ms"] = {low.ack_us.median() / 1e3, "ms",
                                 low.ack_us.size()};
    const auto ack = [](const StepResult& step, double q) {
      return Metric{step.ack_us.quantile(q), "us", step.ack_us.size()};
    };
    seg.detail["ingest_ack_p50_us.low"] = ack(low, 0.50);
    seg.detail["ingest_ack_p90_us.low"] = ack(low, 0.90);
    seg.detail["ingest_ack_p99_us.low"] = ack(low, 0.99);
    seg.detail["ingest_ack_p50_us.high"] = ack(high, 0.50);
    seg.detail["ingest_ack_p90_us.high"] = ack(high, 0.90);
    seg.detail["ingest_ack_p99_us.high"] = ack(high, 0.99);
    seg.detail["ingest_sustained_per_s"] = seg.e2e["throughput_per_s"];
    seg.detail["generator_late_p99_us.low"] = {low.late_us.quantile(0.99), "us",
                                               low.late_us.size()};
    seg.detail["generator_late_p99_us.high"] = {high.late_us.quantile(0.99),
                                                "us", high.late_us.size()};
    seg.detail["ingest_sustained_per_s.pass_min"] = {passes.quantile(0.0),
                                                     "1/s", passes.size()};
    seg.detail["ingest_sustained_per_s.pass_max"] = {passes.quantile(1.0),
                                                     "1/s", passes.size()};
    seg.detail["ladder_steps_sustained"] = {static_cast<double>(rungs),
                                            "count", 0};
    seg.resources = {{"generator_threads", 1},
                     {"client_reactor_shards", client_shards_},
                     {"mux_connections", connections_},
                     {"control_connections", 1},
                     {"mux_streams", max_reporters_},
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
    if (stack_) stack_->stop();
    stack_.reset();
  }

 private:
  static std::vector<std::uint8_t> report_frame(
      const std::vector<crypto::BlindCell>& cells, std::uint32_t participant,
      std::uint64_t round) {
    return proto::BlindedReport{.participant = participant,
                                .params = bench_config().cms_params,
                                .cells = cells}
        .encode(round);
  }

  /// A copy of `frame` with participant and round rewritten where the
  /// wire format keeps them (docs/protocol.md envelope; sketch 'EYWS'
  /// frame): envelope sender, envelope round, payload participant, and
  /// the embedded sketch frame's round.
  static std::vector<std::uint8_t> stamped(const std::vector<std::uint8_t>& frame,
                                           std::uint32_t participant,
                                           std::uint64_t round) {
    constexpr std::size_t kSender = 8;
    constexpr std::size_t kRound = 12;
    constexpr std::size_t kParticipant = 24;
    constexpr std::size_t kSketchRound = 52;
    std::vector<std::uint8_t> out;
    out.reserve(frame.capacity());  // keeps the mux headroom
    out.assign(frame.begin(), frame.end());
    const auto put = [&out](std::size_t at, std::uint64_t v, int bytes) {
      for (int b = 0; b < bytes; ++b)
        out[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
    };
    put(kSender, participant, 4);
    put(kRound, round, 8);
    put(kParticipant, participant, 4);
    put(kSketchRound, round, 8);
    return out;
  }

  /// Reports offered by a step at `rate` lasting `share` of `seconds`.
  static std::size_t step_reports(double rate, double share, double seconds) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(rate * share * seconds));
  }

  /// Sleep until `due_ns`, spinning for the last stretch so sends leave
  /// on schedule.
  static void wait_until(std::int64_t due_ns) {
    for (;;) {
      const std::int64_t left = due_ns - now_ns();
      if (left <= 0) return;
      if (left > 30'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 20'000));
      else
        std::this_thread::yield();
    }
  }

  /// One rate step = one round: pre-encode, open the round, offer the
  /// reports on schedule, collect acks, finalize and check the aggregate.
  StepResult run_step(double rate, std::size_t reports, Segment* seg) {
    const server::BackendConfig config = bench_config();
    const std::size_t cells = config.cms_params.cells();
    const std::size_t n = std::min(max_reporters_, reports);
    const std::uint64_t round = ++round_;

    std::vector<crypto::BlindCell> expected(cells, 0);
    const auto& kernel = eyw::sketch::active_sketch_kernel();
    for (std::size_t i = 0; i < n; ++i)
      kernel.add_cells(expected.data(), cell_pool_[(i + round) % kCellPool].data(),
                       cells);
    remote_->begin_round(round, n);

    std::vector<std::int64_t> due(n);
    std::vector<std::int64_t> acked_at(n, -1);
    Completions acks;
    acks.expect(n);
    StepResult out;
    const double interval_ns = 1e9 / rate;
    // Past this many unacked reports the step has failed; the generator
    // then holds back until half of them are acked, so an overloaded step
    // queues a bounded backlog instead of the rest of the step.
    const auto backlog_cap = static_cast<std::size_t>(
        std::max(256.0, 2 * rate * kLatencyLimitUs / 1e6));
    bool overloaded = false;
    const std::int64_t start = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
      // Unacked = outstanding minus the n - i reports not yet offered.
      if (i % 64 == 0 && acks.outstanding() - (n - i) > backlog_cap) {
        overloaded = true;
        while (acks.outstanding() - (n - i) > backlog_cap / 2)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      wait_until(due[i]);
      const std::int64_t sent = now_ns();
      out.late_us.add(static_cast<double>(sent - due[i]) / 1e3);
      const std::uint64_t request = submission_request_id(
          proto::MsgKind::kBlindedReport, round, static_cast<std::uint32_t>(i));
      streams_[i]->exchange_async(
          stamped(templates_[(i + round) % kCellPool],
                  static_cast<std::uint32_t>(i), round),
          [this, i, sent, request, &acked_at, &acks](proto::AsyncResult r) {
            const std::int64_t t = now_ns();
            const bool ok =
                r.ok() && proto::peek_kind(r.reply) == proto::MsgKind::kAck;
            if (ok) acked_at[i] = t;
            if (tracer_ != nullptr)
              tracer_->record(SpanName::kAck, sent, t, request);
            acks.done(ok);
          });
      if (tracer_ != nullptr)
        tracer_->record(SpanName::kClientSend, sent, now_ns(), request);
    }
    const std::size_t backlog = acks.outstanding();
    if (!acks.wait_for(60'000))
      throw std::runtime_error("ingest_open: acks did not arrive within 60 s");

    std::int64_t last_ack = start;
    for (std::size_t i = 0; i < n; ++i) {
      if (acked_at[i] < 0) continue;
      out.ack_us.add(static_cast<double>(acked_at[i] - due[i]) / 1e3);
      last_ack = std::max(last_ack, acked_at[i]);
    }
    out.achieved_per_s = static_cast<double>(out.ack_us.size()) /
                         (static_cast<double>(last_ack - start) / 1e9);
    out.sustained = !overloaded && acks.failed() == 0 &&
                    out.ack_us.quantile(kLimitPercentile) <= kLatencyLimitUs &&
                    static_cast<double>(backlog) <= rate * kLatencyLimitUs / 1e6;

    std::fprintf(stderr,
                 "ingest_open: %.0f/s x %zu: ack p50 %.0f us p99 %.0f us, late "
                 "p99 %.0f us, backlog %zu, achieved %.0f/s -> %s\n",
                 rate, n, out.ack_us.median(), out.ack_us.quantile(0.99),
                 out.late_us.quantile(0.99), backlog, out.achieved_per_s,
                 out.sustained ? "sustained" : "not sustained");

    const std::vector<std::size_t> missing = remote_->missing_participants();
    const server::RoundResult result = remote_->finalize_round();
    if (seg != nullptr) {
      seg->attempted += n;
      seg->failed += acks.failed();
      seg->check(missing.empty(), "round " + std::to_string(round) + ": " +
                                      std::to_string(missing.size()) +
                                      " reports never arrived");
      const auto got = result.aggregate.cells();
      seg->check(std::equal(got.begin(), got.end(), expected.begin(),
                            expected.end()),
                 "round " + std::to_string(round) +
                     ": aggregate != generator's wrapping sum");
    }
    return out;
  }

  Options options_;
  std::size_t client_shards_ = 1;
  std::size_t connections_ = 1;
  std::size_t max_reporters_ = 0;
  std::size_t setups_ = 0;
  std::uint64_t round_ = 0;
  double fixed_rss_mb_ = 0.0;
  std::vector<std::vector<crypto::BlindCell>> cell_pool_;
  std::vector<std::vector<std::uint8_t>> templates_;
  Tracer* tracer_ = nullptr;

  std::unique_ptr<Stack> stack_;
  std::unique_ptr<proto::ClientReactor> reactor_;
  std::shared_ptr<proto::ClientChannel> control_;
  std::unique_ptr<server::RemoteBackend> remote_;
  std::vector<std::shared_ptr<proto::MuxChannel>> muxes_;
  std::vector<std::shared_ptr<proto::MuxStream>> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_ingest_open(const Options& options) {
  return std::make_unique<IngestOpen>(options);
}

}  // namespace perfbench
