// The one server stack every workload runs against, wired the way
// scenario::ServerHarness wires the deployment:
//
//   BackendCluster -> DurableBackend (group-commit journal)
//     -> BackendEndpoint (control plane on) + OprfEndpoint (RSA-1024)
//     -> AsyncDispatcher (cluster_lane_router, control_plane_barrier,
//                         set_frame_recycler)
//     -> FrameServer on a loopback port.
//
// This is the only place the benchmark builds a server, so a shared
// server::ServerStack can replace it in one spot. With a Tracer the same
// chain gets pass-through timing decorators at each boundary (the two
// frame handlers and two RoundBackend decorators); without one the chain
// is exactly the deployed one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/oprf.hpp"
#include "proto/message.hpp"
#include "proto/tcp.hpp"
#include "server/cluster.hpp"
#include "server/dispatcher.hpp"
#include "server/durable_backend.hpp"
#include "server/endpoint.hpp"
#include "trace.hpp"

namespace perfbench {

/// The round configuration the deployment uses (4x256 CMS over a 10k id
/// space, Mean rule) — scenario::default_config().
[[nodiscard]] eyw::server::BackendConfig bench_config();

/// Request id both ends derive for a report or adjustment frame, so the
/// client's send and the server's handling of it can be stitched:
/// distinct for every (kind, round, participant).
[[nodiscard]] std::uint64_t submission_request_id(eyw::proto::MsgKind kind,
                                                  std::uint64_t round,
                                                  std::uint32_t participant);

/// Seed of the oprf-server's RSA-1024 key. The key is a deployment
/// parameter, not a workload input: fixed, so set-up time does not vary
/// with the prime search of a seed-dependent key.
inline constexpr std::uint64_t kOprfKeySeed = 7;

struct StackOptions {
  std::string journal_dir;
  std::size_t max_connections = 256;
  /// Non-null: insert the timing decorators and sample lane depth.
  Tracer* tracer = nullptr;
};

/// Counters of every layer, read at one instant.
struct StackCounters {
  std::uint64_t frames_pooled = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t eventfd_wakeups = 0;
  std::uint64_t streams_shed = 0;
  std::uint64_t dispatcher_shed = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_fsyncs = 0;
  std::uint64_t enqueue_stalls = 0;
  std::uint64_t journal_reencodes = 0;
};

/// The per-layer counter metrics of a traced segment: deltas of
/// `before`..`after`, the sampled lane depth, and the client reactor's
/// shed resubmissions over the same span.
void add_counter_layers(Metrics& layers, const StackCounters& before,
                        const StackCounters& after,
                        std::uint64_t lane_depth_max,
                        std::uint64_t unavailable_retries);

class Stack {
 public:
  explicit Stack(StackOptions options);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
  [[nodiscard]] StackCounters counters() const;
  /// Highest dispatcher pending() seen by the sampler (traced stacks).
  [[nodiscard]] std::uint64_t lane_depth_max() const noexcept {
    return lane_depth_max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t reactor_shards() const { return server_->shards(); }
  [[nodiscard]] std::size_t dispatch_lanes() const {
    return dispatcher_->lanes();
  }

  /// Stop in dependency order (sampler, reactor, dispatcher, journal) and
  /// remove the journal directory. Idempotent; the destructor calls it.
  void stop();

 private:
  class TimedBackend;

  std::vector<std::uint8_t> route(std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> traced_handle(std::span<const std::uint8_t> frame);
  void traced_submit(std::vector<std::uint8_t> frame,
                     eyw::proto::CompletionFn done);

  StackOptions options_;
  Tracer* tracer_;
  eyw::util::Rng oprf_rng_;
  eyw::crypto::OprfServer oprf_;
  eyw::server::BackendCluster cluster_;
  std::unique_ptr<TimedBackend> apply_timer_;    // around the cluster
  std::unique_ptr<eyw::server::DurableBackend> durable_;
  std::unique_ptr<TimedBackend> journal_timer_;  // around the journal
  std::unique_ptr<eyw::server::BackendEndpoint> backend_ep_;
  eyw::server::OprfEndpoint oprf_ep_{oprf_};
  std::unique_ptr<eyw::server::AsyncDispatcher> dispatcher_;
  std::unique_ptr<eyw::proto::FrameServer> server_;

  // Traced stacks: frames handed to the dispatcher, keyed by buffer
  // address, until the lane worker picks them up.
  struct Arrival {
    std::uint64_t request = 0;
    std::int64_t at_ns = 0;
  };
  std::mutex arrivals_mu_;
  std::unordered_map<const std::uint8_t*, Arrival> arrivals_;
  std::atomic<std::uint64_t> lane_depth_max_{0};
  std::atomic<bool> sampler_stop_{false};
  std::thread sampler_;
  bool stopped_ = false;
};

}  // namespace perfbench
