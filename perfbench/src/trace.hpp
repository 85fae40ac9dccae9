// Span recorder for the traced run.
//
// Every span carries a name, start, end, the span that caused it and a
// request id, all on the one steady clock (common.hpp), so spans that one
// request left on different threads — the client send, the reactor
// hand-off, the lane worker, the reply — can be stitched after the run.
// Spans are kept in memory while the workload runs and written out when
// it ends; self time (a span minus the children it covers) is derived
// afterwards, never measured in the hot path.
//
// Nothing here is compiled into the program under test: spans are taken
// around calls into its public classes, from the benchmark's own files.
// A null Tracer* everywhere means "untraced" and costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The span names the benchmark records. Layer prefixes match the repo's
/// modules (crypto, sketch, proto, server, storage, client, core).
enum class SpanName : std::uint16_t {
  kRosterSetup,     // BlindingParticipant constructor, per reporter
  kBlind,           // BlindingParticipant::blind, per report
  kEncode,          // BlindedReport/Adjustment::encode, per frame
  kAdjust,          // BlindingParticipant::adjustment_for_missing
  kPhaseBegin,      // RemoteBackend::begin_round
  kPhaseReports,    // first report sent .. last report acked
  kPhaseMissing,    // RemoteBackend::missing_participants
  kPhaseAdjust,     // first adjustment computed .. last adjustment acked
  kPhaseFinalize,   // RemoteBackend::finalize_round
  kClientSend,      // exchange_async on the sending thread
  kAck,             // client-side: send start .. ack (request root)
  kLaneWait,        // AsyncFrameHandler call .. FrameHandler start
  kDispatch,        // the lane worker's FrameHandler call
  kEndpoint,        // BackendEndpoint::handle
  kOprfEval,        // OprfEndpoint::handle of an OprfEvalRequest
  kComplete,        // completion call (zero-length marker)
  kJournalSubmit,   // DurableBackend::submit_report_frame
  kSketchApply,     // BackendCluster::submit_report
  kFinalizeScan,    // BackendCluster::finalize_round
  kMapMiss,         // OprfUrlMapper::map that went to the network
  kAudit,           // BrowserExtension::audit
  kCount
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = no parent on this thread
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = SpanName::kCount;

  [[nodiscard]] double duration_ns() const noexcept {
    return static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  /// Keeps at most `capacity` spans; later ones are counted as dropped.
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);
  /// While disabled, record() drops spans without counting them (set-up
  /// work a workload keeps out of its trace).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// A span whose start and end were taken elsewhere (cross-thread
  /// stitching); parent and request as given.
  void record(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request, std::uint64_t parent = 0);

  /// Spans recorded so far (call once the traced threads have stopped).
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Write every span as one text line (name id parent request start end)
  /// to `path`. Returns false if the file could not be written.
  bool write(const std::string& path) const;

  /// The calling thread's innermost open span and current request.
  struct Context {
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };
  [[nodiscard]] static Context& context() noexcept;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  std::size_t capacity_;
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while tracing
};

/// RAII span around a call. With a null tracer it does nothing. Nested
/// ScopedSpans on one thread form parent/child pairs; the request id is
/// inherited from the thread's context unless given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

/// Sets the calling thread's request id for the lifetime of the scope.
class RequestScope {
 public:
  RequestScope(Tracer* tracer, std::uint64_t request) noexcept;
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t saved_ = 0;
};

/// Per-name statistics derived from a finished trace.
struct SpanStats {
  Samples duration_ns;  // whole span
  Samples self_ns;      // span minus the children it covers
};

/// Group spans by name, with self times.
[[nodiscard]] std::map<SpanName, SpanStats> span_stats(
    const std::vector<Span>& spans);

/// Per-request stage breakdown of stitched requests: every request that
/// has a client send, a lane wait, a dispatch, a completion marker and an
/// ack. Stage values are in nanoseconds.
struct StageStats {
  Samples inbound_ns;   // send returned .. AsyncFrameHandler call
  Samples reply_ns;     // completion call .. client ack
  Samples residual_ns;  // ack - (send + inbound + lane wait + dispatch + reply)
};

[[nodiscard]] StageStats stitch_requests(const std::vector<Span>& spans);

}  // namespace perfbench
