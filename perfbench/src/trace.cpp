#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <unordered_map>

namespace perfbench {

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kRosterSetup: return "crypto.roster_setup";
    case SpanName::kBlind: return "crypto.blind";
    case SpanName::kEncode: return "proto.encode";
    case SpanName::kAdjust: return "crypto.adjust";
    case SpanName::kPhaseBegin: return "server.phase_begin";
    case SpanName::kPhaseReports: return "server.phase_reports";
    case SpanName::kPhaseMissing: return "server.phase_missing";
    case SpanName::kPhaseAdjust: return "server.phase_adjust";
    case SpanName::kPhaseFinalize: return "server.phase_finalize";
    case SpanName::kClientSend: return "proto.client_send";
    case SpanName::kAck: return "proto.ack";
    case SpanName::kLaneWait: return "server.lane_wait";
    case SpanName::kDispatch: return "server.dispatch";
    case SpanName::kEndpoint: return "server.endpoint";
    case SpanName::kOprfEval: return "crypto.oprf_eval";
    case SpanName::kComplete: return "server.complete";
    case SpanName::kJournalSubmit: return "storage.journal_submit";
    case SpanName::kSketchApply: return "sketch.apply";
    case SpanName::kFinalizeScan: return "server.finalize_scan";
    case SpanName::kMapMiss: return "client.map_miss";
    case SpanName::kAudit: return "core.audit";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

void Tracer::record(const Span& span) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

void Tracer::record(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t request, std::uint64_t parent) {
  record(Span{.id = next_id(),
              .parent = parent,
              .request = request,
              .start_ns = start_ns,
              .end_ns = end_ns,
              .name = name});
}

bool Tracer::write(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::fprintf(file.get(), "# name id parent request start_ns end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(file.get(), "%s %llu %llu %llu %lld %lld\n",
                 span_name(s.name), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fflush(file.get()) == 0;
}

Tracer::Context& Tracer::context() noexcept {
  thread_local Context ctx;
  return ctx;
}

ScopedSpan::ScopedSpan(Tracer* tracer, SpanName name) noexcept
    : tracer_(tracer) {
  span_.name = name;
  if (tracer_ != nullptr) {
    Tracer::Context& ctx = Tracer::context();
    span_.id = tracer_->next_id();
    span_.parent = ctx.parent;
    span_.request = ctx.request;
    saved_parent_ = ctx.parent;
    ctx.parent = span_.id;
  }
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  Tracer::context().parent = saved_parent_;
  tracer_->record(span_);
}

RequestScope::RequestScope(Tracer* tracer, std::uint64_t request) noexcept
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_ = Tracer::context().request;
  Tracer::context().request = request;
}

RequestScope::~RequestScope() {
  if (tracer_ != nullptr) Tracer::context().request = saved_;
}

std::map<SpanName, SpanStats> span_stats(const std::vector<Span>& spans) {
  // Children of one span never overlap (they are nested calls on the
  // parent's thread), so self time is duration minus the children's sum.
  std::unordered_map<std::uint64_t, double> child_ns;
  child_ns.reserve(spans.size());
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.duration_ns();
  std::map<SpanName, SpanStats> out;
  for (const Span& s : spans) {
    SpanStats& st = out[s.name];
    st.duration_ns.add(s.duration_ns());
    const auto it = child_ns.find(s.id);
    st.self_ns.add(s.duration_ns() - (it == child_ns.end() ? 0.0 : it->second));
  }
  return out;
}

StageStats stitch_requests(const std::vector<Span>& spans) {
  struct Stages {
    const Span* send = nullptr;
    const Span* ack = nullptr;
    const Span* lane_wait = nullptr;
    const Span* dispatch = nullptr;
    const Span* complete = nullptr;
  };
  std::unordered_map<std::uint64_t, Stages> by_request;
  for (const Span& s : spans) {
    if (s.request == 0) continue;
    Stages& st = by_request[s.request];
    switch (s.name) {
      case SpanName::kClientSend: st.send = &s; break;
      case SpanName::kAck: st.ack = &s; break;
      case SpanName::kLaneWait: st.lane_wait = &s; break;
      case SpanName::kDispatch: st.dispatch = &s; break;
      case SpanName::kComplete: st.complete = &s; break;
      default: break;
    }
  }
  StageStats out;
  for (const auto& [request, st] : by_request) {
    if (!st.send || !st.ack || !st.lane_wait || !st.dispatch || !st.complete)
      continue;
    const double send = st.send->duration_ns();
    const double inbound =
        static_cast<double>(st.lane_wait->start_ns - st.send->end_ns);
    const double reply =
        static_cast<double>(st.ack->end_ns - st.complete->start_ns);
    const double total = st.ack->duration_ns();
    out.inbound_ns.add(inbound);
    out.reply_ns.add(reply);
    out.residual_ns.add(total - (send + inbound + st.lane_wait->duration_ns() +
                                 st.dispatch->duration_ns() + reply));
  }
  return out;
}

}  // namespace perfbench
