// perfbench: the repo benchmark. One run = one seeded workload against
// the deployed server stack over loopback sockets.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--revision SHA]
//
// Untraced (--trace 0): set up three times (setup_s is the median), run
// the workload on each stack for S/3 seconds, print the end-to-end
// metrics as medians over the three stacks.
// Traced (--trace 1): S/2 seconds untraced, then S/2 seconds with spans
// around every layer boundary; prints the per-layer metrics and the
// tracing overhead, and writes the spans to DIR.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The lines before it carry the run metadata and every figure
// with its sample count. Exit status 0 only when every output check held.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "crypto/mont_kernel.hpp"
#include "crypto/sha256_kernel.hpp"
#include "sketch/sketch_kernel.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Span budget of one traced segment (~30 MB in memory). ingest_open
/// spends it before its traced half ends; later spans are counted as
/// dropped.
constexpr std::size_t kSpanCapacity = 600'000;

/// Every per-layer metric with its unit, in BENCHMARK.json order. A
/// metric a workload does not exercise reads 0 (its span is absent).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"crypto.blind_ms", "ms"},
    {"crypto.adjust_ms", "ms"},
    {"crypto.roster_setup_ms", "ms"},
    {"crypto.blind_share", "ratio"},
    {"client.busy_ratio", "ratio"},
    {"server.phase_begin_ms", "ms"},
    {"server.phase_reports_ms", "ms"},
    {"server.phase_missing_ms", "ms"},
    {"server.phase_adjust_ms", "ms"},
    {"server.phase_finalize_ms", "ms"},
    {"server.finalize_scan_ms", "ms"},
    {"proto.client_send_us", "us"},
    {"proto.inbound_us", "us"},
    {"server.lane_wait_us", "us"},
    {"server.endpoint_us", "us"},
    {"storage.journal_submit_us", "us"},
    {"sketch.apply_us", "us"},
    {"proto.reply_us", "us"},
    {"stage_residual_us", "us"},
    {"client.map_miss_ms", "ms"},
    {"crypto.oprf_eval_us", "us"},
    {"core.audit_us", "us"},
    {"client.cache_hit_ratio", "ratio"},
    {"proto.pool_misses", "count"},
    {"proto.frames_pooled", "count"},
    {"proto.eventfd_wakeups", "count"},
    {"proto.streams_shed", "count"},
    {"proto.unavailable_retries", "count"},
    {"server.dispatcher_shed", "count"},
    {"server.lane_depth_max", "count"},
    {"storage.records_per_fsync", "ratio"},
    {"storage.enqueue_stalls", "count"},
    {"storage.journal_reencodes", "count"},
    {"proto.round_trips", "count"},
    {"trace_overhead.throughput_per_s", "ratio"},
    {"trace_overhead.latency_p50_ms", "ratio"},
};

/// Span-derived layer metrics: (metric, span, self time?, ns per unit).
struct SpanMetric {
  const char* metric;
  SpanName span;
  bool self;
  double ns_per_unit;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"crypto.blind_ms", SpanName::kBlind, false, 1e6},
    {"crypto.adjust_ms", SpanName::kAdjust, false, 1e6},
    {"crypto.roster_setup_ms", SpanName::kRosterSetup, false, 1e6},
    {"server.phase_begin_ms", SpanName::kPhaseBegin, false, 1e6},
    {"server.phase_reports_ms", SpanName::kPhaseReports, false, 1e6},
    {"server.phase_missing_ms", SpanName::kPhaseMissing, false, 1e6},
    {"server.phase_adjust_ms", SpanName::kPhaseAdjust, false, 1e6},
    {"server.phase_finalize_ms", SpanName::kPhaseFinalize, false, 1e6},
    {"server.finalize_scan_ms", SpanName::kFinalizeScan, false, 1e6},
    {"proto.client_send_us", SpanName::kClientSend, false, 1e3},
    {"server.lane_wait_us", SpanName::kLaneWait, false, 1e3},
    {"server.endpoint_us", SpanName::kEndpoint, true, 1e3},
    {"storage.journal_submit_us", SpanName::kJournalSubmit, true, 1e3},
    {"sketch.apply_us", SpanName::kSketchApply, false, 1e3},
    {"client.map_miss_ms", SpanName::kMapMiss, false, 1e6},
    {"crypto.oprf_eval_us", SpanName::kOprfEval, false, 1e3},
    {"core.audit_us", SpanName::kAudit, false, 1e3},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "round_blinded|ingest_open|audit_oprf --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--revision SHA]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0) || o.seconds > 600)
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      o.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--revision") {
      o.revision = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  return o;
}

/// The CPU brand string, from CPUID (no file is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    if (__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0)
      return "unknown";
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...}; with samples, also the count.
std::string json_metrics(const Metrics& metrics, bool with_samples) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples)
      out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "round_blinded") return make_round_blinded(o);
  if (o.workload == "ingest_open") return make_ingest_open(o);
  if (o.workload == "audit_oprf") return make_audit_oprf(o);
  usage(("unknown workload " + o.workload).c_str());
}

/// Per-layer metrics of a traced segment, every name present.
Metrics layer_metrics(const Tracer& tracer, const Segment& traced,
                      const Segment& plain) {
  Metrics out;
  for (const auto& [name, unit] : kLayerMetrics) out[name] = {0.0, unit, 0};
  const auto stats = span_stats(tracer.spans());
  for (const SpanMetric& sm : kSpanMetrics) {
    const auto it = stats.find(sm.span);
    if (it == stats.end()) continue;
    const Samples& s = sm.self ? it->second.self_ns : it->second.duration_ns;
    out[sm.metric].value = s.median() / sm.ns_per_unit;
    out[sm.metric].samples = s.size();
  }
  const StageStats stages = stitch_requests(tracer.spans());
  out["proto.inbound_us"] = {stages.inbound_ns.median() / 1e3, "us",
                             stages.inbound_ns.size()};
  out["proto.reply_us"] = {stages.reply_ns.median() / 1e3, "us",
                           stages.reply_ns.size()};
  out["stage_residual_us"] = {stages.residual_ns.median() / 1e3, "us",
                              stages.residual_ns.size()};
  for (const auto& [name, m] : traced.layers)
    if (out.contains(name)) out[name] = {m.value, out[name].unit, m.samples};
  for (const char* e2e :
       {"throughput_per_s", "latency_p50_ms"}) {
    const double base = plain.e2e.at(e2e).value;
    out[std::string("trace_overhead.") + e2e] = {
        base == 0.0 ? 0.0 : traced.e2e.at(e2e).value / base - 1.0, "ratio", 0};
  }
  return out;
}

/// Per metric name: the median of the segments' values, with their sample
/// counts summed.
Metrics median_over(const std::vector<Segment>& segments,
                    Metrics Segment::*which) {
  Metrics out;
  for (const auto& [name, first] : segments.front().*which) {
    Samples values;
    std::uint64_t samples = 0;
    for (const Segment& seg : segments) {
      const Metric& m = (seg.*which).at(name);
      values.add(m.value);
      samples += m.samples;
    }
    out[name] = {values.median(), first.unit, samples};
  }
  return out;
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o);
  std::vector<Segment> segments;
  Metrics final_metrics;
  Metrics detail;
  std::string trace_summary;

  if (!o.trace) {
    // Each set-up gets a third of the measured seconds: how the scheduler
    // places a fresh stack's threads moves its figures, so every metric
    // is the median over the three stacks.
    Samples setup_s;
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t t0 = now_ns();
      workload->setup(nullptr);
      setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      segments.push_back(workload->measure(o.seconds / kSetups));
      workload->teardown();
    }
    final_metrics = median_over(segments, &Segment::e2e);
    detail = median_over(segments, &Segment::detail);
    final_metrics["setup_s"] = {setup_s.median(), "s", setup_s.size()};
    if (!final_metrics.contains("peak_rss_mb"))
      final_metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", 0};
    detail.insert(final_metrics.begin(), final_metrics.end());
  } else {
    workload->setup(nullptr);
    segments.push_back(workload->measure(o.seconds / 2));
    workload->teardown();
    Tracer tracer(kSpanCapacity);
    workload->setup(&tracer);
    segments.push_back(workload->measure(o.seconds / 2));
    workload->teardown();
    final_metrics = layer_metrics(tracer, segments[1], segments[0]);
    for (const char* half : {"untraced.", "traced."}) {
      const Segment& seg = segments[half[0] == 't' ? 1 : 0];
      for (const Metrics* metrics : {&seg.e2e, &seg.detail})
        for (const auto& [name, m] : *metrics) detail[half + name] = m;
    }
    const auto stats = span_stats(tracer.spans());
    trace_summary = "{";
    for (const auto& [name, st] : stats) {
      if (trace_summary.size() > 1) trace_summary += ", ";
      trace_summary += json_string(span_name(name)) + ": " +
                       std::to_string(st.duration_ns.size());
    }
    trace_summary += "}";
    if (const auto it = stats.find(SpanName::kOprfEval); it != stats.end()) {
      const Samples& eval = it->second.duration_ns;
      detail["crypto.oprf_eval_us.p10"] = {eval.quantile(0.1) / 1e3, "us",
                                           eval.size()};
      detail["crypto.oprf_eval_us.p90"] = {eval.quantile(0.9) / 1e3, "us",
                                           eval.size()};
    }
    const std::string path =
        o.work_dir + "/spans-" + o.workload + ".txt";
    if (!tracer.write(path))
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    detail["spans_dropped"] = {static_cast<double>(tracer.dropped()), "count",
                               0};
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string resources = "{";
  for (const Segment& seg : segments) {
    attempted += seg.attempted;
    failed += seg.failed;
    for (const std::string& f : seg.check_failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
      correct = false;
    }
  }
  for (const auto& [name, v] : segments.back().resources) {
    if (resources.size() > 1) resources += ", ";
    resources += json_string(name) + ": " + std::to_string(v);
  }
  resources += "}";

  std::printf(
      "meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"revision\": %s, \"cpu\": %s, \"nproc\": %zu, \"compiler\": %s, "
      "\"build_type\": %s, \"kernels\": {\"mont\": %s, \"sketch\": %s, "
      "\"sha256\": %s}, \"resources\": %s%s%s}\n",
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), json_number(o.seconds).c_str(),
      o.trace ? 1 : 0, json_string(o.revision).c_str(),
      json_string(cpu_model()).c_str(), cpu_count(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(eyw::crypto::active_mont_kernel().name).c_str(),
      json_string(eyw::sketch::active_sketch_kernel().name).c_str(),
      json_string(eyw::crypto::active_sha256_kernel().name).c_str(),
      resources.c_str(), trace_summary.empty() ? "" : ", \"span_counts\": ",
      trace_summary.c_str());
  std::printf("detail %s\n", json_metrics(detail, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(final_metrics, false).c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
