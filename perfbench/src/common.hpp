// Shared vocabulary of the benchmark: the clock every timestamp is taken
// on, sample sets with percentiles, and the result a workload hands back
// to main() for printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the one steady clock all spans and latencies share, so
/// timestamps taken on different threads can be subtracted.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for journals and the span dump (inside the
  /// checkout's build directory).
  std::string work_dir;
  /// Source revision as the launcher found it ("unknown" outside git).
  std::string revision = "unknown";
};

/// A set of measurements of one quantity.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One reported number: value, unit, and how many samples it summarises
/// (0 for a number that is not a statistic of samples).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

/// Everything one measured segment of a workload produced.
struct Segment {
  /// The BENCHMARK.json end-to-end metrics (generic names shared by
  /// every workload).
  Metrics e2e;
  /// The same measurements under the workload-specific names of the
  /// benchmark document, plus supporting figures (lateness, ratios).
  Metrics detail;
  /// Layer counters read around the measured region (traced runs only).
  Metrics layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  /// Thread and connection counts actually used.
  std::map<std::string, std::uint64_t> resources;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Peak resident set of this process, in MB (getrusage high-water mark).
[[nodiscard]] double peak_rss_mb();

/// Hardware threads this process may run on.
[[nodiscard]] std::size_t cpu_count();

/// Derive an independent 64-bit stream seed from the run seed and a tag.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t tag) noexcept;

}  // namespace perfbench
