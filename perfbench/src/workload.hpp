// The workloads and the pieces they share: the simulated week their
// inputs come from, and a completion counter for asynchronous acks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "client/url_mapper.hpp"
#include "common.hpp"
#include "core/types.hpp"
#include "crypto/blinding.hpp"
#include "trace.hpp"

namespace perfbench {

/// One workload. main() times setup() (the benchmark's set-up time), then
/// calls measure() for a timed region and teardown(), once per stack. A
/// traced run's second stack is set up with a Tracer.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Server stack, keys, connections and warm-up: everything up to the
  /// first timed operation.
  virtual void setup(Tracer* tracer) = 0;
  /// Run the timed region for about `seconds`, check the outputs.
  [[nodiscard]] virtual Segment measure(double seconds) = 0;
  /// Stop every client and the stack; the next setup() starts fresh.
  virtual void teardown() = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_round_blinded(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_ingest_open(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_audit_oprf(const Options& o);

/// One impression as the extension sees it: the ad identity (index into
/// Week::identities), where and when.
struct WeekImpression {
  std::uint32_t identity = 0;
  eyw::core::DomainId domain = 0;
  eyw::core::Day day = 0;
};

/// A seeded simulated week at the paper's Table 1 defaults (500 users).
struct Week {
  std::vector<std::string> identities;  // unique ad landing URLs
  std::vector<std::vector<WeekImpression>> by_user;
  std::size_t impressions = 0;
};

[[nodiscard]] Week simulate_week(std::uint64_t seed);

/// Each user's week as the cells of their BrowserExtension sketch, with
/// ad identities mapped through `mapper`.
[[nodiscard]] std::vector<std::vector<eyw::crypto::BlindCell>> week_sketches(
    const Week& week, eyw::client::UrlMapper& mapper);

/// A UrlMapper answering from a precomputed identity -> id table (the
/// oracle side of the OPRF checks).
class TableMapper final : public eyw::client::UrlMapper {
 public:
  TableMapper(const Week& week, const std::vector<std::uint64_t>& ids,
              std::uint64_t id_space);
  [[nodiscard]] std::uint64_t map(std::string_view identity) override;
  [[nodiscard]] std::uint64_t id_space() const override { return id_space_; }

 private:
  std::unordered_map<std::string_view, std::uint64_t> table_;
  std::uint64_t id_space_;
};

/// Counts asynchronous completions; wait() blocks until every expected
/// one has arrived.
class Completions {
 public:
  void expect(std::size_t n);
  void done(bool ok);
  void wait();
  /// Like wait(), but gives up after `timeout_ms`; false on timeout.
  [[nodiscard]] bool wait_for(std::int64_t timeout_ms);
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] std::size_t outstanding() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
