#include <chrono>
#include <map>
#include <stdexcept>

#include "client/extension.hpp"
#include "simulator/engine.hpp"
#include "stack.hpp"
#include "workload.hpp"

namespace perfbench {

Week simulate_week(std::uint64_t seed) {
  eyw::sim::SimConfig config;  // Table 1 defaults: 500 users, one week
  config.seed = derive_seed(seed, 0x5eed);
  eyw::sim::Engine engine(eyw::sim::World::build(config));
  const eyw::sim::SimResult sim = engine.run();

  Week week;
  week.by_user.resize(config.num_users);
  std::map<eyw::core::AdId, std::uint32_t> identity_of;
  for (const eyw::sim::SimImpression& si : sim.impressions) {
    const eyw::core::Impression& imp = si.impression;
    auto [it, fresh] = identity_of.try_emplace(
        imp.ad, static_cast<std::uint32_t>(week.identities.size()));
    if (fresh)
      week.identities.push_back(engine.ad_server().find_ad(imp.ad)->landing_url);
    week.by_user.at(imp.user).push_back(
        {.identity = it->second, .domain = imp.domain, .day = imp.day});
  }
  week.impressions = sim.impressions.size();
  return week;
}

std::vector<std::vector<eyw::crypto::BlindCell>> week_sketches(
    const Week& week, eyw::client::UrlMapper& mapper) {
  const eyw::server::BackendConfig config = bench_config();
  const eyw::client::ExtensionConfig ext_config{
      .detector = {},
      .cms_params = config.cms_params,
      .cms_hash_seed = config.cms_hash_seed};
  std::vector<std::vector<eyw::crypto::BlindCell>> out;
  out.reserve(week.by_user.size());
  for (std::size_t u = 0; u < week.by_user.size(); ++u) {
    eyw::client::BrowserExtension ext(static_cast<eyw::core::UserId>(u),
                                      ext_config, mapper);
    for (const WeekImpression& imp : week.by_user[u])
      ext.observe_ad(week.identities[imp.identity], imp.domain, imp.day);
    const eyw::sketch::CountMinSketch sketch = ext.build_sketch();
    const auto cells = sketch.cells();
    out.emplace_back(cells.begin(), cells.end());
  }
  return out;
}

TableMapper::TableMapper(const Week& week, const std::vector<std::uint64_t>& ids,
                         std::uint64_t id_space)
    : id_space_(id_space) {
  for (std::size_t i = 0; i < week.identities.size(); ++i)
    table_.emplace(week.identities[i], ids.at(i));
}

std::uint64_t TableMapper::map(std::string_view identity) {
  const auto it = table_.find(identity);
  if (it == table_.end())
    throw std::out_of_range("TableMapper: identity outside the week");
  return it->second;
}

void Completions::expect(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  outstanding_ += n;
}

void Completions::done(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok) ++failed_;
  if (--outstanding_ == 0) cv_.notify_all();
}

void Completions::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool Completions::wait_for(std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return outstanding_ == 0; });
}

std::uint64_t Completions::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::size_t Completions::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

}  // namespace perfbench
