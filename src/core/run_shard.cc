#include "core/run_shard.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "check/check.h"

namespace stellar {

void ShardedRunSet::add(Job job) {
  STELLAR_CHECK(!executed_,
                "ShardedRunSet is single-use; add before execute()");
  jobs_.push_back(std::move(job));
}

void ShardedRunSet::execute() {
  STELLAR_CHECK(!executed_, "ShardedRunSet is single-use");
  executed_ = true;
  const std::size_t n = jobs_.size();
  // No base hub (no --trace, none installed): nothing to capture, and the
  // jobs run with no hub of their own.
  std::vector<std::unique_ptr<obs::ObsHub>> hubs;
  if (base_ != nullptr) {
    hubs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      hubs.push_back(std::make_unique<obs::ObsHub>());
      hubs.back()->tracer().copy_config(base_->tracer());
    }
  }
  auto run = [this, &hubs](std::size_t i) {
    obs::ObsHub* prev =
        hubs.empty() ? nullptr : obs::install_thread_hub(hubs[i].get());
    jobs_[i]();
    if (!hubs.empty()) obs::install_thread_hub(prev);
  };
  const auto workers =
      static_cast<std::uint32_t>(std::min<std::size_t>(threads_, n));
  auto drive_worker = [&run, n, workers](std::uint32_t w) {
    for (std::size_t i = w; i < n; i += workers) run(i);
  };
  std::vector<std::thread> pool;
  for (std::uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back(drive_worker, w);
  }
  drive_worker(0);
  for (auto& t : pool) t.join();
  jobs_.clear();
  for (auto& hub : hubs) {
    base_->tracer().append_from(hub->tracer());
    base_->metrics().merge_from(hub->metrics());
  }
}

}  // namespace stellar
