#include "core/run_shard.h"

#include <thread>
#include <utility>

#include "check/check.h"

namespace stellar {

namespace {
// Worker slot for the innermost RunSet job on this thread. thread_local by
// design: each worker sees only its own slot, so this is shard-private
// state, not shared engine state.
thread_local int tl_run_worker = -1;
}  // namespace

std::size_t RunSet::add(Job job) {
  STELLAR_CHECK(!executed_, "RunSet is single-use; add before execute()");
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

void RunSet::execute(std::uint32_t threads) {
  STELLAR_CHECK(!executed_, "RunSet is single-use");
  executed_ = true;
  const auto n = jobs_.size();
  if (threads <= 1 || n <= 1) {
    const int prev = tl_run_worker;
    tl_run_worker = 0;
    for (auto& job : jobs_) job();
    tl_run_worker = prev;
    jobs_.clear();
    return;
  }
  const std::uint32_t workers =
      threads < n ? threads : static_cast<std::uint32_t>(n);
  auto drive_worker = [this, workers](std::uint32_t w) {
    const int prev = tl_run_worker;
    tl_run_worker = static_cast<int>(w);
    for (std::size_t i = w; i < jobs_.size(); i += workers) jobs_[i]();
    tl_run_worker = prev;
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back(drive_worker, w);
  }
  drive_worker(0);
  for (auto& t : pool) t.join();
  jobs_.clear();
}

int RunSet::current_worker() { return tl_run_worker; }

}  // namespace stellar
