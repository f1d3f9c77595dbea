// Run-level sharding: whole independent simulation runs homed on shards.
//
// The fig benches sweep many mutually independent runs (algorithm x
// path-count points, tenant mixes, failure scenarios); each run builds its
// own Simulator + ClosFabric + engines, so the natural parallel unit is
// the *run*, not the packet. ShardedRunSet combines the two pieces built
// for that:
//
//   * RunSet (below) — index-deterministic job placement across worker
//     threads (job i on worker i % threads, each worker in index order);
//   * obs/run_capture.h RunCaptureSet — a private ObsHub per run,
//     installed thread-locally for the job's duration and merged into the
//     base hub in run-index order at the end.
//
// Jobs must write their results into index-addressed slots and the caller
// prints them after execute() returns, in index order — then stdout,
// BENCH JSON and traces are byte-identical for every --threads=N.
// Per-run capture is used even at threads=1, so the single-thread
// reference shares the exact emission semantics it is compared against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/run_capture.h"
#include "sim/inline_action.h"

namespace stellar {

/// Deterministic executor for independent run-jobs (whole fig-bench
/// runs). Job i is assigned to worker (i % threads) and every worker
/// executes its jobs in ascending index order, so each job sees an
/// identical schedule for any thread count. Jobs must be mutually
/// independent and write results into index-addressed slots; callers emit
/// output after execute() returns, in index order, making it
/// byte-identical by construction.
class RunSet {
 public:
  using Job = InlineFunction<void()>;

  /// Returns the job's index.
  std::size_t add(Job job);
  std::size_t size() const { return jobs_.size(); }

  /// Runs all jobs and returns when the last one finishes. threads <= 1
  /// executes inline on the caller. A RunSet is single-use.
  void execute(std::uint32_t threads);

  /// Worker slot executing the innermost current job on this thread
  /// (0..threads-1 during execute(), 0 for inline execution), or -1
  /// outside any job. Lets shared sinks (bench EngineMeter) attribute
  /// work to shards without threading a handle through every call site.
  static int current_worker();

 private:
  std::vector<Job> jobs_;
  bool executed_ = false;
};

class ShardedRunSet {
 public:
  /// Captures into the currently installed hub (if any); `threads` as in
  /// RunSet::execute.
  explicit ShardedRunSet(std::uint32_t threads)
      : threads_(threads == 0 ? 1 : threads), base_(obs::hub()) {}

  /// Queue the next run-job (indices count up from 0 in add() order). The
  /// callable runs on a worker thread with the run's capture hub
  /// installed; anything it touches must be private to the run or
  /// internally synchronized (bench EngineMeter is).
  template <typename Fn>
  void add(Fn job) {
    const std::size_t index = next_index_++;
    runs_.add([this, index, job = std::move(job)]() mutable {
      obs::RunCaptureSet::Scope scope(*capture_, index);
      job();
    });
  }

  /// Allocates one capture hub per queued run, runs every job, then merges
  /// per-run observability into the base hub in run-index order.
  /// Single-use.
  void execute() {
    capture_.emplace(base_, runs_.size());
    runs_.execute(threads_);
    capture_->merge_into_base();
  }

  std::uint32_t threads() const { return threads_; }

 private:
  std::uint32_t threads_;
  obs::ObsHub* base_;
  std::size_t next_index_ = 0;
  std::optional<obs::RunCaptureSet> capture_;
  RunSet runs_;
};

}  // namespace stellar
