// Run-level sharding: whole independent simulation runs homed on shards.
//
// The fig benches sweep many mutually independent runs (algorithm x
// path-count points, tenant mixes, failure scenarios); each run builds its
// own Simulator + ClosFabric + engines, so the natural parallel unit is
// the *run*, not the packet. ShardedRunSet runs such jobs:
//
//   * placement is index-deterministic: job i runs on worker i % threads,
//     and each worker runs its jobs in ascending index order;
//   * each run gets a private capture ObsHub (when a hub is installed),
//     set as the worker's thread hub for the job's duration and merged
//     into the base hub in run-index order at the end — traces append in
//     run order, each run sampled with the base tracer's config from its
//     own offered-count; counters and gauges add, histograms merge
//     bucket-wise.
//
// Jobs must write their results into index-addressed slots and the caller
// prints them after execute() returns, in index order — then stdout,
// BENCH JSON and traces are byte-identical for every --threads=N.
// Per-run capture is used even at threads=1, so the single-thread
// reference shares the exact emission semantics it is compared against.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "sim/inline_action.h"

namespace stellar {

class ShardedRunSet {
 public:
  using Job = InlineFunction<void()>;

  /// Captures into the currently installed hub (if any). threads <= 1
  /// runs every job inline on the caller.
  explicit ShardedRunSet(std::uint32_t threads)
      : threads_(threads == 0 ? 1 : threads), base_(obs::hub()) {}

  /// Queue the next run-job (indices count up from 0 in add() order). The
  /// callable runs on a worker thread with the run's capture hub
  /// installed; anything it touches must be private to the run or
  /// internally synchronized (bench EngineMeter is).
  void add(Job job);

  /// Builds one capture hub per queued run, runs every job and returns
  /// when the last one finishes, then merges per-run observability into
  /// the base hub in run-index order. Single-use.
  void execute();

 private:
  std::uint32_t threads_;
  obs::ObsHub* base_;
  std::vector<Job> jobs_;
  bool executed_ = false;
};

}  // namespace stellar
