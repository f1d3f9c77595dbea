// Per-run observability capture for parallel independent runs.
//
// When a RunSet (core/run_shard.h) executes fig-bench runs on worker
// threads, probes from different runs would interleave nondeterministically
// in one shared hub. RunCaptureSet gives every run its own ObsHub —
// installed as the worker's thread-local hub for the job's duration — and
// merges them into the base hub in run-index order afterwards:
//
//   * traces: per-run events append in run order (Tracer::append_from),
//     each run sampled with the base tracer's config from a fresh
//     per-run offered-count, so admission is a per-run property;
//   * metrics: counters/gauges add, histograms merge bucket-wise — exact.
//
// The merged output is a pure function of (runs, config) — never of
// thread count — so BENCH JSON and trace files are byte-identical between
// --threads=1 and --threads=N. Callers must use per-run capture for every
// thread count (ShardedRunSet in core/run_shard.h does), keeping
// single-thread output the reference rather than a special case.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/obs.h"

namespace stellar::obs {

class RunCaptureSet {
 public:
  /// `base` is the hub the runs merge into; nullptr (no --trace, no
  /// installed hub) disables capture entirely and scopes become no-ops.
  RunCaptureSet(ObsHub* base, std::size_t runs) : base_(base) {
    if (base_ == nullptr) return;
    hubs_.reserve(runs);
    for (std::size_t i = 0; i < runs; ++i) {
      auto hub = std::make_unique<ObsHub>();
      hub->tracer().copy_config(base_->tracer());
      hubs_.push_back(std::move(hub));
    }
  }

  /// The capture hub for run `i`, or nullptr when capture is disabled.
  ObsHub* run_hub(std::size_t i) const {
    return i < hubs_.size() ? hubs_[i].get() : nullptr;
  }

  /// Installs run `i`'s hub as the calling thread's hub for its lifetime.
  class Scope {
   public:
    Scope(RunCaptureSet& set, std::size_t run)
        : active_(set.run_hub(run) != nullptr),
          prev_(active_ ? install_thread_hub(set.run_hub(run)) : nullptr) {}
    ~Scope() {
      if (active_) install_thread_hub(prev_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_;
    ObsHub* prev_;
  };

  /// Fold every run hub into the base, in run-index order. Call once,
  /// after all runs completed (the merged barrier).
  void merge_into_base() {
    if (base_ == nullptr) return;
    for (auto& hub : hubs_) {
      base_->tracer().append_from(hub->tracer());
      base_->metrics().merge_from(hub->metrics());
    }
    hubs_.clear();
  }

 private:
  ObsHub* base_;
  std::vector<std::unique_ptr<ObsHub>> hubs_;
};

}  // namespace stellar::obs
