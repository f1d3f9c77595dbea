// Deterministic metrics registry: monotonic counters, gauges, and
// log-bucketed latency histograms.
//
// The paper's evaluation (§7) is built on per-layer telemetry — ATC miss
// rates, pin latency, RTO counts, per-path PSN trajectories. This registry
// is the simulation-side equivalent: every layer increments named series,
// and `to_json()` renders a byte-deterministic snapshot so tests can golden
// the output (see docs/OBSERVABILITY.md for the naming scheme and the
// determinism contract).
//
// Determinism rules:
//  - names are stored in a std::map, so dump order is lexicographic and
//    independent of registration order;
//  - all dumped values are integers (counts, sums, picoseconds) — no
//    floating-point formatting is ever emitted;
//  - nothing here reads wall-clock time.
//
// Thread-safety: counter/gauge updates are relaxed atomics and the
// name->series maps are guarded by an internal Mutex, so threads may bump
// shared series concurrently (tests/tsan_smoke_test.cc runs this under
// TSan). Histograms stay shard-local by convention: record() is NOT
// thread-safe and concurrent recording must go through per-shard series.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace stellar::obs {

/// Monotonically non-decreasing event count. Updates are relaxed atomics:
/// safe from any shard, and exactly as cheap as a plain add when only one
/// thread exists (the whole single-threaded engine today).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, pinned bytes, blacklisted paths...).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// HDR-style log-bucketed histogram over non-negative integer samples
/// (typically latencies in picoseconds).
///
/// Bucketing: values below 2^kSubBits*2 (= 16) are recorded exactly; above
/// that, each power-of-two octave is split into 2^kSubBits = 8 sub-buckets,
/// so the relative bucket width is at most 1/8 (12.5%). `quantile()`
/// mirrors the exact `PercentileRecorder::percentile()` interpolation using
/// bucket midpoints, which bounds the estimate error to one bucket width —
/// the property tests/obs_metrics_property_test.cc locks down.
class LogHistogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  // 8 sub-buckets per octave
  // Buckets: [0, 2*kSub) exact, then (64 - kSubBits - 1) octaves * kSub.
  static constexpr int kBuckets = 2 * kSub + (64 - kSubBits - 1) * kSub;

  /// Bucket index for a sample value.
  static int bucket_index(std::uint64_t v) {
    if (v < 2ull * kSub) return static_cast<int>(v);
    const int octave = std::bit_width(v) - 1;               // >= kSubBits + 1
    const int top = static_cast<int>((v >> (octave - kSubBits)) & (kSub - 1));
    return ((octave - kSubBits) << kSubBits) + top + kSub;
  }

  /// Inclusive lower bound of bucket `i`.
  static std::uint64_t bucket_lo(int i) {
    if (i < 2 * kSub) return static_cast<std::uint64_t>(i);
    const int u = i - kSub;
    const int octave = (u >> kSubBits) + kSubBits;
    const std::uint64_t top = static_cast<std::uint64_t>(u & (kSub - 1));
    return (kSub + top) << (octave - kSubBits);
  }

  /// Exclusive upper bound of bucket `i`. The topmost bucket's true bound
  /// (2^64) is unrepresentable, so it saturates to ~0ull.
  static std::uint64_t bucket_hi(int i) {
    if (i < 2 * kSub) return static_cast<std::uint64_t>(i) + 1;
    const int u = i - kSub;
    const int octave = (u >> kSubBits) + kSubBits;
    const std::uint64_t lo = bucket_lo(i);
    const std::uint64_t hi = lo + (1ull << (octave - kSubBits));
    return hi > lo ? hi : ~0ull;
  }

  /// Midpoint of bucket `i` (integer division; exact buckets return the
  /// sample value itself).
  static std::uint64_t bucket_mid(int i) {
    if (i < 2 * kSub) return static_cast<std::uint64_t>(i);
    return bucket_lo(i) + (bucket_hi(i) - bucket_lo(i)) / 2;
  }

  void record(std::uint64_t v) {
    ++counts_[static_cast<std::size_t>(bucket_index(v))];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t mean() const { return count_ ? sum_ / count_ : 0; }

  /// Quantile estimate mirroring PercentileRecorder::percentile(): rank
  /// pos = q * (n - 1), linear interpolation between the two nearest ranks,
  /// each rank's value approximated by its bucket midpoint. Returns 0 when
  /// empty. `q` is clamped to [0, 1].
  double quantile(double q) const;

  /// Fold another histogram's samples into this one (bucket-wise add).
  /// Exact: the merged histogram equals the one that would have recorded
  /// both sample streams directly, so per-run histograms merged in run
  /// order (ShardedRunSet, core/run_shard.h) dump byte-identically for any
  /// thread count.
  void merge_from(const LogHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<std::size_t>(i)] +=
          other.counts_[static_cast<std::size_t>(i)];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  /// Bucket-midpoint of the sample at (0-based) rank `r`.
  std::uint64_t value_at_rank(std::uint64_t r) const;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Name → series registry. References returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime (std::map nodes are
/// stable), so hot paths may cache them.
///
/// Thread-safety: registration (the map mutations) is serialized on mu_;
/// cached Counter/Gauge references are safe to bump from any shard (atomic
/// updates). The visitors and dumps also hold mu_ — do not re-enter the
/// same registry from inside a visitor.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) STELLAR_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) STELLAR_EXCLUDES(mu_);
  LogHistogram& histogram(std::string_view name) STELLAR_EXCLUDES(mu_);

  std::size_t size() const STELLAR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold another registry into this one: counters and gauges add their
  /// values, histograms merge bucket-wise (all exact). Merging per-run
  /// registries in run-index order yields the same lexicographic dump for
  /// any thread count.
  void merge_from(const MetricsRegistry& other) STELLAR_EXCLUDES(mu_);

  /// Byte-deterministic JSON snapshot: lexicographic name order, integer
  /// values only. Histograms dump count/sum/min/max/p50/p99 (quantiles
  /// rendered as integer picoseconds via truncation).
  std::string to_json() const STELLAR_EXCLUDES(mu_);

 private:
  /// Serializes registration and dumps; series values are atomics.
  mutable Mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_
      STELLAR_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauges_ STELLAR_GUARDED_BY(mu_);
  std::map<std::string, LogHistogram, std::less<>> histograms_
      STELLAR_GUARDED_BY(mu_);
};

}  // namespace stellar::obs
