// Sim-time span/event tracer emitting byte-deterministic Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing).
//
// Timestamps are sim *picoseconds*, written verbatim into the `ts`/`dur`
// fields. Chrome's JSON format nominally uses microseconds; we set
// `displayTimeUnit` and simply accept that the UI shows ps as µs — the
// numbers stay exact integers, which is what the determinism contract
// requires (docs/OBSERVABILITY.md).
//
// Event kinds emitted:
//   "X" complete   — a span with ts + dur (e.g. pvdma.prepare_dma)
//   "i" instant    — a point event (e.g. transport.rto_fire)
//   "C" counter    — a counter track sample (e.g. link queue bytes)
//   "M" metadata   — thread_name records naming each category track
//
// Each TraceCat renders as its own track (pid 0, tid = category id).
// Events append in call order; since all producers run inside the single-
// threaded deterministic simulator, the file is byte-identical across
// seeded replays. A per-category keep-1-of-N sampling knob bounds trace
// size on big runs without breaking determinism (the decision depends only
// on the per-category offered-event count).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/units.h"

namespace stellar::obs {

/// One track per instrumented layer.
enum class TraceCat : std::uint8_t {
  kSim = 0,
  kPvdma,
  kAtc,
  kMtt,
  kGdr,
  kTransport,
  kNet,
  kLink,
  kFault,
  kCollective,
  kCount,
};

constexpr int kTraceCats = static_cast<int>(TraceCat::kCount);

/// Stable track name for a category ("pvdma", "transport", ...).
std::string_view trace_cat_name(TraceCat cat);

/// Up to four integer key/value arguments attached to an event.
struct TraceArgs {
  struct Arg {
    const char* key = nullptr;
    std::int64_t value = 0;
  };
  Arg args[4];
  int n = 0;

  TraceArgs() = default;
  TraceArgs(const char* k0, std::int64_t v0) : n(1) { args[0] = {k0, v0}; }
  TraceArgs(const char* k0, std::int64_t v0, const char* k1, std::int64_t v1)
      : n(2) {
    args[0] = {k0, v0};
    args[1] = {k1, v1};
  }
  TraceArgs(const char* k0, std::int64_t v0, const char* k1, std::int64_t v1,
            const char* k2, std::int64_t v2)
      : n(3) {
    args[0] = {k0, v0};
    args[1] = {k1, v1};
    args[2] = {k2, v2};
  }
  TraceArgs(const char* k0, std::int64_t v0, const char* k1, std::int64_t v1,
            const char* k2, std::int64_t v2, const char* k3, std::int64_t v3)
      : n(4) {
    args[0] = {k0, v0};
    args[1] = {k1, v1};
    args[2] = {k2, v2};
    args[3] = {k3, v3};
  }
};

/// Thread safety: every public entry point takes mu_, so concurrent
/// producers (the threaded TSan smoke; any threads funnelling into a
/// shared tracer) serialize on emission. On the deterministic
/// single-threaded engine the mutex is uncontended and byte-determinism is
/// unchanged: event order is call order.
class Tracer {
 public:
  Tracer();

  /// Keep 1 of every `period` offered events in `cat` (1 = keep all).
  /// The filter is deterministic: it counts offered events per category.
  void set_sample_period(TraceCat cat, std::uint32_t period)
      STELLAR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    sample_period_[static_cast<int>(cat)] = period == 0 ? 1 : period;
  }

  /// A span with explicit start and duration.
  void complete(TraceCat cat, std::string_view name, SimTime ts, SimTime dur,
                const TraceArgs& args = {}) STELLAR_EXCLUDES(mu_);
  /// A point event.
  void instant(TraceCat cat, std::string_view name, SimTime ts,
               const TraceArgs& args = {}) STELLAR_EXCLUDES(mu_);
  /// A counter-track sample (renders as a stacked area chart).
  void counter(TraceCat cat, std::string_view name, SimTime ts,
               std::int64_t value) STELLAR_EXCLUDES(mu_);

  std::size_t event_count() const STELLAR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return events_.size();
  }
  std::uint64_t dropped_by_sampling() const STELLAR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return dropped_;
  }

  /// Mirror another tracer's sample periods without touching its events.
  /// Used by per-run capture hubs (ShardedRunSet, core/run_shard.h) so
  /// every run samples exactly as the base tracer would.
  void copy_config(const Tracer& from) STELLAR_EXCLUDES(mu_);

  /// Deterministic merge: append every event of `from` (in its recorded
  /// order) after this tracer's events and fold in its offered/dropped
  /// sampling accounting. Callers merge per-run tracers in run-index
  /// order, which makes the combined stream independent of thread count.
  void append_from(const Tracer& from) STELLAR_EXCLUDES(mu_);

  /// Serialize to Chrome trace-event JSON: one event per line, metadata
  /// records first, byte-deterministic.
  std::string to_json() const STELLAR_EXCLUDES(mu_);

  /// Write to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  // Sampling admission for one offered event in `cat`.
  bool admit(TraceCat cat) STELLAR_REQUIRES(mu_);

  struct Event {
    char phase;        // 'X', 'i', 'C'
    TraceCat cat;
    std::string name;  // event or counter name
    SimTime ts;
    SimTime dur;       // 'X' only
    TraceArgs args;    // 'C' stores the value in args[0]
  };

  mutable Mutex mu_;
  std::uint32_t sample_period_[kTraceCats] STELLAR_GUARDED_BY(mu_);
  std::uint64_t offered_[kTraceCats] STELLAR_GUARDED_BY(mu_);
  std::uint64_t dropped_ STELLAR_GUARDED_BY(mu_) = 0;
  std::vector<Event> events_ STELLAR_GUARDED_BY(mu_);
};

}  // namespace stellar::obs
