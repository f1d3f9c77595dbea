// ObsHub: the process-wide observability attachment point.
//
// A hub owns one MetricsRegistry + one Tracer and (optionally) a Simulator
// clock. Hot paths do NOT talk to a hub directly — they call the free
// probe helpers below (obs::count, obs::record_time, obs::complete, ...),
// each of which is a no-op when no hub is installed, and every call site is
// additionally wrapped in STELLAR_TRACE_ONLY(...) so -DSTELLAR_TRACE=OFF
// removes the probes from the build entirely (mirroring STELLAR_AUDIT).
//
// Clock handling: layers that own a Simulator pass `sim.now()` explicitly;
// clockless layers (PVDMA, ATC, MTT, GDR) use obs::now(), which reads the
// hub clock installed via set_clock() (and returns t=0 when none is set —
// metrics are unaffected, only trace timestamps degrade).
//
// Determinism contract: a hub never perturbs the simulation. It is
// passive: installing one schedules no events at all.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/trace_only.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace stellar::obs {

class ObsHub {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Clock for clockless layers; trace timestamps read this when the call
  /// site has no Simulator of its own.
  void set_clock(const Simulator* sim) { clock_ = sim; }
  SimTime now() const {
    return clock_ != nullptr ? clock_->now() : SimTime::zero();
  }

 private:
  // Shard-safety contract: metrics_ and tracer_ are internally synchronized
  // (atomic counters / Mutex) and safe to probe from any thread.
  MetricsRegistry metrics_;
  Tracer tracer_;
  const Simulator* clock_ = nullptr;  // set once at setup, then read-only
};

/// The hub probes resolve to: this thread's override when one is set
/// (per-run capture on a ShardedRunSet worker), else the process-wide hub,
/// else nullptr (all probes no-op).
ObsHub* hub();

/// Install `h` (nullptr uninstalls); returns the previous hub. Tests and
/// benches install a stack-local hub for the duration of a run.
ObsHub* install_hub(ObsHub* h);

/// Override the hub for the *calling thread only* (nullptr clears);
/// returns the previous override. ShardedRunSet (core/run_shard.h) points
/// this at a per-run capture hub for the duration of a job, so concurrent
/// runs record into disjoint hubs that merge deterministically afterwards.
/// The process-wide hub is untouched.
ObsHub* install_thread_hub(ObsHub* h);

// ---------------------------------------------------------------------------
// Probe helpers — every call is a no-op without an installed hub. Call
// sites additionally wrap these in STELLAR_TRACE_ONLY(...).
// ---------------------------------------------------------------------------

inline SimTime now() {
  ObsHub* h = hub();
  return h != nullptr ? h->now() : SimTime::zero();
}

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (ObsHub* h = hub()) h->metrics().counter(name).add(delta);
}

inline void gauge_set(std::string_view name, std::int64_t v) {
  if (ObsHub* h = hub()) h->metrics().gauge(name).set(v);
}

inline void gauge_add(std::string_view name, std::int64_t delta) {
  if (ObsHub* h = hub()) h->metrics().gauge(name).add(delta);
}

inline void record(std::string_view name, std::uint64_t v) {
  if (ObsHub* h = hub()) h->metrics().histogram(name).record(v);
}

inline void record_time(std::string_view name, SimTime t) {
  if (ObsHub* h = hub()) {
    h->metrics().histogram(name).record(
        static_cast<std::uint64_t>(t.ps() < 0 ? 0 : t.ps()));
  }
}

/// Span with explicit timestamps (sim-owning layers pass sim.now()).
inline void complete(TraceCat cat, std::string_view name, SimTime ts,
                     SimTime dur, const TraceArgs& args = {}) {
  if (ObsHub* h = hub()) h->tracer().complete(cat, name, ts, dur, args);
}

/// Span ending now (clockless layers; ts = hub clock − dur).
inline void complete_here(TraceCat cat, std::string_view name, SimTime dur,
                          const TraceArgs& args = {}) {
  if (ObsHub* h = hub()) {
    h->tracer().complete(cat, name, h->now(), dur, args);
  }
}

inline void instant(TraceCat cat, std::string_view name, SimTime ts,
                    const TraceArgs& args = {}) {
  if (ObsHub* h = hub()) h->tracer().instant(cat, name, ts, args);
}

inline void instant_here(TraceCat cat, std::string_view name,
                         const TraceArgs& args = {}) {
  if (ObsHub* h = hub()) h->tracer().instant(cat, name, h->now(), args);
}

inline void track(TraceCat cat, std::string_view name, SimTime ts,
                  std::int64_t value) {
  if (ObsHub* h = hub()) h->tracer().counter(cat, name, ts, value);
}

}  // namespace stellar::obs
