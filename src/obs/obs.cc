#include "obs/obs.h"

#include <atomic>

namespace stellar::obs {

namespace {
// Atomic so worker threads (TSan smoke; RunSet workers) can read the
// installed hub while another thread installs/uninstalls one. Release on
// install pairs with acquire on read, so a thread that sees the pointer
// also sees the fully constructed hub behind it.
std::atomic<ObsHub*> g_hub{nullptr};

// Per-thread override for RunSet per-run capture. thread_local: each
// worker sees only its own slot, so this is shard-private, not shared.
thread_local ObsHub* tl_hub = nullptr;
}  // namespace

ObsHub* hub() {
  if (tl_hub != nullptr) return tl_hub;
  return g_hub.load(std::memory_order_acquire);
}

ObsHub* install_hub(ObsHub* h) {
  return g_hub.exchange(h, std::memory_order_acq_rel);
}

ObsHub* install_thread_hub(ObsHub* h) {
  ObsHub* prev = tl_hub;
  tl_hub = h;
  return prev;
}

void ObsHub::attach_periodic(Simulator& sim, SimTime period) {
  owner_.assert_held();
  detach_periodic();
  periodic_sim_ = &sim;
  period_ = period;
  pending_ = sim.schedule_after(period, [this] { fire_periodic(); });
}

void ObsHub::detach_periodic() {
  owner_.assert_held();
  if (periodic_sim_ != nullptr && pending_.valid()) {
    periodic_sim_->cancel(pending_);
  }
  pending_ = EventHandle{};
  periodic_sim_ = nullptr;
}

void ObsHub::fire_periodic() {
  owner_.assert_held();
  pending_ = EventHandle{};
  const SimTime at = periodic_sim_->now();
  metrics_.for_each_gauge([&](const std::string& name, std::int64_t v) {
    tracer_.counter(TraceCat::kSim, name, at, v);
  });
  // Re-arm only while other work is queued (same pattern as AuditRegistry /
  // FaultTelemetry): the firing that observes an empty queue recorded the
  // drained end state, and run() must be allowed to terminate.
  if (!periodic_sim_->empty()) {
    pending_ = periodic_sim_->schedule_after(period_, [this] {
      fire_periodic();
    });
  }
}

}  // namespace stellar::obs
