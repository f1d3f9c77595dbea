#include "obs/obs.h"

#include <atomic>

namespace stellar::obs {

namespace {
// Atomic so worker threads (TSan smoke; ShardedRunSet workers) can read the
// installed hub while another thread installs/uninstalls one. Release on
// install pairs with acquire on read, so a thread that sees the pointer
// also sees the fully constructed hub behind it.
std::atomic<ObsHub*> g_hub{nullptr};

// Per-thread override for ShardedRunSet per-run capture. thread_local: each
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

}  // namespace stellar::obs
