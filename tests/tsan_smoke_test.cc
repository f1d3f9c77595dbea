// Threaded shard-safety smoke for the observability layer.
//
// The ObsHub is internally synchronized so that several threads may funnel
// metrics and trace events into one shared hub. This test drives that
// sharing pattern from real std::threads so a ThreadSanitizer build
// (-DSTELLAR_SANITIZE=thread, run by tools/ci_checks.sh) certifies the
// synchronization for real: atomic Counter/Gauge hot paths, Mutex-serialized
// registry map mutation, Mutex-serialized trace emission, and the atomic
// installed-hub pointer. It also passes as a plain test in every build —
// the assertions below hold whether or not TSan is watching.
//
// tests/tsan_race_demo.cc is the control: a deliberate data race that the
// same TSan build MUST flag (ci_checks fails if it runs clean), proving the
// wiring actually detects races rather than vacuously passing.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"

namespace stellar::obs {
namespace {

constexpr int kThreads = 4;
constexpr int kIters = 25000;

TEST(TsanSmokeTest, ConcurrentCountersGaugesAndTraces) {
  ObsHub hub_storage;
  ObsHub* prev = install_hub(&hub_storage);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        count("smoke/ops");
        gauge_add("smoke/level", +1);
        gauge_add("smoke/level", -1);
        instant(TraceCat::kSim, "smoke.tick", SimTime::nanos(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Exact totals: every increment must land exactly once.
  EXPECT_EQ(hub_storage.metrics().counter("smoke/ops").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hub_storage.metrics().gauge("smoke/level").value(), 0);
  EXPECT_EQ(hub_storage.tracer().event_count(),
            static_cast<std::size_t>(kThreads) * kIters);

  install_hub(prev);
}

TEST(TsanSmokeTest, ConcurrentDistinctRegistration) {
  // Registration races on the registry maps themselves (not just on one
  // counter's atomic): each thread creates its own family of names while
  // the others do the same, plus everyone hammers one shared name.
  MetricsRegistry registry;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < 100; ++i) {
        registry.counter("reg/t" + std::to_string(t) + "/" +
                         std::to_string(i)).add(1);
        registry.counter("reg/shared").add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kThreads) * 100 + 1);
  EXPECT_EQ(registry.counter("reg/shared").value(),
            static_cast<std::uint64_t>(kThreads) * 100);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(registry.counter("reg/t" + std::to_string(t) + "/" +
                                 std::to_string(i)).value(),
                1u);
    }
  }
}

TEST(TsanSmokeTest, InstallHubRaceWithReaders) {
  // Readers spin on hub() while the main thread installs/uninstalls: the
  // acquire/release pairing must hand each reader either nullptr or a
  // fully constructed hub, never a torn in-between.
  ObsHub hub_storage;
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        count("install/race");  // no-op when no hub installed
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    ObsHub* prev = install_hub(&hub_storage);
    install_hub(prev);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  SUCCEED();
}

}  // namespace
}  // namespace stellar::obs
