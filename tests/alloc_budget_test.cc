// Allocation budget of the packet path. Every hop of every packet pushes
// and pops a link queue, every send inserts into the sender's unacked
// window and every arrival records a PSN at the receiver; none of these
// may touch the heap once the structures reached their working size. A
// small packet-mode permutation warms up for one revolution of the timing
// wheel (~8.4 us), then must stay under one heap allocation per
// 100 delivered packets. What remains is mostly per message (the sender's
// and the receiver's message tables, about 4 allocations per 1 MiB message
// of 256 packets). The wheel's slot vectors go back to a stash when their
// slot empties and serve the next slot that fills, so the wheel stops
// allocating once the stash holds as many buffers as slots are ever
// occupied at once. A connection's RTO timer is armed once per busy
// period, not moved one RTO ahead on every ACK, so it adds few entries to
// the overflow heap.
//
// The fluid solver has a stricter budget: once a region's flow table, share
// table and crossing lists have reached their working size, removing flows,
// adding them back and re-solving allocate nothing at all. So does a
// fluid-served message end to end: the post, the sender's message table and
// unsent queue, the driver's serve and due event, the receiver's
// completed-message ledger and the completion callback. Freezing a
// connection into fluid — at its birth and at every promotion — allocates
// only its path-weight vector and its reserved share vector, however many
// paths it sprays over.
//
// The ATS translation path allocates nothing either: once a GDR engine's
// sweep has filled the device ATC and the IOMMU's IOTLB, further sweeps
// miss and evict in both caches without touching the heap.
//
// This binary replaces the global operator new to count allocations, so it
// is kept apart from the other test binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "collective/fleet.h"
#include "collective/traffic.h"
#include "fluid_churn.h"
#include "pcie/atc.h"
#include "pcie/host_pcie.h"
#include "rnic/gdr.h"
#include "sim/hybrid.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace stellar {
namespace {

TEST(AllocBudgetTest, PacketPermutationUnderOneAllocationPer100Packets) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  std::vector<EndpointId> hosts;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      hosts.push_back(fabric.endpoint(s, h));
    }
  }

  // Stellar's production setting: OBS spraying over 128 paths, so every
  // packet is out of order somewhere and the receive bitmap is exercised.
  PermutationConfig pc;
  pc.message_bytes = 1_MiB;
  pc.transport.algo = MultipathAlgo::kObs;
  pc.transport.num_paths = 128;
  pc.seed = 5;
  PermutationTraffic traffic(fleet, hosts, {}, pc);
  traffic.start();

  // Warm up for one revolution of the timing wheel (kWheelHorizon: 4,096
  // slots of 2^11 ps, ~8.4 us in all). By then the packet path's
  // containers have reached their working size. That relies on the lazy
  // RTO: a connection's RTO timer stays armed through a busy period.
  sim.run_until(sim.now() + Simulator::kWheelHorizon);
  const std::uint64_t allocs_before = g_allocations.load();
  const std::uint64_t delivered_before = fabric.delivered_packets();
  const std::uint64_t bytes_before = traffic.completed_bytes();

  sim.run_until(sim.now() + SimTime::micros(400));
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t delivered =
      fabric.delivered_packets() - delivered_before;
  traffic.stop();

  std::printf("%llu heap allocations for %llu delivered packets\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(delivered));
  ASSERT_TRUE(traffic.status().is_ok()) << traffic.status().to_string();
  ASSERT_GT(traffic.completed_bytes(), bytes_before);  // messages complete
  ASSERT_GT(delivered, 10000u);
  EXPECT_LT(allocs * 100, delivered)
      << allocs << " heap allocations for " << delivered
      << " delivered packets";
}

TEST(AllocBudgetTest, FluidSolverRemoveAddSolveCyclesAllocateNothing) {
  // A hybrid-sized region (tests/fluid_churn.h) warmed up by seeded churn,
  // then by remove/add/solve cycles; the measured cycles remove 16 random
  // flows, solve, add them back and solve again. They exercise every
  // structure a solve and a swap-remove touch: the crossing entries and
  // their stored positions, the flat share table, both bitmaps and the
  // walk, component and result scratch.
  constexpr std::uint32_t kCycleFlows = 16;
  FluidChurn churn(0xa110cu);
  for (int step = 0; step < 500; ++step) {
    churn.step();
    churn.solver().solve();
  }
  for (int cycle = 0; cycle < 20; ++cycle) churn.remove_add_cycle(kCycleFlows);

  const std::uint64_t allocs_before = g_allocations.load();
  for (int cycle = 0; cycle < 200; ++cycle) {
    churn.remove_add_cycle(kCycleFlows);
  }
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  std::printf("%llu heap allocations in 200 fluid remove/add/solve cycles\n",
              static_cast<unsigned long long>(allocs));
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(churn.solver().active_flows(), churn.live().size());
}

TEST(AllocBudgetTest, FluidRingMessagesAllocateNothing) {
  // A ring of 8 hosts in fluid mode throughout: each connection keeps one
  // 64 KiB WRITE queued behind the one in service, and each completion
  // posts the next (its callback captures one pointer, so it fits
  // std::function's inline buffer). After a warm-up that sizes every
  // table, serving and completing messages allocates nothing.
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  HybridDriver driver(sim, fabric);  // the fabric starts fluid
  EngineFleet fleet(sim, fabric);
  std::vector<EndpointId> hosts;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      hosts.push_back(fabric.endpoint(s, h));
    }
  }
  struct Link {
    RdmaConnection* conn = nullptr;
    bool stop = false;
    void post() {
      conn->post_write(64_KiB, [this] {
        if (!stop) post();
      });
    }
  };
  std::vector<Link> ring(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    auto conn = fleet.connect(hosts[i], hosts[(i + 1) % hosts.size()], {});
    ASSERT_TRUE(conn.is_ok());
    ring[i].conn = conn.value();
  }
  for (Link& l : ring) {
    l.post();
    l.post();
  }
  const auto completed = [&] {
    std::uint64_t n = 0;
    for (const Link& l : ring) n += l.conn->completed_messages();
    return n;
  };

  sim.run_until(sim.now() + SimTime::micros(200));
  const std::uint64_t allocs_before = g_allocations.load();
  const std::uint64_t messages_before = completed();

  sim.run_until(sim.now() + SimTime::micros(400));
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t messages = completed() - messages_before;
  for (Link& l : ring) l.stop = true;
  sim.run();

  std::printf("%llu heap allocations for %llu fluid-served messages\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(messages));
  EXPECT_EQ(driver.transitions(), 0u) << "the ring left fluid mode";
  EXPECT_EQ(driver.mode(), RegionMode::kFluid);
  ASSERT_GE(messages, 1000u);
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations for " << messages
                        << " fluid-served messages";
}

TEST(AllocBudgetTest, FluidFreezeAllocatesOnlyItsShares) {
  // An OBS connection spraying 128 paths across segments: its footprint
  // covers 128 routes of 4 links. The connection is born fluid, so its
  // first freeze has run (and sized the fabric's footprint scratch) by the
  // time connect() returns; a re-freeze then allocates the weight vector
  // and the share vector, nothing per path or per link.
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 16;
  ClosFabric fabric(sim, fc);
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);
  TransportConfig tc;
  tc.algo = MultipathAlgo::kObs;
  tc.num_paths = 128;
  auto conn = fleet.connect(fabric.endpoint(0, 1),
                            fabric.endpoint(1, 2), tc);
  ASSERT_TRUE(conn.is_ok());

  const std::uint64_t allocs_before = g_allocations.load();
  const FluidFlowDesc desc = conn.value()->fluid_freeze();
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  std::printf("%llu heap allocations for a freeze onto %zu links\n",
              static_cast<unsigned long long>(allocs), desc.shares.size());
  // host_up, tor_down, and a tor_up/agg_down pair per switch crossed.
  EXPECT_GT(desc.shares.size(), 4u);
  EXPECT_LE(desc.shares.size(), 2u + 2u * fc.aggs_per_plane);
  EXPECT_LE(allocs, 2u) << allocs << " heap allocations for one freeze";
}

TEST(AllocBudgetTest, AtsSweepAllocatesNothingOnceCachesFill) {
  // A 4 MiB buffer (1,024 pages) swept through a 64-page ATC and a 256-page
  // IOTLB: every page misses both caches and evicts from each, as past the
  // second Figure-8 cliff. The warm-up transfer fills both caches.
  constexpr std::uint64_t kBuffer = 4_MiB;
  constexpr std::uint64_t kPages = kBuffer / kPage4K;
  HostPcieConfig cfg;
  cfg.main_memory_bytes = 1_GiB;
  cfg.iommu.iotlb_capacity = 256;
  HostPcie pcie(cfg);
  const Bdf rnic{0x10, 0, 0};
  ASSERT_TRUE(pcie.attach_device(rnic, pcie.add_switch("sw0"), 1_MiB).is_ok());
  const IoVa buffer{1ull << 32};
  ASSERT_TRUE(pcie.iommu().map(buffer, Hpa{256_MiB}, kBuffer).is_ok());
  Atc atc(pcie, rnic, /*capacity_pages=*/64);
  GdrEngineConfig gc;
  gc.requester = rnic;
  GdrEngine engine(pcie, gc, GdrMode::kAtsAtc, &atc);

  const GdrTransfer warm = engine.transfer(buffer, kBuffer);
  ASSERT_EQ(warm.atc_misses, kPages);
  ASSERT_EQ(atc.cache().size(), 64u);
  ASSERT_EQ(pcie.iommu().iotlb().size(), 256u);

  std::uint64_t atc_misses = 0;
  std::uint64_t iotlb_misses = 0;
  const std::uint64_t allocs_before = g_allocations.load();
  for (int sweep = 0; sweep < 8; ++sweep) {
    const GdrTransfer t = engine.transfer(buffer, kBuffer);
    atc_misses += t.atc_misses;
    iotlb_misses += t.iotlb_misses;
  }
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  std::printf("%llu heap allocations for %llu ATC and %llu IOTLB misses\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(atc_misses),
              static_cast<unsigned long long>(iotlb_misses));
  EXPECT_EQ(atc_misses, 8 * kPages);
  EXPECT_EQ(iotlb_misses, 8 * kPages);
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations for " << atc_misses
                        << " ATC misses";
}

}  // namespace
}  // namespace stellar
