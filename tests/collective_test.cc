#include <gtest/gtest.h>

#include "collective/allreduce.h"
#include "collective/traffic.h"

namespace stellar {
namespace {

FabricConfig fabric_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 8;
  cfg.aggs_per_plane = 8;
  return cfg;
}

TransportConfig obs() {
  TransportConfig t;
  t.num_paths = 128;
  t.algo = MultipathAlgo::kObs;
  return t;
}

class CollectiveTest : public ::testing::Test {
 protected:
  CollectiveTest() : fabric_(sim_, fabric_config()), fleet_(sim_, fabric_) {}

  std::vector<EndpointId> ranks(std::uint32_t n) {
    std::vector<EndpointId> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      out.push_back(fabric_.endpoint(i % 2, i / 2));
    }
    return out;
  }

  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
};

TEST_F(CollectiveTest, AllReduceCompletes) {
  AllReduceConfig cfg;
  cfg.data_bytes = 8_MiB;
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(8), cfg);
  bool done = false;
  ar.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ar.running());
  EXPECT_GT(ar.last_duration(), SimTime::zero());
  EXPECT_GT(ar.bus_bandwidth_gbps(), 10.0);
  EXPECT_LT(ar.bus_bandwidth_gbps(), 200.0);
}

TEST_F(CollectiveTest, ChunkMathCoversData) {
  AllReduceConfig cfg;
  cfg.data_bytes = 1000;  // not divisible by 3
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(3), cfg);
  EXPECT_EQ(ar.chunk_bytes(), 334u);
  EXPECT_EQ(ar.slice_bytes(), 84u);  // ceil(334 / kRingSlices)
  EXPECT_EQ(ar.world_size(), 3u);
}

TEST_F(CollectiveTest, TwoRankRing) {
  AllReduceConfig cfg;
  cfg.data_bytes = 1_MiB;
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(2), cfg);
  bool done = false;
  ar.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(CollectiveTest, SingleRankRejected) {
  AllReduceConfig cfg;
  cfg.transport = obs();
  EXPECT_THROW(RingAllReduce(fleet_, ranks(1), cfg), std::invalid_argument);
}

TEST_F(CollectiveTest, RestartableForIterations) {
  AllReduceConfig cfg;
  cfg.data_bytes = 2_MiB;
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(4), cfg);
  int iterations = 0;
  std::function<void()> next = [&] {
    if (++iterations < 3) ar.start(next);
  };
  ar.start(next);
  sim_.run();
  EXPECT_EQ(iterations, 3);
}

TEST_F(CollectiveTest, LargerRingsSlower) {
  AllReduceConfig cfg;
  cfg.data_bytes = 8_MiB;
  cfg.transport = obs();
  RingAllReduce small(fleet_, ranks(4), cfg);
  SimTime t_small, t_large;
  small.start();
  sim_.run();
  t_small = small.last_duration();
  RingAllReduce large(fleet_, ranks(16), cfg);
  large.start();
  sim_.run();
  t_large = large.last_duration();
  // More ranks => more serial steps for the same payload.
  EXPECT_GT(t_large, t_small);
}

TEST_F(CollectiveTest, AllReduceSurvivesLossyLink) {
  fabric_.tor_uplink(0, 0).set_drop_probability(0.01);
  AllReduceConfig cfg;
  cfg.data_bytes = 4_MiB;
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(8), cfg);
  bool done = false;
  ar.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(CollectiveTest, PermutationDerangement) {
  std::vector<EndpointId> eps;
  for (std::uint32_t h = 0; h < 8; ++h) {
    eps.push_back(fabric_.endpoint(h % 2, h / 2));
  }
  PermutationConfig cfg;
  cfg.transport = obs();
  PermutationTraffic perm(fleet_, eps, {}, cfg);
  EXPECT_EQ(perm.flow_count(), 8u);
  for (std::size_t i = 0; i < eps.size(); ++i) {
    EXPECT_NE(perm.connections()[i]->remote(), eps[i]);
    EXPECT_EQ(perm.connections()[i]->local(), eps[i]);
  }
}

TEST_F(CollectiveTest, PermutationStreamsUntilStopped) {
  std::vector<EndpointId> src, dst;
  for (std::uint32_t h = 0; h < 4; ++h) {
    src.push_back(fabric_.endpoint(0, h));
    dst.push_back(fabric_.endpoint(1, h));
  }
  PermutationConfig cfg;
  cfg.message_bytes = 256_KiB;
  cfg.transport = obs();
  PermutationTraffic perm(fleet_, src, dst, cfg);
  perm.start();
  sim_.run_until(SimTime::millis(2));
  perm.stop();
  sim_.run();
  EXPECT_GT(perm.completed_bytes(), 4 * 256_KiB);
  // Goodput roughly matches 4 hosts x 200 Gbps x 2 ms, within CC slack.
  const double total_gb = static_cast<double>(perm.completed_bytes()) * 8 / 1e9;
  EXPECT_GT(total_gb, 0.5);
}

TEST_F(CollectiveTest, BurstyDriverCycles) {
  AllReduceConfig cfg;
  cfg.data_bytes = 1_MiB;
  cfg.transport = obs();
  RingAllReduce ar(fleet_, ranks(4), cfg);
  BurstyDriver bursty(
      sim_, [&](std::function<void()> done) { ar.start(std::move(done)); },
      SimTime::millis(1), SimTime::millis(1));
  bursty.run();
  sim_.run_until(SimTime::millis(10));
  bursty.stop();
  sim_.run();
  // ~5 on-windows of ~1 ms with sub-ms AllReduces: several bursts ran.
  EXPECT_GT(bursty.bursts_completed(), 4u);
}

}  // namespace
}  // namespace stellar
