// Tests for the extended collective family (ReduceScatter, AllToAll) and
// the placement policies.
#include <gtest/gtest.h>

#include "collective/allreduce.h"
#include "collective/collectives.h"
#include "workload/placement.h"

namespace stellar {
namespace {

FabricConfig fabric_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 8;
  cfg.aggs_per_plane = 8;
  return cfg;
}

class CollectivesExtraTest : public ::testing::Test {
 protected:
  CollectivesExtraTest()
      : fabric_(sim_, fabric_config()), fleet_(sim_, fabric_) {}

  std::vector<EndpointId> ranks(std::uint32_t n) {
    std::vector<EndpointId> out;
    for (std::uint32_t i = 0; i < n; ++i) {
      out.push_back(fabric_.endpoint(i % 2, i / 2));
    }
    return out;
  }

  CollectiveConfig config(std::uint64_t bytes = 8_MiB) {
    CollectiveConfig cfg;
    cfg.data_bytes = bytes;
    cfg.transport.algo = MultipathAlgo::kObs;
    cfg.transport.num_paths = 128;
    return cfg;
  }

  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
};

TEST_F(CollectivesExtraTest, ReduceScatterCompletes) {
  RingReduceScatter rs(fleet_, ranks(8), config());
  bool done = false;
  rs.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_GT(rs.bus_bandwidth_gbps(), 10.0);
}

TEST_F(CollectivesExtraTest, SinglePhaseIsRoughlyTwiceAsFastAsAllReduce) {
  // ReduceScatter moves half the units of an AllReduce over the same ring.
  RingReduceScatter rs(fleet_, ranks(8), config(32_MiB));
  rs.start();
  sim_.run();
  const SimTime t_rs = rs.last_duration();

  RingAllReduce ar(fleet_, ranks(8), config(32_MiB));
  ar.start();
  sim_.run();
  const SimTime t_ar = ar.last_duration();
  EXPECT_NEAR(t_ar.us(), 2 * t_rs.us(), t_rs.us() * 0.2);
}

TEST_F(CollectivesExtraTest, AllToAllCompletes) {
  AllToAll a2a(fleet_, ranks(8), config(16_MiB));
  bool done = false;
  a2a.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(a2a.shard_bytes(), 2_MiB);
  EXPECT_GT(a2a.algo_bandwidth_gbps(), 10.0);
}

TEST_F(CollectivesExtraTest, AllToAllRestartable) {
  AllToAll a2a(fleet_, ranks(4), config(4_MiB));
  int iterations = 0;
  std::function<void()> chain = [&] {
    if (++iterations < 3) a2a.start(chain);
  };
  a2a.start(chain);
  sim_.run();
  EXPECT_EQ(iterations, 3);
}

TEST_F(CollectivesExtraTest, RingCollectiveValidation) {
  EXPECT_THROW(RingReduceScatter(fleet_, ranks(1), config()),
               std::invalid_argument);
  EXPECT_THROW(AllToAll(fleet_, ranks(1), config()), std::invalid_argument);
}

TEST_F(CollectivesExtraTest, PlacementRerankedMinimizesCrossings) {
  auto reranked = place_job(fabric_, 16, 0, PlacementPolicy::kReranked);
  ASSERT_EQ(reranked.size(), 16u);
  EXPECT_NEAR(cross_segment_hop_fraction(fabric_, reranked), 2.0 / 16, 1e-9);
}

TEST_F(CollectivesExtraTest, PlacementRandomMaximizesCrossings) {
  auto random = place_job(fabric_, 16, 0, PlacementPolicy::kRandomRanking);
  ASSERT_EQ(random.size(), 16u);
  EXPECT_DOUBLE_EQ(cross_segment_hop_fraction(fabric_, random), 1.0);
}

TEST_F(CollectivesExtraTest, PlacementJobsAreDisjoint) {
  auto job0 = place_job(fabric_, 8, 0, PlacementPolicy::kReranked);
  auto job1 = place_job(fabric_, 8, 1, PlacementPolicy::kReranked);
  for (EndpointId a : job0) {
    for (EndpointId b : job1) EXPECT_NE(a, b);
  }
}

TEST_F(CollectivesExtraTest, PlacementEndpointsAreUnique) {
  for (auto policy :
       {PlacementPolicy::kReranked, PlacementPolicy::kRandomRanking}) {
    auto ranks16 = place_job(fabric_, 16, 0, policy);
    std::set<EndpointId> unique(ranks16.begin(), ranks16.end());
    EXPECT_EQ(unique.size(), ranks16.size())
        << placement_policy_name(policy);
  }
}

TEST_F(CollectivesExtraTest, PlacementTooLargeRejected) {
  EXPECT_THROW(place_job(fabric_, 64, 0, PlacementPolicy::kReranked),
               std::invalid_argument);
}

TEST_F(CollectivesExtraTest, CollectivesOverPlacements) {
  // End-to-end: a random-ranked AllToAll (the MoE dispatch pattern) on a
  // contended fabric completes and reports sane bandwidth.
  auto ranks16 = place_job(fabric_, 16, 0, PlacementPolicy::kRandomRanking);
  AllToAll a2a(fleet_, ranks16, config(16_MiB));
  bool done = false;
  a2a.start([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_GT(a2a.algo_bandwidth_gbps(), 5.0);
}

}  // namespace
}  // namespace stellar
