// Property sweeps over the transport: for EVERY multipath algorithm, path
// count and loss rate, a posted message must be delivered exactly once
// (byte-accurate goodput) and the sender must converge to idle.
#include <gtest/gtest.h>

#include <tuple>

#include "collective/fleet.h"

namespace stellar {
namespace {

FabricConfig fabric_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 2;
  cfg.aggs_per_plane = 8;
  return cfg;
}

using Param = std::tuple<MultipathAlgo, int /*paths*/, int /*loss_pct*/>;

class TransportPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(TransportPropertyTest, ExactlyOnceDeliveryAndQuiescence) {
  const auto [algo, paths, loss_pct] = GetParam();
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);

  if (loss_pct > 0) {
    for (NetLink* l : fabric.tor_uplinks(0)) {
      l->set_drop_probability(loss_pct / 100.0);
    }
  }

  TransportConfig t;
  t.algo = algo;
  t.num_paths = static_cast<std::uint16_t>(paths);
  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(1, 0);
  auto conn = fleet.connect(a, b, t);
  ASSERT_TRUE(conn.is_ok());

  constexpr std::uint64_t kBytes = 2_MiB;
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    conn.value()->post_write(kBytes, [&] { ++completions; });
  }
  sim.run();

  ASSERT_FALSE(conn.value()->in_error());
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(conn.value()->completed_bytes(), 3 * kBytes);
  // Exactly-once: goodput counts first copies only, regardless of how many
  // duplicates retransmission produced.
  EXPECT_EQ(fleet.at(b).rx_goodput_bytes(), 3 * kBytes);
  EXPECT_TRUE(conn.value()->idle());
  EXPECT_EQ(conn.value()->inflight_bytes(), 0u);
  // The simulation must fully quiesce (no orphan timers).
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(fabric.dropped_no_handler(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgosPathsLoss, TransportPropertyTest,
    ::testing::Combine(::testing::Values(MultipathAlgo::kSinglePath,
                                         MultipathAlgo::kRoundRobin,
                                         MultipathAlgo::kObs,
                                         MultipathAlgo::kDwrr,
                                         MultipathAlgo::kBestRtt,
                                         MultipathAlgo::kMprdmaLike),
                       ::testing::Values(4, 128),
                       ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(multipath_algo_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_loss" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace stellar
