#include "rnic/transport.h"

#include <gtest/gtest.h>

#include "collective/fleet.h"

namespace stellar {
namespace {

FabricConfig two_segment_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 4;
  cfg.aggs_per_plane = 4;
  return cfg;
}

TransportConfig obs_transport(std::uint16_t paths = 128) {
  TransportConfig t;
  t.num_paths = paths;
  t.algo = MultipathAlgo::kObs;
  return t;
}

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : fabric_(sim_, two_segment_config()), fleet_(sim_, fabric_) {}

  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
};

TEST_F(TransportTest, SingleMessageDelivered) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  auto conn = fleet_.connect(a, b, obs_transport());
  ASSERT_TRUE(conn.is_ok());

  bool sender_done = false;
  RxMessage rx{};
  fleet_.at(b).set_message_handler([&](const RxMessage& m) { rx = m; });
  conn.value()->post_write(1_MiB, [&] { sender_done = true; });
  sim_.run();

  EXPECT_TRUE(sender_done);
  EXPECT_EQ(rx.bytes, 1_MiB);
  EXPECT_EQ(rx.conn_id, conn.value()->id());
  EXPECT_EQ(rx.src, a);
  EXPECT_EQ(conn.value()->completed_bytes(), 1_MiB);
  EXPECT_EQ(conn.value()->completed_messages(), 1u);
  EXPECT_TRUE(conn.value()->idle());
  EXPECT_EQ(fleet_.at(b).rx_goodput_bytes(), 1_MiB);
}

TEST_F(TransportTest, ManyMessagesAllComplete) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 1);
  auto conn = fleet_.connect(a, b, obs_transport());
  ASSERT_TRUE(conn.is_ok());
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    conn.value()->post_write(256_KiB, [&] { ++completions; });
  }
  sim_.run();
  EXPECT_EQ(completions, 20);
  EXPECT_EQ(conn.value()->completed_messages(), 20u);
}

TEST_F(TransportTest, SprayingProducesOutOfOrderArrivals) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  auto conn = fleet_.connect(a, b, obs_transport(128));
  ASSERT_TRUE(conn.is_ok());
  // Asymmetric paths: one aggregation uplink is degraded (flapping optic),
  // so packets sprayed through it lag their successors — on a perfectly
  // symmetric idle fabric, arrival order would match send order.
  fabric_.tor_uplink(0, /*agg=*/1).set_bandwidth(Bandwidth::gbps(40));
  conn.value()->post_write(8_MiB);
  sim_.run();
  // DPP must absorb reordering without loss of goodput.
  EXPECT_GT(fleet_.at(b).rx_out_of_order_packets(), 0u);
  EXPECT_EQ(fleet_.at(b).rx_goodput_bytes(), 8_MiB);
  EXPECT_EQ(conn.value()->retransmits(), 0u);
}

TEST_F(TransportTest, SinglePathStaysInOrder) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  TransportConfig t = obs_transport(128);
  t.algo = MultipathAlgo::kSinglePath;
  auto conn = fleet_.connect(a, b, t);
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(8_MiB);
  sim_.run();
  EXPECT_EQ(fleet_.at(b).rx_out_of_order_packets(), 0u);
}

TEST_F(TransportTest, LossRecoveredByRto) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  // 2% loss on every uplink of the source ToR.
  for (NetLink* l : fabric_.tor_uplinks(0)) {
    l->set_drop_probability(0.02);
  }
  auto conn = fleet_.connect(a, b, obs_transport());
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(4_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);  // reliability despite loss
  EXPECT_GT(conn.value()->retransmits(), 0u);
  EXPECT_EQ(fleet_.at(b).rx_goodput_bytes(), 4_MiB);
}

TEST_F(TransportTest, TotalLinkFailureRoutesAround) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  // Kill one of the four uplinks completely.
  fabric_.tor_uplink(0, 0).set_drop_probability(1.0);
  auto conn = fleet_.connect(a, b, obs_transport(128));
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(2_MiB, [&] { done = true; });
  sim_.run();
  // OBS + retransmit-on-a-new-path: the transfer still completes.
  EXPECT_TRUE(done);
}

TEST_F(TransportTest, DuplicatesSuppressedAtReceiver) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  // Drop ACKs (reverse direction) aggressively: sender retransmits data the
  // receiver already placed -> duplicates must not inflate goodput.
  for (NetLink* l : fabric_.tor_uplinks(1)) {
    l->set_drop_probability(0.3);
  }
  auto conn = fleet_.connect(a, b, obs_transport());
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(1_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_GT(fleet_.at(b).rx_duplicate_packets(), 0u);
  EXPECT_EQ(fleet_.at(b).rx_goodput_bytes(), 1_MiB);
}

TEST_F(TransportTest, ThroughputNearLineRate) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  auto conn = fleet_.connect(a, b, obs_transport());
  ASSERT_TRUE(conn.is_ok());
  const std::uint64_t bytes = 64_MiB;
  conn.value()->post_write(bytes);
  const SimTime t0 = sim_.now();
  sim_.run();
  const double gbps = static_cast<double>(bytes) * 8.0 /
                      (sim_.now() - t0).sec() / 1e9;
  // Host links are 200 Gbps; expect >70% utilization for a 64 MiB stream.
  EXPECT_GT(gbps, 140.0);
  EXPECT_LT(gbps, 200.0);
}

TEST_F(TransportTest, ConnectValidation) {
  const EndpointId a = fabric_.endpoint(0, 0);
  EXPECT_FALSE(fleet_.at(a).connect(a, obs_transport()).is_ok());
}

TEST_F(TransportTest, ConcurrentConnectionsShareFairly) {
  const EndpointId dst = fabric_.endpoint(1, 0);
  std::vector<RdmaConnection*> conns;
  for (std::uint32_t h = 1; h <= 3; ++h) {
    auto conn =
        fleet_.connect(fabric_.endpoint(0, h), dst, obs_transport());
    ASSERT_TRUE(conn.is_ok());
    conns.push_back(conn.value());
  }
  for (auto* c : conns) c->post_write(16_MiB);
  sim_.run();
  // All complete; the receiving host link was the shared bottleneck.
  for (auto* c : conns) {
    EXPECT_EQ(c->completed_bytes(), 16_MiB);
  }
}

TEST_F(TransportTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    ClosFabric fabric(sim, two_segment_config());
    EngineFleet fleet(sim, fabric);
    auto conn = fleet.connect(fabric.endpoint(0, 0),
                              fabric.endpoint(1, 0), obs_transport());
    conn.value()->post_write(4_MiB);
    sim.run();
    return sim.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace stellar
