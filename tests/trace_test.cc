// Fabric trace hook: per-hop trajectories must match the topology and be
// attributable to the sender-chosen path id (§7.1 observability) — for
// data packets and for the ACKs flowing back.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "collective/fleet.h"

namespace stellar {
namespace {

TEST(TraceTest, HopSequenceMatchesTopology) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);

  struct Hop {
    std::string link;  // empty = delivery
    std::uint64_t psn;
  };
  std::vector<Hop> hops;
  fabric.set_trace_hook([&](const NetPacket& p, const NetLink* link, SimTime) {
    if (!p.is_ack) hops.push_back({link ? link->name() : "", p.psn});
  });
  fabric.set_handler(fabric.endpoint(1, 0), [](NetPacket&&) {});

  NetPacket p;
  p.src = fabric.endpoint(0, 0);
  p.dst = fabric.endpoint(1, 0);
  p.conn_id = 5;
  p.path_id = 2;
  p.payload = 4096;
  ASSERT_TRUE(fabric.send(std::move(p)).is_ok());
  sim.run();

  // Cross-segment: host_up -> tor_up -> agg_down -> tor_down -> delivery.
  ASSERT_EQ(hops.size(), 5u);
  EXPECT_EQ(hops[0].link.substr(0, 7), "host_up");
  EXPECT_EQ(hops[1].link.substr(0, 6), "tor_up");
  EXPECT_EQ(hops[2].link.substr(0, 8), "agg_down");
  EXPECT_EQ(hops[3].link.substr(0, 8), "tor_down");
  EXPECT_TRUE(hops[4].link.empty());
}

TEST(TraceTest, IntraSegmentSkipsAggregation) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 1;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 2;
  ClosFabric fabric(sim, fc);
  int hop_count = 0;
  fabric.set_trace_hook(
      [&](const NetPacket&, const NetLink*, SimTime) { ++hop_count; });
  fabric.set_handler(fabric.endpoint(0, 1), [](NetPacket&&) {});
  NetPacket p;
  p.src = fabric.endpoint(0, 0);
  p.dst = fabric.endpoint(0, 1);
  p.payload = 64;
  ASSERT_TRUE(fabric.send(std::move(p)).is_ok());
  sim.run();
  EXPECT_EQ(hop_count, 3);  // host_up, tor_down, delivery
}

TEST(TraceTest, AckHopSequenceMirrorsDataPath) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);

  std::vector<std::string> data_hops, ack_hops;
  fabric.set_trace_hook([&](const NetPacket& p, const NetLink* link, SimTime) {
    (p.is_ack ? ack_hops : data_hops).push_back(link ? link->name() : "");
  });

  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  fabric.set_handler(src, [](NetPacket&&) {});
  // Receiver acknowledges each data packet on the path it arrived on.
  fabric.set_handler(dst, [&fabric, src, dst](NetPacket&& p) {
    NetPacket ack;
    ack.src = dst;
    ack.dst = src;
    ack.is_ack = true;
    ack.conn_id = p.conn_id;
    ack.ack_psn = p.psn;
    ack.path_id = p.path_id;
    ack.payload = 0;
    EXPECT_TRUE(fabric.send(std::move(ack)).is_ok());
  });

  NetPacket p;
  p.src = src;
  p.dst = dst;
  p.conn_id = 9;
  p.path_id = 3;
  p.psn = 42;
  p.payload = 2048;
  ASSERT_TRUE(fabric.send(std::move(p)).is_ok());
  sim.run();

  // Data crosses segments in five hops; the ACK must too, with every hop
  // attributed to the reverse direction (segment 1's host uplink first,
  // segment 0's ToR downlink last).
  ASSERT_EQ(data_hops.size(), 5u);
  ASSERT_EQ(ack_hops.size(), 5u);
  EXPECT_EQ(data_hops[0], "host_up[0.0]");
  EXPECT_EQ(ack_hops[0], "host_up[1.0]");
  EXPECT_EQ(ack_hops[1].substr(0, 6), "tor_up");
  EXPECT_EQ(ack_hops[2].substr(0, 8), "agg_down");
  EXPECT_EQ(ack_hops[3], "tor_down[0.0]");
  EXPECT_TRUE(ack_hops[4].empty());  // delivery back at the sender
}

TEST(TraceTest, PathIdAttributionAcrossSpray) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 8;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  // For every traced uplink traversal, record which path ids used it; the
  // path->uplink mapping must be a function (one uplink per path id).
  std::map<std::uint16_t, std::string> path_to_uplink;
  bool consistent = true;
  fabric.set_trace_hook([&](const NetPacket& p, const NetLink* link, SimTime) {
    if (p.is_ack || link == nullptr) return;
    if (link->name().substr(0, 6) != "tor_up") return;
    auto [it, inserted] = path_to_uplink.emplace(p.path_id, link->name());
    if (!inserted && it->second != link->name()) consistent = false;
  });

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 32;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), t);
  conn.value()->post_write(8_MiB);
  sim.run();

  EXPECT_TRUE(consistent);  // deterministic path id -> route mapping
  EXPECT_GT(path_to_uplink.size(), 20u);  // most of the 32 ids observed
}

}  // namespace
}  // namespace stellar
