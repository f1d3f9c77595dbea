#include "net/fabric.h"

#include <gtest/gtest.h>

#include <vector>

namespace stellar {
namespace {

FabricConfig small_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 4;
  cfg.aggs_per_plane = 4;
  return cfg;
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(sim_, small_config()) {}
  Simulator sim_;
  ClosFabric fabric_;
};

TEST_F(FabricTest, EndpointRoundTrip) {
  const auto cfg = small_config();
  for (std::uint32_t s = 0; s < cfg.segments; ++s) {
    for (std::uint32_t h = 0; h < cfg.hosts_per_segment; ++h) {
      const EndpointId id = fabric_.endpoint(s, h);
      const auto c = fabric_.coords(id);
      EXPECT_EQ(c.segment, s);
      EXPECT_EQ(c.host, h);
    }
  }
  EXPECT_EQ(fabric_.endpoint_count(), 2u * 4);
  EXPECT_EQ(fabric_.endpoint(1, 2, 0, 0), fabric_.endpoint(1, 2));
}

TEST(FabricDeathTest, EndpointOnAnotherRailOrPlaneDies) {
  Simulator sim;
  const ClosFabric fabric(sim, small_config());
  EXPECT_DEATH(fabric.endpoint(0, 0, 1, 0), "one island");
  EXPECT_DEATH(fabric.endpoint(0, 0, 0, 1), "one island");
}

TEST_F(FabricTest, DeliversWithinSegment) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(0, 1);
  int received = 0;
  fabric_.set_handler(b, [&](NetPacket&& p) {
    ++received;
    EXPECT_EQ(p.src, a);
    EXPECT_EQ(p.dst, b);
  });
  NetPacket p;
  p.src = a;
  p.dst = b;
  p.payload = 4096;
  ASSERT_TRUE(fabric_.send(std::move(p)).is_ok());
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fabric_.delivered_packets(), 1u);
}

TEST_F(FabricTest, CrossSegmentTraversesChosenAgg) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  fabric_.set_handler(b, [](NetPacket&&) {});
  // Send one packet per path id; each deterministic path lands on one agg.
  for (std::uint16_t path = 0; path < 64; ++path) {
    NetPacket p;
    p.src = a;
    p.dst = b;
    p.conn_id = 1;
    p.path_id = path;
    p.payload = 1024;
    ASSERT_TRUE(fabric_.send(std::move(p)).is_ok());
  }
  sim_.run();
  // With 64 path ids hashed over 4 aggs, every uplink should carry some.
  std::uint64_t used = 0;
  for (NetLink* l : fabric_.tor_uplinks(0)) {
    if (l->packets_sent() > 0) ++used;
  }
  EXPECT_EQ(used, 4u);
}

TEST_F(FabricTest, SamePathIdSameRoute) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  fabric_.set_handler(b, [](NetPacket&&) {});
  for (int i = 0; i < 10; ++i) {
    NetPacket p;
    p.src = a;
    p.dst = b;
    p.conn_id = 9;
    p.path_id = 3;
    p.payload = 1024;
    ASSERT_TRUE(fabric_.send(std::move(p)).is_ok());
  }
  sim_.run();
  // All ten packets share one uplink (single-path behaviour).
  int used = 0;
  for (NetLink* l : fabric_.tor_uplinks(0)) {
    if (l->packets_sent() > 0) {
      ++used;
      EXPECT_EQ(l->packets_sent(), 10u);
    }
  }
  EXPECT_EQ(used, 1);
}

TEST_F(FabricTest, RailAndPlaneIsolationEnforced) {
  // A fabric is one (rail, plane) island: a second rail or plane is
  // rejected at construction, and a packet cannot loop back to its sender.
  FabricConfig two_rails = small_config();
  two_rails.rails = 2;
  EXPECT_THROW(ClosFabric(sim_, two_rails), std::invalid_argument);
  FabricConfig two_planes = small_config();
  two_planes.planes = 2;
  EXPECT_THROW(ClosFabric(sim_, two_planes), std::invalid_argument);
  NetPacket r;
  r.src = fabric_.endpoint(0, 0);
  r.dst = r.src;  // self
  EXPECT_EQ(fabric_.send(std::move(r)).code(), StatusCode::kInvalidArgument);
}

TEST_F(FabricTest, PhysicalPathCounts) {
  const EndpointId a = fabric_.endpoint(0, 0);
  EXPECT_EQ(fabric_.physical_paths(a, fabric_.endpoint(0, 1)), 1u);
  EXPECT_EQ(fabric_.physical_paths(a, fabric_.endpoint(1, 2)), 4u);
}

TEST_F(FabricTest, ResetStatsClearsCounters) {
  const EndpointId a = fabric_.endpoint(0, 0);
  const EndpointId b = fabric_.endpoint(1, 0);
  fabric_.set_handler(b, [](NetPacket&&) {});
  NetPacket p;
  p.src = a;
  p.dst = b;
  p.payload = 4096;
  ASSERT_TRUE(fabric_.send(std::move(p)).is_ok());
  sim_.run();
  fabric_.reset_stats();
  for (NetLink* l : fabric_.all_tor_uplinks()) {
    EXPECT_EQ(l->packets_sent(), 0u);
  }
}

TEST_F(FabricTest, TraceHookHopsEqualPathLinksForEveryRoute) {
  // One packet per (src, dst, path) over every endpoint pair, same-segment
  // and cross-segment alike: the links the trace hook
  // sees it forwarded on, in order, are path_links() of that route, and
  // the final hook call (nullptr) is its delivery.
  std::vector<const NetLink*> hops;
  std::size_t deliveries = 0;
  fabric_.set_trace_hook(
      [&](const NetPacket&, const NetLink* link, SimTime) {
        if (link == nullptr) {
          ++deliveries;
        } else {
          hops.push_back(link);
        }
      });
  const std::uint32_t n = fabric_.endpoint_count();
  for (EndpointId dst = 0; dst < n; ++dst) {
    fabric_.set_handler(dst, [](NetPacket&&) {});
  }
  std::size_t same_segment = 0;
  std::size_t cross_segment = 0;
  for (EndpointId src = 0; src < n; ++src) {
    for (EndpointId dst = 0; dst < n; ++dst) {
      const auto a = fabric_.coords(src);
      const auto b = fabric_.coords(dst);
      if (src == dst) continue;
      const std::uint64_t conn = 1000 + src * n + dst;
      for (std::uint16_t path = 0; path < 8; ++path) {
        hops.clear();
        deliveries = 0;
        NetPacket p;
        p.src = src;
        p.dst = dst;
        p.conn_id = conn;
        p.path_id = path;
        p.payload = 256;
        ASSERT_TRUE(fabric_.send(std::move(p)).is_ok());
        sim_.run();
        const std::vector<NetLink*> want =
            fabric_.path_links(src, dst, conn, path);
        ASSERT_EQ(deliveries, 1u);
        ASSERT_EQ(hops, std::vector<const NetLink*>(want.begin(), want.end()))
            << "src " << src << " dst " << dst << " path " << path;
        if (a.segment == b.segment) {
          ASSERT_EQ(want.size(), 2u);
          EXPECT_EQ(want[0], &fabric_.host_uplink(a.segment, a.host));
          EXPECT_EQ(want[1], &fabric_.tor_downlink(b.segment, b.host));
          ++same_segment;
        } else {
          ASSERT_EQ(want.size(), 4u);
          // The switch in the middle is the same on both fabric hops.
          bool found = false;
          for (std::uint32_t agg = 0; agg < 4; ++agg) {
            if (want[1] == &fabric_.tor_uplink(a.segment, agg)) {
              found = true;
              EXPECT_EQ(want[2], &fabric_.agg_downlink(agg, b.segment));
            }
          }
          EXPECT_TRUE(found);
          ++cross_segment;
        }
      }
    }
  }
  // 8 endpoints: 4 hosts in each of 2 segments.
  EXPECT_EQ(same_segment, 2u * 4 * 3 * 8);
  EXPECT_EQ(cross_segment, 2u * 4 * 4 * 8);
  EXPECT_EQ(fabric_.delivered_packets(), same_segment + cross_segment);
}

TEST_F(FabricTest, ZeroDimensionRejected) {
  FabricConfig bad = small_config();
  bad.segments = 0;
  EXPECT_THROW(ClosFabric(sim_, bad), std::invalid_argument);
}

TEST_F(FabricTest, SwitchIndexPastSixteenBitsRejected) {
  // A packet carries its aggregation switch in 16 bits (NetPacket::agg).
  FabricConfig bad = small_config();
  bad.aggs_per_plane = (std::uint32_t{1} << 16) + 1;
  EXPECT_THROW(ClosFabric(sim_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace stellar
