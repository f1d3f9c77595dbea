#include "net/fabric.h"

#include <gtest/gtest.h>

#include <vector>

namespace stellar {
namespace {

FabricConfig small_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 4;
  cfg.rails = 2;
  cfg.planes = 2;
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
      for (std::uint32_t r = 0; r < cfg.rails; ++r) {
        for (std::uint32_t p = 0; p < cfg.planes; ++p) {
          const EndpointId id = fabric_.endpoint(s, h, r, p);
          const auto c = fabric_.coords(id);
          EXPECT_EQ(c.segment, s);
          EXPECT_EQ(c.host, h);
          EXPECT_EQ(c.rail, r);
          EXPECT_EQ(c.plane, p);
        }
      }
    }
  }
  EXPECT_EQ(fabric_.endpoint_count(), 2u * 4 * 2 * 2);
}

TEST_F(FabricTest, DeliversWithinSegment) {
  const EndpointId a = fabric_.endpoint(0, 0, 0, 0);
  const EndpointId b = fabric_.endpoint(0, 1, 0, 0);
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
  const EndpointId a = fabric_.endpoint(0, 0, 0, 0);
  const EndpointId b = fabric_.endpoint(1, 0, 0, 0);
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
  for (NetLink* l : fabric_.tor_uplinks(0, 0, 0)) {
    if (l->packets_sent() > 0) ++used;
  }
  EXPECT_EQ(used, 4u);
}

TEST_F(FabricTest, SamePathIdSameRoute) {
  const EndpointId a = fabric_.endpoint(0, 0, 0, 0);
  const EndpointId b = fabric_.endpoint(1, 0, 0, 0);
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
  for (NetLink* l : fabric_.tor_uplinks(0, 0, 0)) {
    if (l->packets_sent() > 0) {
      ++used;
      EXPECT_EQ(l->packets_sent(), 10u);
    }
  }
  EXPECT_EQ(used, 1);
}

TEST_F(FabricTest, RailAndPlaneIsolationEnforced) {
  NetPacket p;
  p.src = fabric_.endpoint(0, 0, 0, 0);
  p.dst = fabric_.endpoint(0, 1, 1, 0);  // different rail
  EXPECT_EQ(fabric_.send(std::move(p)).code(), StatusCode::kInvalidArgument);
  NetPacket q;
  q.src = fabric_.endpoint(0, 0, 0, 0);
  q.dst = fabric_.endpoint(0, 1, 0, 1);  // different plane
  EXPECT_EQ(fabric_.send(std::move(q)).code(), StatusCode::kInvalidArgument);
  NetPacket r;
  r.src = fabric_.endpoint(0, 0, 0, 0);
  r.dst = r.src;  // self
  EXPECT_EQ(fabric_.send(std::move(r)).code(), StatusCode::kInvalidArgument);
}

TEST_F(FabricTest, PhysicalPathCounts) {
  const EndpointId a = fabric_.endpoint(0, 0, 0, 0);
  EXPECT_EQ(fabric_.physical_paths(a, fabric_.endpoint(0, 1, 0, 0)), 1u);
  EXPECT_EQ(fabric_.physical_paths(a, fabric_.endpoint(1, 2, 0, 0)), 4u);
  EXPECT_EQ(fabric_.physical_paths(a, fabric_.endpoint(0, 1, 1, 0)), 0u);
}

TEST_F(FabricTest, ResetStatsClearsCounters) {
  const EndpointId a = fabric_.endpoint(0, 0, 0, 0);
  const EndpointId b = fabric_.endpoint(1, 0, 0, 0);
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
  // One packet per (src, dst, path) over every pair that shares a rail and
  // plane, same-segment and cross-segment alike: the links the trace hook
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
      if (src == dst || a.rail != b.rail || a.plane != b.plane) continue;
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
          EXPECT_EQ(want[0], &fabric_.host_uplink(a.segment, a.host, a.rail,
                                                  a.plane));
          EXPECT_EQ(want[1], &fabric_.tor_downlink(b.segment, b.host, b.rail,
                                                   b.plane));
          ++same_segment;
        } else {
          ASSERT_EQ(want.size(), 4u);
          // The switch in the middle is the same on both fabric hops.
          bool found = false;
          for (std::uint32_t agg = 0; agg < 4; ++agg) {
            if (want[1] == &fabric_.tor_uplink(a.segment, a.rail, a.plane,
                                               agg)) {
              found = true;
              EXPECT_EQ(want[2], &fabric_.agg_downlink(agg, b.segment,
                                                       b.rail, b.plane));
            }
          }
          EXPECT_TRUE(found);
          ++cross_segment;
        }
      }
    }
  }
  // 4 (rail, plane) groups of 8 endpoints: 4 hosts in each of 2 segments.
  EXPECT_EQ(same_segment, 4u * 2 * 4 * 3 * 8);
  EXPECT_EQ(cross_segment, 4u * 2 * 4 * 4 * 8);
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
