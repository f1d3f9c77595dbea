// Property sweeps over fabric geometries: for every topology shape, every
// legal (src, dst, path) triple must deliver to exactly the addressed
// endpoint.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "net/fabric.h"

namespace stellar {
namespace {

using Shape = std::tuple<int /*segments*/, int /*hosts*/, int /*aggs*/>;

class FabricPropertyTest : public ::testing::TestWithParam<Shape> {};

TEST_P(FabricPropertyTest, EveryPacketReachesItsAddressee) {
  const auto [segments, hosts, aggs] = GetParam();
  Simulator sim;
  FabricConfig cfg;
  cfg.segments = segments;
  cfg.hosts_per_segment = hosts;
  cfg.aggs_per_plane = aggs;
  ClosFabric fabric(sim, cfg);

  std::vector<std::uint64_t> received(fabric.endpoint_count(), 0);
  for (EndpointId e = 0; e < fabric.endpoint_count(); ++e) {
    fabric.set_handler(e, [&received, e](NetPacket&& p) {
      ASSERT_EQ(p.dst, e);  // never misdelivered
      ++received[e];
    });
  }

  Rng rng(99);
  std::uint64_t sent_ok = 0;
  std::vector<std::uint64_t> expected(fabric.endpoint_count(), 0);
  for (int i = 0; i < 2000; ++i) {
    const EndpointId src =
        static_cast<EndpointId>(rng.below(fabric.endpoint_count()));
    const EndpointId dst =
        static_cast<EndpointId>(rng.below(fabric.endpoint_count()));
    NetPacket p;
    p.src = src;
    p.dst = dst;
    p.conn_id = i;
    p.path_id = static_cast<std::uint16_t>(rng.below(256));
    p.payload = 4096;
    const bool legal = src != dst;
    const Status s = fabric.send(std::move(p));
    ASSERT_EQ(s.is_ok(), legal)
        << "src=" << src << " dst=" << dst << ": " << s.to_string();
    if (legal) {
      ++sent_ok;
      ++expected[dst];
    }
  }
  sim.run();
  EXPECT_EQ(fabric.delivered_packets(), sent_ok);
  EXPECT_EQ(fabric.dropped_no_handler(), 0u);
  for (EndpointId e = 0; e < fabric.endpoint_count(); ++e) {
    EXPECT_EQ(received[e], expected[e]) << "endpoint " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricPropertyTest,
    ::testing::Values(Shape{1, 2, 1},    // minimal single-ToR
                      Shape{2, 2, 1},    // single agg path
                      Shape{4, 3, 8},    // many segments
                      Shape{2, 8, 60})); // production-like agg count

TEST(FabricRouteTest, PathIdsCoverAllAggsEventually) {
  Simulator sim;
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 1;
  cfg.aggs_per_plane = 60;  // production aggregation count
  ClosFabric fabric(sim, cfg);
  fabric.set_handler(fabric.endpoint(1, 0), [](NetPacket&&) {});

  // 128 path ids hashed over 60 aggs must touch (nearly) all of them —
  // the §7.2 rationale for the 128-path choice.
  for (std::uint16_t path = 0; path < 128; ++path) {
    NetPacket p;
    p.src = fabric.endpoint(0, 0);
    p.dst = fabric.endpoint(1, 0);
    p.conn_id = 7;
    p.path_id = path;
    p.payload = 64;
    ASSERT_TRUE(fabric.send(std::move(p)).is_ok());
  }
  sim.run();
  int used = 0;
  for (NetLink* l : fabric.tor_uplinks(0)) {
    if (l->packets_sent() > 0) ++used;
  }
  EXPECT_GT(used, 50);  // ~52 of 60 expected for 128 balls in 60 bins
}

}  // namespace
}  // namespace stellar
