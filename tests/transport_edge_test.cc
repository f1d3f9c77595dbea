// Transport corner cases: tiny and huge messages, tag propagation, Swift
// CC end-to-end, flowlet transport, engine statistics resets, the
// fluid-demand counter behind RdmaConnection::fluid_remaining(), and the
// send FIFO behind the RTO deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "collective/fleet.h"
#include "sim/hybrid.h"

namespace stellar {

struct TransportTestPeer {
  // Reference for the O(1) fluid-demand counter: the queue walk it
  // replaces — unacked bytes of the queued WRITEs ahead of the first
  // non-WRITE.
  static std::uint64_t queued_write_bytes(const RdmaConnection& conn) {
    std::uint64_t bytes = 0;
    for (const std::uint64_t id : conn.unsent_queue_) {
      const RdmaConnection::Message& msg = conn.messages_.at(id);
      if (msg.kind != PacketKind::kWrite) break;
      bytes += msg.total - msg.acked;
    }
    return bytes;
  }

  static bool rto_armed(const RdmaConnection& conn) {
    return conn.rto_event_.valid();
  }
  static SimTime rto_deadline(const RdmaConnection& conn) {
    return conn.rto_deadline_;
  }
  // Reference for the send FIFO: the full outstanding-table scan arm_rto()
  // used to do — the oldest unacked send plus the RTO.
  static SimTime scanned_deadline(const RdmaConnection& conn) {
    SimTime oldest = SimTime::max();
    for (const auto& [psn, meta] : conn.outstanding_) {
      oldest = std::min(oldest, meta.sent_at);
    }
    return oldest + conn.config_.rto;
  }
  // True when some unacked PSN was (re)sent later than a higher unacked
  // PSN — the state a PSN-ordered send FIFO gets wrong.
  static bool low_psn_resent_after_higher(const RdmaConnection& conn) {
    SimTime newest = SimTime::zero();
    for (const auto& [psn, meta] : conn.outstanding_) {
      if (meta.sent_at < newest) return true;
      newest = meta.sent_at;
    }
    return false;
  }
};

namespace {

FabricConfig fabric_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 2;
  cfg.rails = 1;
  cfg.planes = 1;
  cfg.aggs_per_plane = 8;
  return cfg;
}

class TransportEdgeTest : public ::testing::Test {
 protected:
  TransportEdgeTest()
      : fabric_(sim_, fabric_config()), fleet_(sim_, fabric_) {
    a_ = fabric_.endpoint(0, 0, 0, 0);
    b_ = fabric_.endpoint(1, 0, 0, 0);
  }
  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
  EndpointId a_, b_;
};

TEST_F(TransportEdgeTest, TwoByteMessage) {
  auto conn = fleet_.connect(a_, b_, {});
  bool done = false;
  RxMessage rx{};
  fleet_.at(b_).set_message_handler([&](const RxMessage& m) { rx = m; });
  conn.value()->post_write(2, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rx.bytes, 2u);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 2u);
}

TEST_F(TransportEdgeTest, NonMtuMultipleMessage) {
  auto conn = fleet_.connect(a_, b_, {});
  bool done = false;
  conn.value()->post_write(4096 * 3 + 17, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 4096u * 3 + 17);
}

TEST_F(TransportEdgeTest, MessageLargerThanWindow) {
  TransportConfig t;
  t.cc.init_window = 16 * 1024;
  t.cc.max_window = 16 * 1024;  // window of just 4 packets
  auto conn = fleet_.connect(a_, b_, t);
  bool done = false;
  conn.value()->post_write(8_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 8_MiB);
}

TEST_F(TransportEdgeTest, TagsPropagateToReceiver) {
  auto conn = fleet_.connect(a_, b_, {});
  std::vector<std::uint32_t> tags;
  fleet_.at(b_).set_message_handler(
      [&](const RxMessage& m) { tags.push_back(m.tag); });
  conn.value()->post_write(64_KiB, {}, 7);
  conn.value()->post_write(64_KiB, {}, 9);
  sim_.run();
  ASSERT_EQ(tags.size(), 2u);
  // Both tags arrive (completion order may vary under spraying).
  EXPECT_TRUE((tags[0] == 7 && tags[1] == 9) ||
              (tags[0] == 9 && tags[1] == 7));
}

TEST_F(TransportEdgeTest, SwiftCcDeliversAtLineRate) {
  TransportConfig t;
  t.cc_algo = CcAlgo::kSwiftDelay;
  auto conn = fleet_.connect(a_, b_, t);
  const SimTime t0 = sim_.now();
  bool done = false;
  conn.value()->post_write(32_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  const double gbps = 32.0 * 8 * 1024 * 1024 * 1024 /
                      (sim_.now() - t0).sec() / 1e9 / 1024;
  EXPECT_GT(gbps, 150.0);
}

TEST_F(TransportEdgeTest, SwiftCcSurvivesLoss) {
  for (NetLink* l : fabric_.tor_uplinks(0, 0, 0)) {
    l->set_drop_probability(0.02);
  }
  TransportConfig t;
  t.cc_algo = CcAlgo::kSwiftDelay;
  auto conn = fleet_.connect(a_, b_, t);
  bool done = false;
  conn.value()->post_write(4_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(TransportEdgeTest, FlowletTransportDelivers) {
  TransportConfig t;
  t.algo = MultipathAlgo::kFlowlet;
  t.num_paths = 64;
  auto conn = fleet_.connect(a_, b_, t);
  bool done = false;
  conn.value()->post_write(16_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  // Bulk RDMA has no inter-packet gaps, so a flowlet never breaks: the
  // whole transfer rides one path — exactly why the paper calls flowlets
  // ineffective for RDMA (§7.1).
  EXPECT_EQ(fleet_.at(b_).rx_path_histogram().size(), 1u);
}

TEST_F(TransportEdgeTest, RxStatsReset) {
  auto conn = fleet_.connect(a_, b_, {});
  conn.value()->post_write(1_MiB);
  sim_.run();
  EXPECT_GT(fleet_.at(b_).rx_goodput_bytes(), 0u);
  fleet_.at(b_).reset_rx_stats();
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 0u);
  EXPECT_EQ(fleet_.at(b_).rx_duplicate_packets(), 0u);
}

TEST_F(TransportEdgeTest, ManySmallMessagesInterleaved) {
  auto conn = fleet_.connect(a_, b_, {});
  int completions = 0;
  for (int i = 0; i < 200; ++i) {
    conn.value()->post_write(1024, [&] { ++completions; });
  }
  sim_.run();
  EXPECT_EQ(completions, 200);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 200u * 1024);
}

TEST_F(TransportEdgeTest, ZeroLengthMessageOccupiesPsnSlot) {
  auto conn = fleet_.connect(a_, b_, {});
  // A zero-length write carries no payload bytes but still owns a PSN slot:
  // until its ACK returns, the connection must not report idle (probes
  // dormant / drain checks would lie) even though inflight_bytes() == 0.
  bool done = false;
  conn.value()->post_write(0, [&] { done = true; });
  EXPECT_FALSE(conn.value()->idle());
  EXPECT_EQ(conn.value()->inflight_bytes(), 0u);
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->idle());
}

TEST_F(TransportEdgeTest, ErrorHandlerInstalledLateFiresExactlyOnce) {
  for (NetLink* l : fabric_.all_tor_uplinks()) l->set_drop_probability(1.0);
  TransportConfig t;
  t.max_retries = 2;
  auto conn = fleet_.connect(a_, b_, t);
  conn.value()->post_write(0, {});  // zero-length: the regression shape
  sim_.run();
  ASSERT_TRUE(conn.value()->in_error());

  // Handler installed AFTER the QP already errored: it must fire
  // immediately — and exactly once, even if another error is signalled.
  int fired = 0;
  conn.value()->set_on_error([&](const Status&) { ++fired; });
  EXPECT_EQ(fired, 1);
  conn.value()->set_on_error([&](const Status&) { ++fired; });
  EXPECT_EQ(fired, 2);  // each installation observes the error once
  sim_.run();
  EXPECT_EQ(fired, 2);
}

TEST_F(TransportEdgeTest, ErrorHandlerBeforeErrorFiresExactlyOnce) {
  for (NetLink* l : fabric_.all_tor_uplinks()) l->set_drop_probability(1.0);
  TransportConfig t;
  t.max_retries = 2;
  auto conn = fleet_.connect(a_, b_, t);
  int fired = 0;
  conn.value()->set_on_error([&](const Status&) { ++fired; });
  conn.value()->post_write(32_KiB, {});
  conn.value()->post_write(0, {});
  sim_.run();
  EXPECT_TRUE(conn.value()->in_error());
  EXPECT_EQ(fired, 1);  // one QP transition, one callback
  EXPECT_TRUE(sim_.empty());  // no orphan timers survive the error
}

TEST(TransportFluidTest, RemainingCounterMatchesQueueWalk) {
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  HybridDriver driver(sim, fabric);  // regions start fluid
  EngineFleet fleet(sim, fabric);
  auto conn = fleet.connect(fabric.endpoint(0, 0, 0, 0),
                            fabric.endpoint(1, 0, 0, 0), {});
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  // While fluid, nothing is in flight: the counter, the queue walk and the
  // test's own tally of unacked WRITE bytes must all agree.
  const auto expect_remaining = [&](std::uint64_t expected, const char* step) {
    ASSERT_EQ(driver.region_mode(0), RegionMode::kFluid) << step;
    EXPECT_EQ(c.fluid_remaining(), TransportTestPeer::queued_write_bytes(c))
        << step;
    EXPECT_EQ(c.fluid_remaining(), expected) << step;
  };

  int completions = 0;
  const auto done = [&] { ++completions; };
  expect_remaining(0, "born fluid");
  c.post_write(0, done);
  expect_remaining(0, "zero-length write");
  c.post_write(10000, done);
  c.post_write(0, done);
  c.post_write(5000, done);
  expect_remaining(15000, "three writes");

  EXPECT_EQ(c.fluid_serve(4000), 4000u);
  expect_remaining(11000, "partial serve");
  EXPECT_EQ(c.fluid_serve(6000), 6000u);
  expect_remaining(5000, "first write complete");
  EXPECT_EQ(c.fluid_serve(5000), 5000u);
  expect_remaining(0, "all served");
  EXPECT_EQ(completions, 4);

  c.post_write(8000, done);
  EXPECT_EQ(c.fluid_serve(3000), 3000u);
  expect_remaining(5000, "partly served write");

  // A SEND is not fluid-servable: it zooms the region and the connection
  // thaws into packet mode, where fluid_remaining() is the walk again.
  bool sent = false;
  c.post_send(2000, [&] { sent = true; });
  ASSERT_EQ(driver.region_mode(0), RegionMode::kPacket);
  EXPECT_EQ(c.fluid_remaining(), TransportTestPeer::queued_write_bytes(c));

  // Packet mode drains the queue; quiet epochs then promote the region
  // and freeze the connection again, recounting its (empty) demand. The
  // promotion tick stops once the simulator drains, so a marker event
  // keeps it polling.
  sim.schedule_at(SimTime::micros(200), [] {});
  sim.run_until(SimTime::micros(200));
  EXPECT_TRUE(sent);
  EXPECT_EQ(completions, 5);
  expect_remaining(0, "refrozen");
  c.post_write(7000, done);
  c.post_write(0, done);
  expect_remaining(7000, "writes after refreeze");
  EXPECT_EQ(c.fluid_serve(2500), 2500u);
  expect_remaining(4500, "partial serve after refreeze");
}

TEST(TransportRtoTest, DeadlineMatchesFullScan) {
  // Seeded churn through every path that arms the RTO — sends, ACKs,
  // losses, RTO retransmits and hot restarts — with the armed deadline
  // checked against a full scan of the unacked packets after every event.
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);
  const EndpointId a = fabric.endpoint(0, 0, 0, 0);
  const EndpointId b = fabric.endpoint(1, 0, 0, 0);
  for (NetLink* l : fabric.all_tor_uplinks()) l->set_drop_probability(0.05);
  TransportConfig t;
  t.num_paths = 16;
  t.rto = SimTime::micros(20);
  auto conn = fleet.connect(a, b, t);
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  RdmaEngine& sender = fleet.at(a);

  std::uint64_t rng = 0x5eed;
  const auto next_size = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return 1 + (rng >> 33) % 256_KiB;
  };
  constexpr int kMessages = 60;
  int posted = 0;
  int completed = 0;
  std::function<void()> post = [&] {
    ++posted;
    c.post_write(next_size(), [&] {
      ++completed;
      if (posted < kMessages) post();
    });
  };
  for (int i = 0; i < 4; ++i) post();

  std::uint64_t steps = 0;
  std::uint64_t checked = 0;
  std::uint64_t reordered_restarts = 0;
  const auto expect_scanned_deadline = [&](const char* after) {
    if (!TransportTestPeer::rto_armed(c)) return;
    ++checked;
    EXPECT_EQ(TransportTestPeer::rto_deadline(c),
              TransportTestPeer::scanned_deadline(c))
        << "after " << after << " at step " << steps;
  };
  expect_scanned_deadline("first posts");
  while (sim.step()) {
    ++steps;
    expect_scanned_deadline("event");
    // Restart the backend periodically, and whenever a retransmitted low
    // PSN is newer than a higher one: restore must rebuild the FIFO in
    // send-time order, not in the snapshot's PSN order.
    const bool reordered = TransportTestPeer::low_psn_resent_after_higher(c);
    if ((reordered && reordered_restarts < 20) || steps % 997 == 0) {
      ASSERT_TRUE(sender.hot_restart().is_ok());
      if (reordered) ++reordered_restarts;
      expect_scanned_deadline("hot_restart");
    }
  }
  EXPECT_EQ(completed, kMessages);
  EXPECT_GT(c.timeouts(), 0u);
  EXPECT_GT(c.retransmits(), 0u);
  EXPECT_GE(reordered_restarts, 20u);
  EXPECT_GT(checked, 1000u);
  EXPECT_FALSE(TransportTestPeer::rto_armed(c));
}

TEST_F(TransportEdgeTest, ErrorStateAfterPeerUnreachable) {
  // Sever every uplink in both directions: no path works, retries exhaust.
  for (NetLink* l : fabric_.all_tor_uplinks()) l->set_drop_probability(1.0);
  TransportConfig t;
  t.max_retries = 3;
  auto conn = fleet_.connect(a_, b_, t);
  bool done = false;
  conn.value()->post_write(64_KiB, [&] { done = true; });
  sim_.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(conn.value()->in_error());
  EXPECT_TRUE(sim_.empty());  // no orphan RTO timers after the QP errors
}

}  // namespace
}  // namespace stellar
