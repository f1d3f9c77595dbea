// Transport corner cases: tiny and huge messages, tag propagation, Swift
// CC end-to-end, flowlet transport, engine statistics resets, the
// hybrid driver's fluid-demand counter against the queue walk, and the
// send FIFO behind the RTO deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "collective/fleet.h"
#include "sim/hybrid.h"

namespace stellar {

struct HybridDriverTestPeer {
  // The driver's unserved-demand counter for `conn`'s fluid flow.
  static std::uint64_t demand(const HybridDriver& driver,
                              RdmaConnection& conn) {
    return driver.info_.at(&conn)->demand;
  }
  static bool has_flow(const HybridDriver& driver, RdmaConnection& conn) {
    return driver.info_.at(&conn)->flow >= 0;
  }
};

struct TransportTestPeer {
  // Reference for the driver's fluid-demand counter: the queue walk —
  // unacked bytes of the queued WRITEs ahead of the first non-WRITE.
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
  const EndpointId dst = fabric.endpoint(1, 0, 0, 0);
  auto conn = fleet.connect(fabric.endpoint(0, 0, 0, 0), dst, {});
  // A second flow into the same host: each of its posts re-rates `c`,
  // which serves c's accrued bytes mid-message.
  auto other = fleet.connect(fabric.endpoint(0, 1, 0, 0), dst, {});
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(other.is_ok());
  RdmaConnection& c = *conn.value();
  RdmaConnection& d = *other.value();
  const auto demand = [&] { return HybridDriverTestPeer::demand(driver, c); };
  // While fluid, nothing is in flight: between fluid events the driver's
  // counter and the queue walk must agree.
  const auto expect_walk = [&](const char* step) {
    ASSERT_EQ(driver.region_mode(0), RegionMode::kFluid) << step;
    EXPECT_EQ(demand(), TransportTestPeer::queued_write_bytes(c)) << step;
  };
  std::vector<SimTime> zooms;  // ends of fluid spans
  driver.set_span_hook(
      [&](std::uint32_t, RegionMode mode, SimTime, SimTime end) {
        if (mode == RegionMode::kFluid) zooms.push_back(end);
      });

  // The promotion tick only polls while other events are pending.
  sim.schedule_at(SimTime::micros(200), [] {});

  int completions = 0;
  const auto done = [&] { ++completions; };
  expect_walk("born fluid");
  EXPECT_EQ(demand(), 0u);
  c.post_write(10000, done);
  c.post_write(0, done);
  c.post_write(5000, done);
  expect_walk("three writes");
  EXPECT_EQ(demand(), 15000u);

  // Deferred zoom: when `d` completes, its callback (run while the driver
  // is serving the region) posts a SEND and then a WRITE on the drained
  // `c`. The SEND zooms the region once the serve pass ends; the WRITE
  // queued behind it must not become demand, let alone a fluid flow.
  struct {
    SimTime at;
    RegionMode mode = RegionMode::kPacket;
    std::uint64_t demand = 1;
    std::uint64_t walk = 1;
    bool flow = true;
  } in_cb;
  bool sent = false;
  sim.schedule_at(SimTime::nanos(100), [&] {
    d.post_write(64_KiB, [&] {
      c.post_send(2000, [&] { sent = true; });
      c.post_write(7000, done);
      in_cb.at = sim.now();
      in_cb.mode = driver.region_mode(0);
      in_cb.demand = demand();
      in_cb.walk = TransportTestPeer::queued_write_bytes(c);
      in_cb.flow = HybridDriverTestPeer::has_flow(driver, c);
    });
  });
  sim.run_until(SimTime::nanos(100));
  expect_walk("partial serve");
  EXPECT_GT(demand(), 0u);
  EXPECT_LT(demand(), 15000u) << "d's post did not serve c's prefix";
  sim.run_until(SimTime::micros(2));
  expect_walk("c drained");
  EXPECT_EQ(demand(), 0u);
  EXPECT_FALSE(HybridDriverTestPeer::has_flow(driver, c));
  EXPECT_EQ(completions, 3);

  sim.run_until(SimTime::micros(20));
  ASSERT_EQ(zooms.size(), 1u) << "the SEND did not zoom the region";
  EXPECT_EQ(zooms[0], in_cb.at) << "the zoom was not at the SEND's time";
  EXPECT_EQ(in_cb.mode, RegionMode::kFluid) << "zoom inside a serve pass";
  EXPECT_EQ(in_cb.walk, 0u);
  EXPECT_EQ(in_cb.demand, 0u) << "a WRITE behind a SEND accrued demand";
  EXPECT_FALSE(in_cb.flow) << "a WRITE behind a SEND became a fluid flow";

  // Packet mode drains the queue; quiet epochs then promote the region
  // and freeze the connection again, which resets its demand. The
  // marker event above keeps the promotion tick polling.
  sim.run_until(SimTime::micros(200));
  EXPECT_TRUE(sent);
  EXPECT_EQ(completions, 4);
  expect_walk("refrozen");
  EXPECT_EQ(demand(), 0u);
  c.post_write(7000, done);
  c.post_write(0, done);
  expect_walk("writes after refreeze");
  EXPECT_EQ(demand(), 7000u);
  sim.schedule_at(SimTime::micros(200) + SimTime::nanos(100),
                  [&] { d.post_write(64_KiB); });
  sim.run_until(SimTime::micros(200) + SimTime::nanos(100));
  expect_walk("partial serve after refreeze");
  EXPECT_GT(demand(), 0u);
  EXPECT_LT(demand(), 7000u);
  sim.run_until(SimTime::micros(201));
  expect_walk("all served");
  EXPECT_EQ(demand(), 0u);
  EXPECT_EQ(completions, 6);
  driver.set_span_hook({});  // the driver outlives `zooms`
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
