// Transport corner cases: tiny and huge messages, tag propagation, Swift
// CC end-to-end, flowlet transport, engine statistics resets, the
// hybrid driver's fluid-demand counter against the queue walk, its cached
// next-completion size against the connection's answer, the receiver's
// completed-message ledger under READs, out-of-order completion in the
// id-indexed message table, the send FIFO behind the RTO deadline, the
// window a fluid thaw seeds, and the paced packets a device reset drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "collective/fleet.h"
#include "sim/hybrid.h"

namespace stellar {

struct HybridDriverTestPeer {
  // The driver's unserved-demand counter for `conn`'s fluid flow.
  static std::uint64_t demand(const HybridDriver&, RdmaConnection& conn) {
    return HybridDriver::info_of(&conn)->demand;
  }
  static bool has_flow(const HybridDriver&, RdmaConnection& conn) {
    return HybridDriver::info_of(&conn)->flow >= 0;
  }
  // The driver's cached next-completion size for `conn`'s flow.
  static std::uint64_t cached_next(const HybridDriver&,
                                   RdmaConnection& conn) {
    return HybridDriver::info_of(&conn)->next;
  }
};

struct TransportTestPeer {
  // Reference for the driver's fluid-demand counter: the queue walk —
  // unacked bytes of the queued WRITEs ahead of the first non-WRITE.
  static std::uint64_t queued_write_bytes(const RdmaConnection& conn) {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < conn.unsent_queue_.size(); ++i) {
      const RdmaConnection::Message& msg =
          conn.messages_.at(conn.unsent_queue_[i]);
      if (msg.kind != PacketKind::kWrite) break;
      bytes += msg.total - msg.acked;
    }
    return bytes;
  }

  // Message ids in the sender's table, in its (ascending) iteration order.
  static std::vector<std::uint64_t> live_message_ids(
      const RdmaConnection& conn) {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, msg] : conn.messages_) ids.push_back(id);
    return ids;
  }
  // The receiver's completed-message ledger for `conn_id`.
  static std::uint64_t ledger_floor(const RdmaEngine& rx,
                                    std::uint64_t conn_id) {
    return rx.rx_completed_.at(conn_id).floor();
  }
  static std::size_t ledger_above_floor(const RdmaEngine& rx,
                                        std::uint64_t conn_id) {
    return rx.rx_completed_.at(conn_id).above_floor_count();
  }

  static bool rto_armed(const RdmaConnection& conn) {
    return conn.rto_timer_.armed();
  }
  static SimTime rto_deadline(const RdmaConnection& conn) {
    return conn.rto_deadline_;
  }
  // Reference for the lazy RTO: a full scan of the unacked packets — the
  // oldest send plus the RTO, or SimTime::max() when nothing is unacked.
  static SimTime scanned_deadline(const RdmaConnection& conn) {
    if (conn.outstanding_.empty()) return SimTime::max();
    SimTime oldest = SimTime::max();
    for (const auto& [psn, meta] : conn.outstanding_) {
      oldest = std::min(oldest, meta.sent_at);
    }
    return oldest + conn.config_.rto;
  }
  // True when some unacked PSN was (re)sent later than a higher unacked
  // PSN, so PSN order is not send order.
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
  cfg.aggs_per_plane = 8;
  return cfg;
}

class TransportEdgeTest : public ::testing::Test {
 protected:
  TransportEdgeTest()
      : fabric_(sim_, fabric_config()), fleet_(sim_, fabric_) {
    a_ = fabric_.endpoint(0, 0);
    b_ = fabric_.endpoint(1, 0);
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
  static_assert(8_MiB > 4 * kMaxWindow);  // the window caps at 256 packets
  auto conn = fleet_.connect(a_, b_, {});
  bool done = false;
  conn.value()->post_write(8_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 8_MiB);
}

TEST_F(TransportEdgeTest, FluidThawSeedsWindowAtTwiceRateTimesBaseRtt) {
  // A thaw at rate r seeds each of the connection's CC contexts with
  // 2 * r * kBaseRtt / contexts, clamped to that context's window bounds.
  // The three rates land below the minimum, inside, and above the maximum.
  for (const CcAlgo algo : {CcAlgo::kWindowEcnRtt, CcAlgo::kSwiftDelay}) {
    for (const bool per_path : {false, true}) {
      SCOPED_TRACE(std::string(cc_algo_name(algo)) +
                   (per_path ? ", per-path" : ", shared"));
      TransportConfig t;
      t.cc_algo = algo;
      t.per_path_cc = per_path;
      t.num_paths = 4;
      auto conn = fleet_.connect(a_, b_, t);
      ASSERT_TRUE(conn.is_ok());
      RdmaConnection& c = *conn.value();
      const std::uint64_t contexts = per_path ? 4 : 1;
      const std::uint64_t lo = kMinWindow;
      const std::uint64_t hi = kMaxWindow / contexts;
      for (const double rate : {1e8, 12.5e9, 1e11}) {
        SCOPED_TRACE(rate);
        (void)c.fluid_freeze();
        c.fluid_thaw(rate);
        const auto seed =
            static_cast<std::uint64_t>(2.0 * rate * kBaseRtt.sec());
        EXPECT_EQ(c.window(),
                  std::clamp(seed / contexts, lo, hi) * contexts);
      }
      // The middle rate's seed is unclamped: 200,000 bytes in total.
      (void)c.fluid_freeze();
      c.fluid_thaw(12.5e9);
      EXPECT_EQ(c.window(), 200'000u);
    }
  }
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
  for (NetLink* l : fabric_.tor_uplinks(0)) {
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
  HybridDriver driver(sim, fabric);  // the fabric starts fluid
  EngineFleet fleet(sim, fabric);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(fabric.endpoint(0, 0), dst, {});
  // A second flow into the same host: each of its posts re-rates `c`,
  // which serves c's accrued bytes mid-message.
  auto other = fleet.connect(fabric.endpoint(0, 1), dst, {});
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(other.is_ok());
  RdmaConnection& c = *conn.value();
  RdmaConnection& d = *other.value();
  const auto demand = [&] { return HybridDriverTestPeer::demand(driver, c); };
  // While fluid, nothing is in flight: between fluid events the driver's
  // counter and the queue walk must agree.
  const auto expect_walk = [&](const char* step) {
    ASSERT_EQ(driver.mode(), RegionMode::kFluid) << step;
    EXPECT_EQ(demand(), TransportTestPeer::queued_write_bytes(c)) << step;
  };
  std::vector<SimTime> zooms;  // ends of fluid spans
  driver.set_span_hook([&](RegionMode mode, SimTime, SimTime end) {
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
  // is serving the fabric) posts a SEND and then a WRITE on the drained
  // `c`. The SEND zooms the fabric once the serve pass ends; the WRITE
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
      in_cb.mode = driver.mode();
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
  ASSERT_EQ(zooms.size(), 1u) << "the SEND did not zoom the fabric";
  EXPECT_EQ(zooms[0], in_cb.at) << "the zoom was not at the SEND's time";
  EXPECT_EQ(in_cb.mode, RegionMode::kFluid) << "zoom inside a serve pass";
  EXPECT_EQ(in_cb.walk, 0u);
  EXPECT_EQ(in_cb.demand, 0u) << "a WRITE behind a SEND accrued demand";
  EXPECT_FALSE(in_cb.flow) << "a WRITE behind a SEND became a fluid flow";

  // Packet mode drains the queue; quiet epochs then promote the fabric
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

TEST(TransportFluidTest, CachedNextCompletionMatchesClient) {
  // The driver caches each flow's next completion size instead of asking
  // the connection at every serve. Between fluid events the cache must
  // equal fluid_next_completion_bytes() through every way the head moves.
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  HybridDriver driver(sim, fabric);  // the fabric starts fluid
  EngineFleet fleet(sim, fabric);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(fabric.endpoint(0, 0), dst, {});
  auto other = fleet.connect(fabric.endpoint(0, 1), dst, {});
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE(other.is_ok());
  RdmaConnection& c = *conn.value();
  RdmaConnection& d = *other.value();
  const auto cached = [&](RdmaConnection& x) {
    return HybridDriverTestPeer::cached_next(driver, x);
  };
  const auto expect_cache = [&](const char* step) {
    ASSERT_EQ(driver.mode(), RegionMode::kFluid) << step;
    EXPECT_EQ(cached(c), c.fluid_next_completion_bytes()) << step << " (c)";
    EXPECT_EQ(cached(d), d.fluid_next_completion_bytes()) << step << " (d)";
  };
  std::vector<SimTime> zooms;  // ends of fluid spans
  driver.set_span_hook([&](RegionMode mode, SimTime, SimTime end) {
    if (mode == RegionMode::kFluid) zooms.push_back(end);
  });
  // The promotion tick only polls while other events are pending.
  sim.schedule_at(SimTime::micros(200), [] {});

  int completions = 0;
  const auto done = [&] { ++completions; };

  // Born fluid: the freeze at registration caches an empty head.
  expect_cache("born fluid");
  EXPECT_EQ(cached(c), 0u);
  c.post_write(10000, done);
  c.post_write(5000, done);
  expect_cache("two writes");
  EXPECT_EQ(cached(c), 10000u);

  // Partial serve: d's flow starts at 100 ns and re-rates c, which serves
  // c's accrued prefix of the in-service message.
  sim.schedule_at(SimTime::nanos(100), [&] { d.post_write(64_KiB, done); });
  sim.run_until(SimTime::nanos(100));
  expect_cache("partial serve");
  EXPECT_GT(cached(c), 0u);
  EXPECT_LT(cached(c), 10000u) << "d's post did not serve c's prefix";
  sim.run_until(SimTime::micros(10));
  expect_cache("both drained");
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(cached(c), 0u);

  // A completion callback posts on its own connection, which it has just
  // drained, in the same event: the post lands inside c's serve, and the
  // serve's returned next size must cover it.
  int reposted = 0;
  const std::uint64_t c_completed = c.completed_messages();
  sim.schedule_at(SimTime::micros(11), [&] {
    c.post_write(6000, [&] {
      c.post_write(3000, [&] { ++reposted; });
      EXPECT_EQ(c.fluid_next_completion_bytes(), 3000u);
    });
  });
  sim.run_until(SimTime::micros(11));
  expect_cache("write with a re-posting callback");
  EXPECT_EQ(cached(c), 6000u);
  while (c.completed_messages() == c_completed) ASSERT_TRUE(sim.step());
  expect_cache("re-posted in the callback");
  EXPECT_GT(cached(c), 0u);
  EXPECT_LE(cached(c), 3000u);
  sim.run_until(SimTime::micros(20));
  EXPECT_EQ(reposted, 1);
  expect_cache("re-post served");

  // Two flows due in the same event: c drains first (registration order),
  // then d's completion posts on c before the driver retires c's flow. The
  // post must refresh c's empty cached head, or c's flow keeps its demand
  // and never gets a due event.
  SimTime c_done;
  SimTime d_done;
  SimTime late_done;
  std::uint64_t in_cb_cache = 0;
  std::uint64_t in_cb_next = 0;
  sim.schedule_at(SimTime::micros(21), [&] {
    c.post_write(20000, [&] { c_done = sim.now(); });
    d.post_write(20000, [&] {
      d_done = sim.now();
      c.post_write(4000, [&] { late_done = sim.now(); });
      in_cb_cache = cached(c);
      in_cb_next = c.fluid_next_completion_bytes();
    });
  });
  sim.run_until(SimTime::micros(40));
  ASSERT_GT(c_done, SimTime::zero());
  ASSERT_EQ(c_done, d_done) << "the two flows were not due in one event";
  EXPECT_EQ(in_cb_next, 4000u);
  EXPECT_EQ(in_cb_cache, 4000u) << "a post onto a drained flow kept a stale "
                                   "cached head";
  EXPECT_GT(late_done, d_done) << "the post onto the drained flow stalled";
  expect_cache("post onto a drained flow in the same event");

  // A WRITE behind a SEND (deferred zoom): d's completion callback, run
  // while the driver serves the fabric, posts a SEND and then a WRITE on
  // the drained c. The SEND heads c's queue, so the next completion reads
  // 0, and the blocked WRITE behind it must not change that.
  std::uint64_t blocked_cache = 1;
  std::uint64_t blocked_next = 1;
  RegionMode blocked_mode = RegionMode::kPacket;
  bool sent = false;
  sim.schedule_at(SimTime::micros(41), [&] {
    d.post_write(64_KiB, [&] {
      c.post_send(2000, [&] { sent = true; });
      c.post_write(7000, done);
      blocked_mode = driver.mode();
      blocked_cache = cached(c);
      blocked_next = c.fluid_next_completion_bytes();
    });
  });
  sim.run_until(SimTime::micros(60));
  ASSERT_EQ(zooms.size(), 1u) << "the SEND did not zoom the fabric";
  EXPECT_EQ(blocked_mode, RegionMode::kFluid) << "zoom inside a serve pass";
  EXPECT_EQ(blocked_next, 0u);
  EXPECT_EQ(blocked_cache, 0u);

  // Packet mode drains the queue; quiet epochs then promote the fabric,
  // and the freeze re-reads the (empty) head.
  sim.run_until(SimTime::micros(200));
  EXPECT_TRUE(sent);
  expect_cache("refrozen");
  EXPECT_EQ(cached(c), 0u);

  // Zero-length WRITE: posted to the drained c it adds no demand and starts
  // no flow, yet it heads c's queue, so it is due at once. A WRITE posted
  // behind it starts a flow whose cached head is still the zero-length
  // message (0). Both complete under fluid service, before any zoom.
  const int before = completions;
  const std::size_t zooms_before = zooms.size();
  c.post_write(0, done);
  expect_cache("zero-length write");
  EXPECT_EQ(HybridDriverTestPeer::demand(driver, c), 0u);
  EXPECT_FALSE(HybridDriverTestPeer::has_flow(driver, c));
  c.post_write(6000, done);
  expect_cache("write behind a zero-length write");
  EXPECT_EQ(cached(c), 0u);
  EXPECT_TRUE(HybridDriverTestPeer::has_flow(driver, c));
  const SimTime posted = sim.now();
  while (completions == before) ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), posted) << "the zero-length WRITE was not due at once";
  expect_cache("zero-length write completed");
  EXPECT_EQ(cached(c), 6000u);
  sim.schedule_at(SimTime::micros(250), [] {});
  sim.run_until(SimTime::micros(250));
  expect_cache("write behind it completed");
  EXPECT_EQ(completions, before + 2);
  EXPECT_EQ(zooms.size(), zooms_before) << "a zoom completed them";
  EXPECT_EQ(HybridDriverTestPeer::demand(driver, c), 0u);

  // Inside c's own serve: a zero-length WRITE's callback posts another
  // zero-length WRITE and a WRITE behind it. The serve completes the
  // second at once; the WRITE behind it still waits for its bytes.
  SimTime zero_done;
  SimTime tail_done;
  const SimTime reposted_at = sim.now();
  c.post_write(0, [&] {
    c.post_write(0, [&] { zero_done = sim.now(); });
    c.post_write(5000, [&] { tail_done = sim.now(); });
  });
  sim.run_until(SimTime::micros(300));
  EXPECT_EQ(zero_done, reposted_at);
  EXPECT_GT(tail_done, reposted_at) << "the WRITE completed with no bytes";
  expect_cache("zero-length posts inside a serve");
  EXPECT_EQ(zooms.size(), zooms_before);
  driver.set_span_hook({});  // the driver outlives `zooms`
}

TEST(TransportFluidTest, ReadRequestsDoNotStallTheCompletedLedger) {
  // With a hybrid driver attached the receiver keeps a ledger of completed
  // message ids per connection. A READ request is a message id too: unless
  // it is marked when served, the ledger's floor stops at it and every
  // later id stays stored above the floor for the rest of the run.
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  HybridDriver driver(sim, fabric);
  driver.force_packet(SimTime::seconds(1), "test");  // packet mode only
  EngineFleet fleet(sim, fabric);
  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(1, 0);
  auto conn = fleet.connect(a, b, {});
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  int reads = 0;
  int writes = 0;
  for (int i = 0; i < 20; ++i) {
    c.post_read(8_KiB, [&] { ++reads; });
    for (int j = 0; j < 10; ++j) c.post_write(4_KiB, [&] { ++writes; });
  }
  sim.run();
  EXPECT_EQ(reads, 20);
  EXPECT_EQ(writes, 200);
  EXPECT_EQ(driver.mode(), RegionMode::kPacket);
  EXPECT_EQ(TransportTestPeer::ledger_floor(fleet.at(b), c.id()), 220u);
  EXPECT_EQ(TransportTestPeer::ledger_above_floor(fleet.at(b), c.id()), 0u);
}

TEST_F(TransportEdgeTest, OutOfOrderCompletionInIdIndexedTable) {
  // Message ids complete out of order: a READ request completes on its one
  // ACK, and single-packet WRITEs overtake a 1 MiB WRITE sprayed over 128
  // paths, part of which a dead aggregation uplink holds back until the
  // RTO. The id-indexed message table then has holes; every completion
  // must still fire exactly once, and a snapshot taken with holes must list
  // the live ids ascending and round-trip byte-identically.
  NetLink* dead = fabric_.all_tor_uplinks().front();
  dead->set_drop_probability(1.0);
  sim_.schedule_at(SimTime::micros(100),
                   [dead] { dead->set_drop_probability(0.0); });
  TransportConfig t;  // OBS over 128 paths
  auto conn = fleet_.connect(a_, b_, t);
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  RdmaEngine& sender = fleet_.at(a_);

  std::vector<int> fired(12, 0);  // by message id; [1] is the READ's data
  EXPECT_EQ(c.post_write(1_MiB, [&] { ++fired[0]; }), 0u);
  EXPECT_EQ(c.post_read(4_KiB, [&] { ++fired[1]; }), 1u);
  for (std::uint64_t id = 2; id < fired.size(); ++id) {
    EXPECT_EQ(c.post_write(4_KiB, [&fired, id] { ++fired[id]; }), id);
  }

  bool snapshotted = false;
  std::uint64_t holes_seen = 0;
  while (sim_.step()) {
    const std::vector<std::uint64_t> ids =
        TransportTestPeer::live_message_ids(c);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    if (ids.empty() || ids.back() - ids.front() + 1 == ids.size()) continue;
    ++holes_seen;
    if (snapshotted) continue;
    snapshotted = true;
    // A fresh engine for the same endpoint inserts the snapshot's ids in
    // order (the table traps on a descending one) and must re-serialize
    // the exact bytes.
    const std::string snap = sender.save_state();
    {
      Simulator sim2;
      ClosFabric fabric2(sim2, fabric_config());
      RdmaEngine fresh(sim2, fabric2, a_);
      ASSERT_TRUE(fresh.restore_state(snap).is_ok());
      EXPECT_EQ(fresh.save_state(), snap);
      ASSERT_EQ(fresh.connections().size(), 1u);
      EXPECT_EQ(TransportTestPeer::live_message_ids(*fresh.connections()[0]),
                ids);
    }
    // In place: the completions harvested across the restart still fire.
    ASSERT_TRUE(sender.hot_restart().is_ok());
    EXPECT_EQ(TransportTestPeer::live_message_ids(c), ids);
  }
  EXPECT_TRUE(snapshotted) << "no message completed out of order";
  EXPECT_GT(holes_seen, 0u);
  EXPECT_EQ(fired, std::vector<int>(fired.size(), 1));
  EXPECT_EQ(c.completed_messages(), fired.size());
  EXPECT_GT(c.retransmits(), 0u);

  // A post to an errored QP consumes its id without a table entry: the
  // gap is never filled and nothing completes.
  sender.reset_device(SimTime::micros(1));
  ASSERT_TRUE(c.in_error());
  EXPECT_EQ(c.post_write(4_KiB, [&] { ++fired[0]; }), fired.size());
  EXPECT_EQ(c.post_write(4_KiB, [&] { ++fired[0]; }), fired.size() + 1);
  EXPECT_TRUE(TransportTestPeer::live_message_ids(c).empty());
  EXPECT_TRUE(c.idle());
  sim_.run();
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(c.completed_messages(), fired.size());
}

TEST(TransportRtoTest, DeadlineMatchesFullScan) {
  // Seeded churn through every path that arms the RTO — sends, ACKs,
  // losses, RTO retransmits and hot restarts — checked against a full scan
  // of the unacked packets. The lazy RTO may be armed early, so after every
  // event an armed timer is due no later than the scanned deadline (or the
  // last restart, which arms at no earlier than its own time). And every
  // real fire happens exactly at the deadline scanned just before it.
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);
  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(1, 0);
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
  std::uint64_t fires = 0;
  std::uint64_t reordered_restarts = 0;
  SimTime last_restart = SimTime::zero();
  const auto expect_not_late = [&](const char* after) {
    if (!TransportTestPeer::rto_armed(c)) return;
    ++checked;
    EXPECT_LE(TransportTestPeer::rto_deadline(c).ps(),
              std::max(TransportTestPeer::scanned_deadline(c), last_restart)
                  .ps())
        << "after " << after << " at step " << steps;
  };
  expect_not_late("first posts");
  for (;;) {
    const SimTime due = TransportTestPeer::scanned_deadline(c);
    const std::uint64_t timeouts = c.timeouts();
    if (!sim.step()) break;
    ++steps;
    if (c.timeouts() != timeouts) {
      ++fires;
      EXPECT_EQ(sim.now().ps(), due.ps()) << "RTO fired at step " << steps;
    }
    expect_not_late("event");
    // Restart the backend periodically, and whenever a retransmitted low
    // PSN is newer than a higher one: the restored window is in PSN order,
    // not send order, and the RTO must still find the oldest send.
    const bool reordered = TransportTestPeer::low_psn_resent_after_higher(c);
    if ((reordered && reordered_restarts < 20) || steps % 997 == 0) {
      ASSERT_TRUE(sender.hot_restart().is_ok());
      if (reordered) ++reordered_restarts;
      last_restart = sim.now();
      expect_not_late("hot_restart");
    }
  }
  EXPECT_EQ(completed, kMessages);
  EXPECT_GT(fires, 0u);
  EXPECT_EQ(fires, c.timeouts());
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

TEST_F(TransportEdgeTest, ConnectToNonexistentEndpointIsRejected) {
  RdmaEngine& engine = fleet_.at(a_);
  const std::size_t before = engine.connections().size();
  for (const EndpointId remote :
       {fabric_.endpoint_count(), fabric_.endpoint_count() + 7}) {
    const auto conn = engine.connect(remote, {});
    ASSERT_FALSE(conn.is_ok());
    EXPECT_EQ(conn.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.connections().size(), before);

  // The fleet rejects a nonexistent endpoint on either side and creates no
  // engine, not even for the side that exists.
  const auto engines = [this] {
    std::vector<EndpointId> ids;
    fleet_.for_each_engine([&](RdmaEngine& e) { ids.push_back(e.self()); });
    return ids;
  };
  const std::vector<EndpointId> engines_before = engines();
  const EndpointId missing = fabric_.endpoint_count();
  for (const auto& [from, to] :
       {std::pair{b_, missing}, std::pair{missing, b_}}) {
    const auto conn = fleet_.connect(from, to, {});
    ASSERT_FALSE(conn.is_ok());
    EXPECT_EQ(conn.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engines(), engines_before);
  EXPECT_EQ(engine.connections().size(), before);
}

TEST(TransportPacingTest, ResetDeviceDropsPacedPacketsOfTheErroredQp) {
  // Figure 13's VF+VxLAN stack: every data packet waits out a per-packet
  // stack delay and the encap engine's rate cap before it enters the
  // fabric, so a 1 MiB WRITE keeps dozens of packets in the pacer. A
  // device reset errors the QP, and the packets still in its pacer die
  // with it: none of them reaches the fabric afterwards.
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);
  TransportConfig t;
  t.num_paths = 8;
  t.extra_header_bytes = 50;
  t.per_packet_overhead = SimTime::nanos(85);
  t.stack_rate_cap = Bandwidth::gbps(182);
  const EndpointId a = fabric.endpoint(0, 0);
  auto conn = fleet.connect(a, fabric.endpoint(1, 0), t);
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  std::uint64_t injected = 0;
  fabric.set_trace_hook([&](const NetPacket& p, const NetLink*, SimTime) {
    if (p.hop == 0 && !p.is_ack && p.conn_id == c.id()) ++injected;
  });
  c.post_write(1_MiB);
  sim.run_until(SimTime::micros(2));
  ASSERT_GT(c.packets_sent(), injected) << "nothing waits in the pacer";
  ASSERT_GT(injected, 0u);

  fleet.at(a).reset_device(SimTime::micros(10));
  ASSERT_TRUE(c.in_error());
  const std::uint64_t at_reset = injected;
  sim.run();
  EXPECT_EQ(injected, at_reset);
}

}  // namespace
}  // namespace stellar
