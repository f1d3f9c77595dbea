// Tests for the extended verbs surface: RDMA READ, two-sided SEND/RECV,
// path blacklisting (failure mitigation) and per-path congestion control.
#include <gtest/gtest.h>

#include "collective/fleet.h"

namespace stellar {
namespace {

FabricConfig fabric_config() {
  FabricConfig cfg;
  cfg.segments = 2;
  cfg.hosts_per_segment = 4;
  cfg.aggs_per_plane = 8;
  return cfg;
}

class VerbsOpsTest : public ::testing::Test {
 protected:
  VerbsOpsTest()
      : fabric_(sim_, fabric_config()), fleet_(sim_, fabric_) {
    a_ = fabric_.endpoint(0, 0);
    b_ = fabric_.endpoint(1, 0);
  }

  RdmaConnection* connect(TransportConfig t = {}) {
    auto conn = fleet_.connect(a_, b_, t);
    EXPECT_TRUE(conn.is_ok());
    return conn.value();
  }

  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
  EndpointId a_, b_;
};

TEST_F(VerbsOpsTest, ReadFetchesRemoteData) {
  RdmaConnection* conn = connect();
  bool data_here = false;
  conn->post_read(8_MiB, [&] { data_here = true; });
  sim_.run();
  EXPECT_TRUE(data_here);
  // The response payload landed at the requester (engine a).
  EXPECT_EQ(fleet_.at(a_).rx_goodput_bytes(), 8_MiB);
  // The responder streamed it on an auto-created reverse connection.
  EXPECT_EQ(fleet_.at(b_).connections().size(), 1u);
}

TEST_F(VerbsOpsTest, MultipleReadsResolveIndependently) {
  RdmaConnection* conn = connect();
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    conn->post_read(1_MiB, [&] { ++done; });
  }
  sim_.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(fleet_.at(a_).rx_goodput_bytes(), 5_MiB);
}

TEST_F(VerbsOpsTest, ReadSurvivesLoss) {
  for (NetLink* l : fabric_.tor_uplinks(0)) {
    l->set_drop_probability(0.02);
  }
  for (NetLink* l : fabric_.tor_uplinks(1)) {
    l->set_drop_probability(0.02);
  }
  RdmaConnection* conn = connect();
  bool done = false;
  conn->post_read(4_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet_.at(a_).rx_goodput_bytes(), 4_MiB);
}

TEST_F(VerbsOpsTest, SendMatchesPostedRecv) {
  RdmaConnection* conn = connect();
  RxMessage seen{};
  int matched = 0;
  fleet_.at(b_).post_recv(conn->id(), [&](const RxMessage& m) {
    seen = m;
    ++matched;
  });
  EXPECT_EQ(fleet_.at(b_).pending_recvs(conn->id()), 1u);
  conn->post_send(2_MiB, {}, /*tag=*/42);
  sim_.run();
  EXPECT_EQ(matched, 1);
  EXPECT_EQ(seen.bytes, 2_MiB);
  EXPECT_EQ(seen.tag, 42u);
  EXPECT_EQ(seen.kind, PacketKind::kSend);
  EXPECT_EQ(fleet_.at(b_).pending_recvs(conn->id()), 0u);
  EXPECT_EQ(fleet_.at(b_).unexpected_sends(), 0u);
}

TEST_F(VerbsOpsTest, UnexpectedSendParksUntilRecvPosted) {
  RdmaConnection* conn = connect();
  conn->post_send(1_MiB);
  sim_.run();
  EXPECT_EQ(fleet_.at(b_).unexpected_sends(), 1u);
  int matched = 0;
  fleet_.at(b_).post_recv(conn->id(), [&](const RxMessage&) { ++matched; });
  EXPECT_EQ(matched, 1);  // consumed the parked send immediately
}

TEST_F(VerbsOpsTest, RecvsConsumeInFifoOrder) {
  RdmaConnection* conn = connect();
  std::vector<int> order;
  fleet_.at(b_).post_recv(conn->id(), [&](const RxMessage&) { order.push_back(1); });
  fleet_.at(b_).post_recv(conn->id(), [&](const RxMessage&) { order.push_back(2); });
  conn->post_send(64_KiB);
  conn->post_send(64_KiB);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(VerbsOpsTest, WritesBypassRecvQueue) {
  RdmaConnection* conn = connect();
  int recv_matched = 0;
  int write_seen = 0;
  fleet_.at(b_).post_recv(conn->id(), [&](const RxMessage&) { ++recv_matched; });
  fleet_.at(b_).set_conn_message_handler(
      conn->id(), [&](const RxMessage& m) {
        if (m.kind == PacketKind::kWrite) ++write_seen;
      });
  conn->post_write(1_MiB);
  sim_.run();
  EXPECT_EQ(recv_matched, 0);  // one-sided: no WR consumed
  EXPECT_EQ(write_seen, 1);
  EXPECT_EQ(fleet_.at(b_).pending_recvs(conn->id()), 1u);
}

TEST_F(VerbsOpsTest, DeadPathGetsBlacklisted) {
  // Kill one of 8 uplinks; the spray keeps hitting it until the streak
  // threshold blacklists it.
  fabric_.tor_uplink(0, 2).set_drop_probability(1.0);
  RdmaConnection* conn = connect();
  bool done = false;
  conn->post_write(16_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  // Path ids mapping to the dead aggregation switch ended up blacklisted.
  EXPECT_GT(conn->blacklisted_paths(), 0u);
}

TEST_F(VerbsOpsTest, RtoRetransmitLeavesWindowUnchanged) {
  // An RTO is a failure, not congestion: the retransmit moves to another
  // path and no CC context cuts its window. The host uplink drops every
  // packet, so no ACK moves the window either, for both algorithms and for
  // shared and per-path contexts.
  fabric_.host_uplink(0, 0).set_drop_probability(1.0);
  for (const CcAlgo algo : {CcAlgo::kWindowEcnRtt, CcAlgo::kSwiftDelay}) {
    for (const bool per_path : {false, true}) {
      TransportConfig t;
      t.cc_algo = algo;
      t.per_path_cc = per_path;
      t.num_paths = 4;
      RdmaConnection* conn = connect(t);
      const std::uint64_t before = conn->window();
      conn->post_write(1_MiB);
      sim_.run_until(sim_.now() + t.rto * 3);
      EXPECT_GT(conn->timeouts(), 0u) << cc_algo_name(algo);
      EXPECT_GT(conn->retransmits(), 0u) << cc_algo_name(algo);
      EXPECT_EQ(conn->window(), before)
          << cc_algo_name(algo) << (per_path ? ", per-path" : ", shared");
    }
  }
}

TEST_F(VerbsOpsTest, PerPathCcSplitsTheWindow) {
  TransportConfig t;
  t.per_path_cc = true;
  t.num_paths = 4;
  RdmaConnection* conn = connect(t);
  // Sum of per-path windows equals the (split) silicon budget.
  EXPECT_LE(conn->window(), kInitWindow);
  EXPECT_GE(conn->window(), kInitWindow / 2);  // rounding slack
  bool done = false;
  conn->post_write(8_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet_.at(b_).rx_goodput_bytes(), 8_MiB);
}

TEST_F(VerbsOpsTest, PerPathCcSurvivesLossAndConverges) {
  fabric_.tor_uplink(0, 1).set_drop_probability(0.05);
  TransportConfig t;
  t.per_path_cc = true;
  t.num_paths = 4;
  RdmaConnection* conn = connect(t);
  bool done = false;
  conn->post_write(8_MiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(sim_.empty());
  EXPECT_EQ(conn->inflight_bytes(), 0u);
}

TEST_F(VerbsOpsTest, PathHistogramRecordsSpray) {
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 64;
  RdmaConnection* conn = connect(t);
  conn->post_write(16_MiB);
  sim_.run();
  // §7.1's monitoring argument: the receiver can attribute every packet to
  // the sender-chosen path id. OBS over 64 paths covers most of them.
  EXPECT_GT(fleet_.at(b_).rx_path_histogram().size(), 48u);
  std::uint64_t total = 0;
  for (const auto& [path, count] : fleet_.at(b_).rx_path_histogram()) {
    total += count;
  }
  EXPECT_EQ(total, 16_MiB / 4096);
}

}  // namespace
}  // namespace stellar
