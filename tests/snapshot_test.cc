// Snapshot encoding + transport snapshot round-trip: the byte-stability
// contract everything in the control-plane robustness story rests on.
//  * primitive writer/reader round trip (incl. IEEE-754 bit patterns)
//  * truncation / trailing-bytes / section-mismatch detection
//  * digest stability and sensitivity
//  * RdmaEngine save -> restore -> save is byte-identical mid-traffic,
//    restore is idempotent, and identical runs produce identical bytes
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "collective/fleet.h"
#include "common/snapshot.h"
#include "net/fabric.h"

namespace stellar {
namespace {

constexpr std::uint32_t kTag = snapshot_tag('T', 'E', 'S', 'T');

TEST(SnapshotTest, PrimitiveRoundTrip) {
  SnapshotWriter w;
  w.section(kTag);
  w(std::uint8_t{0xAB}, true, false, std::uint16_t{0xBEEF},
    std::uint32_t{0xDEADBEEF}, std::uint64_t{0x0123456789ABCDEFull},
    std::int64_t{-42},
    0.1 + 0.2,  // not representable exactly: bit pattern must survive
    SimTime::micros(250), std::string("hello snapshot"), std::string());
  // Each value at its own width: tag, u8, two bools, u16, u32, u64, i64,
  // f64, SimTime, then two u32-length-prefixed strings.
  EXPECT_EQ(w.bytes().size(), 4u + 1 + 1 + 1 + 2 + 4 + 8 + 8 + 8 + 8 +
                                  (4 + 14) + 4);

  SnapshotReader r(w.bytes());
  std::uint8_t u8 = 0;
  bool yes = false;
  bool no = true;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0;
  SimTime time;
  std::string str;
  std::string empty = "x";
  r.section(kTag);
  EXPECT_TRUE(r.status().is_ok());
  r(u8, yes, no, u16, u32, u64, i64, f64, time, str, empty);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 0.1 + 0.2);
  EXPECT_EQ(time, SimTime::micros(250));
  EXPECT_EQ(str, "hello snapshot");
  EXPECT_EQ(empty, "");
  EXPECT_TRUE(r.finish().is_ok());
}

TEST(SnapshotTest, TruncationIsLoud) {
  SnapshotWriter w;
  w(std::uint64_t{7});
  std::string bytes = w.take();
  bytes.resize(3);  // cut mid-integer

  SnapshotReader r(bytes);
  std::uint64_t v = 1;
  r(v);
  EXPECT_EQ(v, 0u);  // overruns read as zero, never garbage
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.finish().is_ok());
  EXPECT_EQ(r.finish().code(), StatusCode::kOutOfRange);
}

TEST(SnapshotTest, TrailingBytesAreLoud) {
  SnapshotWriter w;
  w(std::uint32_t{1}, std::uint32_t{2});
  SnapshotReader r(w.bytes());
  std::uint32_t v = 0;
  r(v);
  EXPECT_EQ(v, 1u);
  const Status s = r.finish();
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, SectionMismatchIsLoud) {
  SnapshotWriter w;
  w.section(kTag);
  SnapshotReader r(w.bytes());
  r.section(snapshot_tag('O', 'T', 'H', 'R'));
  const Status s = r.status();
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TruncatedStringFails) {
  SnapshotWriter w;
  w(std::string("payload"));
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 2);
  SnapshotReader r(bytes);
  std::string v;
  r(v);
  EXPECT_EQ(v, "");
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotTest, DigestStableAndSensitive) {
  EXPECT_EQ(snapshot_digest("stellar"), snapshot_digest("stellar"));
  EXPECT_NE(snapshot_digest("stellar"), snapshot_digest("stellaR"));
  EXPECT_EQ(snapshot_digest("").size(), 16u);
  // FNV-1a offset basis of the empty string, fixed forever.
  EXPECT_EQ(snapshot_digest(""), "cbf29ce484222325");
}

// ---------------------------------------------------------------------------
// Transport snapshots
// ---------------------------------------------------------------------------

FabricConfig tiny_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 2;
  return fc;
}

TEST(TransportSnapshotTest, HotRestartProvesByteIdenticalRoundTripMidTraffic) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.num_paths = 4;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  bool done = false;
  conn.value()->post_write(1_MiB, [&] { done = true; });
  sim.run_until(SimTime::micros(15));  // stop with packets in flight
  ASSERT_FALSE(done);

  // hot_restart() serializes, rebuilds from the bytes, and *fails with
  // kInternal* unless re-serializing reproduces the exact snapshot — its
  // OK result is the byte-identity proof, taken mid-traffic.
  RdmaEngine& engine = fleet.at(fabric.endpoint(0, 0));
  auto snap = engine.hot_restart();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  EXPECT_GT(snap.value().size(), 0u);
  EXPECT_EQ(engine.hot_restarts(), 1u);

  // Completion callbacks were harvested across the swap: the message still
  // completes on the rebuilt backend.
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_TRUE(conn.value()->idle());
}

TEST(TransportSnapshotTest, RestoreReachesByteStableFixedPointMidTraffic) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.num_paths = 4;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(1_MiB, {});
  sim.run_until(SimTime::micros(15));

  // restore_state() is the migration entry point: resuming re-arms timers,
  // clamps the stack pacer to "now" and sends whatever the restored window
  // admits, so the *first* application may legitimately advance past the
  // paused snapshot. One application must reach a fixed point, though:
  // restoring the engine's own freshest snapshot is byte-stable.
  RdmaEngine& engine = fleet.at(fabric.endpoint(0, 0));
  ASSERT_TRUE(engine.restore_state(engine.save_state()).is_ok());
  const std::string stable = engine.save_state();
  ASSERT_TRUE(engine.restore_state(stable).is_ok());
  EXPECT_EQ(engine.save_state(), stable)
      << "second restore application diverged";

  // The restored engine still drains the transfer to the peer.
  sim.run();
  EXPECT_TRUE(conn.value()->idle());
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_EQ(fleet.at(fabric.endpoint(1, 0)).rx_goodput_bytes(), 1_MiB);
}

TEST(TransportSnapshotTest, IdenticalRunsProduceIdenticalBytes) {
  auto run_once = [] {
    Simulator sim;
    ClosFabric fabric(sim, tiny_fabric());
    EngineFleet fleet(sim, fabric);
    TransportConfig tc;
    tc.num_paths = 8;
    auto conn = fleet.connect(fabric.endpoint(0, 0),
                              fabric.endpoint(1, 1), tc);
    EXPECT_TRUE(conn.is_ok());
    conn.value()->post_write(512_KiB, {});
    sim.run_until(SimTime::micros(40));
    return fleet.at(fabric.endpoint(0, 0)).save_state();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(snapshot_digest(a), snapshot_digest(b));
}

TEST(TransportSnapshotTest, PathAckedButNeverTimedOutIsSavedWithZeroStreak) {
  // Every ACK resets its path's timeout streak, and a reset path is part of
  // the snapshot with a zero streak — the encoding the per-path streak
  // table must keep byte for byte. Round-robin over 4 loss-free paths: each
  // path is ACKed, none ever times out.
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);
  TransportConfig tc;
  tc.num_paths = 4;
  tc.algo = MultipathAlgo::kRoundRobin;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(64_KiB, {});
  sim.run();
  ASSERT_TRUE(conn.value()->idle());
  ASSERT_EQ(conn.value()->timeouts(), 0u);

  // The connection is the snapshot's last record; it ends with the empty
  // outstanding table, the streak table, the empty blacklist and the CC
  // context.
  SnapshotWriter tail;
  tail(std::uint32_t{0});  // outstanding packets
  tail(std::uint32_t{4});  // streak entries: every path, ascending
  for (std::uint16_t path = 0; path < 4; ++path) {
    tail(path, std::uint32_t{0});
  }
  tail(std::uint32_t{0});  // blacklisted paths
  conn.value()->cc().save(tail);
  const std::string snap = fleet.at(fabric.endpoint(0, 0)).save_state();
  ASSERT_GE(snap.size(), tail.bytes().size());
  EXPECT_EQ(snap.substr(snap.size() - tail.bytes().size()), tail.bytes());

  // And the zero streaks survive a restore byte for byte.
  RdmaEngine& engine = fleet.at(fabric.endpoint(0, 0));
  auto restarted = engine.hot_restart();
  ASSERT_TRUE(restarted.is_ok()) << restarted.status().to_string();
  EXPECT_EQ(engine.save_state().substr(snap.size() - tail.bytes().size()),
            tail.bytes());
}

TEST(TransportSnapshotTest, PerPathCcMidRecoveryRoundTripsAndPinsBytes) {
  // A per-path-CC connection mid-recovery: paths through a dead
  // aggregation uplink hold timeout streaks, at least one is blacklisted
  // with its probe pending, and retransmits are in flight. hot_restart()
  // must round-trip it byte for byte, and the bytes are pinned.
  // Both CC algorithms, each with its bytes pinned.
  const std::pair<CcAlgo, const char*> cases[] = {
      {CcAlgo::kWindowEcnRtt, "1402a0f55d4dc65e"},
      {CcAlgo::kSwiftDelay, "51880455eb524157"},
  };
  for (const auto& [algo, digest] : cases) {
    SCOPED_TRACE(cc_algo_name(algo));
    Simulator sim;
    ClosFabric fabric(sim, tiny_fabric());
    EngineFleet fleet(sim, fabric);
    TransportConfig tc;
    tc.num_paths = 4;
    tc.per_path_cc = true;
    tc.cc_algo = algo;
    tc.blacklist_hold = SimTime::micros(500);
    tc.probe_interval = SimTime::micros(100);
    auto conn = fleet.connect(fabric.endpoint(0, 0),
                              fabric.endpoint(1, 0), tc);
    ASSERT_TRUE(conn.is_ok());
    RdmaConnection& c = *conn.value();
    NetLink& uplink = fabric.tor_uplink(0, 1);
    uplink.set_drop_probability(1.0);

    bool done = false;
    c.post_write(4_MiB, [&] { done = true; });
    while (c.blacklisted_paths() == 0) ASSERT_TRUE(sim.step());
    ASSERT_FALSE(c.idle());
    ASSERT_GT(c.retransmits(), 0u);
    ASSERT_EQ(c.probes_sent(), 0u) << "the probe is not pending any more";

    RdmaEngine& engine = fleet.at(fabric.endpoint(0, 0));
    std::vector<std::uint64_t> windows;
    for (std::uint16_t path = 0; path < tc.num_paths; ++path) {
      windows.push_back(c.cc(path).window());
    }
    const std::uint64_t inflight = c.inflight_bytes();
    auto snap = engine.hot_restart();
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    EXPECT_EQ(snapshot_digest(snap.value()), digest);
    EXPECT_EQ(c.inflight_bytes(), inflight);
    SnapshotWriter contexts;
    for (std::uint16_t path = 0; path < tc.num_paths; ++path) {
      EXPECT_EQ(c.cc(path).window(), windows[path]) << "path " << path;
      c.cc(path).save(contexts);
    }
    // The record ends with the blacklisted path ids, then the contexts. A
    // blacklist entry naming a path the connection does not have is
    // rejected on restore.
    std::string bad = snap.value();
    const std::size_t first_path = bad.size() - contexts.bytes().size() -
                                   2 * c.blacklisted_paths();
    bad[first_path] = bad[first_path + 1] = '\xff';

    // The restored connection probes the dead paths while it drains the
    // transfer around them, and reinstates them once the uplink heals and a
    // later post puts traffic back on the connection.
    bool later_done = false;
    sim.schedule_after(SimTime::millis(1), [&] {
      uplink.set_drop_probability(0);
      c.post_write(1_MiB, [&] { later_done = true; });
    });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(later_done);
    EXPECT_TRUE(c.status().is_ok());
    EXPECT_TRUE(c.idle());
    EXPECT_GT(c.probes_sent(), 0u);
    EXPECT_GT(c.paths_reinstated(), 0u);
    EXPECT_EQ(c.blacklisted_paths(), 0u);

    EXPECT_EQ(engine.restore_state(bad).code(), StatusCode::kInvalidArgument);
  }
}

TEST(TransportSnapshotTest, RestoreRejectsForeignEngine) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);
  TransportConfig tc;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  const std::string snap = fleet.at(fabric.endpoint(0, 0)).save_state();
  RdmaEngine& other = fleet.at(fabric.endpoint(1, 0));
  const Status s = other.restore_state(snap);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TransportSnapshotTest, RestoreRejectsCorruptBytes) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);
  RdmaEngine& engine = fleet.at(fabric.endpoint(0, 0));
  std::string snap = engine.save_state();

  std::string truncated = snap.substr(0, snap.size() / 2);
  EXPECT_FALSE(engine.restore_state(truncated).is_ok());

  std::string trailing = snap + "xx";
  EXPECT_FALSE(engine.restore_state(trailing).is_ok());

  // A count no snapshot of this size can hold (the receiver-state count
  // right after the RXST tag) is refused before its loop starts.
  std::string huge = snap;
  const std::size_t rx_count = huge.find("RXST") + 4;
  ASSERT_LE(rx_count + 4, huge.size());
  huge.replace(rx_count, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(engine.restore_state(huge).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace stellar
