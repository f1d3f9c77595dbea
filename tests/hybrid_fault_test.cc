// Mode-transition fault regressions for the hybrid fidelity engine: a
// fault landing mid-fluid-epoch must force the fabric down to packet mode
// (packet mode owns outages — retransmit/blacklist machinery routes around
// them), the traffic must still complete exactly once, and the invariant
// auditors must stay green across every freeze/thaw boundary.
//
// Covers the FaultInjector -> HybridDriver::force_packet hook for link
// failures, whole-switch death, and RNIC resets. The soak that composes
// these faults with control-plane actions at both fidelities lives in
// chaos_soak_test.cc; its hybrid x scripted cell is
// HybridFaultTest.MiniChaosSoakTransitionsStayConservative.
//
// HybridReceiverTest covers receiver reconciliation across a transition
// in each direction: a message served partly in fluid and then thawed
// (the thaw syncs the served prefix into reassembly, the packet tail
// completes it), and a message completed at the receiver in packet mode
// whose ACKs were on the wire when the fabric froze (the sender re-serves
// it in fluid, and the completion ledger swallows that second delivery).
// Either way the message completes exactly once, with goodput equal to
// its size. A zero-length WRITE whose packet is in flight at a freeze
// completes under fluid service, exactly once.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "collective/fleet.h"
#include "fault/fault.h"
#include "sim/hybrid.h"

namespace stellar {
namespace {

FabricConfig small_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 8;
  return fc;
}

/// Auditor registry over everything this file exercises: conservation
/// (which must close across absorb/thaw boundaries), per-engine transport
/// legality, and scheduler sanity.
void add_audits(AuditRegistry& audits, Simulator& sim, ClosFabric& fabric,
                EngineFleet& fleet) {
  audits.add(std::make_unique<FabricConservationAuditor>(fabric));
  audits.add(std::make_unique<SimulatorAuditor>(sim));
  fleet.for_each_engine([&](RdmaEngine& engine) {
    audits.add(std::make_unique<TransportAuditor>(engine));
  });
}

TEST(HybridFaultTest, LinkDownMidFluidEpochForcesPacketZoom) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), t);
  ASSERT_TRUE(conn.is_ok());

  FaultInjector injector(sim, fabric);
  FaultPlan plan;
  FaultEvent down;
  down.at = SimTime::micros(100);
  down.kind = FaultKind::kLinkDown;
  down.label = "uplink0";
  down.link = {LinkLayer::kTorUp, 0, 0, 0, 0};
  down.drain = LinkDrainMode::kVoid;
  plan.events.push_back(down);
  FaultEvent up = down;
  up.at = SimTime::micros(400);
  up.kind = FaultKind::kLinkUp;
  plan.events.push_back(up);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  // 16 MiB keeps the flow live well past the fault window, so the fault
  // really lands mid-fluid-epoch.
  bool done = false;
  conn.value()->post_write(16_MiB, [&] { done = true; });

  RegionMode at_start = RegionMode::kPacket;
  RegionMode after_fault = RegionMode::kFluid;
  RegionMode during_outage = RegionMode::kFluid;
  sim.schedule_after(SimTime::micros(50),
                     [&] { at_start = driver.mode(); });
  sim.schedule_after(SimTime::micros(101),
                     [&] { after_fault = driver.mode(); });
  // Long after the hold expired but while the link is still down: the
  // fabric must NOT promote back to fluid over a dead link.
  sim.schedule_after(SimTime::micros(390),
                     [&] { during_outage = driver.mode(); });

  AuditRegistry audits;
  add_audits(audits, sim, fabric, fleet);
  audits.attach_periodic(sim, SimTime::micros(50));
  sim.run_until(SimTime::millis(10));

  EXPECT_EQ(at_start, RegionMode::kFluid) << "run did not start fluid";
  EXPECT_EQ(after_fault, RegionMode::kPacket) << "fault did not force zoom";
  EXPECT_EQ(during_outage, RegionMode::kPacket)
      << "fabric promoted to fluid over a down link";
  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_GE(driver.transitions(), 2u);
  EXPECT_EQ(fleet.at(fabric.endpoint(1, 0)).rx_goodput_bytes(),
            16_MiB);

  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(audits.runs(), 0u);
  EXPECT_EQ(audits.total_findings(), 0u);
}

TEST(HybridFaultTest, SwitchDeathMidFluidEpochForcesPacketZoom) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  auto conn = fleet.connect(fabric.endpoint(0, 1),
                            fabric.endpoint(1, 1), t);
  ASSERT_TRUE(conn.is_ok());

  FaultInjector injector(sim, fabric);
  FaultPlan plan;
  FaultEvent down;
  down.at = SimTime::micros(150);
  down.kind = FaultKind::kSwitchDown;
  down.label = "agg0";
  down.sw.is_tor = false;
  down.sw.agg = 0;
  plan.events.push_back(down);
  FaultEvent up = down;
  up.at = SimTime::millis(2);
  up.kind = FaultKind::kSwitchUp;
  plan.events.push_back(up);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  bool done = false;
  conn.value()->post_write(16_MiB, [&] { done = true; });

  RegionMode after_fault = RegionMode::kFluid;
  sim.schedule_after(SimTime::micros(151),
                     [&] { after_fault = driver.mode(); });

  AuditRegistry audits;
  add_audits(audits, sim, fabric, fleet);
  audits.attach_periodic(sim, SimTime::micros(50));
  sim.run_until(SimTime::millis(10));

  EXPECT_EQ(after_fault, RegionMode::kPacket);
  EXPECT_TRUE(done) << "collective did not survive the switch death";
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_GE(driver.transitions(), 2u);

  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(audits.total_findings(), 0u);
}

TEST(HybridFaultTest, ReceiverRnicResetMidFluidRidesRetransmits) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  t.rto = SimTime::micros(50);
  t.max_retries = 100;
  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(src, dst, t);
  ASSERT_TRUE(conn.is_ok());

  FaultInjector injector(sim, fabric);
  injector.register_engine(&fleet.at(src));
  injector.register_engine(&fleet.at(dst));
  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(120);
  e.kind = FaultKind::kRnicReset;
  e.label = "rx_reset";
  e.engine = 1;  // receiver: ingress blackout, sender rides RTO across it
  e.duration = SimTime::micros(200);
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  bool done = false;
  conn.value()->post_write(16_MiB, [&] { done = true; });

  RegionMode after_fault = RegionMode::kFluid;
  sim.schedule_after(SimTime::micros(121),
                     [&] { after_fault = driver.mode(); });

  AuditRegistry audits;
  add_audits(audits, sim, fabric, fleet);
  audits.attach_periodic(sim, SimTime::micros(50));
  sim.run_until(SimTime::millis(20));

  EXPECT_EQ(after_fault, RegionMode::kPacket)
      << "RNIC reset did not force packet zoom";
  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_EQ(fleet.at(dst).device_resets(), 1u);
  EXPECT_GE(driver.transitions(), 2u);

  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(audits.total_findings(), 0u);
}

TEST(HybridFaultTest, SenderResetErrorsFrozenClientWithoutWedgingRegion) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  // Victim on host (0,0); bystander pair on different hosts of the same
  // fabric keeps flowing after the victim's QPs fail fast.
  auto victim = fleet.connect(fabric.endpoint(0, 0),
                              fabric.endpoint(1, 0), t);
  auto bystander = fleet.connect(fabric.endpoint(0, 1),
                                 fabric.endpoint(1, 1), t);
  ASSERT_TRUE(victim.is_ok());
  ASSERT_TRUE(bystander.is_ok());

  FaultInjector injector(sim, fabric);
  injector.register_engine(&fleet.at(fabric.endpoint(0, 0)));
  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(100);
  e.kind = FaultKind::kRnicReset;
  e.label = "tx_reset";
  e.engine = 0;  // sender-side: local QPs fail fast into error
  e.duration = SimTime::micros(100);
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  bool victim_done = false, victim_errored = false, bystander_done = false;
  victim.value()->set_on_error([&](const Status&) { victim_errored = true; });
  victim.value()->post_write(16_MiB, [&] { victim_done = true; });
  bystander.value()->post_write(16_MiB, [&] { bystander_done = true; });

  AuditRegistry audits;
  add_audits(audits, sim, fabric, fleet);
  audits.attach_periodic(sim, SimTime::micros(50));
  sim.run_until(SimTime::millis(20));

  EXPECT_TRUE(victim_errored) << "sender reset did not error the frozen QP";
  EXPECT_FALSE(victim_done);
  EXPECT_TRUE(victim.value()->in_error());
  EXPECT_TRUE(bystander_done)
      << "bystander flow wedged after a frozen peer errored";
  EXPECT_TRUE(bystander.value()->status().is_ok());

  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(audits.total_findings(), 0u);
}

// Every event the driver schedules captures it, so a driver destroyed with
// events pending must cancel exactly those, and a simulator that keeps
// running afterwards never calls into freed memory (ASan reports the
// use-after-free if one survives). This case leaves a kick and a zoom
// window pending; the next one the promotion tick.
TEST(HybridFaultTest, DestroyedDriverCancelsItsPendingEvents) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  auto driver = std::make_unique<HybridDriver>(sim, fabric);
  EngineFleet fleet(sim, fabric);
  auto conn = fleet.connect(fabric.endpoint(0, 0), fabric.endpoint(1, 0), {});
  ASSERT_TRUE(conn.is_ok());

  const std::uint64_t before = sim.pending_events();
  driver->request_zoom_window(SimTime::micros(50), SimTime::micros(60));
  // A WRITE on a fluid connection activates its flow: a kick is pending.
  conn.value()->post_write(1_MiB);
  ASSERT_EQ(driver->mode(), RegionMode::kFluid);
  ASSERT_EQ(sim.pending_events(), before + 2);

  driver.reset();
  EXPECT_EQ(sim.pending_events(), before)
      << "the kick and the zoom window must both be cancelled";
  sim.run();
  EXPECT_TRUE(sim.empty());
}

TEST(HybridFaultTest, DestroyedDriverCancelsItsPromotionTick) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  auto driver = std::make_unique<HybridDriver>(sim, fabric);
  EngineFleet fleet(sim, fabric);
  auto conn = fleet.connect(fabric.endpoint(0, 0), fabric.endpoint(1, 0), {});
  ASSERT_TRUE(conn.is_ok());

  // A SEND zooms the fabric; its thawed packets and live client arm the
  // promotion tick.
  bool sent = false;
  conn.value()->post_send(64_KiB, [&] { sent = true; });
  ASSERT_EQ(driver->mode(), RegionMode::kPacket);

  const std::uint64_t pending = sim.pending_events();
  driver.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1)
      << "the promotion tick must be cancelled";
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_TRUE(sent) << "packet traffic must still drain without the driver";
}

// A snapshot carries no fluid state (a frozen connection's `acked` lags
// its served bytes by up to a message), so hot_restart() with a hybrid
// driver attached must zoom the fabric before it serializes. The ring then
// completes with exactly the bytes a run without the restart delivers.
TEST(HybridFaultTest, HotRestartMidFluidEpochZoomsFirst) {
  struct Outcome {
    bool done = false;
    std::uint64_t delivered = 0;
    RegionMode before = RegionMode::kPacket;
    RegionMode after = RegionMode::kFluid;
    bool restarted = false;
  };
  const auto run = [](bool restart) {
    Outcome out;
    Simulator sim;
    ClosFabric fabric(sim, small_fabric());
    HybridDriver driver(sim, fabric);
    EngineFleet fleet(sim, fabric);
    std::vector<EndpointId> ranks;
    for (std::uint32_t i = 0; i < 4; ++i) {
      ranks.push_back(fabric.endpoint(i % 2, i / 2));
    }
    AllReduceConfig cfg;
    cfg.data_bytes = 8_MiB;
    cfg.transport.algo = MultipathAlgo::kObs;
    cfg.transport.num_paths = 8;
    RingAllReduce ring(fleet, ranks, cfg);
    ring.start([&] { out.done = ring.status().is_ok(); });
    if (restart) {
      sim.schedule_at(SimTime::micros(200), [&] {
        out.before = driver.mode();
        out.restarted = fleet.at(ranks[1]).hot_restart().is_ok();
        out.after = driver.mode();
      });
    }
    AuditRegistry audits;
    add_audits(audits, sim, fabric, fleet);
    audits.attach_periodic(sim, SimTime::micros(50));
    sim.run_until(SimTime::millis(20));
    fleet.for_each_engine(
        [&](RdmaEngine& e) { out.delivered += e.rx_goodput_bytes(); });
    const AuditReport report = audits.run_all();
    EXPECT_TRUE(report.clean()) << report.to_string();
    EXPECT_EQ(audits.total_findings(), 0u);
    return out;
  };
  const Outcome plain = run(false);
  const Outcome restarted = run(true);
  ASSERT_TRUE(plain.done);
  EXPECT_EQ(restarted.before, RegionMode::kFluid)
      << "the restart did not land mid-fluid-epoch";
  EXPECT_TRUE(restarted.restarted);
  EXPECT_EQ(restarted.after, RegionMode::kPacket)
      << "hot_restart serialized without zooming";
  EXPECT_TRUE(restarted.done);
  EXPECT_EQ(restarted.delivered, plain.delivered);
}

TEST(HybridFaultDeathTest, SaveStateOfFrozenConnectionDies) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);
  const EndpointId src = fabric.endpoint(0, 0);
  auto conn = fleet.connect(src, fabric.endpoint(1, 0), {});
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(1_MiB);
  sim.run_until(SimTime::micros(5));
  ASSERT_EQ(driver.mode(), RegionMode::kFluid);
  EXPECT_DEATH(fleet.at(src).save_state(), "under fluid service");
}

TEST(HybridReceiverTest, StraddlingMessageCompletesOnceWithFullGoodput) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);  // the fabric starts fluid
  EngineFleet fleet(sim, fabric);
  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(src, dst, {});
  ASSERT_TRUE(conn.is_ok());
  std::vector<RxMessage> received;
  fleet.at(dst).set_message_handler(
      [&](const RxMessage& m) { received.push_back(m); });

  // Fluid until 10 us, packet mode for the rest of the run.
  constexpr std::uint64_t kBytes = 4_MiB;
  const SimTime zoom_at = SimTime::micros(10);
  driver.request_zoom_window(zoom_at, SimTime::millis(100));
  int sender_done = 0;
  const std::uint64_t msg_id =
      conn.value()->post_write(kBytes, [&] { ++sender_done; });
  std::uint64_t synced = 0;
  RegionMode after_zoom = RegionMode::kFluid;
  sim.schedule_at(zoom_at, [&] {
    after_zoom = driver.mode();
    synced = fleet.at(dst).rx_goodput_bytes();
  });
  sim.run_until(SimTime::millis(5));

  ASSERT_EQ(after_zoom, RegionMode::kPacket);
  EXPECT_GT(synced, 0u) << "no fluid prefix was synced at the thaw";
  EXPECT_LT(synced, kBytes) << "the message did not straddle the zoom";
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].msg_id, msg_id);
  EXPECT_EQ(received[0].bytes, kBytes);
  EXPECT_EQ(sender_done, 1);
  EXPECT_EQ(fleet.at(dst).rx_goodput_bytes(), kBytes);
  EXPECT_EQ(fleet.at(dst).rx_duplicate_packets(), 0u);
}

TEST(HybridReceiverTest, AbsorbedAcksDoNotDeliverTwice) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);
  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(src, dst, {});
  ASSERT_TRUE(conn.is_ok());

  // Packet mode from the start; quiet epochs promote the fabric back to
  // fluid mid-stream, with the ACKs of messages the receiver already
  // completed still on the wire. The promotion tick only polls while other
  // events are pending, so a marker event keeps it alive.
  const SimTime end = SimTime::millis(5);
  sim.schedule_at(end, [] {});
  driver.request_zoom_window(SimTime::zero(), SimTime::micros(5));
  ASSERT_EQ(driver.mode(), RegionMode::kPacket);

  constexpr int kMessages = 1000;
  constexpr std::uint64_t kBytes = 6000;  // two packets each
  std::map<std::uint64_t, int> rx_count;
  std::set<std::uint64_t> tx_done;
  fleet.at(dst).set_message_handler(
      [&](const RxMessage& m) { ++rx_count[m.msg_id]; });
  std::vector<std::uint64_t> ids(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    ids[i] = conn.value()->post_write(
        kBytes, [&tx_done, &ids, i] { tx_done.insert(ids[i]); });
  }

  // At each freeze (a packet span ends): messages the receiver completed
  // whose sender has not seen the final ACK — their ACKs were absorbed.
  std::size_t absorbed_completions = 0;
  driver.set_span_hook([&](RegionMode mode, SimTime, SimTime) {
    if (mode != RegionMode::kPacket) return;
    for (const auto& [id, count] : rx_count) {
      if (!tx_done.contains(id)) ++absorbed_completions;
    }
  });
  sim.run_until(end);

  ASSERT_GT(driver.transitions(), 1u) << "the fabric never froze";
  ASSERT_GT(absorbed_completions, 0u)
      << "no freeze caught a receiver completion with its ACK in flight";
  EXPECT_GT(driver.absorbed_packets(), 0u);
  EXPECT_EQ(tx_done.size(), static_cast<std::size_t>(kMessages));
  ASSERT_EQ(rx_count.size(), static_cast<std::size_t>(kMessages));
  for (const auto& [id, count] : rx_count) {
    EXPECT_EQ(count, 1) << "message " << id << " delivered " << count
                        << " times";
  }
  EXPECT_EQ(fleet.at(dst).rx_goodput_bytes(), kMessages * kBytes);
  driver.set_span_hook({});  // the driver outlives the state it captures
}

TEST(HybridReceiverTest, ZeroLengthWriteInFlightAtFreezeCompletes) {
  // A zero-length WRITE still carries a packet in packet mode. One whose
  // packet is on the wire when the fabric freezes must be re-queued by the
  // freeze and complete under fluid service, exactly once at each end, as
  // must the zero-length WRITEs posted once the fabric is fluid.
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);
  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(src, dst, {});
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();

  // Packet mode first; quiet epochs then promote the fabric while a
  // zero-length WRITE posted every microsecond is always on the wire. The
  // promotion tick only polls while other events are pending, so a marker
  // event keeps it alive.
  const SimTime end = SimTime::millis(1);
  sim.schedule_at(end, [] {});
  driver.request_zoom_window(SimTime::zero(), SimTime::micros(5));
  ASSERT_EQ(driver.mode(), RegionMode::kPacket);
  std::map<std::uint64_t, int> rx_count;
  fleet.at(dst).set_message_handler(
      [&](const RxMessage& m) { ++rx_count[m.msg_id]; });
  int posted = 0;
  int sender_done = 0;
  for (int us = 0; us < 60; ++us) {
    sim.schedule_at(SimTime::micros(us), [&] {
      ++posted;
      c.post_write(0, [&] { ++sender_done; });
    });
  }
  int unfinished_at_freeze = -1;
  driver.set_span_hook([&](RegionMode mode, SimTime, SimTime) {
    if (mode == RegionMode::kPacket && unfinished_at_freeze < 0) {
      unfinished_at_freeze = posted - sender_done;
    }
  });
  sim.run_until(end);

  ASSERT_GT(driver.transitions(), 1u) << "the fabric never froze";
  EXPECT_EQ(driver.mode(), RegionMode::kFluid);
  ASSERT_GT(unfinished_at_freeze, 0)
      << "no zero-length WRITE was in flight at the freeze";
  EXPECT_EQ(sender_done, posted);
  ASSERT_EQ(rx_count.size(), static_cast<std::size_t>(posted));
  for (const auto& [id, count] : rx_count) {
    EXPECT_EQ(count, 1) << "message " << id << " delivered " << count
                        << " times";
  }
  EXPECT_TRUE(c.idle());
  driver.set_span_hook({});  // the driver outlives the state it captures
}

}  // namespace
}  // namespace stellar
