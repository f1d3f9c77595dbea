// Fault-injection framework mechanics: plan validation, hard link down/up
// with both drain modes under exact conservation accounting, flapping,
// degradation windows, whole-switch failure, RNIC device reset, PVDMA pin
// pressure with the hypervisor's backoff-retry path, and byte-identical
// telemetry across repeated runs of the same plan and seed.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "virt/hypervisor.h"

namespace stellar {
namespace {

FabricConfig small_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 4;
  return fc;
}

// ---------------------------------------------------------------------------
// Plan validation.
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, RejectsOutOfRangeTargets) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  FaultInjector injector(sim, fabric);

  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kLinkDown;
  e.link = {LinkLayer::kTorUp, /*segment=*/0, /*rail=*/0, /*plane=*/0,
            /*agg=*/99};  // only 4 aggs exist
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  // The fabric is one (rail, plane) island: any other rail or plane is out
  // of range too.
  plan.events.clear();
  e.link = {LinkLayer::kHostUp, /*segment=*/0, /*host=*/0, /*rail=*/1,
            /*plane=*/0};
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kSwitchDown;
  e.sw.is_tor = true;
  e.sw.plane = 1;
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kSwitchDown;
  e.sw.agg = 4;  // one past the end
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kLinkFlap;
  e.link = {LinkLayer::kTorUp, 0, 0, 0, 0};
  e.flaps = 0;  // a flap event must flap at least once
  e.duration = SimTime::micros(10);
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kDegrade;
  e.link = {LinkLayer::kTorUp, 0, 0, 0, 0};
  e.duration = SimTime::micros(10);
  e.degrade_loss = 1.5;  // probability out of [0, 1]
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kRnicReset;
  e.engine = 0;  // no engine registered
  e.duration = SimTime::micros(10);
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  plan.events.clear();
  e = FaultEvent{};
  e.kind = FaultKind::kPinPressure;
  e.pvdma = 0;  // no pvdma registered
  e.duration = SimTime::micros(10);
  plan.events.push_back(e);
  EXPECT_FALSE(injector.arm(plan).is_ok());

  // Nothing was scheduled by the rejected plans.
  sim.run();
  EXPECT_EQ(injector.events_executed(), 0u);
}

// ---------------------------------------------------------------------------
// NetLink hard failure: ingress rejection, void vs drain, conservation.
// ---------------------------------------------------------------------------

NetPacket make_packet(std::uint32_t payload) {
  NetPacket p;
  p.payload = payload;
  return p;
}

TEST(LinkDownTest, VoidDestroysQueueAndRejectsIngress) {
  Simulator sim;
  NetLink link(sim, "l", LinkConfig{});
  std::uint64_t delivered = 0;
  link.set_deliver([&](NetPacket&&) { ++delivered; });

  for (int i = 0; i < 4; ++i) link.enqueue(make_packet(4096));
  ASSERT_GT(link.queue_bytes(), 0u);

  link.set_down(LinkDrainMode::kVoid);
  EXPECT_FALSE(link.is_up());
  // Everything queued (including the packet mid-serialization) is gone.
  EXPECT_EQ(link.queue_bytes(), 0u);
  EXPECT_EQ(link.voided_packets(), 4u);

  link.enqueue(make_packet(4096));  // offered while down: rejected
  EXPECT_EQ(link.down_drops(), 1u);

  sim.run();
  EXPECT_EQ(delivered, 0u);

#if STELLAR_AUDIT_ENABLED
  // Conservation: accepted == released + sink drops + held, rejected
  // ingress accounted separately.
  EXPECT_EQ(link.audit_accepted(), 4u);
  EXPECT_EQ(link.audit_sink_drops(), 4u);
  EXPECT_EQ(link.audit_ingress_drops(), 1u);
  EXPECT_EQ(link.held_packets(), 0u);
#endif

  link.set_up();
  link.enqueue(make_packet(4096));
  sim.run();
  EXPECT_EQ(delivered, 1u);
}

TEST(LinkDownTest, DrainFinishesQueueButRejectsIngress) {
  Simulator sim;
  NetLink link(sim, "l", LinkConfig{});
  std::uint64_t delivered = 0;
  link.set_deliver([&](NetPacket&&) { ++delivered; });

  for (int i = 0; i < 4; ++i) link.enqueue(make_packet(4096));
  link.set_down(LinkDrainMode::kDrain);
  link.enqueue(make_packet(4096));  // rejected: lame duck takes no new work
  EXPECT_EQ(link.down_drops(), 1u);

  sim.run();
  // The queued packets finished transmitting despite the down state.
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(link.voided_packets(), 0u);
#if STELLAR_AUDIT_ENABLED
  EXPECT_EQ(link.audit_accepted(), 4u);
  EXPECT_EQ(link.audit_released(), 4u);
  EXPECT_EQ(link.held_packets(), 0u);
#endif
}

// ---------------------------------------------------------------------------
// Injected link-down mid-transfer: traffic recovers, conservation holds.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, LinkOutageMidTransferKeepsConservation) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.num_paths = 16;
  tc.rto = SimTime::micros(100);
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  FaultTelemetry telemetry;
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { telemetry.watch_engine(&engine); });
  FaultInjector injector(sim, fabric, &telemetry);

  // One uplink dies (optics cut: queue voided) and comes back later.
  FaultPlan plan;
  FaultEvent down;
  down.at = SimTime::micros(50);
  down.kind = FaultKind::kLinkDown;
  down.label = "uplink0";
  down.link = {LinkLayer::kTorUp, 0, 0, 0, 0};
  down.drain = LinkDrainMode::kVoid;
  plan.events.push_back(down);
  FaultEvent up;
  up.at = SimTime::millis(2);
  up.kind = FaultKind::kLinkUp;
  up.label = "uplink0";
  up.link = down.link;
  plan.events.push_back(up);
  ASSERT_TRUE(injector.arm(plan).is_ok());
  telemetry.attach(sim, SimTime::micros(50));

  AuditRegistry registry;
  registry.add(std::make_unique<FabricConservationAuditor>(fabric));
  fleet.for_each_engine([&](RdmaEngine& engine) {
    registry.add(std::make_unique<TransportAuditor>(engine));
  });
  registry.set_trap_on_finding(false);
  registry.attach_periodic(sim, SimTime::micros(200));

  bool done = false;
  conn.value()->post_write(8_MiB, [&] { done = true; });
  // Two periodic monitors keep each other armed (each re-arms while the
  // queue is non-empty), so run to a horizon rather than to drain.
  sim.run_until(SimTime::millis(20));

  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_EQ(injector.events_executed(), 2u);
  EXPECT_TRUE(fabric.tor_uplink(0, 0).is_up());
  EXPECT_GT(registry.runs(), 0u);
  EXPECT_EQ(registry.total_findings(), 0u);

  // The outage registered in the telemetry timeline and was detected.
  ASSERT_EQ(telemetry.faults().size(), 1u);
  EXPECT_TRUE(telemetry.faults()[0].cleared);
  ASSERT_EQ(telemetry.analyze().size(), 1u);
  EXPECT_TRUE(telemetry.analyze()[0].detected);
}

// ---------------------------------------------------------------------------
// Flapping and degradation windows.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FlapCyclesLinkAndEndsUp) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  FaultTelemetry telemetry;
  FaultInjector injector(sim, fabric, &telemetry);

  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(10);
  e.kind = FaultKind::kLinkFlap;
  e.label = "flappy";
  e.link = {LinkLayer::kTorUp, 0, 0, 0, 1};
  e.duration = SimTime::micros(5);     // down time per cycle
  e.flap_period = SimTime::micros(20); // cycle start-to-start
  e.flaps = 3;
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  NetLink& link = fabric.tor_uplink(0, 1);
  bool seen_down = false;
  // Sample inside the second cycle's down window: 10 + 20 + 2.5 us.
  sim.schedule_after(SimTime::picos(32'500'000),
                     [&] { seen_down = !link.is_up(); });
  sim.run();

  EXPECT_TRUE(seen_down);
  EXPECT_TRUE(link.is_up());  // every flap ends with the link restored
  ASSERT_EQ(telemetry.faults().size(), 1u);
  EXPECT_TRUE(telemetry.faults()[0].cleared);
  // Cleared when the LAST cycle ends: 10 + 2*20 + 5 us.
  EXPECT_EQ(telemetry.faults()[0].cleared_at, SimTime::micros(55));
}

TEST(FaultInjectorTest, DegradeWindowAppliesAndRestores) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  FaultInjector injector(sim, fabric);

  NetLink& link = fabric.tor_uplink(0, 2);
  const double clean_loss = link.config().drop_probability;
  const SimTime clean_prop = link.config().propagation;

  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(10);
  e.kind = FaultKind::kDegrade;
  e.label = "brownout";
  e.link = {LinkLayer::kTorUp, 0, 0, 0, 2};
  e.duration = SimTime::micros(50);
  e.degrade_loss = 0.25;
  e.degrade_latency = SimTime::micros(5);
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  bool inside_checked = false;
  sim.schedule_after(SimTime::micros(30), [&] {
    inside_checked = true;
    EXPECT_DOUBLE_EQ(link.config().drop_probability, 0.25);
    EXPECT_EQ(link.config().propagation, clean_prop + SimTime::micros(5));
  });
  sim.run();

  EXPECT_TRUE(inside_checked);
  EXPECT_DOUBLE_EQ(link.config().drop_probability, clean_loss);
  EXPECT_EQ(link.config().propagation, clean_prop);
}

// ---------------------------------------------------------------------------
// Whole-switch failure takes every port of the device down at once.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SwitchDownKillsAllPortsAndUpRestores) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  FaultInjector injector(sim, fabric);

  FaultPlan plan;
  FaultEvent down;
  down.at = SimTime::micros(10);
  down.kind = FaultKind::kSwitchDown;
  down.label = "agg1";
  down.sw.agg = 1;
  plan.events.push_back(down);
  FaultEvent up = down;
  up.at = SimTime::micros(100);
  up.kind = FaultKind::kSwitchUp;
  plan.events.push_back(up);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  const std::vector<NetLink*> ports = fabric.agg_switch_ports(1);
  // Both cable ends for every (segment, rail, plane): 2 segments * 2 links.
  ASSERT_EQ(ports.size(), 4u);

  bool mid_checked = false;
  sim.schedule_after(SimTime::micros(50), [&] {
    mid_checked = true;
    for (const NetLink* port : ports) EXPECT_FALSE(port->is_up());
    // An uninvolved switch keeps its ports.
    EXPECT_TRUE(fabric.tor_uplink(0, 0).is_up());
  });
  sim.run();

  EXPECT_TRUE(mid_checked);
  for (const NetLink* port : ports) EXPECT_TRUE(port->is_up());
}

// ---------------------------------------------------------------------------
// RNIC device reset: ingress-black window plus QPs to the error state.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, RnicResetErrorsLocalQpsAndDiscardsIngress) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.rto = SimTime::micros(50);
  tc.max_retries = 100;
  const EndpointId src = fabric.endpoint(0, 0);
  const EndpointId dst = fabric.endpoint(1, 0);
  auto conn = fleet.connect(src, dst, tc);
  ASSERT_TRUE(conn.is_ok());

  // Reset the RECEIVER: its device discards ingress for the window, the
  // sender rides RTO retransmits across it and still completes.
  FaultInjector injector(sim, fabric);
  injector.register_engine(&fleet.at(src));
  injector.register_engine(&fleet.at(dst));

  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(20);
  e.kind = FaultKind::kRnicReset;
  e.label = "rx_reset";
  e.engine = 1;  // the dst engine registered above
  e.duration = SimTime::micros(200);
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  bool done = false;
  conn.value()->post_write(1_MiB, [&] { done = true; });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(fleet.at(dst).device_resets(), 1u);
  EXPECT_GT(fleet.at(dst).reset_drops(), 0u);
  EXPECT_GT(conn.value()->retransmits(), 0u);
  EXPECT_TRUE(conn.value()->status().is_ok());
}

TEST(RnicResetTest, LocalQpsFailFastAndDeadPostsAreDiscarded) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  EngineFleet fleet(sim, fabric);

  const EndpointId src = fabric.endpoint(0, 0);
  auto conn = fleet.connect(src, fabric.endpoint(1, 0), {});
  ASSERT_TRUE(conn.is_ok());

  Status seen = Status::ok();
  int error_fires = 0;
  conn.value()->set_on_error([&](const Status& reason) {
    seen = reason;
    ++error_fires;
  });

  bool done = false;
  conn.value()->post_write(4_MiB, [&] { done = true; });
  sim.schedule_after(SimTime::micros(30), [&] {
    fleet.at(src).reset_device(SimTime::micros(100));
  });
  sim.run();  // must drain: an errored QP holds no timers or queued work

  EXPECT_FALSE(done);
  EXPECT_EQ(error_fires, 1);
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(conn.value()->in_error());
  EXPECT_FALSE(conn.value()->status().is_ok());
  EXPECT_TRUE(conn.value()->idle());

  // Posts against a dead QP are discarded, not queued.
  const std::uint64_t before = conn.value()->completed_bytes();
  conn.value()->post_write(1_MiB, [] { FAIL() << "dead QP completed a WR"; });
  sim.run();
  EXPECT_EQ(conn.value()->completed_bytes(), before);
}

// ---------------------------------------------------------------------------
// PVDMA pin pressure and the hypervisor's backoff-retry path.
// ---------------------------------------------------------------------------

TEST(PinPressureTest, RetryBacksOffAcrossWindowAndSucceeds) {
  Simulator sim;
  HostPcieConfig pcfg;
  pcfg.main_memory_bytes = 8_GiB;
  HostPcie pcie(pcfg);
  Hypervisor hyp(pcie);
  RundContainer container(1, "tenant", 2_GiB);
  ASSERT_TRUE(hyp.boot_container(container).is_ok());

  ClosFabric fabric(sim, small_fabric());
  FaultInjector injector(sim, fabric);
  injector.register_pvdma(&hyp.pvdma(1));

  FaultPlan plan;
  FaultEvent e;
  e.at = SimTime::micros(10);
  e.kind = FaultKind::kPinPressure;
  e.label = "pin_pressure";
  e.pvdma = 0;
  e.duration = SimTime::micros(200);
  plan.events.push_back(e);
  ASSERT_TRUE(injector.arm(plan).is_ok());

  // The pin lands mid-window: first attempts hit kResourceExhausted, the
  // capped exponential backoff carries it past the window's end.
  bool done = false;
  Status final = Status::ok();
  sim.schedule_after(SimTime::micros(50), [&] {
    hyp.prepare_dma_with_retry(sim, 1, Gpa{0}, 2 * kPage2M,
                               [&](StatusOr<Pvdma::MapResult> r) {
                                 done = true;
                                 final = r.status();
                               });
  });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(final.is_ok());
  EXPECT_GT(hyp.pin_retries(), 0u);
  EXPECT_GT(hyp.pvdma(1).pressured_rejections(), 0u);
  EXPECT_FALSE(hyp.pvdma(1).resource_pressure());  // window cleared
  EXPECT_EQ(hyp.pvdma(1).pinned_bytes(), 2 * kPage2M);
}

TEST(PinPressureTest, PersistentPressureExhaustsAttemptBudget) {
  Simulator sim;
  HostPcieConfig pcfg;
  pcfg.main_memory_bytes = 8_GiB;
  HostPcie pcie(pcfg);
  Hypervisor hyp(pcie);
  RundContainer container(1, "tenant", 2_GiB);
  ASSERT_TRUE(hyp.boot_container(container).is_ok());

  hyp.pvdma(1).set_resource_pressure(true);  // never relieved

  bool done = false;
  Status final = Status::ok();
  hyp.prepare_dma_with_retry(sim, 1, Gpa{0}, kPage2M,
                             [&](StatusOr<Pvdma::MapResult> r) {
                               done = true;
                               final = r.status();
                             });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(final.code(), StatusCode::kResourceExhausted);
  // kPinRetryMaxAttempts tries total; every attempt but the last
  // re-scheduled.
  EXPECT_EQ(hyp.pin_retries(), kPinRetryMaxAttempts - 1);
  EXPECT_EQ(hyp.pvdma(1).pinned_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: same plan + seed => byte-identical telemetry.
// ---------------------------------------------------------------------------

std::string run_scenario_json() {
  Simulator sim;
  FabricConfig fc = small_fabric();
  fc.hosts_per_segment = 4;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 2_MiB;
  cfg.transport.num_paths = 16;
  cfg.transport.rto = SimTime::micros(100);
  RingAllReduce ar(fleet, ranks, cfg);

  FaultTelemetry telemetry;
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { telemetry.watch_engine(&engine); });
  FaultInjector injector(sim, fabric, &telemetry);

  FaultPlan plan;
  plan.seed = 1234;
  FaultEvent down;
  down.at = SimTime::micros(40);
  down.kind = FaultKind::kSwitchDown;
  down.label = "agg2";
  down.sw.agg = 2;
  plan.events.push_back(down);
  FaultEvent up = down;
  up.at = SimTime::micros(400);
  up.kind = FaultKind::kSwitchUp;
  plan.events.push_back(up);
  FaultEvent flap;
  flap.at = SimTime::micros(80);
  flap.kind = FaultKind::kLinkFlap;
  flap.label = "flap";
  flap.link = {LinkLayer::kTorUp, 1, 0, 0, 0};
  flap.duration = SimTime::micros(20);
  flap.flap_period = SimTime::micros(60);
  flap.flaps = 2;
  plan.events.push_back(flap);
  STELLAR_CHECK_OK(injector.arm(plan), "scenario plan must validate");
  telemetry.attach(sim, SimTime::micros(25));

  bool done = false;
  ar.start([&] { done = true; });
  sim.run();
  STELLAR_CHECK(done, "scenario allreduce must complete");
  return telemetry.to_json();
}

TEST(FaultDeterminismTest, SamePlanAndSeedGiveByteIdenticalTelemetry) {
  const std::string first = run_scenario_json();
  const std::string second = run_scenario_json();
  EXPECT_EQ(first, second);
  // The dump actually carries the timeline, not an empty shell.
  EXPECT_NE(first.find("\"seed\": 1234"), std::string::npos);
  EXPECT_NE(first.find("\"faults\""), std::string::npos);
  EXPECT_NE(first.find("\"samples\""), std::string::npos);
  EXPECT_NE(first.find("\"analysis\""), std::string::npos);
}

}  // namespace
}  // namespace stellar
