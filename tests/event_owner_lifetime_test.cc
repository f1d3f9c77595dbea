// An object that schedules events on a Simulator and the Simulator itself
// may die in either order. Each case below destroys one of them while one
// of its events is still pending, then runs or destroys the other; under
// the ASan+UBSan preset any touch of freed memory fails the test.
//
//  * a FaultTelemetry destroyed while attached, before its next sample;
//  * an AuditRegistry whose Simulator dies first with an audit pending;
//  * an idle connection whose blacklisted path still has a reinstatement
//    probe pending when its EngineFleet is destroyed;
//  * a Hypervisor destroyed with a pin retry pending;
//  * a FaultInjector destroyed with its plan armed, and with a degrade
//    window's clear pending;
//  * a BurstyDriver destroyed in its off-window;
//  * an EngineFleet destroyed while a rate-capped connection still has
//    packets in its stack pacer.
//
// Each owner's pending events die with it: after the destroy nothing of
// it is pending, and running the Simulator runs none of it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "check/audit.h"
#include "check/auditors.h"
#include "collective/fleet.h"
#include "collective/traffic.h"
#include "fault/fault.h"
#include "fault/telemetry.h"
#include "virt/hypervisor.h"

namespace stellar {
namespace {

TEST(EventOwnerLifetimeTest, TelemetryDestroyedWhileAttachedNeverSamples) {
  Simulator sim;
  const SimTime period = SimTime::micros(10);
  {
    auto telemetry = std::make_unique<FaultTelemetry>();
    telemetry->attach(sim, period);
    ASSERT_EQ(telemetry->samples().size(), 1u);  // the t=attach baseline
    ASSERT_EQ(sim.pending_events(), 1u);         // the next sample
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  bool ran = false;
  sim.schedule_at(period * 3, [&ran] { ran = true; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), period * 3);
}

TEST(EventOwnerLifetimeTest, AuditRegistryOutlivesItsSimulator) {
  AuditRegistry registry;
  auto sim = std::make_unique<Simulator>();
  registry.add(std::make_unique<SimulatorAuditor>(*sim));
  sim->schedule_after(SimTime::micros(50), [] {});
  registry.attach_periodic(*sim, SimTime::micros(10));
  EXPECT_EQ(sim->run_until(SimTime::micros(25)), 2u);  // two audits ran
  EXPECT_EQ(registry.runs(), 2u);
  ASSERT_EQ(sim->pending_events(), 2u);  // the next audit and the event
  sim.reset();
  // Detaching (and destroying the registry at scope exit) must not reach
  // into the destroyed Simulator.
  EXPECT_TRUE(registry.attached());
  registry.detach();
  EXPECT_FALSE(registry.attached());
  EXPECT_EQ(registry.runs(), 2u);
}

TEST(EventOwnerLifetimeTest, FleetDestroyedWithProbePendingNeverProbes) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 1;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  auto fleet = std::make_unique<EngineFleet>(sim, fabric);
  TransportConfig tc;
  tc.num_paths = 4;
  tc.blacklist_hold = SimTime::millis(20);
  tc.probe_interval = SimTime::micros(100);
  auto conn = fleet->connect(fabric.endpoint(0, 0), fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());
  RdmaConnection& c = *conn.value();
  fabric.tor_uplink(0, 1).set_drop_probability(1.0);

  // The spray blacklists the paths through the dead uplink and the
  // transfer completes around them.
  bool done = false;
  c.post_write(4_MiB, [&done] { done = true; });
  while (!done || !c.idle()) ASSERT_TRUE(sim.step());
  ASSERT_GT(c.blacklisted_paths(), 0u);
  ASSERT_EQ(c.probes_sent(), 0u);
  const SimTime blacklisted_by = sim.now();
  // Idle, with nothing in flight: what is left are the probes, one per
  // blacklisted path, due blacklist_hold after each path went out.
  sim.run_until(sim.now() + SimTime::micros(100));
  ASSERT_TRUE(c.idle());
  ASSERT_EQ(sim.pending_events(), c.blacklisted_paths());

  fleet.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  const std::uint64_t executed = sim.executed_events();
  sim.run_until(blacklisted_by + tc.blacklist_hold * 2);
  EXPECT_EQ(sim.executed_events(), executed);
}

TEST(EventOwnerLifetimeTest, HypervisorDestroyedWithPinRetryPendingNeverRetries) {
  Simulator sim;
  HostPcieConfig pcfg;
  pcfg.main_memory_bytes = 8_GiB;
  HostPcie pcie(pcfg);
  RundContainer container(1, "tenant", 2_GiB);
  bool done = false;
  {
    auto hyp = std::make_unique<Hypervisor>(pcie);
    ASSERT_TRUE(hyp->boot_container(container).is_ok());
    hyp->pvdma(1).set_resource_pressure(true);
    hyp->prepare_dma_with_retry(
        sim, 1, Gpa{0}, kPage2M,
        [&done](StatusOr<Pvdma::MapResult>) { done = true; });
    ASSERT_EQ(hyp->pin_retries(), 1u);
    ASSERT_EQ(sim.pending_events(), 1u);  // the second attempt
  }
  // The retry died with its Hypervisor: nothing runs, and `done` is never
  // called.
  ASSERT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(done);
}

FabricConfig two_segment_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 1;
  fc.aggs_per_plane = 4;
  return fc;
}

TEST(EventOwnerLifetimeTest, FaultInjectorDestroyedWithPlanArmedNeverFires) {
  Simulator sim;
  ClosFabric fabric(sim, two_segment_fabric());
  FaultTelemetry telemetry;
  {
    FaultInjector injector(sim, fabric, &telemetry);
    FaultPlan plan;
    FaultEvent down;
    down.at = SimTime::micros(10);
    down.kind = FaultKind::kLinkDown;
    down.label = "down";
    down.link = {LinkLayer::kTorUp, /*segment=*/0, 0, 0, /*agg=*/1};
    plan.events.push_back(down);
    FaultEvent up = down;
    up.at = SimTime::micros(20);
    up.kind = FaultKind::kLinkUp;
    plan.events.push_back(up);
    ASSERT_TRUE(injector.arm(plan).is_ok());
    ASSERT_EQ(sim.pending_events(), 1u);  // the plan's queue, at its head
  }
  ASSERT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_TRUE(fabric.tor_uplink(0, 1).is_up());
  EXPECT_TRUE(telemetry.faults().empty());
}

TEST(EventOwnerLifetimeTest,
     FaultInjectorDestroyedWithDegradeClearPendingLeavesLinkDegraded) {
  Simulator sim;
  ClosFabric fabric(sim, two_segment_fabric());
  NetLink& link = fabric.tor_uplink(0, 1);
  const double base_loss = link.config().drop_probability;
  {
    FaultInjector injector(sim, fabric);
    FaultPlan plan;
    FaultEvent degrade;
    degrade.at = SimTime::micros(10);
    degrade.kind = FaultKind::kDegrade;
    degrade.label = "lossy";
    degrade.link = {LinkLayer::kTorUp, /*segment=*/0, 0, 0, /*agg=*/1};
    degrade.duration = SimTime::micros(50);
    degrade.degrade_loss = 0.5;
    plan.events.push_back(degrade);
    ASSERT_TRUE(injector.arm(plan).is_ok());
    EXPECT_EQ(sim.run_until(SimTime::micros(20)), 1u);
    ASSERT_EQ(injector.events_executed(), 1u);
    ASSERT_EQ(link.config().drop_probability, 0.5);
    ASSERT_EQ(sim.pending_events(), 1u);  // the window's clear
  }
  // The clear died with its injector: the link stays as the window left
  // it.
  ASSERT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(link.config().drop_probability, 0.5);
  EXPECT_NE(link.config().drop_probability, base_loss);
}

TEST(EventOwnerLifetimeTest, BurstyDriverDestroyedInOffWindowNeverRestarts) {
  Simulator sim;
  int starts = 0;
  {
    BurstyDriver bursty(
        sim,
        [&](std::function<void()> done) {
          ++starts;
          sim.schedule_after(SimTime::micros(100), std::move(done));
        },
        /*on_period=*/SimTime::micros(150), /*off_period=*/SimTime::millis(1));
    bursty.run();
    // Two 100 us tasks fill the on-window; the off-window runs to 1.15 ms.
    sim.run_until(SimTime::micros(500));
    ASSERT_EQ(bursty.bursts_completed(), 2u);
    ASSERT_EQ(sim.pending_events(), 1u);  // the off-window's end
  }
  ASSERT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(starts, 2);
}

TEST(EventOwnerLifetimeTest, FleetDestroyedWithPacedPacketsNeverSendsThem) {
  Simulator sim;
  ClosFabric fabric(sim, two_segment_fabric());
  auto fleet = std::make_unique<EngineFleet>(sim, fabric);
  TransportConfig tc;
  tc.per_packet_overhead = SimTime::nanos(85);
  tc.stack_rate_cap = Bandwidth::gbps(182);
  auto conn = fleet->connect(fabric.endpoint(0, 0), fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());
  std::uint64_t injected = 0;
  fabric.set_trace_hook([&injected](const NetPacket& p, const NetLink*,
                                    SimTime) { injected += p.hop == 0; });
  // Every packet of the burst waits in the stack pacer (at least 85 ns).
  conn.value()->post_write(256_KiB);
  ASSERT_GT(conn.value()->packets_sent(), 1u);
  ASSERT_GT(sim.pending_events(), 1u);

  fleet.reset();
  ASSERT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(injected, 0u);
}

}  // namespace
}  // namespace stellar
