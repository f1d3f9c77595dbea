// Recovery behaviors under hard failures: probe-based reinstatement of a
// blacklisted path, fail-fast error propagation through the
// collective and traffic layers, and the §7.2 headline — an aggregation
// switch dying mid-AllReduce costs about one RTO, while a single-path
// connection pinned to a dead path errors out instead of hanging.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "collective/traffic.h"
#include "fault/fault.h"

namespace stellar {
namespace {

FabricConfig tiny_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 1;
  fc.aggs_per_plane = 4;
  return fc;
}

TransportConfig single_path_config() {
  TransportConfig tc;
  tc.algo = MultipathAlgo::kSinglePath;
  tc.num_paths = 1;
  tc.rto = SimTime::micros(50);
  tc.max_retries = 1000;
  return tc;
}

// ---------------------------------------------------------------------------
// Blacklist: probe-based reinstatement.
// ---------------------------------------------------------------------------

TEST(BlacklistRecoveryTest, ProbeKeepsPathOutUntilAckReinstates) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc = single_path_config();
  tc.blacklist_hold = SimTime::micros(200);
  tc.probe_interval = SimTime::micros(20);
  tc.rto = SimTime::micros(500);  // probes, not data RTOs, find the revival
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  NetLink& nic = fabric.host_uplink(0, 0);
  nic.set_down(LinkDrainMode::kVoid);
  sim.schedule_after(SimTime::millis(1), [&] { nic.set_up(); });

  // Well past blacklist_hold with the link still dead: the path must STAY
  // blacklisted until a probe on it is acknowledged.
  std::size_t blacklisted_late = 0;
  std::uint64_t probes_while_dead = 0;
  sim.schedule_after(SimTime::micros(900), [&] {
    blacklisted_late = conn.value()->blacklisted_paths();
    probes_while_dead = conn.value()->probes_sent();
  });

  bool done = false;
  conn.value()->post_write(256_KiB, [&] { done = true; });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_EQ(blacklisted_late, 1u);
  EXPECT_GT(probes_while_dead, 0u);
  // After the link revived, a probe ACK readmitted the path.
  EXPECT_GT(conn.value()->probes_acked(), 0u);
  EXPECT_GT(conn.value()->paths_reinstated(), 0u);
  EXPECT_EQ(conn.value()->blacklisted_paths(), 0u);
}

TEST(BlacklistRecoveryTest, SinglePathOnDeadPathFailsFastNeverHangs) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc = single_path_config();
  tc.max_retries = 5;  // finite budget => fail fast
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  fabric.host_uplink(0, 0).set_down(LinkDrainMode::kVoid);  // forever

  Status seen = Status::ok();
  conn.value()->set_on_error([&](const Status& reason) { seen = reason; });
  bool done = false;
  conn.value()->post_write(256_KiB, [&] { done = true; });
  sim.run();  // must drain on its own: no timer may keep re-arming

  EXPECT_FALSE(done);
  EXPECT_TRUE(conn.value()->in_error());
  EXPECT_EQ(seen.code(), StatusCode::kUnavailable);
  EXPECT_EQ(conn.value()->status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(conn.value()->idle());
  EXPECT_TRUE(sim.empty());
}

// ---------------------------------------------------------------------------
// Fail-fast propagation into the collective and traffic layers.
// ---------------------------------------------------------------------------

TEST(FailFastTest, RingAllReduceAbortsWhenARankDies) {
  Simulator sim;
  FabricConfig fc = tiny_fabric();
  fc.hosts_per_segment = 2;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks = {
      fabric.endpoint(0, 0), fabric.endpoint(0, 1),
      fabric.endpoint(1, 0), fabric.endpoint(1, 1)};
  AllReduceConfig cfg;
  cfg.data_bytes = 4_MiB;
  cfg.transport.rto = SimTime::micros(50);
  cfg.transport.max_retries = 4;
  RingAllReduce ar(fleet, ranks, cfg);

  // One rank's RNIC resets mid-collective and stays dark long enough that
  // every retry budget around it runs out.
  sim.schedule_after(SimTime::micros(40), [&] {
    fleet.at(ranks[1]).reset_device(SimTime::millis(100));
  });

  bool completion_fired = false;
  ar.start([&] { completion_fired = true; });
  sim.run_until(SimTime::millis(50));

  // Fail fast: the completion callback fired with an error status instead
  // of the collective hanging forever.
  EXPECT_TRUE(completion_fired);
  EXPECT_FALSE(ar.running());
  EXPECT_FALSE(ar.status().is_ok());
  EXPECT_EQ(ar.status().code(), StatusCode::kUnavailable);
}

TEST(FailFastTest, PermutationTrafficIsolatesDeadFlow) {
  Simulator sim;
  FabricConfig fc = tiny_fabric();
  fc.segments = 1;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 2;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> hosts;
  for (std::uint32_t h = 0; h < 4; ++h) {
    hosts.push_back(fabric.endpoint(0, h));
  }
  PermutationConfig pc;
  pc.message_bytes = 256_KiB;
  pc.transport.rto = SimTime::micros(50);
  pc.transport.max_retries = 4;
  PermutationTraffic traffic(fleet, hosts, {}, pc);

  traffic.start();
  sim.schedule_after(SimTime::micros(100), [&] {
    fleet.at(hosts[0]).reset_device(SimTime::millis(100));
  });
  sim.run_until(SimTime::millis(5));
  traffic.stop();
  sim.run_until(SimTime::millis(10));

  // The flow out of the dead engine (and any flow into it) failed fast...
  EXPECT_GE(traffic.failed_flows(), 1u);
  EXPECT_LT(traffic.failed_flows(), traffic.flow_count());
  EXPECT_FALSE(traffic.status().is_ok());
  // ...while the surviving flows kept streaming.
  EXPECT_GT(traffic.completed_bytes(), 2 * pc.message_bytes);
}

// ---------------------------------------------------------------------------
// The §7.2 headline: an Agg switch dies mid-AllReduce; with 128 sprayed
// paths the ring completes within 15% of the fault-free time, and the
// cross-layer auditors stay green throughout the outage.
// ---------------------------------------------------------------------------

struct AllReduceRun {
  SimTime duration;
  bool completed = false;
  Status status = Status::ok();
  bool detected = false;
  std::uint64_t audit_findings = 0;
};

AllReduceRun run_allreduce(bool kill_switch) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 8;
  fc.aggs_per_plane = 32;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 16_MiB;
  cfg.transport.algo = MultipathAlgo::kObs;
  cfg.transport.num_paths = 128;
  cfg.transport.rto = SimTime::micros(100);
  RingAllReduce ar(fleet, ranks, cfg);

  FaultTelemetry telemetry;
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { telemetry.watch_engine(&engine); });
  FaultInjector injector(sim, fabric, &telemetry);
  if (kill_switch) {
    FaultPlan plan;
    FaultEvent e;
    e.at = SimTime::micros(300);  // well inside the transfer
    e.kind = FaultKind::kSwitchDown;
    e.label = "agg_dead";
    e.sw.agg = 5;
    plan.events.push_back(e);
    STELLAR_CHECK_OK(injector.arm(plan), "switch-down plan must validate");
    telemetry.attach(sim, SimTime::micros(50));
  }

  AuditRegistry registry;
#if STELLAR_AUDIT_ENABLED
  registry.add(std::make_unique<FabricConservationAuditor>(fabric));
#endif
  fleet.for_each_engine([&](RdmaEngine& engine) {
    registry.add(std::make_unique<TransportAuditor>(engine));
  });
  registry.set_trap_on_finding(false);
  registry.attach_periodic(sim, SimTime::micros(100));

  AllReduceRun out;
  ar.start([&] { out.completed = true; });
  sim.run_until(SimTime::millis(100));

  out.duration = ar.last_duration();
  out.status = ar.status();
  out.audit_findings = registry.total_findings();
  for (const auto& a : telemetry.analyze()) out.detected |= a.detected;
  return out;
}

TEST(HardFailureTest, AggSwitchDeathMidAllReduceCostsUnderFifteenPercent) {
  const AllReduceRun clean = run_allreduce(/*kill_switch=*/false);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(clean.status.is_ok());
  EXPECT_EQ(clean.audit_findings, 0u);

  const AllReduceRun faulted = run_allreduce(/*kill_switch=*/true);
  ASSERT_TRUE(faulted.completed);
  EXPECT_TRUE(faulted.status.is_ok());
  EXPECT_EQ(faulted.audit_findings, 0u);
  EXPECT_TRUE(faulted.detected);

  // One sprayed Agg of 32 dying costs about one RTO of disturbance: the
  // collective finishes within 15% of the fault-free run.
  EXPECT_LE(faulted.duration.sec(), 1.15 * clean.duration.sec())
      << "clean " << clean.duration.sec() << " s vs faulted "
      << faulted.duration.sec() << " s";
}

}  // namespace
}  // namespace stellar
