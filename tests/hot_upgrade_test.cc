// Backend hot-upgrade: quiesce -> snapshot -> teardown -> rebuild -> resume,
// with in-flight traffic recovered by the RTO path and every invariant
// auditor green afterwards. Covers the RdmaEngine hot_restart path under an
// AllReduce and the Hypervisor::hot_upgrade path with live PVDMA pins.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "common/snapshot.h"
#include "core/stellar.h"

namespace stellar {
namespace {

FabricConfig tiny_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 4;
  return fc;
}

TEST(HotUpgradeTest, QuiesceDropsAndRtoRecovers) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.num_paths = 4;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), tc);
  ASSERT_TRUE(conn.is_ok());

  bool done = false;
  conn.value()->post_write(2_MiB, [&] { done = true; });

  RdmaEngine& rx = fleet.at(fabric.endpoint(1, 0));
  sim.schedule_after(SimTime::micros(20),
                     [&] { rx.quiesce(SimTime::micros(40)); });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_GT(rx.quiesce_drops(), 0u);
  EXPECT_GT(conn.value()->retransmits(), 0u);
  EXPECT_TRUE(conn.value()->status().is_ok());
  EXPECT_TRUE(conn.value()->idle());
}

TEST(HotUpgradeTest, HotRestartMidAllReduceCompletesWithAuditsGreen) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 4_MiB;
  cfg.transport.algo = MultipathAlgo::kObs;
  cfg.transport.num_paths = 8;
  RingAllReduce ar(fleet, ranks, cfg);

  AuditRegistry audits;
  audits.add(std::make_unique<FabricConservationAuditor>(fabric));
  audits.add(std::make_unique<SimulatorAuditor>(sim));
  fleet.for_each_engine([&](RdmaEngine& engine) {
    audits.add(std::make_unique<TransportAuditor>(engine));
  });

  bool completed = false;
  ar.start([&] { completed = true; });

  std::uint64_t snapshot_bytes = 0;
  std::vector<std::string> digests;
  sim.schedule_after(SimTime::micros(150), [&] {
    fleet.for_each_engine([&](RdmaEngine& engine) {
      engine.quiesce(SimTime::micros(20));
      auto snap = engine.hot_restart();
      ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
      snapshot_bytes += snap.value().size();
      digests.push_back(snapshot_digest(snap.value()));
    });
  });

  sim.run_until(SimTime::millis(200));

  EXPECT_TRUE(completed);
  EXPECT_TRUE(ar.status().is_ok());
  EXPECT_GT(snapshot_bytes, 0u);
  // The four mid-AllReduce snapshots, pinned byte for byte.
  EXPECT_EQ(digests,
            (std::vector<std::string>{"387f1dfbba83aa2e", "ca1728d073ac3dec",
                                      "4d74c73abb91f8ef", "525a3b00bf1e0534"}));
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { EXPECT_EQ(engine.hot_restarts(), 1u); });
  // trap_on_finding defaults to true: a dirty report fails the test.
  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.checks_performed(), 0u);
}

TEST(HotUpgradeTest, HotRestartPreservesCompletionsAndCounters) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());
  EngineFleet fleet(sim, fabric);

  TransportConfig tc;
  tc.num_paths = 4;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 1), tc);
  ASSERT_TRUE(conn.is_ok());

  bool done = false;
  conn.value()->post_write(1_MiB, [&] { done = true; });

  RdmaEngine& tx = fleet.at(fabric.endpoint(0, 0));
  sim.schedule_after(SimTime::micros(10), [&] {
    auto snap = tx.hot_restart();
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  });
  sim.run();

  // The completion callback survived the backend swap.
  EXPECT_TRUE(done);
  EXPECT_EQ(tx.hot_restarts(), 1u);
  EXPECT_TRUE(conn.value()->idle());
}

// ---------------------------------------------------------------------------
// Hypervisor hot upgrade
// ---------------------------------------------------------------------------

TEST(HotUpgradeTest, HypervisorUpgradeAdoptsPinsAndStaysCoherent) {
  StellarHost host;
  RundContainer c1(1, "vm1", 8ull << 30);
  RundContainer c2(2, "vm2", 8ull << 30);
  ASSERT_TRUE(host.boot(c1).is_ok());
  ASSERT_TRUE(host.boot(c2).is_ok());
  // Disjoint guest-physical layouts: the host IOMMU is shared.
  c2.set_alloc_cursor(4ull << 30);

  auto d1 = host.create_vstellar_device(c1, 0);
  auto d2 = host.create_vstellar_device(c2, 1);
  ASSERT_TRUE(d1.is_ok());
  ASSERT_TRUE(d2.is_ok());

  auto g1 = c1.alloc(16_MiB, kPage2M);
  auto g2 = c2.alloc(16_MiB, kPage2M);
  ASSERT_TRUE(g1.is_ok());
  ASSERT_TRUE(g2.is_ok());
  auto m1 = d1.value()->register_memory(Gva{0x10000000}, 16_MiB,
                                        MemoryOwner::kHostDram,
                                        g1.value().value());
  auto m2 = d2.value()->register_memory(Gva{0x10000000}, 16_MiB,
                                        MemoryOwner::kHostDram,
                                        g2.value().value());
  ASSERT_TRUE(m1.is_ok());
  ASSERT_TRUE(m2.is_ok());

  const std::uint64_t pinned_before =
      host.hypervisor().pvdma(1).pinned_bytes() +
      host.hypervisor().pvdma(2).pinned_bytes();
  ASSERT_GT(pinned_before, 0u);
  // A booted VM with pins in its Map Cache, pinned byte for byte.
  auto vm1 = host.hypervisor().serialize_vm(1);
  ASSERT_TRUE(vm1.is_ok());
  EXPECT_EQ(snapshot_digest(vm1.value()), "525d2cef9bdba39c");

  auto report = host.hypervisor().hot_upgrade();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().vms, 2u);
  EXPECT_TRUE(report.value().roundtrip_identical);
  EXPECT_GT(report.value().snapshot_bytes, 0u);

  // Pins were adopted, not dropped: hardware stayed mapped across the swap.
  EXPECT_EQ(host.hypervisor().pvdma(1).pinned_bytes() +
                host.hypervisor().pvdma(2).pinned_bytes(),
            pinned_before);

  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(
      host.hypervisor().pvdma(1), host.pcie().iommu(),
      host.hypervisor().ept(1), /*exclusive_iommu=*/false));
  audits.add(std::make_unique<PinAccountingAuditor>(
      host.hypervisor().pvdma(2), host.pcie().iommu(),
      host.hypervisor().ept(2), /*exclusive_iommu=*/false));
  audits.add(std::make_unique<EmttCoherenceAuditor>(host));
  const AuditReport audit = audits.run_all();
  EXPECT_TRUE(audit.clean()) << audit.to_string();

  // The upgraded backend still serves the control path: new MR + GDR write.
  auto g3 = c1.alloc(2_MiB, kPage2M);
  ASSERT_TRUE(g3.is_ok());
  auto m3 = d1.value()->register_memory(Gva{0x60000000}, 2_MiB,
                                        MemoryOwner::kHostDram,
                                        g3.value().value());
  ASSERT_TRUE(m3.is_ok()) << m3.status().to_string();
  auto transfer = d1.value()->gdr_write(m1.value().key, Gva{0x10000000},
                                        1_MiB);
  EXPECT_TRUE(transfer.is_ok()) << transfer.status().to_string();
}

TEST(HotUpgradeTest, VirtioQuiesceStallsCommands) {
  StellarHost host;
  RundContainer c(1, "vm1", 4ull << 30);
  ASSERT_TRUE(host.boot(c).is_ok());

  VirtioControlPath& control = host.hypervisor().control_path(1);
  const SimTime normal = control.execute(ControlCommand::kRegisterMr);

  control.quiesce();
  EXPECT_TRUE(control.quiesced());
  const SimTime stalled = control.execute(ControlCommand::kRegisterMr);
  EXPECT_GT(stalled, normal);
  EXPECT_EQ(control.stalled_commands(), 1u);

  control.resume();
  EXPECT_FALSE(control.quiesced());
  EXPECT_EQ(control.execute(ControlCommand::kRegisterMr), normal);
  EXPECT_EQ(control.stalled_commands(), 1u);
}

TEST(HotUpgradeTest, HotRestoreRejectsMismatchedVm) {
  StellarHost host;
  RundContainer c1(1, "vm1", 4ull << 30);
  RundContainer c2(2, "vm2", 4ull << 30);
  ASSERT_TRUE(host.boot(c1).is_ok());
  ASSERT_TRUE(host.boot(c2).is_ok());

  auto snap = host.hypervisor().serialize_vm(1);
  ASSERT_TRUE(snap.is_ok());
  const Status s = host.hypervisor().restore_vm_hot(2, snap.value());
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace stellar
