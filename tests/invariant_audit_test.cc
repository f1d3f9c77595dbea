// Invariant auditors: each of the six is proven to (a) report clean on a
// healthy system and (b) catch deliberately injected corruption. The
// test peers below are the friend hooks the production classes declare for
// exactly this purpose — no audit code path is exercised any other way.
#include "check/auditors.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "collective/allreduce.h"
#include "core/cluster.h"
#include "core/stellar.h"
#include "virt/container.h"

namespace stellar {

struct SimulatorTestPeer {
  static void skew_live_events(Simulator& sim, std::uint64_t delta) {
    sim.live_events_ += delta;
  }
  static void skew_armed_timers(Simulator& sim, std::size_t delta) {
    sim.armed_timers_ += delta;
  }
};

struct FabricTestPeer {
  static void skew_injected(ClosFabric& fabric, std::uint64_t delta) {
    fabric.injected_ += delta;
  }
};

struct IommuTestPeer {
  static void skew_tenant_pins(Iommu& iommu, TenantId tenant,
                               std::uint64_t delta) {
    iommu.pinned_by_tenant_.add(tenant, delta);  // global counter untouched
  }
};

struct TranslationCacheTestPeer {
  // Tests reach the caches through their owners' read-only accessors; the
  // caches themselves are not const objects, so casting the qualifier away
  // is well-defined.
  static void skew_occupancy(const TranslationCache& cache, TenantId tenant,
                             std::size_t delta) {
    // The resident entries (size()) stay untouched.
    const_cast<TranslationCache&>(cache).occupancy_[tenant] += delta;
  }
};

struct TransportTestPeer {
  static void skew_inflight(RdmaConnection& conn, std::uint64_t delta) {
    conn.inflight_bytes_ += delta;
  }
  static void delay_rto(RdmaConnection& conn, SimTime by) {
    conn.rto_deadline_ += by;  // the timer itself stays put
  }
  static void corrupt_rx_floor(RdmaEngine& engine, std::uint64_t conn_id) {
    auto& rx = engine.rx_[conn_id];
    rx.psns.reset(5);
    rx.psns.mark(5);  // the floor's own bit, uncompacted
    rx.highest_psn = 10;
    rx.any = true;
  }
};

namespace {

bool has_finding_from(const AuditReport& report, const std::string& auditor) {
  for (const auto& f : report.findings()) {
    if (f.auditor == auditor) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Simulator heap sanity.
// ---------------------------------------------------------------------------

TEST(SimulatorAuditorTest, CleanOnHealthyHeapCorruptFlagged) {
  Simulator sim;
  sim.schedule_after(SimTime::nanos(10), [] {});
  Simulator::Timer cancelled(sim, [] {});
  cancelled.arm(SimTime::nanos(20));
  cancelled.disarm();  // leaves a tombstone queued
  ASSERT_EQ(sim.heap_stats().tombstones, 1u);
  ASSERT_EQ(sim.pending_events(), 1u);

  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.set_trap_on_finding(false);

  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();
  EXPECT_GT(healthy.checks_performed(), 0u);

  SimulatorTestPeer::skew_live_events(sim, 3);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "simulator-heap"))
      << corrupt.to_string();
  EXPECT_EQ(registry.total_findings(), corrupt.findings().size());
}

TEST(SimulatorAuditorTest, ArmedTimerCountSkewFlagged) {
  Simulator sim;
  int fired = 0;
  Simulator::Timer armed(sim, [&fired] { ++fired; });
  Simulator::Timer disarmed(sim, [&fired] { ++fired; });
  armed.arm(SimTime::nanos(10));
  disarmed.arm(SimTime::nanos(20));
  disarmed.disarm();  // a tombstone, backing no armed timer
  sim.schedule_after(SimTime::nanos(30), [] {});
  // `armed` and the timer of the Simulator's one-shot queue.
  ASSERT_EQ(sim.heap_stats().armed_timers, 2u);
  ASSERT_EQ(sim.pending_events(), 2u);
  ASSERT_EQ(sim.heap_stats().tombstones, 1u);

  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.set_trap_on_finding(false);
  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();

  // A timer counted armed that backs no pending entry breaks
  // armed_timers == pending_ids, and only that.
  SimulatorTestPeer::skew_armed_timers(sim, 1);
  AuditReport skewed = registry.run_all();
  ASSERT_EQ(skewed.findings().size(), 1u) << skewed.to_string();
  EXPECT_EQ(skewed.findings()[0].auditor, "simulator-heap");
  EXPECT_NE(skewed.findings()[0].detail.find("3 armed timers"),
            std::string::npos)
      << skewed.to_string();
  SimulatorTestPeer::skew_armed_timers(sim, static_cast<std::size_t>(-1));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(registry.run_all().clean());
}

// ---------------------------------------------------------------------------
// Fabric packet conservation.
// ---------------------------------------------------------------------------

TEST(FabricAuditorTest, ConservationHoldsAfterTrafficAndCatchesSkew) {
#if !STELLAR_AUDIT_ENABLED
  GTEST_SKIP() << "conservation counters compiled out (STELLAR_AUDIT=OFF)";
#else
  ClusterConfig cfg;
  cfg.fabric.segments = 2;
  cfg.fabric.hosts_per_segment = 2;
  StellarCluster cluster(cfg);
  auto conn = cluster.connect(cluster.endpoint(0, 0), cluster.endpoint(1, 0));
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(4_MiB, [&] { done = true; });
  cluster.run();
  ASSERT_TRUE(done);
  ASSERT_GT(cluster.fabric().injected_packets(), 0u);

  AuditRegistry registry;
  registry.add(std::make_unique<FabricConservationAuditor>(cluster.fabric()));
  registry.set_trap_on_finding(false);

  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();
  EXPECT_GT(healthy.checks_performed(), 0u);

  // A phantom injection breaks injected == delivered + dropped + in-flight.
  FabricTestPeer::skew_injected(cluster.fabric(), 1);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "fabric-conservation"))
      << corrupt.to_string();
#endif
}

// ---------------------------------------------------------------------------
// Transport/QP legality.
// ---------------------------------------------------------------------------

TEST(TransportAuditorTest, LegalityHoldsAfterTrafficAndCatchesCorruption) {
  ClusterConfig cfg;
  cfg.fabric.segments = 1;
  cfg.fabric.hosts_per_segment = 2;
  cfg.fabric.aggs_per_plane = 2;
  StellarCluster cluster(cfg);
  const EndpointId src = cluster.endpoint(0, 0);
  const EndpointId dst = cluster.endpoint(0, 1);
  auto conn = cluster.connect(src, dst);
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(2_MiB, [&] { done = true; });
  cluster.run();
  ASSERT_TRUE(done);

  RdmaEngine& sender = cluster.fleet().at(src);
  RdmaEngine& receiver = cluster.fleet().at(dst);
  AuditRegistry registry;
  registry.add(std::make_unique<TransportAuditor>(sender));
  registry.add(std::make_unique<TransportAuditor>(receiver));
  registry.set_trap_on_finding(false);

  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();
  EXPECT_GT(healthy.checks_performed(), 0u);

  // Sender-side: in-flight bytes that no outstanding packet backs.
  TransportTestPeer::skew_inflight(*conn.value(), 4096);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "transport-legality"))
      << corrupt.to_string();
  TransportTestPeer::skew_inflight(*conn.value(),
                                   static_cast<std::uint64_t>(-4096));

  // Receiver-side: the floor's own bit left set, the floor not compacted
  // past it. The compaction check, and only it, must fire.
  TransportTestPeer::corrupt_rx_floor(receiver, conn.value()->id());
  AuditReport rx_corrupt = registry.run_all();
  ASSERT_EQ(rx_corrupt.findings().size(), 1u) << rx_corrupt.to_string();
  EXPECT_EQ(rx_corrupt.findings()[0].auditor, "transport-legality");
  EXPECT_NE(rx_corrupt.findings()[0].detail.find("at or below floor 5"),
            std::string::npos)
      << rx_corrupt.to_string();
}

TEST(TransportAuditorTest, RtoArmedPastItsDeadlineFlagged) {
  // Mid-transfer the RTO is armed, and no later than the oldest unacked
  // send + rto. Recording it one RTO later is the one finding.
  ClusterConfig cfg;
  cfg.fabric.segments = 1;
  cfg.fabric.hosts_per_segment = 2;
  cfg.fabric.aggs_per_plane = 2;
  StellarCluster cluster(cfg);
  const EndpointId src = cluster.endpoint(0, 0);
  auto conn = cluster.connect(src, cluster.endpoint(0, 1));
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(2_MiB);
  cluster.run_for(SimTime::micros(20));
  ASSERT_FALSE(conn.value()->idle());

  AuditRegistry registry;
  registry.add(std::make_unique<TransportAuditor>(cluster.fleet().at(src)));
  registry.set_trap_on_finding(false);
  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();

  TransportTestPeer::delay_rto(*conn.value(), cfg.transport.rto);
  AuditReport late = registry.run_all();
  ASSERT_EQ(late.findings().size(), 1u) << late.to_string();
  EXPECT_NE(late.findings()[0].detail.find("after its deadline"),
            std::string::npos)
      << late.to_string();
}

// ---------------------------------------------------------------------------
// PVDMA/IOMMU pin accounting.
// ---------------------------------------------------------------------------

class PinAccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 8 MiB of guest RAM, EPT-mapped in one run, 2 MiB PVDMA blocks.
    ASSERT_TRUE(ept_.map(Gpa{0}, Hpa{0x40000000}, 4 * kPage2M).is_ok());
    auto prepared = pvdma_.prepare_dma(Gpa{0}, 2 * kPage2M);
    ASSERT_TRUE(prepared.is_ok());
    ASSERT_EQ(pvdma_.pinned_bytes(), 2 * kPage2M);
    registry_.add(
        std::make_unique<PinAccountingAuditor>(pvdma_, iommu_, ept_));
    registry_.set_trap_on_finding(false);
  }

  Iommu iommu_;
  Ept ept_;
  Pvdma pvdma_{iommu_, ept_};
  AuditRegistry registry_;
};

TEST_F(PinAccountingTest, CleanAfterPrepareAndRelease) {
  AuditReport pinned = registry_.run_all();
  EXPECT_TRUE(pinned.clean()) << pinned.to_string();
  EXPECT_GT(pinned.checks_performed(), 0u);

  pvdma_.release_dma(Gpa{0}, 2 * kPage2M);
  EXPECT_EQ(pvdma_.pinned_bytes(), 0u);
  AuditReport released = registry_.run_all();
  EXPECT_TRUE(released.clean()) << released.to_string();
}

TEST_F(PinAccountingTest, DetectsLostIommuMappingUnderResidentBlock) {
  // Tear the IOMMU window out from under a still-resident (pinned) block —
  // the unpin-races-registration bug class.
  ASSERT_GT(iommu_.unmap_range(IoVa{0}, kPage2M), 0u);
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "pin-accounting")) << report.to_string();
}

TEST_F(PinAccountingTest, DetectsStaleIommuMappingOutsideResidentBlocks) {
  // A mapping no Map Cache block accounts for = leaked by a missed unpin.
  ASSERT_TRUE(iommu_.map(IoVa{1ull << 40}, Hpa{0x80000000}, kPage4K).is_ok());
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "pin-accounting")) << report.to_string();
}

TEST_F(PinAccountingTest, DetectsPinCounterSkew) {
  iommu_.note_pinned(kPage4K);  // IOMMU-side counter drifts from PVDMA's
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "pin-accounting")) << report.to_string();
}

TEST_F(PinAccountingTest, DetectsDoubleUnpin) {
  pvdma_.release_dma(Gpa{4 * kPage2M}, kPage2M);  // never prepared
  EXPECT_GT(pvdma_.double_unpins(), 0u);
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "pin-accounting")) << report.to_string();
}

// ---------------------------------------------------------------------------
// eMTT coherence.
// ---------------------------------------------------------------------------

class EmttCoherenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StellarHostConfig cfg;
    cfg.pcie.main_memory_bytes = 64_GiB;
    host_ = std::make_unique<StellarHost>(cfg);
    tenant_ = std::make_unique<RundContainer>(1, "emtt", 4_GiB);
    ASSERT_TRUE(host_->boot(*tenant_).is_ok());
    auto dev = host_->create_vstellar_device(*tenant_, 0);
    ASSERT_TRUE(dev.is_ok());
    dev_ = dev.value();
    auto buf = tenant_->alloc(8_MiB, kPage2M);
    ASSERT_TRUE(buf.is_ok());
    buf_gpa_ = buf.value();
    auto mr = dev_->register_memory(Gva{0x10000000}, 8_MiB,
                                    MemoryOwner::kHostDram, buf_gpa_.value());
    ASSERT_TRUE(mr.is_ok());
    mr_key_ = mr.value().key;
    registry_.add(std::make_unique<EmttCoherenceAuditor>(*host_));
    registry_.set_trap_on_finding(false);
  }

  std::unique_ptr<StellarHost> host_;
  std::unique_ptr<RundContainer> tenant_;
  VStellarDevice* dev_ = nullptr;
  Gpa buf_gpa_;
  MrKey mr_key_ = 0;
  AuditRegistry registry_;
};

TEST_F(EmttCoherenceTest, CleanAfterRegistration) {
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.checks_performed(), 0u);
}

TEST_F(EmttCoherenceTest, DetectsHostPageSwapUnderLiveMr) {
  // The host swaps the MR's first page to a different frame: the eMTT still
  // carries the old final HPA — exactly the §3.1(2) hazard eMTT + pinning
  // is supposed to prevent.
  Ept& ept = host_->hypervisor().ept(tenant_->id());
  auto original = ept.translate(buf_gpa_);
  ASSERT_TRUE(original.is_ok());
  ASSERT_TRUE(
      ept.remap_ram(buf_gpa_, original.value() + 16 * kPage2M, kPage4K)
          .is_ok());
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "emtt-coherence")) << report.to_string();
}

TEST_F(EmttCoherenceTest, DetectsUnpinUnderLiveMr) {
  // Force-release the pinned blocks while the MR is still registered: the
  // eMTT now points at unpinned memory.
  host_->hypervisor().pvdma(tenant_->id()).release_dma(buf_gpa_, 8_MiB);
  AuditReport report = registry_.run_all();
  EXPECT_TRUE(has_finding_from(report, "emtt-coherence")) << report.to_string();
}

// ---------------------------------------------------------------------------
// Tenant isolation: per-tenant ledgers sum to the global counters.
// ---------------------------------------------------------------------------

TEST(TenantIsolationAuditorTest, CleanOnHealthyHostCorruptFlagged) {
  StellarHost host;
  RundContainer guest(1, "t1", 64_MiB);
  ASSERT_TRUE(host.boot(guest).is_ok());
  auto dev = host.create_vstellar_device(guest, 0);
  ASSERT_TRUE(dev.is_ok());
  ASSERT_TRUE(dev.value()
                  ->register_memory(Gva{0x1000}, 4_MiB,
                                    MemoryOwner::kHostDram, 0)
                  .is_ok());

  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  registry.set_trap_on_finding(false);

  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();
  EXPECT_GT(healthy.checks_performed(), 0u);

  // Phantom per-tenant attribution: the sum no longer matches the global
  // pin counter — exactly the leak that makes neighbor damage
  // unattributable.
  IommuTestPeer::skew_tenant_pins(host.pcie().iommu(), 7, 4096);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "tenant-isolation"))
      << corrupt.to_string();
}

TEST(TenantIsolationAuditorTest, IotlbLedgerSkewFlagged) {
  StellarHost host;
  Iommu& iommu = host.pcie().iommu();
  ASSERT_TRUE(iommu.map(IoVa{1_GiB}, Hpa{1_GiB}, 8 * kPage4K).is_ok());
  for (std::uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(iommu.translate(IoVa{1_GiB + p * kPage4K}, 3).is_ok());
  }
  ASSERT_EQ(iommu.iotlb().occupancy(3), 8u);

  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  registry.set_trap_on_finding(false);
  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();

  // An entry credited to a tenant that holds none: the per-tenant sum
  // overshoots the resident count.
  TranslationCacheTestPeer::skew_occupancy(iommu.iotlb(), 3, 1);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "tenant-isolation"))
      << corrupt.to_string();
  EXPECT_NE(corrupt.to_string().find("IOTLB occupancy"), std::string::npos)
      << corrupt.to_string();
}

TEST(TenantIsolationAuditorTest, AtcLedgerSkewFlagged) {
  StellarHost host;
  GdrEngine engine = host.make_gdr_engine(GdrMode::kAtsAtc, 0);
  (void)engine;
  ASSERT_EQ(host.atc_count(), 1u);
  Atc& atc = host.atc(0);
  ASSERT_TRUE(
      host.pcie().iommu().map(IoVa{1_GiB}, Hpa{1_GiB}, 8 * kPage4K).is_ok());
  for (std::uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(atc.translate(IoVa{1_GiB + p * kPage4K}, 3).is_ok());
  }
  ASSERT_EQ(atc.cache().occupancy(3), 8u);

  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  registry.set_trap_on_finding(false);
  AuditReport healthy = registry.run_all();
  EXPECT_TRUE(healthy.clean()) << healthy.to_string();

  TranslationCacheTestPeer::skew_occupancy(atc.cache(), 3, 1);
  AuditReport corrupt = registry.run_all();
  EXPECT_TRUE(has_finding_from(corrupt, "tenant-isolation"))
      << corrupt.to_string();
  EXPECT_NE(corrupt.to_string().find("ATC 0 occupancy"), std::string::npos)
      << corrupt.to_string();
}

// ---------------------------------------------------------------------------
// Registry behavior: trapping and periodic attachment.
// ---------------------------------------------------------------------------

TEST(AuditRegistryTest, TrapOnFindingRoutesThroughCheckHandler) {
  Simulator sim;
  SimulatorTestPeer::skew_live_events(sim, 1);
  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));

  CheckFailHandler previous =
      set_check_fail_handler([](const CheckFailure& f) { throw f; });
  EXPECT_THROW(registry.run_all(), CheckFailure);
  set_check_fail_handler(std::move(previous));
}

TEST(AuditRegistryTest, PeriodicAuditsRunAndSimulationStillDrains) {
  Simulator sim;
  // A chain of events spanning 1 ms keeps the simulator busy.
  std::uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 10) sim.schedule_after(SimTime::micros(100), tick);
  };
  sim.schedule_after(SimTime::micros(100), tick);

  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.attach_periodic(sim, SimTime::micros(150));
  EXPECT_TRUE(registry.attached());

  sim.run();  // must terminate despite the recurring audit event

  EXPECT_TRUE(sim.empty());
  EXPECT_GT(registry.runs(), 2u);  // several periodic firings + drain audit
  EXPECT_EQ(registry.total_findings(), 0u);
  registry.detach();
  EXPECT_FALSE(registry.attached());
}

TEST(AuditRegistryTest, DetachStopsPeriodicAudits) {
  Simulator sim;
  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.attach_periodic(sim, SimTime::micros(10));
  registry.detach();
  sim.schedule_after(SimTime::micros(100), [] {});
  sim.run();
  EXPECT_EQ(registry.runs(), 0u);
}

}  // namespace
}  // namespace stellar
