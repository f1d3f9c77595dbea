// PVDMA unpin-during-pin-pressure races: a kPinPressure window (injected
// through the fault framework) rejects fresh pins while releases keep
// landing on the same Pvdma. The pin accounting must stay exact through
// the window — pressured rejections must not leak refcounts, and a block
// released mid-window must re-pin cold once pressure lifts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/auditors.h"
#include "core/stellar.h"
#include "fault/fault.h"

namespace stellar {
namespace {

FabricConfig tiny_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 2;
  return fc;
}

FaultEvent pressure_window(SimTime at, SimTime duration) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kPinPressure;
  e.duration = duration;
  e.pvdma = 0;
  e.label = "pressure";
  return e;
}

TEST(PvdmaPressureTest, UnpinDuringPressureWindowStaysCoherent) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());  // injector plumbing only

  StellarHost host;
  RundContainer guest(1, "guest", 4ull << 30);
  ASSERT_TRUE(host.boot(guest).is_ok());
  auto region = guest.alloc(32_MiB, kPage2M);
  ASSERT_TRUE(region.is_ok());
  Pvdma& pvdma = host.hypervisor().pvdma(1);

  // Pre-pin four blocks the guest will release mid-window.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        pvdma.prepare_dma(region.value() + i * kPage2M, kPage2M).is_ok());
  }
  const std::uint64_t pinned_before = pvdma.pinned_bytes();
  ASSERT_EQ(pinned_before, 4 * kPage2M);

  FaultInjector injector(sim, fabric);
  injector.register_pvdma(&pvdma);
  FaultPlan plan;
  plan.events.push_back(
      pressure_window(SimTime::micros(100), SimTime::micros(400)));
  ASSERT_TRUE(injector.arm(plan).is_ok());

  // Pin-accounting auditor runs every 50 us through the whole race,
  // trapping the instant a refcount or pinned-bytes invariant breaks.
  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(
      pvdma, host.pcie().iommu(), host.hypervisor().ept(1)));
  audits.attach_periodic(sim, SimTime::micros(50));

  // Inside the window: a fresh pin retries behind the pressure while the
  // guest releases two of its held blocks — the unpin-during-pin race.
  bool fresh_pin_done = false;
  sim.schedule_at(SimTime::micros(120), [&] {
    EXPECT_EQ(pvdma.prepare_dma(region.value() + 8 * kPage2M, kPage2M)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
    host.hypervisor().prepare_dma_with_retry(
        sim, 1, region.value() + 8 * kPage2M, kPage2M,
        [&](StatusOr<Pvdma::MapResult> result) {
          ASSERT_TRUE(result.is_ok()) << result.status().to_string();
          EXPECT_FALSE(result.value().cache_hit);
          fresh_pin_done = true;
        });
  });
  sim.schedule_at(SimTime::micros(200), [&] {
    pvdma.release_dma(region.value() + 0 * kPage2M, kPage2M);
    pvdma.release_dma(region.value() + 1 * kPage2M, kPage2M);
  });
  sim.run();

  EXPECT_TRUE(fresh_pin_done) << "retried pin never cleared the window";
  EXPECT_GT(pvdma.pressured_rejections(), 0u);
  EXPECT_GT(host.hypervisor().pin_retries(), 0u);
  // Two blocks released, one fresh block pinned: exact accounting.
  EXPECT_EQ(pvdma.pinned_bytes(), pinned_before - 2 * kPage2M + kPage2M);

  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.checks_performed(), 0u);
}

TEST(PvdmaPressureTest, BlockReleasedMidWindowRepinsCold) {
  Simulator sim;
  ClosFabric fabric(sim, tiny_fabric());

  StellarHost host;
  RundContainer guest(2, "guest2", 4ull << 30);
  ASSERT_TRUE(host.boot(guest).is_ok());
  auto region = guest.alloc(8_MiB, kPage2M);
  ASSERT_TRUE(region.is_ok());
  Pvdma& pvdma = host.hypervisor().pvdma(2);
  ASSERT_TRUE(pvdma.prepare_dma(region.value(), kPage2M).is_ok());

  FaultInjector injector(sim, fabric);
  injector.register_pvdma(&pvdma);
  FaultPlan plan;
  plan.events.push_back(
      pressure_window(SimTime::micros(50), SimTime::micros(200)));
  ASSERT_TRUE(injector.arm(plan).is_ok());

  // A retried pin targets the very block whose only user releases it while
  // the retry sleeps: when pressure lifts the block is gone from the Map
  // Cache and must be re-registered (cold miss), not resurrected.
  bool done = false;
  sim.schedule_at(SimTime::micros(60), [&] {
    host.hypervisor().prepare_dma_with_retry(
        sim, 2, region.value(), kPage2M,
        [&](StatusOr<Pvdma::MapResult> result) {
          ASSERT_TRUE(result.is_ok()) << result.status().to_string();
          EXPECT_FALSE(result.value().cache_hit) << "released block must "
                                                    "re-pin cold";
          EXPECT_EQ(result.value().pinned_bytes, kPage2M);
          done = true;
        });
  });
  sim.schedule_at(SimTime::micros(80), [&] {
    pvdma.release_dma(region.value(), kPage2M);
    EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  });
  sim.run();

  EXPECT_TRUE(done);
  EXPECT_EQ(pvdma.pinned_bytes(), kPage2M);

  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(
      pvdma, host.pcie().iommu(), host.hypervisor().ept(2)));
  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// -- A failed multi-block prepare_dma is all or nothing ---------------------

TEST(PvdmaRollbackTest, BudgetFailureLeavesNoPinsOrUsers) {
  Iommu iommu;
  Ept ept;
  ASSERT_TRUE(ept.map(Gpa{0}, Hpa{16_GiB}, 64_MiB).is_ok());
  Pvdma pvdma(iommu, ept);
  pvdma.set_pin_budget(2 * kPage2M);
  const Gpa b0{0};
  const Gpa b1{kPage2M};
  ASSERT_TRUE(pvdma.prepare_dma(b0, kPage4K).is_ok());  // users(b0) = 1

  // Three blocks against a two-block budget: b0 hits, b1 pins, b2 is shed.
  auto shed = pvdma.prepare_dma(b0, 3 * kPage2M);
  EXPECT_EQ(shed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pvdma.budget_rejections(), 1u);
  EXPECT_EQ(pvdma.map_cache().users(b0), 1u);
  EXPECT_EQ(pvdma.map_cache().users(b1), 0u);
  EXPECT_FALSE(pvdma.map_cache().contains(b1));
  EXPECT_EQ(pvdma.pinned_bytes(), kPage2M);
  EXPECT_EQ(iommu.pinned_bytes(), kPage2M);
  EXPECT_FALSE(iommu.is_mapped(IoVa{b1.value()}));

  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(pvdma, iommu, ept));
  audits.set_trap_on_finding(false);
  AuditReport after_shed = audits.run_all();
  EXPECT_TRUE(after_shed.clean()) << after_shed.to_string();

  pvdma.release_dma(b0, kPage4K);
  EXPECT_EQ(pvdma.map_cache().users(b0), 0u);
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.mapped_ranges(), 0u);
  EXPECT_EQ(pvdma.double_unpins(), 0u);
}

TEST(PvdmaRollbackTest, CapacityFailureRetriesWithoutLeakingPins) {
  Simulator sim;
  StellarHostConfig cfg;
  cfg.pcie.iommu.pin_capacity_bytes = 3 * kPage2M;
  StellarHost host(cfg);
  RundContainer guest(1, "guest", 4ull << 30);
  RundContainer neighbour(2, "neighbour", 4ull << 30);
  ASSERT_TRUE(host.boot(guest).is_ok());
  ASSERT_TRUE(host.boot(neighbour).is_ok());
  auto region = guest.alloc(8_MiB, kPage2M);
  auto other = neighbour.alloc(2_MiB, kPage2M);
  ASSERT_TRUE(region.is_ok() && other.is_ok());
  Pvdma& pvdma = host.hypervisor().pvdma(1);
  Pvdma& held = host.hypervisor().pvdma(2);
  Iommu& iommu = host.pcie().iommu();
  const std::size_t ranges_before = iommu.mapped_ranges();

  // The neighbour holds one of the host's three pinnable blocks, so the
  // guest's three-block request pins two and then hits host capacity.
  ASSERT_TRUE(held.prepare_dma(other.value(), kPage2M).is_ok());
  bool done = false;
  host.hypervisor().prepare_dma_with_retry(
      sim, 1, region.value(), 3 * kPage2M,
      [&](StatusOr<Pvdma::MapResult> result) {
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        EXPECT_FALSE(result.value().cache_hit);
        EXPECT_EQ(result.value().pinned_bytes, 3 * kPage2M);
        done = true;
      });
  // The first attempt failed and gave back everything it took.
  ASSERT_FALSE(done);
  EXPECT_GT(pvdma.capacity_rejections(), 0u);
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.pinned_bytes(), kPage2M);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(pvdma.map_cache().users(region.value() + b * kPage2M), 0u);
  }

  // Capacity lifts while the retry sleeps; every retry before that also
  // rolls back, so the winning attempt takes exactly one user per block.
  sim.schedule_at(SimTime::micros(200),
                  [&] { held.release_dma(other.value(), kPage2M); });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_GT(host.hypervisor().pin_retries(), 1u);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(pvdma.map_cache().users(region.value() + b * kPage2M), 1u);
  }

  pvdma.release_dma(region.value(), 3 * kPage2M);
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.mapped_ranges(), ranges_before);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(pvdma.map_cache().users(region.value() + b * kPage2M), 0u);
  }
  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(
      pvdma, iommu, host.hypervisor().ept(1)));
  const AuditReport report = audits.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(PvdmaRollbackTest, IommuMapErrorUnmapsThePartialBlock) {
  Iommu iommu;
  Ept ept;
  // Block 2 is backed by two HPA runs, so it registers as two IOMMU ranges.
  const std::uint64_t split = 2 * kPage2M + kPage2M / 2;
  ASSERT_TRUE(ept.map(Gpa{0}, Hpa{16_GiB}, split).is_ok());
  ASSERT_TRUE(ept.map(Gpa{split}, Hpa{32_GiB}, 8_MiB - split).is_ok());
  // A foreign range squats on the second run's IoVa window.
  ASSERT_TRUE(iommu.map(IoVa{split + kPage4K}, Hpa{48_GiB}, kPage4K).is_ok());
  Pvdma pvdma(iommu, ept);

  auto failed = pvdma.prepare_dma(Gpa{0}, 3 * kPage2M);
  EXPECT_EQ(failed.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_EQ(iommu.pinned_bytes(), 0u);
  EXPECT_EQ(pvdma.map_cache().block_count(), 0u);
  // Only the foreign range is left: blocks 0-1 and block 2's first run are
  // gone again.
  ASSERT_EQ(iommu.mapped_ranges(), 1u);
  EXPECT_TRUE(iommu.is_mapped(IoVa{split + kPage4K}));
  EXPECT_EQ(pvdma.double_unpins(), 0u);
}

}  // namespace
}  // namespace stellar
