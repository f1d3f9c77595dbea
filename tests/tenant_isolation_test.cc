// Tenant-layer tests: budget admission, graceful-degradation grading,
// enforcement toggling, IOTLB self-eviction, the shared fleet generator,
// and kill_tenant's full-reclaim guarantee (including raw demand pins that
// no MR teardown covers). Labelled `tenant` — ctest -L tenant.
#include "core/tenant.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/audit.h"
#include "check/auditors.h"
#include "core/stellar.h"
#include "workload/tenant_fleet.h"

namespace stellar {
namespace {

class TenantIsolationTest : public ::testing::Test {
 protected:
  TenantIsolationTest() : host_(config()) {}

  static StellarHostConfig config() {
    StellarHostConfig cfg;
    cfg.pcie.iommu.pin_capacity_bytes = 1_GiB;
    return cfg;
  }

  RundContainer& boot(VmId vm, std::uint64_t bytes = 64_MiB) {
    containers_.push_back(
        std::make_unique<RundContainer>(vm, "t" + std::to_string(vm), bytes));
    EXPECT_TRUE(host_.boot(*containers_.back()).is_ok());
    return *containers_.back();
  }

  StellarHost host_;
  std::vector<std::unique_ptr<RundContainer>> containers_;
};

TEST_F(TenantIsolationTest, DeviceQuotaShedsLoudly) {
  RundContainer& c = boot(5);
  TenantBudgets budgets;
  budgets.max_devices = 1;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());

  auto first = host_.create_vstellar_device(c, 0);
  ASSERT_TRUE(first.is_ok());
  auto second = host_.create_vstellar_device(c, 0);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // Releasing the device re-opens the quota: degradation is recoverable.
  ASSERT_TRUE(host_.destroy_vstellar_device(first.value()).is_ok());
  EXPECT_TRUE(host_.create_vstellar_device(c, 0).is_ok());
}

TEST_F(TenantIsolationTest, QpAndMrQuotasGateTheControlPath) {
  RundContainer& c = boot(5);
  TenantBudgets budgets;
  budgets.max_qps = 2;
  budgets.max_mrs = 1;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());
  auto dev = host_.create_vstellar_device(c, 0);
  ASSERT_TRUE(dev.is_ok());

  EXPECT_TRUE(dev.value()->create_qp().is_ok());
  EXPECT_TRUE(dev.value()->create_qp().is_ok());
  EXPECT_EQ(dev.value()->create_qp().status().code(),
            StatusCode::kFailedPrecondition);

  auto mr = dev.value()->register_memory(Gva{0x1000}, 2_MiB,
                                         MemoryOwner::kHostDram, 0);
  ASSERT_TRUE(mr.is_ok());
  EXPECT_EQ(dev.value()
                ->register_memory(Gva{0x400000}, 2_MiB,
                                  MemoryOwner::kHostDram, 4_MiB)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TenantIsolationTest, PinBudgetShedsAndRecovers) {
  boot(5);
  TenantBudgets budgets;
  budgets.pin_budget_bytes = 4_MiB;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());

  Pvdma& pvdma = host_.hypervisor().pvdma(5);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{0}, 4_MiB).is_ok());
  auto over = pvdma.prepare_dma(Gpa{8_MiB}, 2_MiB);
  EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pvdma.budget_rejections(), 1u);

  // Releasing brings the tenant back under budget; the next pin is admitted.
  pvdma.release_dma(Gpa{0}, 2_MiB);
  EXPECT_TRUE(pvdma.prepare_dma(Gpa{8_MiB}, 2_MiB).is_ok());
}

TEST_F(TenantIsolationTest, DegradationLadderIsRecoverableBothWays) {
  boot(5);
  TenantBudgets budgets;
  budgets.pin_budget_bytes = 16_MiB;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());
  Pvdma& pvdma = host_.hypervisor().pvdma(5);

  EXPECT_EQ(host_.tenants().level(5), DegradeLevel::kGreen);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{0}, 12_MiB).is_ok());  // 75%
  EXPECT_EQ(host_.tenants().level(5), DegradeLevel::kGreen);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{12_MiB}, 4_MiB).is_ok());  // 100%
  EXPECT_EQ(host_.tenants().level(5), DegradeLevel::kShed);
  pvdma.release_dma(Gpa{12_MiB}, 4_MiB);  // back to 75% -> green
  EXPECT_EQ(host_.tenants().level(5), DegradeLevel::kGreen);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{12_MiB}, 2_MiB).is_ok());  // 87.5%
  EXPECT_EQ(host_.tenants().level(5), DegradeLevel::kThrottled);
}

TEST_F(TenantIsolationTest, EnforcementToggleLiftsAndRestoresCaps) {
  RundContainer& c = boot(5);
  TenantBudgets budgets;
  budgets.max_devices = 1;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());
  ASSERT_TRUE(host_.create_vstellar_device(c, 0).is_ok());
  EXPECT_EQ(host_.create_vstellar_device(c, 0).status().code(),
            StatusCode::kFailedPrecondition);

  // The unprotected-baseline mode: every cap lifted in place.
  host_.tenants().set_enforcement(false);
  auto extra = host_.create_vstellar_device(c, 0);
  ASSERT_TRUE(extra.is_ok());

  // Restoring enforcement restores the contract for new admissions.
  host_.tenants().set_enforcement(true);
  EXPECT_EQ(host_.create_vstellar_device(c, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TenantIsolationTest, IotlbShareEvictsOnlyTheOverSharedTenant) {
  Iommu& iommu = host_.pcie().iommu();
  ASSERT_TRUE(iommu.map(IoVa{1_GiB}, Hpa{1_GiB}, 64 * kPage4K).is_ok());
  ASSERT_TRUE(iommu.map(IoVa{2_GiB}, Hpa{2_GiB}, 64 * kPage4K).is_ok());
  iommu.set_iotlb_share(7, 16);

  // The victim (tenant 8) warms 32 entries.
  for (std::uint64_t p = 0; p < 32; ++p) {
    ASSERT_TRUE(iommu.translate(IoVa{2_GiB + p * kPage4K}, 8).is_ok());
  }
  // The capped tenant touches 64 pages: its residency must stay at 16,
  // evicting its own coldest entries, never the victim's.
  for (std::uint64_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(iommu.translate(IoVa{1_GiB + p * kPage4K}, 7).is_ok());
  }
  EXPECT_EQ(iommu.iotlb().occupancy(7), 16u);
  EXPECT_EQ(iommu.iotlb().occupancy(8), 32u);
  EXPECT_EQ(iommu.iotlb().self_evictions(), 48u);  // every install past 16
  for (std::uint64_t p = 0; p < 32; ++p) {
    auto tr = iommu.translate(IoVa{2_GiB + p * kPage4K}, 8);
    ASSERT_TRUE(tr.is_ok());
    EXPECT_TRUE(tr.value().iotlb_hit);
  }
}

TEST_F(TenantIsolationTest, KillTenantReclaimsRawDemandPins) {
  RundContainer& attacker = boot(5, 256_MiB);
  RundContainer& victim = boot(6);
  auto adev = host_.create_vstellar_device(attacker, 0);
  ASSERT_TRUE(adev.is_ok());
  auto vdev = host_.create_vstellar_device(victim, 1);
  ASSERT_TRUE(vdev.is_ok());
  ASSERT_TRUE(adev.value()
                  ->register_memory(Gva{0x1000}, 4_MiB,
                                    MemoryOwner::kHostDram, 0)
                  .is_ok());
  ASSERT_TRUE(adev.value()->create_qp().is_ok());
  auto vmr = vdev.value()->register_memory(Gva{0x1000}, 4_MiB,
                                           MemoryOwner::kHostDram, 0);
  ASSERT_TRUE(vmr.is_ok()) << vmr.status().to_string();
  SteeringRule rule;
  rule.id = 1;
  rule.tenant = 5;
  ASSERT_TRUE(host_.vswitch().add_rule(rule).is_ok());

  // The pin-flood signature: raw demand pins through prepare_dma that no
  // MR deregistration will ever release.
  Pvdma& pvdma = host_.hypervisor().pvdma(5);
  for (std::uint64_t gpa = 64_MiB; gpa < 192_MiB; gpa += 2_MiB) {
    ASSERT_TRUE(pvdma.prepare_dma(Gpa{gpa}, 2_MiB).is_ok());
  }
  EXPECT_GE(host_.pcie().iommu().pinned_bytes(5), 128_MiB);

  auto report = host_.kill_tenant(attacker);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().fully_reclaimed);
  EXPECT_EQ(report.value().devices, 1u);
  EXPECT_EQ(report.value().mrs, 1u);
  EXPECT_EQ(report.value().qps, 1u);
  EXPECT_EQ(report.value().rules_removed, 1u);
  EXPECT_GE(report.value().unpinned_bytes, 128_MiB + 4_MiB);
  EXPECT_EQ(host_.pcie().iommu().pinned_bytes(5), 0u);

  // Zero collateral: the victim's device, MR, and pins are untouched.
  EXPECT_EQ(host_.device_count(6), 1u);
  EXPECT_EQ(host_.pcie().iommu().pinned_bytes(6), 4_MiB);
  EXPECT_TRUE(
      vdev.value()->rnic().mtt().lookup(vmr.value().key, Gva{0x1000}).is_ok());

  // And the cross-layer ledgers still close: the auditor stays green.
  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host_));
  registry.set_trap_on_finding(false);
  EXPECT_TRUE(registry.run_all().clean());
}

TEST_F(TenantIsolationTest, UsageSumsMatchTheAuditorView) {
  RundContainer& c = boot(5);
  TenantBudgets budgets;
  budgets.pin_budget_bytes = 32_MiB;
  ASSERT_TRUE(host_.tenants().register_tenant(5, budgets).is_ok());
  auto dev = host_.create_vstellar_device(c, 0);
  ASSERT_TRUE(dev.is_ok());
  ASSERT_TRUE(dev.value()
                  ->register_memory(Gva{0x1000}, 4_MiB,
                                    MemoryOwner::kHostDram, 0)
                  .is_ok());
  ASSERT_TRUE(dev.value()->create_qp().is_ok());

  const TenantManager::Usage usage = host_.tenants().usage(5);
  EXPECT_EQ(usage.devices, 1u);
  EXPECT_EQ(usage.qps, 1u);
  EXPECT_EQ(usage.mrs, 1u);
  EXPECT_EQ(usage.pinned_bytes, host_.pcie().iommu().pinned_bytes(5));
  EXPECT_EQ(usage.pinned_bytes, 4_MiB);

  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host_));
  registry.set_trap_on_finding(false);
  EXPECT_TRUE(registry.run_all().clean());
}

TEST(TenantFleet, GeneratorIsDeterministicAndPerTenantStable) {
  TenantFleetConfig cfg;
  cfg.seed = 42;
  cfg.tenants = 8;
  cfg.dma_ops_per_tenant = 8;
  cfg.sends_per_tenant = 2;

  const std::vector<FleetOp> a = generate_fleet_ops(cfg);
  const std::vector<FleetOp> b = generate_fleet_ops(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].gpa, b[i].gpa);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }

  // Growing the fleet must not perturb existing tenants' streams: every op
  // of the 8-tenant run appears identically in the 16-tenant run.
  TenantFleetConfig big = cfg;
  big.tenants = 16;
  const std::vector<FleetOp> wide = generate_fleet_ops(big);
  std::size_t matched = 0;
  for (const FleetOp& op : wide) {
    if (op.tenant >= cfg.first_tenant + cfg.tenants) continue;
    const FleetOp& want = a[matched++];
    EXPECT_EQ(op.tenant, want.tenant);
    EXPECT_EQ(op.kind, want.kind);
    EXPECT_EQ(op.gpa, want.gpa);
    EXPECT_EQ(op.bytes, want.bytes);
  }
  EXPECT_EQ(matched, a.size());
}

}  // namespace
}  // namespace stellar
