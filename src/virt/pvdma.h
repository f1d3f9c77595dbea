// PVDMA: Para-Virtualized Direct Memory Access (§5).
//
// Instead of pinning all guest memory at boot, the hypervisor intercepts
// the first DMA touching each 2 MiB guest-physical block, registers the
// block's GPA->HPA mapping in the IOMMU (resolved one EPT range at a time,
// with 4 KiB-page granularity) and pins it. A Map Cache makes repeat
// accesses free.
//
// The model faithfully includes the Figure-5 hazard: a 2 MiB block may
// cover a 4 KiB EPT *device-register* mapping (the vDB). The block then
// carries a device-register translation into the IOMMU; when the register
// mapping is later torn down while the block stays referenced, the stale
// entry persists, and a guest reusing that GPA for DMA-able memory will be
// routed into the device's BAR. translate_for_device() reports exactly this
// as a kStaleDeviceMapping access, which the conflict test/example assert.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/ept.h"
#include "memory/iommu.h"
#include "memory/map_cache.h"

namespace stellar {

struct PvdmaConfig {
  std::uint64_t block_size = kPage2M;
};

class Pvdma {
 public:
  /// `iova_base` namespaces this VM's IOMMU window: block GPA g maps at
  /// IoVa{iova_base + g}, so two guests pinning the same GPA never collide
  /// in the shared IOMMU. The hypervisor passes the VM's (globally unique)
  /// backing base; 0 keeps the legacy single-VM identity mapping.
  Pvdma(Iommu& iommu, Ept& ept, PvdmaConfig config = {},
        std::uint64_t iova_base = 0)
      : iommu_(&iommu), ept_(&ept), config_(config),
        cache_(config.block_size), iova_base_(iova_base) {}

  struct MapResult {
    SimTime cost;          // map-cache lookup + (on miss) register + pin
    bool cache_hit = false;
    std::uint64_t pinned_bytes = 0;
  };

  /// A guest device driver is about to DMA into [gpa, gpa+len): make sure
  /// every covering block is registered and pinned (Figure 4 stages 1-2).
  ///
  /// Failure taxonomy (docs/TENANCY.md):
  ///  * kFailedPrecondition — this tenant's own pin budget is exhausted.
  ///    Non-retryable: backing off cannot help; the tenant must release.
  ///  * kResourceExhausted — host-wide pin capacity (or injected pressure).
  ///    Transient: lifts when any tenant unpins, so the hypervisor retry
  ///    path backs off and retries.
  /// All or nothing: a failed call leaves no user reference, pin or IOMMU
  /// range behind on any block, so a retry starts from the same state.
  StatusOr<MapResult> prepare_dma(Gpa gpa, std::uint64_t len);

  /// Attribute this VM's IOMMU usage (pins, IOTLB entries) to `tenant`.
  void set_tenant(TenantId tenant) { tenant_ = tenant; }
  TenantId tenant() const { return tenant_; }

  /// Cap this tenant's pinned bytes (0 = unlimited). Exceeding it sheds
  /// the request with kFailedPrecondition — loud, attributable, and with
  /// zero collateral on other tenants.
  void set_pin_budget(std::uint64_t bytes) { pin_budget_bytes_ = bytes; }
  std::uint64_t pin_budget_bytes() const { return pin_budget_bytes_; }
  /// prepare_dma() calls shed because this tenant was over its own budget.
  std::uint64_t budget_rejections() const { return budget_rejections_; }
  /// prepare_dma() calls rejected because host-wide pin capacity was full.
  std::uint64_t capacity_rejections() const { return capacity_rejections_; }

  /// Control-path fault injection: while pressured, every prepare_dma()
  /// that would need to pin (or even look up) returns kResourceExhausted —
  /// the hypervisor pin path is out of pin budget / IOMMU slots. Callers
  /// are expected to back off and retry (Hypervisor::prepare_dma_with_retry).
  void set_resource_pressure(bool on) { pressured_ = on; }
  bool resource_pressure() const { return pressured_; }
  /// prepare_dma() calls rejected by injected pressure.
  std::uint64_t pressured_rejections() const { return pressured_rejections_; }

  /// The consumer (e.g. the GPU) is done with [gpa, gpa+len); blocks whose
  /// user count drops to zero are unmapped and unpinned.
  void release_dma(Gpa gpa, std::uint64_t len);

  /// Container-teardown reclaim: unmap and unpin every resident block
  /// regardless of user count — the guest is gone, so no DMA consumer can
  /// remain, and leaving raw demand-pins behind would leak host pin
  /// capacity to a dead tenant (the kill-mid-flood path depends on this).
  /// Returns the bytes unpinned.
  std::uint64_t release_all();

  /// Device-side translation of a DMA request, as the IOMMU would perform
  /// it. Detects the Figure-5 failure mode.
  enum class AccessKind { kRam, kStaleDeviceMapping, kFault };
  struct DeviceAccess {
    AccessKind kind = AccessKind::kFault;
    Hpa hpa;
  };
  DeviceAccess translate_for_device(Gpa gpa);

  const MapCache& map_cache() const { return cache_; }
  const PvdmaConfig& config() const { return config_; }
  /// Base of this VM's IoVa window (see constructor).
  std::uint64_t iova_base() const { return iova_base_; }
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  std::uint64_t blocks_registered() const { return blocks_registered_; }
  std::uint64_t stale_accesses() const { return stale_accesses_; }
  /// Times release_dma() tried to unpin a block that was never mapped (or
  /// already torn down), plus block teardowns that found the IOMMU window
  /// already empty. Logged when it happens; the pin-accounting auditor
  /// flags a nonzero count as a double-unpin bug.
  std::uint64_t double_unpins() const { return double_unpins_; }

  /// Checkpoint/restore of the pin table (Map Cache residency + user
  /// counts) and the accounting counters. A restore adopts the pins: the
  /// backend hot-upgrade path, where the guest's pages stayed pinned in the
  /// (untouched) IOMMU while the backend process was swapped, so the
  /// pin-accounting auditor stays green.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& p) {
    ar(p.cache_, p.pinned_bytes_, p.blocks_registered_, p.stale_accesses_,
       p.double_unpins_, p.pressured_rejections_, p.pressured_,
       p.budget_rejections_, p.capacity_rejections_, p.pin_budget_bytes_,
       p.tenant_);
  }

  /// The migration path, after a restore: nothing is pinned on the
  /// destination yet, so the pin table starts empty (first DMA touches
  /// re-pin on demand — the Map Cache cold path) while the cumulative
  /// statistics carry over.
  void drop_pin_table() {
    cache_ = MapCache(config_.block_size);
    pinned_bytes_ = 0;
  }

 private:
  /// Admit (tenant budget, host capacity), register and pin one block that
  /// missed the Map Cache; on failure nothing of it stays behind.
  Status pin_block(Gpa block);
  /// Drop one user of a resident block; the last one unmaps and unpins it.
  void drop_user(Gpa block);
  /// Register one block in the IOMMU by walking its EPT runs (one range
  /// lookup per run) and coalescing runs contiguous in GPA and HPA. Issues
  /// the same IOMMU ranges as a 4 KiB page-by-page walk would. On an IOMMU
  /// error, unmaps the ranges it already mapped.
  Status register_block(Gpa block_start);
  void unregister_block(Gpa block_start);

  Iommu* iommu_;
  Ept* ept_;
  PvdmaConfig config_;
  MapCache cache_;
  std::uint64_t iova_base_ = 0;
  TenantId tenant_ = kHostTenant;
  std::uint64_t pin_budget_bytes_ = 0;
  std::uint64_t budget_rejections_ = 0;
  std::uint64_t capacity_rejections_ = 0;
  std::uint64_t pinned_bytes_ = 0;
  std::uint64_t blocks_registered_ = 0;
  std::uint64_t stale_accesses_ = 0;
  std::uint64_t double_unpins_ = 0;
  bool pressured_ = false;
  std::uint64_t pressured_rejections_ = 0;
};

}  // namespace stellar
