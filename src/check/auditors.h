// The five cross-layer invariant auditors (docs/INVARIANTS.md catalogues
// every rule with its paper-section pointer):
//
//   FabricConservationAuditor  packet conservation across net/fabric+net/link
//   PinAccountingAuditor       IOMMU pins vs PVDMA Map Cache residency (§5)
//   EmttCoherenceAuditor       eMTT entries vs EPT truth / pinned blocks (§6)
//   TransportAuditor           QP/PSN/window/RTO legality (§7)
//   SimulatorAuditor           wheel + overflow heap bookkeeping sanity
//
// Auditors hold non-owning pointers: the audited objects must outlive the
// registry (or the registry must be destroyed/detached first, as the
// integration tests do before container shutdown).
#pragma once

#include "check/audit.h"
#include "core/stellar.h"
#include "memory/ept.h"
#include "memory/iommu.h"
#include "net/fabric.h"
#include "rnic/transport.h"
#include "sim/simulator.h"
#include "virt/pvdma.h"

namespace stellar {

/// (a) Every packet injected into the fabric is exactly one of: delivered,
/// dropped (tail/random/no-handler/no-sink), or still held by one link.
/// Counter instrumentation only exists with STELLAR_AUDIT=ON; in audit-off
/// builds this auditor performs no checks.
class FabricConservationAuditor final : public InvariantAuditor {
 public:
  explicit FabricConservationAuditor(const ClosFabric& fabric)
      : fabric_(&fabric) {}
  const char* name() const override { return "fabric-conservation"; }
  void audit(AuditReport& report) const override;

 private:
  const ClosFabric* fabric_;
};

/// (b) IOMMU pin refcounts consistent with PVDMA Map Cache residency:
/// pinned bytes match cache residency on both sides, every IOMMU range lies
/// inside a resident (use-counted) block, every resident block's EPT-mapped
/// pages still have IOMMU coverage, and double-unpins are flagged.
class PinAccountingAuditor final : public InvariantAuditor {
 public:
  /// `exclusive_iommu`: this PVDMA instance is the IOMMU's only pinner, so
  /// the IOMMU-side pinned-byte counter must match PVDMA's exactly.
  PinAccountingAuditor(const Pvdma& pvdma, const Iommu& iommu, const Ept& ept,
                       bool exclusive_iommu = true)
      : pvdma_(&pvdma),
        iommu_(&iommu),
        ept_(&ept),
        exclusive_iommu_(exclusive_iommu) {}
  const char* name() const override { return "pin-accounting"; }
  void audit(AuditReport& report) const override;

 private:
  const Pvdma* pvdma_;
  const Iommu* iommu_;
  const Ept* ept_;
  bool exclusive_iommu_;
};

/// (c) No eMTT entry points at an unpinned or swapped HPA: for every
/// host-DRAM MR of every vStellar device, the eMTT's stored final HPA still
/// matches the EPT's current translation (checked at each PVDMA-block
/// boundary) and the covering Map Cache blocks are still resident.
class EmttCoherenceAuditor final : public InvariantAuditor {
 public:
  explicit EmttCoherenceAuditor(StellarHost& host) : host_(&host) {}
  const char* name() const override { return "emtt-coherence"; }
  void audit(AuditReport& report) const override;

 private:
  StellarHost* host_;
};

/// (d) Transport/QP state legality for every connection of one engine:
/// in-flight byte accounting matches the outstanding table (shared and
/// per-path), PSNs never reach next_psn_, the RTO timer is armed exactly
/// when unacked packets exist, an errored QP holds no in-flight state, and
/// receiver PSN floors are compacted correctly.
class TransportAuditor final : public InvariantAuditor {
 public:
  explicit TransportAuditor(const RdmaEngine& engine) : engine_(&engine) {}
  const char* name() const override { return "transport-legality"; }
  void audit(AuditReport& report) const override;

 private:
  const RdmaEngine* engine_;
};

/// (f) Multi-tenant accounting closure (docs/TENANCY.md): every shared
/// resource's per-tenant ledger must sum exactly to its global counter —
/// IOMMU pinned bytes, IOTLB and per-ATC occupancy, per-RNIC MTT pages and
/// verbs MR/QP counts, vSwitch rule slots — and, with PVDMA enabled, each
/// booted VM's own pin counter must equal the IOMMU's attribution for that
/// tenant. Any gap means usage leaked across tenant
/// boundaries (the precondition for unattributable noisy-neighbor damage).
class TenantIsolationAuditor final : public InvariantAuditor {
 public:
  explicit TenantIsolationAuditor(StellarHost& host) : host_(&host) {}
  const char* name() const override { return "tenant-isolation"; }
  void audit(AuditReport& report) const override;

 private:
  StellarHost* host_;
};

/// (e) Simulator scheduler sanity: the live-event counter matches the
/// pending-entry counter, the walked scheduler structures (the one wheel's
/// slots + overflow heap + active bucket) hold exactly pending + tombstoned
/// entries, and the armed-timer count equals the pending count — every
/// pending entry is an armed timer's, and a tombstone is a disarmed one's.
class SimulatorAuditor final : public InvariantAuditor {
 public:
  explicit SimulatorAuditor(const Simulator& sim) : sim_(&sim) {}
  const char* name() const override { return "simulator-heap"; }
  void audit(AuditReport& report) const override;

 private:
  const Simulator* sim_;
};

}  // namespace stellar
