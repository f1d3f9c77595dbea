// First-class tenant layer: budgets, admission, and graceful degradation
// (docs/TENANCY.md).
//
// A tenant is one RunD container / VM (TenantId == VmId numerically; the
// alias lives in common/units.h at the bottom of the layering DAG). Every
// shared host resource — verbs QP/MR tables, the per-RNIC MTT, the IOMMU
// pin budget and IOTLB, the device ATCs, the vSwitch rule table — already
// attributes its usage per tenant; the TenantManager is the policy layer
// on top:
//
//  * TenantBudgets declares the contract (zero = uncapped);
//  * register_tenant() pushes the caps into the owning resources;
//  * admit_*() gates are consulted by the control path *before* consuming
//    a shared slot, shedding over-budget tenants with kFailedPrecondition
//    (loud, attributable, non-retryable) instead of letting them exhaust a
//    global table into everyone's kResourceExhausted;
//  * level() grades each tenant on the degradation ladder — kGreen (under
//    80% of every cap), kThrottled (≥80% somewhere: a warning grade that
//    changes no behaviour), kShed (at a cap: new acquisitions are
//    rejected) — recoverable in both directions as the tenant releases
//    resources;
//  * set_enforcement(false) lifts every cap in place (the bench's
//    "unprotected baseline" mode) and set_enforcement(true) restores them.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "rnic/vswitch.h"

namespace stellar {

class StellarHost;

/// Per-tenant resource contract. Zero means uncapped for that dimension.
struct TenantBudgets {
  std::uint64_t max_devices = 0;       // vStellar devices
  std::uint64_t max_qps = 0;           // across all RNICs
  std::uint64_t max_mrs = 0;           // across all RNICs
  std::uint64_t pin_budget_bytes = 0;  // PVDMA-pinned host memory
  std::size_t iotlb_share_entries = 0; // IOTLB residency cap
  TenantQos qos;                       // vSwitch rule-slot quota
};

/// Where a tenant sits on the graceful-degradation ladder.
enum class DegradeLevel : std::uint8_t { kGreen, kThrottled, kShed };

const char* to_string(DegradeLevel level);

class TenantManager {
 public:
  explicit TenantManager(StellarHost& host) : host_(&host) {}

  /// Declare (or replace) a tenant's contract and push the caps into every
  /// owning resource. Call again after boot to (re)apply the PVDMA budget.
  Status register_tenant(TenantId tenant, TenantBudgets budgets);
  const TenantBudgets* budgets(TenantId tenant) const;
  /// Registered tenants in sorted order (deterministic iteration).
  std::vector<TenantId> registered() const;

  /// Toggle enforcement host-wide. Off = every cap lifted in place (the
  /// noisy-neighbor bench's unprotected baseline); on = contracts restored.
  void set_enforcement(bool on);
  bool enforcement() const { return enforce_; }

  /// Re-push the tenant's caps into resources that (re)appeared since
  /// registration — notably the PVDMA instance created at container boot.
  void apply(TenantId tenant);

  // -- Admission gates (control path) ---------------------------------------

  Status admit_device(TenantId tenant);
  Status admit_qp(TenantId tenant);
  Status admit_mr(TenantId tenant);

  // -- Accounting / grading --------------------------------------------------

  struct Usage {
    std::uint64_t devices = 0;
    std::uint64_t qps = 0;
    std::uint64_t mrs = 0;
    std::uint64_t pinned_bytes = 0;
    std::uint64_t iotlb_entries = 0;
  };
  Usage usage(TenantId tenant) const;

  DegradeLevel level(TenantId tenant) const;

 private:
  /// Push `budgets` (or lifted caps when !enforce_) into the resources.
  void push(TenantId tenant, const TenantBudgets& budgets);
  /// The tenant's QPs / MRs summed over every RNIC (a scan of each).
  std::uint64_t qp_count(TenantId tenant) const;
  std::uint64_t mr_count(TenantId tenant) const;
  Status gate(TenantId tenant, std::uint64_t used, std::uint64_t cap,
              const char* what) const;

  StellarHost* host_;
  bool enforce_ = true;
  std::map<TenantId, TenantBudgets> budgets_;
};

}  // namespace stellar
