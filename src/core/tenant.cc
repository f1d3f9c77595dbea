#include "core/tenant.h"

#include <algorithm>
#include <string>

#include "core/stellar.h"

namespace stellar {

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kGreen: return "green";
    case DegradeLevel::kThrottled: return "throttled";
    case DegradeLevel::kShed: return "shed";
  }
  return "?";
}

Status TenantManager::register_tenant(TenantId tenant, TenantBudgets budgets) {
  budgets_[tenant] = budgets;
  apply(tenant);
  return Status::ok();
}

const TenantBudgets* TenantManager::budgets(TenantId tenant) const {
  auto it = budgets_.find(tenant);
  return it == budgets_.end() ? nullptr : &it->second;
}

std::vector<TenantId> TenantManager::registered() const {
  std::vector<TenantId> out;
  out.reserve(budgets_.size());
  for (const auto& [tenant, b] : budgets_) out.push_back(tenant);
  return out;
}

void TenantManager::set_enforcement(bool on) {
  if (enforce_ == on) return;
  enforce_ = on;
  for (const auto& [tenant, b] : budgets_) apply(tenant);
}

void TenantManager::apply(TenantId tenant) {
  auto it = budgets_.find(tenant);
  if (it == budgets_.end()) return;
  push(tenant, enforce_ ? it->second : TenantBudgets{});
}

void TenantManager::push(TenantId tenant, const TenantBudgets& b) {
  Iommu& iommu = host_->pcie().iommu();
  iommu.set_iotlb_share(tenant, b.iotlb_share_entries);
  if (host_->hypervisor().booted(tenant)) {
    host_->hypervisor().pvdma(tenant).set_pin_budget(b.pin_budget_bytes);
  }
  if (b.qos.max_rules != 0) {
    host_->vswitch().set_qos(tenant, b.qos);
  } else {
    host_->vswitch().clear_qos(tenant);
  }
}

Status TenantManager::gate(TenantId tenant, std::uint64_t used,
                           std::uint64_t cap, const char* what) const {
  if (enforce_ && cap != 0 && used >= cap) {
    return failed_precondition(std::string("TenantManager: ") + what +
                               " budget exceeded for tenant " +
                               std::to_string(tenant));
  }
  return Status::ok();
}

Status TenantManager::admit_device(TenantId tenant) {
  const TenantBudgets* b = budgets(tenant);
  return gate(tenant, host_->device_count(tenant), b ? b->max_devices : 0,
              "device");
}

// The QP and MR gates count only when a cap is enforced: counting scans
// every QP or MR on every RNIC, and registration churn calls admit_mr once
// per MR.
Status TenantManager::admit_qp(TenantId tenant) {
  const TenantBudgets* b = budgets(tenant);
  if (!enforce_ || b == nullptr || b->max_qps == 0) return Status::ok();
  return gate(tenant, qp_count(tenant), b->max_qps, "QP");
}

Status TenantManager::admit_mr(TenantId tenant) {
  const TenantBudgets* b = budgets(tenant);
  if (!enforce_ || b == nullptr || b->max_mrs == 0) return Status::ok();
  return gate(tenant, mr_count(tenant), b->max_mrs, "MR");
}

std::uint64_t TenantManager::qp_count(TenantId tenant) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < host_->rnic_count(); ++i) {
    n += host_->rnic(i).verbs().qp_count(tenant);
  }
  return n;
}

std::uint64_t TenantManager::mr_count(TenantId tenant) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < host_->rnic_count(); ++i) {
    n += host_->rnic(i).verbs().mr_count(tenant);
  }
  return n;
}

TenantManager::Usage TenantManager::usage(TenantId tenant) const {
  Usage u;
  u.devices = host_->device_count(tenant);
  u.qps = qp_count(tenant);
  u.mrs = mr_count(tenant);
  const Iommu& iommu = host_->pcie().iommu();
  u.pinned_bytes = iommu.pinned_bytes(tenant);
  u.iotlb_entries = iommu.iotlb().occupancy(tenant);
  return u;
}

namespace {
/// Utilization in percent against a cap; 0 when uncapped.
std::uint64_t util_pct(std::uint64_t used, std::uint64_t cap) {
  return cap == 0 ? 0 : used * 100 / cap;
}
}  // namespace

DegradeLevel TenantManager::level(TenantId tenant) const {
  const TenantBudgets* b = budgets(tenant);
  if (!enforce_ || b == nullptr) return DegradeLevel::kGreen;
  const Usage u = usage(tenant);
  std::uint64_t worst = util_pct(u.devices, b->max_devices);
  worst = std::max(worst, util_pct(u.qps, b->max_qps));
  worst = std::max(worst, util_pct(u.mrs, b->max_mrs));
  worst = std::max(worst, util_pct(u.pinned_bytes, b->pin_budget_bytes));
  worst = std::max(worst, util_pct(u.iotlb_entries, b->iotlb_share_entries));
  if (worst >= 100) return DegradeLevel::kShed;
  if (worst >= 80) return DegradeLevel::kThrottled;
  return DegradeLevel::kGreen;
}

}  // namespace stellar
