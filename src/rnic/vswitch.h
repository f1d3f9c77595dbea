// RNIC vSwitch hardware flow-steering model — the baseline component behind
// the paper's Problem (5): TCP and RDMA share one ordered rule pipeline, so
// RDMA lookup latency depends on how many (and where) TCP rules sit in the
// table, and one tenant's TCP churn perturbs another tenant's RDMA.
//
// Stellar's fix is architectural (RDMA never enters this pipeline); the
// model exists so tests and benches can demonstrate the interference — and,
// for the multi-tenant work (docs/TENANCY.md), so per-tenant QoS can bound
// it. Each tenant may carry a TenantQos: a rule-slot quota, which stops its
// table churn from pushing neighbors' rules deep into the walk.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace stellar {

enum class TrafficClass : std::uint8_t { kTcp, kRdma };

struct SteeringRule {
  std::uint64_t id = 0;
  TrafficClass match = TrafficClass::kTcp;
  std::uint32_t tenant = 0;
  bool vxlan_encap = false;
  // The driver fills VxLAN outer MACs from its routing table; a local
  // forwarding route yields zero MACs — valid for the kernel stack, fatal
  // for RDMA via the ToR (the cross-RNIC bug in §3.1(5)).
  std::uint64_t outer_src_mac = 0;
  std::uint64_t outer_dst_mac = 0;
};

/// Per-tenant QoS contract enforced by the vSwitch. Zero means "uncapped"
/// so tenants without a contract behave exactly as before.
struct TenantQos {
  std::size_t max_rules = 0;  // rule-slot quota; 0 = uncapped
};

// Pipeline entry cost.
inline constexpr SimTime kVSwitchBaseLatency = SimTime::nanos(100);
// Per ordered entry walked.
inline constexpr SimTime kVSwitchPerRuleLatency = SimTime::nanos(4);

class VSwitch {
 public:
  /// `capacity` is the number of hardware rule slots.
  explicit VSwitch(std::size_t capacity = 4096) : capacity_(capacity) {}

  // -- Rule table ------------------------------------------------------------

  /// Append a rule (hardware tables are priority-ordered; insertion order
  /// is match order, which is exactly how the production incident arose:
  /// TCP entries landed ahead of RDMA entries). A tenant with a rule quota
  /// that is already at it is shed loudly — its churn cannot push other
  /// tenants' rules deeper into the walk.
  Status add_rule(SteeringRule rule) {
    auto qos = qos_.find(rule.tenant);
    if (qos != qos_.end() && qos->second.max_rules != 0 &&
        rule_count(rule.tenant) >= qos->second.max_rules) {
      return failed_precondition("VSwitch: tenant rule quota exceeded");
    }
    if (rules_.size() >= capacity_) {
      return resource_exhausted("VSwitch: rule table full");
    }
    rules_.push_back(rule);
    ++rules_by_tenant_[rule.tenant];
    return Status::ok();
  }

  Status remove_rule(std::uint64_t id) {
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
      if (it->id == id) {
        debit_rule(it->tenant);
        rules_.erase(it);
        return Status::ok();
      }
    }
    return not_found("VSwitch: unknown rule");
  }

  /// Drop every rule owned by `tenant` (tenant-kill reclaim path).
  std::size_t remove_tenant_rules(TenantId tenant) {
    std::size_t removed = 0;
    for (auto it = rules_.begin(); it != rules_.end();) {
      if (it->tenant == tenant) {
        it = rules_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    rules_by_tenant_.erase(tenant);
    return removed;
  }

  struct LookupResult {
    const SteeringRule* rule = nullptr;
    SimTime latency;
    std::size_t rules_walked = 0;
  };

  /// First-match lookup; latency grows with the rule's position.
  StatusOr<LookupResult> lookup(TrafficClass cls, std::uint32_t tenant) const {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].match == cls && rules_[i].tenant == tenant) {
        return LookupResult{
            &rules_[i],
            kVSwitchBaseLatency +
                kVSwitchPerRuleLatency * static_cast<std::int64_t>(i + 1),
            i + 1};
      }
    }
    return not_found("VSwitch: no matching rule");
  }

  std::size_t rule_count() const { return rules_.size(); }
  std::size_t rule_count(TenantId tenant) const {
    auto it = rules_by_tenant_.find(tenant);
    return it == rules_by_tenant_.end() ? 0 : it->second;
  }
  const std::map<TenantId, std::size_t>& rules_by_tenant() const {
    return rules_by_tenant_;
  }
  std::size_t capacity() const { return capacity_; }

  // -- Per-tenant QoS --------------------------------------------------------

  void set_qos(TenantId tenant, TenantQos qos) { qos_[tenant] = qos; }
  void clear_qos(TenantId tenant) { qos_.erase(tenant); }
  const TenantQos* qos(TenantId tenant) const {
    auto it = qos_.find(tenant);
    return it == qos_.end() ? nullptr : &it->second;
  }

 private:
  void debit_rule(TenantId tenant) {
    auto it = rules_by_tenant_.find(tenant);
    if (it == rules_by_tenant_.end()) return;
    if (--it->second == 0) rules_by_tenant_.erase(it);
  }

  std::size_t capacity_;
  std::vector<SteeringRule> rules_;
  std::map<TenantId, std::size_t> rules_by_tenant_;
  std::map<TenantId, TenantQos> qos_;
};

}  // namespace stellar
