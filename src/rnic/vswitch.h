// RNIC vSwitch hardware flow-steering model — the baseline component behind
// the paper's Problem (5): TCP and RDMA share one ordered rule pipeline, so
// RDMA lookup latency depends on how many (and where) TCP rules sit in the
// table, and one tenant's TCP churn perturbs another tenant's RDMA.
//
// Stellar's fix is architectural (RDMA never enters this pipeline); the
// model exists so tests and benches can demonstrate the interference — and,
// for the multi-tenant work (docs/TENANCY.md), so per-tenant QoS can bound
// it. Each tenant may carry a TenantQos: a rule-slot quota (stops table
// churn from pushing neighbors' rules deep into the walk) and a token-bucket
// rate (over-rate senders are delayed, never their neighbors).
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

/// Per-tenant QoS contract enforced by the vSwitch. Zero-valued fields mean
/// "uncapped" so tenants without a contract behave exactly as before.
struct TenantQos {
  Bandwidth rate{};               // token-bucket rate; 0 = unlimited
  std::uint64_t burst_bytes = 0;  // bucket depth; 0 with a rate = no burst
  std::size_t max_rules = 0;      // rule-slot quota; 0 = uncapped
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

  struct ForwardResult {
    SimTime latency;           // rule walk + any token-bucket delay
    std::size_t rules_walked = 0;
    bool throttled = false;    // token bucket forced a delay
    SimTime throttle_delay;    // the delayed portion of `latency`
  };

  /// One-shot forwarding decision at sim time `now`: rule lookup, then the
  /// tenant's token bucket. Over-rate tenants are *delayed* (throttled), not
  /// failed — graceful degradation charges the wait to the sender alone.
  StatusOr<ForwardResult> forward(TrafficClass cls, TenantId tenant,
                                  std::uint64_t bytes, SimTime now) {
    auto hit = lookup(cls, tenant);
    if (!hit.is_ok()) return hit.status();
    ForwardResult out{hit.value().latency, hit.value().rules_walked, false,
                      SimTime::zero()};
    auto qos = qos_.find(tenant);
    if (qos != qos_.end() && qos->second.rate.bps() > 0) {
      out.throttle_delay = bucket_consume(tenant, qos->second, bytes, now);
      if (out.throttle_delay > SimTime::zero()) {
        out.throttled = true;
        ++throttles_by_tenant_[tenant];
        out.latency += out.throttle_delay;
      }
    }
    return out;
  }

  // -- Introspection ---------------------------------------------------------

  std::uint64_t throttles(TenantId tenant) const {
    auto it = throttles_by_tenant_.find(tenant);
    return it == throttles_by_tenant_.end() ? 0 : it->second;
  }

 private:
  struct Bucket {
    std::uint64_t tokens = 0;
    SimTime last_refill;
    bool primed = false;
  };

  void debit_rule(TenantId tenant) {
    auto it = rules_by_tenant_.find(tenant);
    if (it == rules_by_tenant_.end()) return;
    if (--it->second == 0) rules_by_tenant_.erase(it);
  }

  static std::uint64_t bytes_accrued(Bandwidth rate, SimTime dt) {
    // bytes = bps * ps / (8 * 1e12); i128 to survive long idle gaps.
    const __int128 b = static_cast<__int128>(rate.bps()) * dt.ps() /
                       (8 * static_cast<__int128>(1'000'000'000'000ll));
    return static_cast<std::uint64_t>(b);
  }

  /// Refill and debit the tenant's token bucket; returns the delay until the
  /// packet's tokens are available (zero when it passes immediately).
  SimTime bucket_consume(TenantId tenant, const TenantQos& qos,
                         std::uint64_t bytes, SimTime now) {
    Bucket& b = buckets_[tenant];
    if (!b.primed) {
      b.tokens = qos.burst_bytes;
      b.last_refill = now;
      b.primed = true;
    }
    if (now > b.last_refill) {
      const std::uint64_t add = bytes_accrued(qos.rate, now - b.last_refill);
      b.tokens = b.tokens + add > qos.burst_bytes ? qos.burst_bytes
                                                  : b.tokens + add;
      b.last_refill = now;
    }
    if (b.tokens >= bytes) {
      b.tokens -= bytes;
      return SimTime::zero();
    }
    const std::uint64_t deficit = bytes - b.tokens;
    b.tokens = 0;
    const SimTime wait = qos.rate.transmit_time(deficit);
    // The bucket is exactly empty at now+wait; future refills start there.
    b.last_refill = now + wait;
    return wait;
  }

  std::size_t capacity_;
  std::vector<SteeringRule> rules_;
  std::map<TenantId, std::size_t> rules_by_tenant_;
  std::map<TenantId, TenantQos> qos_;
  std::map<TenantId, Bucket> buckets_;
  std::map<TenantId, std::uint64_t> throttles_by_tenant_;
};

}  // namespace stellar
