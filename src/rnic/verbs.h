// Verbs-style control-plane objects: Protection Domains, Memory Regions and
// Queue Pairs, with the isolation rules vStellar relies on (§9): a QP may
// only touch an MR of its own protection domain, and every tenant VM gets a
// dedicated PD so cross-tenant access is rejected in "hardware".
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "memory/address.h"

namespace stellar {

using PdId = std::uint32_t;
using MrKey = std::uint32_t;
using QpNum = std::uint32_t;
using VmId = std::uint32_t;

inline constexpr VmId kHostVm = 0;

enum class MemoryOwner : std::uint8_t { kHostDram, kGpuHbm };

enum class QpState : std::uint8_t { kReset, kInit, kRtr, kRts, kError };

struct MemoryRegion {
  MrKey key = 0;
  PdId pd = 0;
  Gva base;             // guest/application virtual address
  std::uint64_t len = 0;
  MemoryOwner owner = MemoryOwner::kHostDram;
};

struct QueuePair {
  QpNum num = 0;
  PdId pd = 0;
  QpState state = QpState::kReset;
  std::uint32_t remote_qp = 0;

  /// What a snapshot carries: the guest-visible identity and ladder state.
  /// The PD is the restoring device's.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& qp) {
    ar(qp.num, qp.state, qp.remote_qp);
  }
};

/// Registry of verbs objects for one RNIC (or one virtual device).
class VerbsResources {
 public:
  PdId create_pd(VmId vm) {
    const PdId id = next_pd_++;
    pd_owner_.emplace(id, vm);
    return id;
  }

  StatusOr<VmId> pd_vm(PdId pd) const {
    auto it = pd_owner_.find(pd);
    if (it == pd_owner_.end()) return not_found("unknown PD");
    return it->second;
  }

  StatusOr<MrKey> register_mr(PdId pd, Gva base, std::uint64_t len,
                              MemoryOwner owner) {
    if (pd_owner_.count(pd) == 0) return not_found("register_mr: unknown PD");
    if (len == 0) return invalid_argument("register_mr: zero length");
    const MrKey key = next_mr_++;
    mrs_.emplace(key, MemoryRegion{key, pd, base, len, owner});
    return key;
  }

  Status deregister_mr(MrKey key) {
    if (mrs_.erase(key) == 0) return not_found("deregister_mr: unknown MR");
    return Status::ok();
  }

  StatusOr<const MemoryRegion*> mr(MrKey key) const {
    auto it = mrs_.find(key);
    if (it == mrs_.end()) return not_found("unknown MR");
    return &it->second;
  }

  StatusOr<QpNum> create_qp(PdId pd) {
    if (pd_owner_.count(pd) == 0) return not_found("create_qp: unknown PD");
    const QpNum num = next_qp_++;
    qps_.emplace(num, QueuePair{num, pd, QpState::kReset, 0});
    return num;
  }

  Status modify_qp(QpNum num, QpState target, std::uint32_t remote_qp = 0) {
    auto it = qps_.find(num);
    if (it == qps_.end()) return not_found("modify_qp: unknown QP");
    QueuePair& qp = it->second;
    // Enforce the legal verbs state ladder RESET->INIT->RTR->RTS.
    const bool legal =
        (target == QpState::kInit && qp.state == QpState::kReset) ||
        (target == QpState::kRtr && qp.state == QpState::kInit) ||
        (target == QpState::kRts && qp.state == QpState::kRtr) ||
        target == QpState::kError || target == QpState::kReset;
    if (!legal) {
      return failed_precondition("modify_qp: illegal state transition");
    }
    qp.state = target;
    if (remote_qp != 0) qp.remote_qp = remote_qp;
    return Status::ok();
  }

  StatusOr<const QueuePair*> qp(QpNum num) const {
    auto it = qps_.find(num);
    if (it == qps_.end()) return not_found("unknown QP");
    return &it->second;
  }

  Status destroy_qp(QpNum num) {
    if (qps_.erase(num) == 0) return not_found("destroy_qp: unknown QP");
    return Status::ok();
  }

  // -- Migration adoption -------------------------------------------------------
  // A migrated guest keeps its MR keys and QP numbers (they are baked into
  // its WQEs and wire protocol); the destination RNIC adopts the objects
  // verbatim instead of allocating new ones. Key collisions with resident
  // tenants are a hard error — the orchestrator must pick another RNIC.

  Status adopt_mr(const MemoryRegion& mr) {
    if (pd_owner_.count(mr.pd) == 0) return not_found("adopt_mr: unknown PD");
    if (mrs_.count(mr.key) != 0) {
      return already_exists("adopt_mr: MR key in use");
    }
    mrs_.emplace(mr.key, mr);
    next_mr_ = std::max(next_mr_, mr.key + 1);
    return Status::ok();
  }

  Status adopt_qp(const QueuePair& qp) {
    if (pd_owner_.count(qp.pd) == 0) return not_found("adopt_qp: unknown PD");
    if (qps_.count(qp.num) != 0) {
      return already_exists("adopt_qp: QP number in use");
    }
    qps_.emplace(qp.num, qp);
    next_qp_ = std::max(next_qp_, qp.num + 1);
    return Status::ok();
  }

  /// All MRs of one protection domain, sorted by key (deterministic).
  std::vector<MemoryRegion> mrs_in_pd(PdId pd) const {
    std::vector<MemoryRegion> out;
    for (const auto& [key, mr] : mrs_) {
      if (mr.pd == pd) out.push_back(mr);
    }
    std::sort(out.begin(), out.end(),
              [](const MemoryRegion& a, const MemoryRegion& b) {
                return a.key < b.key;
              });
    return out;
  }

  /// All QPs of one protection domain, sorted by number (deterministic).
  std::vector<QueuePair> qps_in_pd(PdId pd) const {
    std::vector<QueuePair> out;
    for (const auto& [num, qp] : qps_) {
      if (qp.pd == pd) out.push_back(qp);
    }
    std::sort(out.begin(), out.end(),
              [](const QueuePair& a, const QueuePair& b) {
                return a.num < b.num;
              });
    return out;
  }

  /// The protection-domain check performed by hardware on every access:
  /// QP and MR must share a PD (and the QP must be RTS for data ops).
  Status check_access(QpNum qp_num, MrKey mr_key) const {
    auto qit = qps_.find(qp_num);
    if (qit == qps_.end()) return not_found("check_access: unknown QP");
    auto mit = mrs_.find(mr_key);
    if (mit == mrs_.end()) return not_found("check_access: unknown MR");
    if (qit->second.pd != mit->second.pd) {
      return permission_denied("QP and MR belong to different PDs");
    }
    if (qit->second.state != QpState::kRts) {
      return failed_precondition("QP not in RTS state");
    }
    return Status::ok();
  }

  std::size_t pd_count() const { return pd_owner_.size(); }
  std::size_t mr_count() const { return mrs_.size(); }
  std::size_t qp_count() const { return qps_.size(); }

  // -- Per-tenant attribution ---------------------------------------------------
  // Every PD is owned by exactly one VM, so MR/QP ownership rolls up through
  // the PD. Derived on demand into ordered maps (safe to feed emitters); the
  // TenantIsolationAuditor cross-checks these sums against the totals above.

  std::map<VmId, std::size_t> mr_count_by_vm() const {
    std::map<VmId, std::size_t> out;
    for (const auto& [key, mr] : mrs_) out[pd_owner_.at(mr.pd)] += 1;
    return out;
  }

  std::map<VmId, std::size_t> qp_count_by_vm() const {
    std::map<VmId, std::size_t> out;
    for (const auto& [num, qp] : qps_) out[pd_owner_.at(qp.pd)] += 1;
    return out;
  }

  std::size_t mr_count(VmId vm) const {
    std::size_t n = 0;
    for (const auto& [key, mr] : mrs_) {
      auto it = pd_owner_.find(mr.pd);
      if (it != pd_owner_.end() && it->second == vm) ++n;
    }
    return n;
  }

  std::size_t qp_count(VmId vm) const {
    std::size_t n = 0;
    for (const auto& [num, qp] : qps_) {
      auto it = pd_owner_.find(qp.pd);
      if (it != pd_owner_.end() && it->second == vm) ++n;
    }
    return n;
  }

 private:
  PdId next_pd_ = 1;
  MrKey next_mr_ = 1;
  QpNum next_qp_ = 1;
  std::unordered_map<PdId, VmId> pd_owner_;
  std::unordered_map<MrKey, MemoryRegion> mrs_;
  std::unordered_map<QpNum, QueuePair> qps_;
};

}  // namespace stellar
