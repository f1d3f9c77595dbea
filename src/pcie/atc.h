// Address Translation Cache: the device-side cache of ATS results
// (PCIe ATS). Capacity is small — "tens of thousands of pages" per the
// paper — which is what makes GDR throughput droop once the working set
// outgrows it (Figure 8). Lives inside the requesting device (the RNIC).
//
// The ATC is shared by every tenant behind the RNIC, so a scan-patterned
// tenant can thrash out neighbors' hot translations. Entries carry the
// installing TenantId; tenants with a configured occupancy share that are
// at their cap recycle their own coldest entry (docs/TENANCY.md).
#pragma once

#include <cstdint>
#include <map>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/lru.h"
#include "obs/obs.h"
#include "pcie/host_pcie.h"

namespace stellar {

class Atc {
 public:
  /// Registers with `fabric`, whose IOMMU flushes invalidate this ATC.
  Atc(HostPcie& fabric, Bdf owner, std::size_t capacity_pages)
      : fabric_(&fabric), owner_(owner), cache_(capacity_pages) {
    fabric_->add_atc(this);
  }
  ~Atc() { fabric_->remove_atc(this); }
  Atc(const Atc&) = delete;
  Atc& operator=(const Atc&) = delete;

  struct Lookup {
    Hpa hpa;
    SimTime latency;  // zero-ish on hit; full ATS round-trip on miss
    bool hit = false;
    bool iotlb_hit = true;  // of the ATS walk, when a miss occurred
  };

  /// Translate an IoVa using the cache, falling back to an ATS request.
  /// The tenant tag attributes the installed entry for share enforcement.
  StatusOr<Lookup> translate(IoVa iova, TenantId tenant = kHostTenant) {
    const IoVa page = iova.align_down(kPage4K);
    if (const Entry* hit = cache_.get(page.value())) {
      STELLAR_TRACE_ONLY(obs::count("atc/hits");)
      return Lookup{hit->hpa + iova.page_offset(kPage4K), SimTime::nanos(5),
                    true, true};
    }
    auto ats = fabric_->ats_translate(owner_, page);
    if (!ats.is_ok()) return ats.status();
    STELLAR_TRACE_ONLY(const std::uint64_t ev_before = cache_.evictions();)
    install(page.value(), ats.value().hpa.align_down(kPage4K), tenant);
    STELLAR_TRACE_ONLY(
        obs::count("atc/misses");
        obs::count("atc/evictions", cache_.evictions() - ev_before);
        obs::record_time("atc/miss_latency_ps", ats.value().latency);
        obs::complete_here(obs::TraceCat::kAtc, "ats_translate",
                           ats.value().latency,
                           obs::TraceArgs{"iotlb_hit",
                                          ats.value().iotlb_hit ? 1 : 0});)
    return Lookup{ats.value().hpa + iova.page_offset(kPage4K),
                  ats.value().latency, false, ats.value().iotlb_hit};
  }

  /// ATS invalidation from the RC; HostPcie sends one on every IOMMU
  /// flush (each unmap).
  void invalidate_all() {
    cache_.clear();
    occupancy_.clear();
  }

  /// Cap one tenant's ATC residency at `max_entries` (0 = uncapped).
  void set_share(TenantId tenant, std::size_t max_entries) {
    if (max_entries == 0) {
      share_.erase(tenant);
    } else {
      share_[tenant] = max_entries;
    }
  }
  std::size_t occupancy(TenantId tenant) const {
    auto it = occupancy_.find(tenant);
    return it == occupancy_.end() ? 0 : it->second;
  }
  const std::map<TenantId, std::size_t>& occupancy_by_tenant() const {
    return occupancy_;
  }
  std::uint64_t self_evictions() const { return self_evictions_; }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  double hit_rate() const { return cache_.hit_rate(); }
  std::size_t capacity() const { return cache_.capacity(); }
  std::size_t size() const { return cache_.size(); }

 private:
  struct Entry {
    Hpa hpa;
    TenantId tenant = kHostTenant;
  };

  void install(std::uint64_t page, Hpa hpa, TenantId tenant) {
    auto share = share_.find(tenant);
    if (share != share_.end() && occupancy(tenant) >= share->second) {
      auto victim = cache_.evict_lru_matching(
          [tenant](std::uint64_t, const Entry& e) {
            return e.tenant == tenant;
          });
      if (victim) {
        ++self_evictions_;
        debit(victim->second.tenant);
      }
    }
    auto evicted = cache_.put(page, Entry{hpa, tenant});
    if (evicted) debit(evicted->second.tenant);
    ++occupancy_[tenant];
  }

  void debit(TenantId tenant) {
    auto it = occupancy_.find(tenant);
    if (it == occupancy_.end()) return;
    if (--it->second == 0) occupancy_.erase(it);
  }

  HostPcie* fabric_;
  Bdf owner_;
  LruCache<std::uint64_t, Entry> cache_;
  std::map<TenantId, std::size_t> share_;
  std::map<TenantId, std::size_t> occupancy_;
  std::uint64_t self_evictions_ = 0;
};

}  // namespace stellar
