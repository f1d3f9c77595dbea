// Share-capped translation cache: the page -> HPA cache behind both the
// IOMMU's IOTLB (memory/iommu.h) and every device ATC (pcie/atc.h).
//
// Either cache is shared by every tenant whose DMA goes through it, so a
// scan-patterned tenant could thrash out its neighbors' hot translations
// (docs/TENANCY.md). Every entry carries the TenantId that installed it; a
// tenant with a configured share cap that is already at it evicts its *own*
// coldest entry instead of the LRU entry (which may be a neighbor's). The
// per-tenant occupancy ledger sums to size(); TenantIsolationAuditor checks
// that on the IOTLB and on each ATC.
#pragma once

#include <cstdint>
#include <map>

#include "common/units.h"
#include "memory/address.h"
#include "memory/lru.h"

namespace stellar {

class TranslationCache {
 public:
  explicit TranslationCache(std::size_t capacity) : cache_(capacity) {}

  /// Cached HPA of the 4 KiB page at `page`, or nullptr on a miss;
  /// refreshes recency and counts a hit or a miss. The pointer stays valid
  /// until the next install() or clear().
  const Hpa* lookup(IoVa page) {
    const Entry* hit = cache_.get(page.value());
    return hit == nullptr ? nullptr : &hit->hpa;
  }

  /// Install `page -> hpa` on behalf of `tenant` after lookup(page)
  /// missed; `page` must still be absent.
  void install(IoVa page, Hpa hpa, TenantId tenant) {
    auto share = share_.find(tenant);
    if (share != share_.end() && occupancy(tenant) >= share->second) {
      // Over-share tenants recycle their own coldest slot: the thrash stays
      // contained to the tenant generating it.
      auto victim = cache_.evict_lru_matching(
          [tenant](std::uint64_t, const Entry& e) {
            return e.tenant == tenant;
          });
      if (victim) {
        ++self_evictions_;
        debit(victim->second.tenant);
      }
    }
    auto evicted = cache_.insert_absent(page.value(), Entry{hpa, tenant});
    if (evicted) debit(evicted->second.tenant);
    ++occupancy_[tenant];
  }

  void clear() {
    cache_.clear();
    occupancy_.clear();
  }

  /// Cap one tenant's residency at `max_entries` (0 = uncapped).
  void set_share(TenantId tenant, std::size_t max_entries) {
    if (max_entries == 0) {
      share_.erase(tenant);
    } else {
      share_[tenant] = max_entries;
    }
  }

  /// Entries currently installed on behalf of `tenant`.
  std::size_t occupancy(TenantId tenant) const {
    auto it = occupancy_.find(tenant);
    return it == occupancy_.end() ? 0 : it->second;
  }
  const std::map<TenantId, std::size_t>& occupancy_by_tenant() const {
    return occupancy_;
  }
  /// Evictions where an over-share tenant displaced its own entry.
  std::uint64_t self_evictions() const { return self_evictions_; }

  std::size_t size() const { return cache_.size(); }
  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  std::uint64_t evictions() const { return cache_.evictions(); }

 private:
  struct Entry {
    Hpa hpa;
    TenantId tenant = kHostTenant;
  };

  void debit(TenantId tenant) {
    auto it = occupancy_.find(tenant);
    if (it == occupancy_.end()) return;
    if (--it->second == 0) occupancy_.erase(it);
  }

  friend struct TranslationCacheTestPeer;  // ledger corruption in audit tests

  LruCache<std::uint64_t, Entry> cache_;
  std::map<TenantId, std::size_t> share_;
  std::map<TenantId, std::size_t> occupancy_;
  std::uint64_t self_evictions_ = 0;
};

}  // namespace stellar
