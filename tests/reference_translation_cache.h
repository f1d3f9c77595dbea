// Test-only oracle for TranslationCache (memory/translation_cache.h): the
// same share-capped page -> HPA cache kept one page at a time, in a
// std::list (MRU at the front) plus a hash map from page to list node. It
// shares no code with the extent cache, so the differential tests in
// translation_cache_test.cc and ats_run_test.cc hold the production cache
// to an independent model of the per-page LRU it must reproduce.
//
// Each tenant also keeps its own recency list of its pages, in the global
// list's order, so a share-capped install finds the tenant's coldest page
// at that list's tail instead of scanning the global list for it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <unordered_map>

#include "common/units.h"
#include "memory/address.h"

namespace stellar {

class ReferenceTranslationCache {
 public:
  explicit ReferenceTranslationCache(std::size_t capacity)
      : capacity_(capacity) {}

  /// Cached HPA of the page at `page`, or nullptr; refreshes recency and
  /// counts a hit or a miss.
  const Hpa* lookup(IoVa page) {
    auto it = index_.find(page.value());
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    Slot& slot = it->second;
    order_.splice(order_.begin(), order_, slot.order);
    std::list<std::uint64_t>& mine = by_tenant_[slot.order->tenant];
    mine.splice(mine.begin(), mine, slot.tenant_order);
    return &slot.order->hpa;
  }

  /// Install `page -> hpa` for `tenant` after lookup(page) missed.
  void install(IoVa page, Hpa hpa, TenantId tenant) {
    if (capacity_ == 0) return;
    auto share = share_.find(tenant);
    if (share != share_.end() && occupancy(tenant) >= share->second) {
      // The tenant's own coldest page.
      ++self_evictions_;
      remove(by_tenant_[tenant].back());
    }
    if (index_.size() >= capacity_) remove(order_.back().page);
    order_.push_front(Entry{page.value(), hpa, tenant});
    std::list<std::uint64_t>& mine = by_tenant_[tenant];
    mine.push_front(page.value());
    index_[page.value()] = Slot{order_.begin(), mine.begin()};
    ++occupancy_[tenant];
  }

  void clear() {
    order_.clear();
    by_tenant_.clear();
    index_.clear();
    occupancy_.clear();
  }

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
  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t page;
    Hpa hpa;
    TenantId tenant;
  };

  /// Where a cached page sits in the global list and in its tenant's.
  struct Slot {
    std::list<Entry>::iterator order;
    std::list<std::uint64_t>::iterator tenant_order;
  };

  void remove(std::uint64_t page) {
    ++evictions_;
    auto it = index_.find(page);
    const TenantId tenant = it->second.order->tenant;
    auto owner = occupancy_.find(tenant);
    if (--owner->second == 0) occupancy_.erase(owner);
    by_tenant_[tenant].erase(it->second.tenant_order);
    order_.erase(it->second.order);
    index_.erase(it);
  }

  std::size_t capacity_;
  std::list<Entry> order_;  // MRU at the front
  // Per tenant, its pages in order_'s order (MRU at the front).
  std::map<TenantId, std::list<std::uint64_t>> by_tenant_;
  std::unordered_map<std::uint64_t, Slot> index_;
  std::map<TenantId, std::size_t> share_;
  std::map<TenantId, std::size_t> occupancy_;
  std::uint64_t self_evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace stellar
