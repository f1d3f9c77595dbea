// Test-only oracle for TranslationCache (memory/translation_cache.h): the
// same share-capped page -> HPA cache kept one page at a time, in a
// std::list (MRU at the front) plus a hash map from page to list node. It
// shares no code with the extent cache, so the differential tests in
// translation_cache_test.cc and ats_run_test.cc hold the production cache
// to an independent model of the per-page LRU it must reproduce.
#pragma once

#include <cstdint>
#include <iterator>
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
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->hpa;
  }

  /// Install `page -> hpa` for `tenant` after lookup(page) missed.
  void install(IoVa page, Hpa hpa, TenantId tenant) {
    if (capacity_ == 0) return;
    auto share = share_.find(tenant);
    if (share != share_.end() && occupancy(tenant) >= share->second) {
      // The tenant's own coldest page, searched from the LRU end.
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        if (it->tenant != tenant) continue;
        ++self_evictions_;
        remove(std::next(it).base());
        break;
      }
    }
    if (index_.size() >= capacity_) remove(std::prev(order_.end()));
    order_.push_front(Entry{page.value(), hpa, tenant});
    index_[page.value()] = order_.begin();
    ++occupancy_[tenant];
  }

  void clear() {
    order_.clear();
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

  void remove(std::list<Entry>::iterator it) {
    ++evictions_;
    auto owner = occupancy_.find(it->tenant);
    if (--owner->second == 0) occupancy_.erase(owner);
    index_.erase(it->page);
    order_.erase(it);
  }

  std::size_t capacity_;
  std::list<Entry> order_;  // MRU at the front
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::map<TenantId, std::size_t> share_;
  std::map<TenantId, std::size_t> occupancy_;
  std::uint64_t self_evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace stellar
