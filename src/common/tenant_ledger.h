// TenantLedger: per-tenant running totals that a hot path credits and
// debits — the IOMMU's pinned bytes (once per pinned 2 MiB block) and the
// MTT's pages (once per MR).
//
// A sorted vector of (tenant, amount) pairs: a host carries a handful of
// tenants, so a lookup is a short binary search, a tenant's first credit
// or last debit inserts or erases one pair, and nothing allocates once the
// vector has grown to the tenant count. It iterates in ascending tenant
// order, so auditors and emitters may walk it directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"

namespace stellar {

class TenantLedger {
 public:
  using Entry = std::pair<TenantId, std::uint64_t>;

  void add(TenantId tenant, std::uint64_t amount) {
    const std::size_t i = seek(tenant);
    if (i < entries_.size() && entries_[i].first == tenant) {
      entries_[i].second += amount;
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{tenant, amount});
    }
  }

  /// Debit `amount`, saturating at zero; a tenant left at zero drops out.
  void sub(TenantId tenant, std::uint64_t amount) {
    const std::size_t i = seek(tenant);
    if (i == entries_.size() || entries_[i].first != tenant) return;
    Entry& e = entries_[i];
    e.second -= std::min(amount, e.second);
    if (e.second == 0) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  std::uint64_t get(TenantId tenant) const {
    const std::size_t i = search(tenant);
    return i < entries_.size() && entries_[i].first == tenant
               ? entries_[i].second
               : 0;
  }

  std::size_t size() const { return entries_.size(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  /// Index of the first entry not below `tenant`.
  std::size_t search(TenantId tenant) const {
    if (last_ < entries_.size() && entries_[last_].first == tenant) {
      return last_;
    }
    return static_cast<std::size_t>(
        std::lower_bound(
            entries_.begin(), entries_.end(), tenant,
            [](const Entry& e, TenantId t) { return e.first < t; }) -
        entries_.begin());
  }

  /// search(), remembering the index: runs of credits and debits for one
  /// tenant (a registration pins several blocks) then skip the search.
  std::size_t seek(TenantId tenant) { return last_ = search(tenant); }

  std::vector<Entry> entries_;
  std::size_t last_ = 0;  // where the last credit or debit landed
};

}  // namespace stellar
