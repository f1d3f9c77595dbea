// Memory Translation Table and its Stellar extension (eMTT, §6).
//
// The classic MTT maps an MR's virtual address to a DMA address that still
// needs IOMMU/ATS translation (in a RunD guest: GVA -> GPA). The eMTT entry
// additionally stores the *final* HPA and the memory owner (host DRAM vs
// GPU HBM), letting the RNIC emit pre-translated TLPs (AT=0b10) that PCIe
// switches route peer-to-peer — no ATC, no RC detour.
//
// Capacity is counted in 4 KiB pages; the paper notes MTT capacity is
// orders of magnitude larger than the PCIe ATC, which is why caching final
// translations there eliminates the Figure-8 droop. The table is still a
// shared per-RNIC resource: registrations carry the owning TenantId, and
// the per-tenant page counts let kill_tenant and the auditors see what each
// tenant holds.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/range_map.h"
#include "obs/obs.h"
#include "rnic/verbs.h"

namespace stellar {

struct MttEntry {
  std::uint64_t target = 0;  // IoVa (untranslated) or HPA (eMTT, translated)
  MemoryOwner owner = MemoryOwner::kHostDram;
  bool translated = false;   // true => eMTT entry carrying a final HPA
};

class Mtt {
 public:
  explicit Mtt(std::uint64_t capacity_pages) : capacity_pages_(capacity_pages) {}

  /// Install the translation for one MR covering [base, base+len).
  Status register_region(MrKey key, Gva base, std::uint64_t len,
                         std::uint64_t target, MemoryOwner owner,
                         bool translated, TenantId tenant = kHostTenant) {
    const std::uint64_t pages = pages_covering(base, len, kPage4K);
    if (used_pages_ + pages > capacity_pages_) {
      return resource_exhausted("Mtt: table full");
    }
    auto [it, inserted] = regions_.try_emplace(key);
    if (!inserted) return already_exists("Mtt: MR already registered");
    Status s = it->second.map.map(base, Gva{target}, len);
    if (!s.is_ok()) {
      regions_.erase(it);
      return s;
    }
    it->second.owner = owner;
    it->second.translated = translated;
    it->second.pages = pages;
    it->second.tenant = tenant;
    used_pages_ += pages;
    tenant_pages_[tenant] += pages;
    return Status::ok();
  }

  Status deregister(MrKey key) {
    auto it = regions_.find(key);
    if (it == regions_.end()) return not_found("Mtt: unknown MR");
    used_pages_ -= it->second.pages;
    auto tp = tenant_pages_.find(it->second.tenant);
    if (tp != tenant_pages_.end()) {
      tp->second -= it->second.pages;
      if (tp->second == 0) tenant_pages_.erase(tp);
    }
    regions_.erase(it);
    return Status::ok();
  }

  /// Hardware lookup on the RX/TX pipeline: MR key + virtual address.
  StatusOr<MttEntry> lookup(MrKey key, Gva va) const {
    STELLAR_TRACE_ONLY(obs::count("mtt/lookups");)
    auto it = regions_.find(key);
    if (it == regions_.end()) {
      STELLAR_TRACE_ONLY(obs::count("mtt/misses");)
      return not_found("Mtt: unknown MR");
    }
    auto target = it->second.map.translate(va);
    if (!target.is_ok()) {
      STELLAR_TRACE_ONLY(obs::count("mtt/misses");)
      return out_of_range("Mtt: address outside MR");
    }
    STELLAR_TRACE_ONLY(
        if (it->second.translated) obs::count("mtt/translated_hits");)
    return MttEntry{target.value().value(), it->second.owner,
                    it->second.translated};
  }

  std::uint64_t tenant_pages(TenantId tenant) const {
    auto it = tenant_pages_.find(tenant);
    return it == tenant_pages_.end() ? 0 : it->second;
  }
  const std::map<TenantId, std::uint64_t>& pages_by_tenant() const {
    return tenant_pages_;
  }

  std::uint64_t used_pages() const { return used_pages_; }
  std::uint64_t capacity_pages() const { return capacity_pages_; }
  std::size_t region_count() const { return regions_.size(); }

 private:
  struct Region {
    RangeMap<Gva, Gva> map;  // Gva -> target (reuses Gva arithmetic; the
                             // `translated` flag says how to interpret it)
    MemoryOwner owner = MemoryOwner::kHostDram;
    bool translated = false;
    std::uint64_t pages = 0;
    TenantId tenant = kHostTenant;
  };

  std::uint64_t capacity_pages_;
  std::uint64_t used_pages_ = 0;
  std::unordered_map<MrKey, Region> regions_;
  std::map<TenantId, std::uint64_t> tenant_pages_;
};

}  // namespace stellar
