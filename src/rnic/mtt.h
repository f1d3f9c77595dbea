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
#include <unordered_map>

#include "common/status.h"
#include "common/tenant_ledger.h"
#include "common/units.h"
#include "memory/address.h"
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
    if (regions_.count(key) != 0) {
      return already_exists("Mtt: MR already registered");
    }
    if (len == 0) return invalid_argument("Mtt: zero-length region");
    regions_.emplace(
        key, Region{base, len, target, owner, translated, pages, tenant});
    used_pages_ += pages;
    tenant_pages_.add(tenant, pages);
    return Status::ok();
  }

  Status deregister(MrKey key) {
    auto it = regions_.find(key);
    if (it == regions_.end()) return not_found("Mtt: unknown MR");
    used_pages_ -= it->second.pages;
    tenant_pages_.sub(it->second.tenant, it->second.pages);
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
    const Region& r = it->second;
    if (va < r.base || va - r.base >= r.len) {
      STELLAR_TRACE_ONLY(obs::count("mtt/misses");)
      return out_of_range("Mtt: address outside MR");
    }
    STELLAR_TRACE_ONLY(if (r.translated) obs::count("mtt/translated_hits");)
    return MttEntry{r.target + (va - r.base), r.owner, r.translated};
  }

  std::uint64_t tenant_pages(TenantId tenant) const {
    return tenant_pages_.get(tenant);
  }
  /// (tenant, pages) pairs in ascending tenant order.
  const TenantLedger& pages_by_tenant() const { return tenant_pages_; }

  std::uint64_t used_pages() const { return used_pages_; }
  std::uint64_t capacity_pages() const { return capacity_pages_; }
  std::size_t region_count() const { return regions_.size(); }

 private:
  /// One MR maps one range: [base, base+len) -> [target, target+len).
  /// The `translated` flag says whether `target` is an IoVa or an HPA.
  struct Region {
    Gva base;
    std::uint64_t len = 0;
    std::uint64_t target = 0;
    MemoryOwner owner = MemoryOwner::kHostDram;
    bool translated = false;
    std::uint64_t pages = 0;
    TenantId tenant = kHostTenant;
  };

  std::uint64_t capacity_pages_;
  std::uint64_t used_pages_ = 0;
  std::unordered_map<MrKey, Region> regions_;
  TenantLedger tenant_pages_;
};

}  // namespace stellar
