// Address Translation Cache: the device-side cache of ATS results
// (PCIe ATS). Capacity is small — "tens of thousands of pages" per the
// paper — which is what makes GDR throughput droop once the working set
// outgrows it (Figure 8). Lives inside the requesting device (the RNIC).
//
// The ATC is shared by every tenant behind the RNIC, so a scan-patterned
// tenant can thrash out neighbors' hot translations. It is the same
// share-capped TranslationCache as the IOTLB: tenants with a configured
// occupancy share that are at their cap recycle their own coldest entry
// (docs/TENANCY.md).
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/translation_cache.h"
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
    if (const Hpa* hit = cache_.lookup(page)) {
      STELLAR_TRACE_ONLY(obs::count("atc/hits");)
      return Lookup{*hit + iova.page_offset(kPage4K), SimTime::nanos(5),
                    true, true};
    }
    auto ats = fabric_->ats_translate(owner_, page);
    if (!ats.is_ok()) return ats.status();
    STELLAR_TRACE_ONLY(const std::uint64_t ev_before = cache_.evictions();)
    cache_.install(page, ats.value().hpa.align_down(kPage4K), tenant);
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
  void invalidate_all() { cache_.clear(); }

  /// Cap one tenant's ATC residency at `max_entries` (0 = uncapped).
  void set_share(TenantId tenant, std::size_t max_entries) {
    cache_.set_share(tenant, max_entries);
  }
  /// The cache and its per-tenant occupancy ledger, read-only.
  const TranslationCache& cache() const { return cache_; }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }

 private:
  HostPcie* fabric_;
  Bdf owner_;
  TranslationCache cache_;
};

}  // namespace stellar
