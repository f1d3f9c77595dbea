// Address Translation Cache: the device-side cache of ATS results
// (PCIe ATS). Capacity is small — "tens of thousands of pages" per the
// paper — which is what makes GDR throughput droop once the working set
// outgrows it (Figure 8). Lives inside the requesting device (the RNIC).
//
// The ATC is shared by every tenant behind the RNIC. It is the same
// TranslationCache as the IOTLB and attributes each entry to the tenant
// that installed it, but it sets no per-tenant share (docs/TENANCY.md).
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/translation_cache.h"
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
  /// The tenant tag attributes the entries installed in the ATC and the
  /// IOTLB for share enforcement. The one-page case of translate_run().
  StatusOr<Lookup> translate(IoVa iova, TenantId tenant = kHostTenant);

  /// What translate_run() did with each page of a run.
  struct RunCounts {
    std::uint64_t atc_hits = 0;
    std::uint64_t iotlb_hits = 0;  // ATS round trips the IOTLB served
    std::uint64_t walks = 0;       // ATS round trips that walked the table
    std::uint64_t failed = 0;      // unknown requester or unmapped page
  };

  /// Translate the `pages` 4 KiB pages from `first` on behalf of `tenant`,
  /// against the real ATC and IOTLB state, exactly as one translate() per
  /// page would. The run is walked a chunk at a time: an ATC hit chunk is
  /// one cache operation, and an ATC miss chunk one Iommu::resolve_run plus
  /// one ATC install per chunk it translates. The requester check is done
  /// once per run.
  RunCounts translate_run(IoVa first, std::uint64_t pages,
                          TenantId tenant = kHostTenant) {
    return run(first, pages, tenant, nullptr);
  }

  /// ATS invalidation from the RC; HostPcie sends one on every IOMMU
  /// flush (each unmap).
  void invalidate_all() { cache_.clear(); }

  /// The cache and its per-tenant occupancy ledger, read-only.
  const TranslationCache& cache() const { return cache_; }

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }

 private:
  /// The core of translate() and translate_run(); stores the last page's
  /// HPA in `*last_hpa` when that is not null.
  RunCounts run(IoVa first, std::uint64_t pages, TenantId tenant,
                Hpa* last_hpa);

  HostPcie* fabric_;
  Bdf owner_;
  TranslationCache cache_;
};

}  // namespace stellar
