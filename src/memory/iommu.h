// IOMMU model: the DMA-remapping unit in the PCIe Root Complex.
//
// Carries (a) the IoVa->HPA page table programmed by the hypervisor/driver,
// (b) a capacity-bounded IOTLB whose misses cost a page walk, and (c) the
// pin-cost model that dominates RunD container start-up in the paper
// (1.6 TB pinned in ~390 s => ~0.9 us per 4 KiB page).
//
// Multi-tenant isolation (docs/TENANCY.md): both shared resources the IOMMU
// owns are attributable and budgetable per tenant —
//   * the IOTLB, a share-capped TranslationCache: a tenant at its share cap
//     evicts its *own* LRU entry instead of a neighbor's (so an IOTLB-thrash
//     scan cannot flush other tenants' hot translations);
//   * pinned bytes: note_pinned()/note_unpinned() take the responsible
//     tenant, and a host-wide pin_capacity_bytes models the finite pin
//     budget that a pin-pressure flood exhausts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/status.h"
#include "common/tenant_ledger.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/range_map.h"
#include "memory/translation_cache.h"

namespace stellar {

inline constexpr SimTime kIotlbHitLatency = SimTime::nanos(20);
// IOTLB miss penalty.
inline constexpr SimTime kPageWalkLatency = SimTime::nanos(250);
// Pin model calibrated to the paper: 390 s / (1.6 TiB / 4 KiB pages).
inline constexpr SimTime kPinPerPage = SimTime::nanos(900);
inline constexpr SimTime kPinCallOverhead = SimTime::micros(10);

struct IommuConfig {
  std::size_t iotlb_capacity = 8192;            // 4 KiB-page entries
  /// Host-wide ceiling on pinned bytes (0 = unlimited). Pinning beyond it
  /// is transient pressure: it lifts when another tenant unpins.
  std::uint64_t pin_capacity_bytes = 0;
};

class Iommu {
 public:
  explicit Iommu(IommuConfig config = {})
      : config_(config), iotlb_(config.iotlb_capacity) {}

  // -- Table programming (hypervisor / PVDMA side) --------------------------

  Status map(IoVa iova, Hpa hpa, std::uint64_t len) {
    return table_.map(iova, hpa, len);
  }

  /// Remove the mapping starting at `iova`. Returns kNotFound when no
  /// mapping starts there — a double-unmap is a caller bug (a pin-lifecycle
  /// violation the auditors flag), not a tolerated race. The IOTLB is
  /// shot down either way: conservative full invalidation, matching the
  /// whole-IOTLB flush real drivers issue on teardown.
  Status unmap(IoVa iova) {
    const Status s = table_.unmap(iova);
    clear_iotlb();
    if (!s.is_ok()) {
      return not_found("Iommu::unmap: no mapping starts at this IoVa");
    }
    return Status::ok();
  }

  /// Remove every mapping fully contained in [iova, iova+len) — used by
  /// PVDMA block teardown, where a block was registered as several
  /// contiguous runs. Returns the number of mappings removed: zero means
  /// the window was already empty (a likely double-unpin).
  std::size_t unmap_range(IoVa iova, std::uint64_t len) {
    const std::size_t removed = table_.unmap_contained(iova, len);
    clear_iotlb();
    return removed;
  }

  /// Run `hook` after every IOTLB flush (each unmap and unmap_range).
  /// HostPcie forwards it to the device ATCs as an ATS invalidation.
  void set_flush_hook(std::function<void()> hook) {
    flush_hook_ = std::move(hook);
  }

  bool is_mapped(IoVa iova) const { return table_.contains(iova); }
  bool covers(IoVa iova, std::uint64_t len) const {
    return table_.covers(iova, len);
  }

  // -- Translation (device side, via ATS or untranslated TLPs) --------------

  struct Translation {
    Hpa hpa;
    SimTime latency;   // IOTLB hit latency or page-walk penalty
    bool iotlb_hit = false;
  };

  /// Translate on behalf of `tenant`. The tenant tag only affects IOTLB
  /// bookkeeping: the installed entry is attributed to the tenant, and if
  /// the tenant has an IOTLB share cap and is at it, its own LRU entry is
  /// evicted to make room (never a neighbor's). The one-page resolve_run().
  StatusOr<Translation> translate(IoVa iova, TenantId tenant = kHostTenant) {
    std::optional<Translation> out;
    resolve_run(iova, 1, tenant,
                [&](IoVa, Hpa hpa, std::uint64_t, bool iotlb_hit) {
                  out = Translation{
                      hpa, iotlb_hit ? kIotlbHitLatency : kPageWalkLatency,
                      iotlb_hit};
                });
    if (out) return *out;
    return not_found("Iommu::translate: unmapped");
  }

  /// What resolve_run() did with the pages of a run.
  struct RunCounts {
    std::uint64_t iotlb_hits = 0;
    std::uint64_t walks = 0;   // IOTLB misses that walked the table
    std::uint64_t failed = 0;  // IOTLB misses on unmapped pages
  };

  /// Translate the `pages` 4 KiB pages from `first` for `tenant`, exactly
  /// as translating each page in turn would: the IOTLB serves its hit
  /// chunks, and each miss chunk walks the table one mapped range at a
  /// time, counting a page walk per page and installing the range's pages
  /// in the IOTLB as one chunk; unmapped pages fail. `sink(page, hpa, n,
  /// iotlb_hit)` gets each translated chunk in address order: its first
  /// page, the HPA of that page's address (`first` itself for the run's
  /// first page; the chunk's later pages follow 4 KiB apart) and its
  /// length. `first` may sit inside its page only when `pages` is 1. An ATC
  /// miss chunk (pcie/atc.cc) is one call.
  template <typename Sink>
  RunCounts resolve_run(IoVa first, std::uint64_t pages, TenantId tenant,
                        Sink&& sink) {
    RunCounts n;
    const IoVa first_page = first.align_down(kPage4K);
    // The address a chunk starting at `page` translates.
    const auto address = [&](IoVa page) {
      return page == first_page ? first : page;
    };
    iotlb_.walk(
        first_page, pages,
        [&](IoVa page, Hpa hpa, std::uint64_t k) {
          n.iotlb_hits += k;
          sink(page, hpa + address(page).page_offset(kPage4K), k, true);
        },
        [&](IoVa page, std::uint64_t k) {
          while (k != 0) {
            const IoVa at = address(page);
            const std::optional<RangeMap<IoVa, Hpa>::Range> range =
                table_.range_at_or_after(at);
            const bool mapped = range && range->start <= at;
            // Pages up to the end of the mapped range, or to the start of
            // the next one.
            const std::uint64_t limit =
                !range ? page.value() + k * kPage4K
                       : (mapped ? range->start + range->len : range->start)
                             .value();
            const std::uint64_t m = std::min(
                k, (limit - page.value() + kPage4K - 1) / kPage4K);
            if (mapped) {
              const Hpa hpa = range->dst + (at - range->start);
              page_walks_ += m;
              n.walks += m;
              iotlb_.install(page, hpa.align_down(kPage4K), m, tenant);
              sink(page, hpa, m, false);
            } else {
              n.failed += m;
            }
            page = page + m * kPage4K;
            k -= m;
          }
        });
    return n;
  }

  /// Cap one tenant's IOTLB residency at `max_entries` (0 = uncapped).
  void set_iotlb_share(TenantId tenant, std::size_t max_entries) {
    iotlb_.set_share(tenant, max_entries);
  }
  /// The IOTLB and its per-tenant occupancy ledger, read-only.
  const TranslationCache& iotlb() const { return iotlb_; }

  // -- Pinning cost model ----------------------------------------------------

  /// Time the hypervisor spends pinning `bytes` of guest memory (page-by-
  /// page IOMMU map + page-table walk on the host).
  SimTime pin_cost(std::uint64_t bytes) const {
    const std::uint64_t pages = (bytes + kPage4K - 1) / kPage4K;
    return kPinCallOverhead + kPinPerPage * static_cast<std::int64_t>(pages);
  }

  /// Would pinning `bytes` more stay within the host-wide pin capacity?
  /// Always true when pin_capacity_bytes is 0 (unlimited).
  bool pin_capacity_available(std::uint64_t bytes) const {
    return config_.pin_capacity_bytes == 0 ||
           pinned_bytes_ + bytes <= config_.pin_capacity_bytes;
  }

  void note_pinned(std::uint64_t bytes, TenantId tenant = kHostTenant) {
    pinned_bytes_ += bytes;
    pinned_by_tenant_.add(tenant, bytes);
  }
  void note_unpinned(std::uint64_t bytes, TenantId tenant = kHostTenant) {
    pinned_bytes_ -= bytes < pinned_bytes_ ? bytes : pinned_bytes_;
    pinned_by_tenant_.sub(tenant, bytes);
  }
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  std::uint64_t pinned_bytes(TenantId tenant) const {
    return pinned_by_tenant_.get(tenant);
  }
  /// (tenant, pinned bytes) pairs in ascending tenant order.
  const TenantLedger& pinned_by_tenant() const { return pinned_by_tenant_; }

  // -- Introspection ---------------------------------------------------------

  std::uint64_t iotlb_hits() const { return iotlb_.hits(); }
  std::uint64_t iotlb_misses() const { return iotlb_.misses(); }
  std::uint64_t page_walks() const { return page_walks_; }
  std::size_t mapped_ranges() const { return table_.range_count(); }
  std::uint64_t mapped_bytes() const { return table_.mapped_bytes(); }
  const RangeMap<IoVa, Hpa>& table() const { return table_; }

 private:
  void clear_iotlb() {
    iotlb_.clear();
    if (flush_hook_) flush_hook_();
  }

  friend struct IommuTestPeer;  // corruption injection in audit tests

  IommuConfig config_;
  RangeMap<IoVa, Hpa> table_;
  TranslationCache iotlb_;
  std::uint64_t page_walks_ = 0;
  std::uint64_t pinned_bytes_ = 0;
  TenantLedger pinned_by_tenant_;
  std::function<void()> flush_hook_;
};

}  // namespace stellar
