// Share-capped translation cache: the page -> HPA cache behind both the
// IOMMU's IOTLB (memory/iommu.h) and every device ATC (pcie/atc.h).
//
// Either cache is shared by every tenant whose DMA goes through it, so a
// scan-patterned tenant could thrash out its neighbors' hot translations
// (docs/TENANCY.md). Every page carries the TenantId that installed it; a
// tenant with a configured share cap that is already at it evicts its *own*
// coldest page instead of the LRU page (which may be a neighbor's). The
// per-tenant occupancy ledger sums to size(); TenantIsolationAuditor checks
// that on the IOTLB and on each ATC.
//
// The cache behaves exactly as a per-page LRU of 4 KiB pages, but stores
// extents: runs of contiguous pages with contiguous HPAs and one installing
// tenant, whose recency increases with address (an extent's highest page is
// its most recent). The recency list is a list of extents, MRU first, so a
// GDR transfer that touches a few extents costs a few list operations
// however many pages it spans:
//  * walk() splits a run of pages into hit chunks (cached pages of one
//    extent, moved to the head as one extent; the source splits into at
//    most two pieces) and miss chunks (handed to the caller, who resolves
//    and install()s them as one extent each);
//  * tail evictions, share-cap self-evictions and ledger debits trim
//    extents from their cold (low) end, a chunk at a time;
//  * a chunk joins the head extent when addresses, HPAs and tenant are all
//    contiguous or equal.
// The index from page to extent is two-level: an open-addressing table
// (power-of-two, load <= 1/2, Fibonacci hash, backward-shift deletion)
// from 64-page block to a block of 64 extent numbers. A slot is trusted
// only if its extent still covers the page, so evictions and clear() never
// rewrite slots; installs write one slot per page, and a split rewrites
// all but its largest piece (at most half the extent each, so a page is
// rewritten O(log) times while it stays). Blocks are pooled and freed once
// no extent covers them: storage grows with occupancy, and nothing
// allocates once the cache is warm.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/trace_only.h"
#include "common/units.h"
#include "memory/address.h"

namespace stellar {

class TranslationCache {
 public:
  /// `capacity` in 4 KiB pages.
  explicit TranslationCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up the `pages` 4 KiB pages from `first` (page-aligned) in address
  /// order, one chunk at a time, exactly as looking up each page in turn
  /// would (hits refresh recency; every page counts one hit or one miss):
  ///  * a hit chunk — cached pages of one extent — becomes the MRU pages,
  ///    and `on_hit(page, hpa, n)` gets its first page, that page's HPA and
  ///    its length;
  ///  * a miss chunk runs up to the next page that is cached when it
  ///    starts, and `on_miss(page, n)` may install() any of its pages.
  /// Each chunk is looked up after the previous callback returns, so a
  /// page that an install evicted before the walk reached it misses.
  template <typename OnHit, typename OnMiss>
  void walk(IoVa first, std::uint64_t pages, OnHit&& on_hit,
            OnMiss&& on_miss);

  /// Install `pages` pages from `first` -> `hpa` (both page-aligned) on
  /// behalf of `tenant`, as if each page were installed in turn after its
  /// miss: every page must be absent. A full cache evicts its LRU page per
  /// page installed; a tenant at its share cap evicts its own coldest page
  /// instead. A zero-capacity cache stores and credits nothing.
  void install(IoVa first, Hpa hpa, std::uint64_t pages, TenantId tenant);

  void clear();

  /// Cap one tenant's residency at `max_entries` (0 = uncapped).
  void set_share(TenantId tenant, std::size_t max_entries) {
    if (max_entries == 0) {
      share_.erase(tenant);
    } else {
      share_[tenant] = max_entries;
    }
  }

  /// Pages currently installed on behalf of `tenant`.
  std::size_t occupancy(TenantId tenant) const {
    auto it = occupancy_.find(tenant);
    return it == occupancy_.end() ? 0 : it->second;
  }
  const std::map<TenantId, std::size_t>& occupancy_by_tenant() const {
    return occupancy_;
  }
  /// Evictions where an over-share tenant displaced its own page.
  std::uint64_t self_evictions() const { return self_evictions_; }

  std::size_t size() const { return size_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Host work, counted only in traced builds (STELLAR_TRACE_ONLY) and all
  /// zero otherwise: the units a walk spends host time on.
  struct WorkCounts {
    std::uint64_t runs = 0;             // walk() calls
    std::uint64_t hit_chunks = 0;       // chunks served from one extent
    std::uint64_t miss_chunks = 0;      // chunks handed to on_miss
    std::uint64_t extents_split = 0;    // hit chunks cut out of an extent
    std::uint64_t extents_merged = 0;   // chunks joined to a neighbor
    std::uint64_t extents_evicted = 0;  // extents whose last page went
  };
  WorkCounts work() const {
    WorkCounts w;
    STELLAR_TRACE_ONLY(w = work_;)
    return w;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr int kPageShift = 12;
  static_assert(kPage4K == std::uint64_t{1} << kPageShift);
  static constexpr int kBlockShift = 6;
  static constexpr std::uint64_t kBlockPages = std::uint64_t{1}
                                               << kBlockShift;
  static constexpr std::size_t kMinSlots = 16;

  /// Pages [first, first + pages) -> HPA pages [hpa, hpa + pages).
  struct Extent {
    std::uint64_t first = 0;  // page number (IoVa >> 12)
    std::uint64_t hpa = 0;    // HPA page number of `first`
    std::uint64_t pages = 0;  // 0 while the record is free
    TenantId tenant = kHostTenant;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // also the free-list link
    std::uint64_t end() const { return first + pages; }
  };

  /// The extent numbers of 64 consecutive pages.
  struct Block {
    std::uint64_t key = 0;       // page >> kBlockShift
    std::uint32_t covered = 0;   // pages some extent covers
    std::uint32_t next_free = kNil;
    std::array<std::uint32_t, kBlockPages> slot;
    Block() { slot.fill(kNil); }
  };

  /// The extent holding `page`, or kNil.
  std::uint32_t find(std::uint64_t page) const {
    const std::uint32_t b = find_block(page >> kBlockShift);
    return b == kNil ? kNil : holder(blocks_[b], page);
  }
  std::uint32_t holder(const Block& b, std::uint64_t page) const {
    const std::uint32_t e = b.slot[page & (kBlockPages - 1)];
    return e != kNil && page - extents_[e].first < extents_[e].pages ? e
                                                                     : kNil;
  }
  /// Pages from `page` (absent) up to the first cached page or `end`.
  std::uint64_t absent_run(std::uint64_t page, std::uint64_t end) const;

  /// Make pages [page, page + n) of extent `e` the MRU pages, splitting
  /// `e`; returns the HPA of `page`.
  Hpa promote(std::uint32_t e, std::uint64_t page, std::uint64_t n);
  /// Put [page, page + n) -> [hpa, ...) for `tenant` at the head, joining
  /// the head extent when contiguous.
  void append(std::uint64_t page, std::uint64_t hpa, std::uint64_t n,
              TenantId tenant);
  /// Join the head extent to the next one when they are contiguous.
  void merge_head();
  /// Evict the `n` coldest pages of extent `e` (its lowest).
  void trim(std::uint32_t e, std::uint64_t n);
  void debit(TenantId tenant, std::uint64_t n);

  std::uint32_t new_extent(std::uint64_t page, std::uint64_t hpa,
                           std::uint64_t n, TenantId tenant);
  void free_extent(std::uint32_t e);
  void unlink(std::uint32_t e);
  void link_front(std::uint32_t e);
  void link_before(std::uint32_t at, std::uint32_t e);
  void link_after(std::uint32_t at, std::uint32_t e);

  // -- Index ----------------------------------------------------------------
  std::size_t mask() const { return bslots_.size() - 1; }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::uint32_t find_block(std::uint64_t key) const {
    if (bslots_.empty()) return kNil;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const std::uint32_t b = bslots_[i];
      if (b == kNil || blocks_[b].key == key) return b;
    }
  }
  /// Point the slots of [page, page + n) at `e`; `newly` when no extent
  /// covered them before (creates blocks and counts the coverage).
  void label(std::uint64_t page, std::uint64_t n, std::uint32_t e,
             bool newly);
  /// [page, page + n) is no longer covered: frees blocks left empty.
  void uncover(std::uint64_t page, std::uint64_t n);
  std::uint32_t add_block(std::uint64_t key);
  void place(std::uint32_t b);
  void grow_index();

  friend struct TranslationCacheTestPeer;  // ledger corruption in audit tests

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Extent> extents_;  // records; free ones hold pages == 0
  std::uint32_t head_ = kNil;    // MRU extent
  std::uint32_t tail_ = kNil;    // LRU extent
  std::uint32_t free_extent_ = kNil;
  std::vector<Block> blocks_;
  std::uint32_t free_block_ = kNil;
  std::size_t indexed_blocks_ = 0;
  std::vector<std::uint32_t> bslots_;  // block number or kNil
  int shift_ = 64;

  std::map<TenantId, std::size_t> share_;
  std::map<TenantId, std::size_t> occupancy_;
  std::uint64_t self_evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  STELLAR_TRACE_ONLY(WorkCounts work_;)
};

template <typename OnHit, typename OnMiss>
void TranslationCache::walk(IoVa first, std::uint64_t pages, OnHit&& on_hit,
                            OnMiss&& on_miss) {
  STELLAR_TRACE_ONLY(++work_.runs;)
  std::uint64_t page = first.value() >> kPageShift;
  const std::uint64_t end = page + pages;
  while (page < end) {
    const std::uint32_t e = find(page);
    std::uint64_t n;
    if (e != kNil) {
      n = std::min(end, extents_[e].end()) - page;
      hits_ += n;
      STELLAR_TRACE_ONLY(++work_.hit_chunks;)
      const Hpa hpa = promote(e, page, n);
      on_hit(IoVa{page << kPageShift}, hpa, n);
    } else {
      n = absent_run(page, end);
      misses_ += n;
      STELLAR_TRACE_ONLY(++work_.miss_chunks;)
      on_miss(IoVa{page << kPageShift}, n);
    }
    page += n;
  }
}

}  // namespace stellar
