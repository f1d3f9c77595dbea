#include "memory/translation_cache.h"

#include <bit>
#include <utility>

namespace stellar {

void TranslationCache::install(IoVa first, Hpa hpa, std::uint64_t pages,
                               TenantId tenant) {
  if (capacity_ == 0 || pages == 0) return;
  std::uint64_t page = first.value() >> kPageShift;
  std::uint64_t hpa_page = hpa.value() >> kPageShift;
  const auto share = share_.find(tenant);
  const std::size_t cap = share == share_.end() ? 0 : share->second;
  std::size_t& own = occupancy_[tenant];
  // Each step puts `n` pages at the head, then evicts `n` pages that a
  // page-at-a-time install would have evicted: the same pages, because
  // each installed page is more recent than every page evicted before it.
  // A step ends wherever that per-page choice of victim could change: at
  // the share cap, and (under a cap) at the end of the tail extent. New
  // pages the step itself would evict again are counted, never stored.
  while (pages != 0) {
    std::uint64_t n = pages;
    if (cap != 0 && own >= cap) {
      // At its share: each page displaces the tenant's own coldest page,
      // so the cache does not grow and the tail is never touched.
      const std::uint64_t doomed = n > own ? n - own : 0;
      self_evictions_ += n;
      evictions_ += doomed;
      page += doomed;
      hpa_page += doomed;
      pages -= doomed;
      n -= doomed;
      append(page, hpa_page, n, tenant);
      std::uint32_t e = tail_;
      for (std::uint64_t left = n; left != 0;) {
        while (extents_[e].tenant != tenant) e = extents_[e].prev;
        const std::uint32_t warmer = extents_[e].prev;
        const std::uint64_t cut = std::min(left, extents_[e].pages);
        trim(e, cut);
        left -= cut;
        e = warmer;
      }
    } else if (size_ < capacity_) {
      n = std::min<std::uint64_t>(n, capacity_ - size_);
      if (cap != 0) n = std::min<std::uint64_t>(n, cap - own);
      append(page, hpa_page, n, tenant);
      own += n;
    } else {
      // Full: each page evicts the LRU page. Evicting a neighbor's page
      // brings the tenant one page nearer its cap.
      const std::uint32_t lru = tail_;
      if (cap != 0 && extents_[lru].tenant != tenant) {
        n = std::min<std::uint64_t>({n, extents_[lru].pages, cap - own});
      } else if (cap != 0 && lru != head_) {
        n = std::min(n, extents_[lru].pages);
      } else if (n > capacity_) {
        // Only the last `capacity_` pages outlive the step.
        const std::uint64_t doomed = n - capacity_;
        evictions_ += doomed;
        page += doomed;
        hpa_page += doomed;
        pages -= doomed;
        n -= doomed;
      }
      append(page, hpa_page, n, tenant);
      own += n;
      for (std::uint64_t left = n; left != 0;) {
        const std::uint32_t e = tail_;
        const TenantId victim = extents_[e].tenant;
        const std::uint64_t cut = std::min(left, extents_[e].pages);
        trim(e, cut);
        if (victim == tenant) {
          own -= cut;
        } else {
          debit(victim, cut);
        }
        left -= cut;
      }
    }
    page += n;
    hpa_page += n;
    pages -= n;
  }
  if (own == 0) occupancy_.erase(tenant);
}

void TranslationCache::clear() {
  for (std::uint32_t e = head_; e != kNil;) {
    const std::uint32_t next = extents_[e].next;
    uncover(extents_[e].first, extents_[e].pages);
    free_extent(e);
    e = next;
  }
  head_ = tail_ = kNil;
  size_ = 0;
  occupancy_.clear();
}

std::uint64_t TranslationCache::absent_run(std::uint64_t page,
                                           std::uint64_t end) const {
  std::uint64_t p = page;
  while (p < end) {
    const std::uint64_t key = p >> kBlockShift;
    const std::uint64_t stop = std::min(end, (key + 1) << kBlockShift);
    const std::uint32_t b = find_block(key);
    if (b != kNil) {
      for (; p < stop; ++p) {
        if (holder(blocks_[b], p) != kNil) return p - page;
      }
    }
    p = stop;
  }
  return end - page;
}

Hpa TranslationCache::promote(std::uint32_t e, std::uint64_t page,
                              std::uint64_t n) {
  const Extent x = extents_[e];  // new records may move extents_
  const std::uint64_t hpa = x.hpa + (page - x.first);
  const std::uint64_t below = page - x.first;
  const std::uint64_t above = x.end() - (page + n);
  if (above == 0 && e == head_) return Hpa{hpa << kPageShift};
  if (below == 0 && above == 0) {
    unlink(e);
    link_front(e);
  } else {
    STELLAR_TRACE_ONLY(++work_.extents_split;)
    // The pieces left behind keep e's place in the list, the one above the
    // chunk (more recent) first. The largest piece keeps the record, so the
    // index is relabelled for the other pieces only.
    const std::uint64_t top = page + n;
    if (n >= below && n >= above) {
      if (above != 0) {
        const std::uint32_t r =
            new_extent(top, x.hpa + (top - x.first), above, x.tenant);
        link_before(e, r);
        label(top, above, r, false);
      }
      if (below != 0) {
        const std::uint32_t l = new_extent(x.first, x.hpa, below, x.tenant);
        link_after(e, l);
        label(x.first, below, l, false);
      }
      extents_[e].first = page;
      extents_[e].hpa = hpa;
      extents_[e].pages = n;
      unlink(e);
      link_front(e);
    } else {
      const std::uint32_t m = new_extent(page, hpa, n, x.tenant);
      label(page, n, m, false);
      if (above >= below) {
        if (below != 0) {
          const std::uint32_t l = new_extent(x.first, x.hpa, below, x.tenant);
          link_after(e, l);
          label(x.first, below, l, false);
        }
        extents_[e].first = top;
        extents_[e].hpa = x.hpa + (top - x.first);
        extents_[e].pages = above;
      } else {
        if (above != 0) {
          const std::uint32_t r =
              new_extent(top, x.hpa + (top - x.first), above, x.tenant);
          link_before(e, r);
          label(top, above, r, false);
        }
        extents_[e].pages = below;
      }
      link_front(m);
    }
  }
  merge_head();
  return Hpa{hpa << kPageShift};
}

void TranslationCache::append(std::uint64_t page, std::uint64_t hpa,
                              std::uint64_t n, TenantId tenant) {
  size_ += n;
  if (head_ != kNil) {
    Extent& h = extents_[head_];
    if (h.tenant == tenant && h.end() == page && h.hpa + h.pages == hpa) {
      STELLAR_TRACE_ONLY(++work_.extents_merged;)
      h.pages += n;
      label(page, n, head_, true);
      return;
    }
  }
  const std::uint32_t e = new_extent(page, hpa, n, tenant);
  link_front(e);
  label(page, n, e, true);
}

void TranslationCache::merge_head() {
  const std::uint32_t hi = head_;
  const std::uint32_t lo = extents_[hi].next;
  if (lo == kNil) return;
  Extent& a = extents_[lo];
  Extent& b = extents_[hi];
  if (a.tenant != b.tenant || a.end() != b.first ||
      a.hpa + a.pages != b.hpa) {
    return;
  }
  STELLAR_TRACE_ONLY(++work_.extents_merged;)
  if (a.pages >= b.pages) {
    label(b.first, b.pages, lo, false);
    a.pages += b.pages;
    unlink(hi);
    free_extent(hi);
  } else {
    label(a.first, a.pages, hi, false);
    b.first = a.first;
    b.hpa = a.hpa;
    b.pages += a.pages;
    unlink(lo);
    free_extent(lo);
  }
}

void TranslationCache::trim(std::uint32_t e, std::uint64_t n) {
  Extent& x = extents_[e];
  uncover(x.first, n);
  x.first += n;
  x.hpa += n;
  x.pages -= n;
  size_ -= n;
  evictions_ += n;
  if (x.pages == 0) {
    STELLAR_TRACE_ONLY(++work_.extents_evicted;)
    unlink(e);
    free_extent(e);
  }
}

void TranslationCache::debit(TenantId tenant, std::uint64_t n) {
  auto it = occupancy_.find(tenant);
  if (it == occupancy_.end()) return;
  it->second -= n;
  if (it->second == 0) occupancy_.erase(it);
}

// -- Extent records and the recency list ------------------------------------

std::uint32_t TranslationCache::new_extent(std::uint64_t page,
                                           std::uint64_t hpa, std::uint64_t n,
                                           TenantId tenant) {
  std::uint32_t e = free_extent_;
  if (e != kNil) {
    free_extent_ = extents_[e].next;
  } else {
    e = static_cast<std::uint32_t>(extents_.size());
    extents_.emplace_back();
  }
  extents_[e] = Extent{page, hpa, n, tenant, kNil, kNil};
  return e;
}

void TranslationCache::free_extent(std::uint32_t e) {
  extents_[e].pages = 0;
  extents_[e].next = free_extent_;
  free_extent_ = e;
}

void TranslationCache::unlink(std::uint32_t e) {
  const Extent& x = extents_[e];
  (x.prev == kNil ? head_ : extents_[x.prev].next) = x.next;
  (x.next == kNil ? tail_ : extents_[x.next].prev) = x.prev;
}

void TranslationCache::link_front(std::uint32_t e) {
  extents_[e].prev = kNil;
  extents_[e].next = head_;
  (head_ == kNil ? tail_ : extents_[head_].prev) = e;
  head_ = e;
}

void TranslationCache::link_before(std::uint32_t at, std::uint32_t e) {
  const std::uint32_t prev = extents_[at].prev;
  extents_[e].prev = prev;
  extents_[e].next = at;
  (prev == kNil ? head_ : extents_[prev].next) = e;
  extents_[at].prev = e;
}

void TranslationCache::link_after(std::uint32_t at, std::uint32_t e) {
  const std::uint32_t next = extents_[at].next;
  extents_[e].prev = at;
  extents_[e].next = next;
  (next == kNil ? tail_ : extents_[next].prev) = e;
  extents_[at].next = e;
}

// -- Index ------------------------------------------------------------------

void TranslationCache::label(std::uint64_t page, std::uint64_t n,
                             std::uint32_t e, bool newly) {
  for (const std::uint64_t end = page + n; page < end;) {
    const std::uint64_t key = page >> kBlockShift;
    const std::uint64_t stop = std::min(end, (key + 1) << kBlockShift);
    std::uint32_t b = find_block(key);
    if (b == kNil) b = add_block(key);
    Block& block = blocks_[b];
    if (newly) block.covered += static_cast<std::uint32_t>(stop - page);
    std::fill(block.slot.begin() + (page & (kBlockPages - 1)),
              block.slot.begin() + ((stop - 1) & (kBlockPages - 1)) + 1, e);
    page = stop;
  }
}

void TranslationCache::uncover(std::uint64_t page, std::uint64_t n) {
  for (const std::uint64_t end = page + n; page < end;) {
    const std::uint64_t key = page >> kBlockShift;
    const std::uint64_t stop = std::min(end, (key + 1) << kBlockShift);
    const std::uint32_t b = find_block(key);
    Block& block = blocks_[b];
    block.covered -= static_cast<std::uint32_t>(stop - page);
    page = stop;
    if (block.covered != 0) continue;
    // Unindex with a backward shift: each later entry of the probe run
    // moves into the hole unless its home lies cyclically after the hole,
    // so every run stays unbroken without tombstones.
    std::size_t hole = home(key);
    while (bslots_[hole] != b) hole = (hole + 1) & mask();
    for (std::size_t j = (hole + 1) & mask(); bslots_[j] != kNil;
         j = (j + 1) & mask()) {
      const std::size_t h = home(blocks_[bslots_[j]].key);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        bslots_[hole] = bslots_[j];
        hole = j;
      }
    }
    bslots_[hole] = kNil;
    --indexed_blocks_;
    block.next_free = free_block_;
    free_block_ = b;
  }
}

std::uint32_t TranslationCache::add_block(std::uint64_t key) {
  std::uint32_t b = free_block_;
  if (b != kNil) {
    free_block_ = blocks_[b].next_free;
  } else {
    b = static_cast<std::uint32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  blocks_[b].key = key;
  ++indexed_blocks_;
  if (indexed_blocks_ * 2 > bslots_.size()) grow_index();
  place(b);
  return b;
}

void TranslationCache::place(std::uint32_t b) {
  std::size_t i = home(blocks_[b].key);
  while (bslots_[i] != kNil) i = (i + 1) & mask();
  bslots_[i] = b;
}

void TranslationCache::grow_index() {
  std::vector<std::uint32_t> old = std::move(bslots_);
  const std::size_t n = old.empty() ? kMinSlots : old.size() * 2;
  bslots_.assign(n, kNil);
  shift_ = 64 - std::countr_zero(n);
  for (const std::uint32_t b : old) {
    if (b != kNil) place(b);
  }
}

}  // namespace stellar
