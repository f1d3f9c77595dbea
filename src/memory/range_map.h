// Range-based address mapping: the building block for every page table in
// the simulation (guest PT, host PT, EPT, IOMMU table, MTT).
//
// Stores disjoint source ranges [start, start+len) each mapped linearly to
// a destination base. Range granularity (instead of per-page entries) keeps
// a 1.6 TB container mapping to a handful of nodes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/status.h"
#include "memory/address.h"

namespace stellar {

template <typename Src, typename Dst>
class RangeMap {
 public:
  struct Entry {
    std::uint64_t len = 0;
    Dst dst;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& e) {
      ar(e.len, e.dst);
    }
  };

  /// Map [src, src+len) -> [dst, dst+len). Fails on any overlap with an
  /// existing range (page tables never silently re-map).
  Status map(Src src, Dst dst, std::uint64_t len) {
    if (len == 0) return invalid_argument("RangeMap::map: zero length");
    // One descent: the range after `src` both bounds the overlap check and
    // is the insert position.
    auto next = ranges_.upper_bound(src.value());
    if (overlaps_at(next, src.value(), len)) {
      return already_exists("RangeMap::map: overlapping mapping");
    }
    ranges_.emplace_hint(next, src.value(), Entry{len, dst});
    return Status::ok();
  }

  /// Remove the range that starts exactly at `src`.
  Status unmap(Src src) {
    auto it = ranges_.find(src.value());
    if (it == ranges_.end()) {
      return not_found("RangeMap::unmap: no range starts here");
    }
    ranges_.erase(it);
    return Status::ok();
  }

  /// Remove every range fully contained in [src, src+len). Returns how many
  /// ranges were removed, so callers can tell an effective teardown from a
  /// double-unmap of an already-empty window.
  std::size_t unmap_contained(Src src, std::uint64_t len) {
    std::size_t removed = 0;
    auto it = ranges_.lower_bound(src.value());
    while (it != ranges_.end() && it->first + it->second.len <= src.value() + len) {
      it = ranges_.erase(it);
      ++removed;
    }
    return removed;
  }

  /// Split the range containing [src, src+len) and remove exactly that
  /// window, keeping the left/right remainders mapped. Used to punch a
  /// device-register hole into a large RAM mapping.
  Status carve(Src src, std::uint64_t len) {
    auto it = ranges_.upper_bound(src.value());
    if (it == ranges_.begin()) return not_found("RangeMap::carve: unmapped");
    --it;
    const std::uint64_t start = it->first;
    const Entry e = it->second;
    if (start + e.len <= src.value()) {
      return not_found("RangeMap::carve: unmapped");
    }
    if (src.value() + len > start + e.len) {
      return out_of_range("RangeMap::carve: window spans range end");
    }
    ranges_.erase(it);
    if (src.value() > start) {
      ranges_.emplace(start, Entry{src.value() - start, e.dst});
    }
    const std::uint64_t right = src.value() + len;
    if (right < start + e.len) {
      ranges_.emplace(right,
                      Entry{start + e.len - right, e.dst + (right - start)});
    }
    return Status::ok();
  }

  /// Translate a single address.
  StatusOr<Dst> translate(Src src) const {
    if (const std::optional<Dst> dst = lookup(src)) return *dst;
    return not_found("RangeMap::translate: unmapped");
  }

  /// translate() without a Status, for per-page loops: nullopt when `src`
  /// is unmapped.
  std::optional<Dst> lookup(Src src) const {
    auto it = find_containing(src.value());
    if (it == ranges_.end()) return std::nullopt;
    return it->second.dst + (src.value() - it->first);
  }

  /// One mapped range: [start, start+len) -> [dst, dst+len).
  struct Range {
    Src start;
    std::uint64_t len = 0;
    Dst dst;
  };

  /// The range containing `src`, or else the lowest range starting above
  /// it; nullopt when nothing is mapped at or above `src`. Lets callers
  /// walk a window one range at a time instead of one address at a time.
  std::optional<Range> range_at_or_after(Src src) const {
    auto it = ranges_.upper_bound(src.value());
    if (it != ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.len > src.value()) it = prev;
    }
    if (it == ranges_.end()) return std::nullopt;
    return Range{Src{it->first}, it->second.len, it->second.dst};
  }

  /// True iff the whole of [src, src+len) is covered (possibly by several
  /// contiguous ranges).
  bool covers(Src src, std::uint64_t len) const {
    std::uint64_t cur = src.value();
    const std::uint64_t end = src.value() + len;
    while (cur < end) {
      auto it = find_containing(cur);
      if (it == ranges_.end()) return false;
      cur = it->first + it->second.len;
    }
    return true;
  }

  bool contains(Src src) const {
    return find_containing(src.value()) != ranges_.end();
  }

  bool overlaps(Src src, std::uint64_t len) const {
    if (len == 0) return false;
    return overlaps_at(ranges_.upper_bound(src.value()), src.value(), len);
  }

  std::size_t range_count() const { return ranges_.size(); }

  std::uint64_t mapped_bytes() const {
    std::uint64_t total = 0;
    for (const auto& [start, e] : ranges_) total += e.len;
    return total;
  }

  void clear() { ranges_.clear(); }

  /// Checkpoint/restore: ranges are already kept in address order, so the
  /// bytes are deterministic. A restore replaces the whole table.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& m) {
    ar(m.ranges_);
  }

  /// Iterate (start, Entry) pairs in address order.
  auto begin() const { return ranges_.begin(); }
  auto end() const { return ranges_.end(); }

 private:
  using Map = std::map<std::uint64_t, Entry>;

  typename Map::const_iterator find_containing(std::uint64_t v) const {
    auto it = ranges_.upper_bound(v);
    if (it == ranges_.begin()) return ranges_.end();
    --it;
    if (it->first + it->second.len <= v) return ranges_.end();
    return it;
  }

  /// Does [v, v+len) overlap a range? `next` is ranges_.upper_bound(v).
  bool overlaps_at(typename Map::const_iterator next, std::uint64_t v,
                   std::uint64_t len) const {
    if (next != ranges_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second.len > v) return true;
    }
    return next != ranges_.end() && next->first < v + len;
  }

  Map ranges_;
};

}  // namespace stellar
