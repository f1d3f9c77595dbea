// Extended Page Table: the hardware-assisted GPA -> HPA mapping the
// hypervisor registers with the MMU (Figure 1(a)).
//
// In the simulation the EPT also tracks which guest-physical ranges are
// *direct-mapped device registers* (e.g. the vStellar virtual Doorbell),
// because the PVDMA conflict of Figure 5 is precisely an overlap between a
// 4 KiB EPT register mapping and a 2 MiB PVDMA IOMMU block.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "memory/address.h"
#include "memory/range_map.h"

namespace stellar {

class Ept {
 public:
  enum class Kind { kRam, kDeviceRegister };

  Status map(Gpa gpa, Hpa hpa, std::uint64_t len, Kind kind = Kind::kRam) {
    Status s = table_.map(gpa, hpa, len);
    if (!s.is_ok()) return s;
    if (kind == Kind::kDeviceRegister) (void)registers_.map(gpa, hpa, len);
    return Status::ok();
  }

  Status unmap(Gpa gpa) {
    (void)registers_.unmap(gpa);  // not-found is fine for plain RAM ranges
    return table_.unmap(gpa);
  }

  /// Replace the mapping of [gpa, gpa+len) (which must lie inside an
  /// existing range) with a device-register mapping to `hpa`. Models the
  /// hypervisor direct-mapping a doorbell into a guest RAM hole.
  Status map_register_hole(Gpa gpa, Hpa hpa, std::uint64_t len) {
    Status s = table_.carve(gpa, len);
    if (!s.is_ok()) return s;
    return map(gpa, hpa, len, Kind::kDeviceRegister);
  }

  /// Undo map_register_hole: restore the RAM mapping to `ram_hpa`.
  Status restore_ram(Gpa gpa, Hpa ram_hpa, std::uint64_t len) {
    Status s = unmap(gpa);
    if (!s.is_ok()) return s;
    return map(gpa, ram_hpa, len, Kind::kRam);
  }

  /// Re-back [gpa, gpa+len) with a different HPA frame — what a host swap
  /// out / fault-in cycle does to an unpinned guest page (§3.1(2)).
  Status remap_ram(Gpa gpa, Hpa new_hpa, std::uint64_t len) {
    Status s = table_.carve(gpa, len);
    if (!s.is_ok()) return s;
    return map(gpa, new_hpa, len, Kind::kRam);
  }

  StatusOr<Hpa> translate(Gpa gpa) const { return table_.translate(gpa); }

  /// Visit the EPT-mapped 4 KiB pages of [gpa, gpa+len) as runs, one per
  /// EPT range, in ascending order: fn(run_gpa, run_hpa, run_len) returns
  /// false to stop the walk. A page counts as mapped iff its first byte
  /// translates, and its HPA is that byte's translation, so the runs hold
  /// exactly the pages a page-by-page translate() walk would find — at one
  /// range lookup per run instead of one per page. `gpa` and `len` must be
  /// page-aligned.
  template <typename Fn>
  void for_each_run(Gpa gpa, std::uint64_t len, Fn&& fn) const {
    const std::uint64_t end = gpa.value() + len;
    std::uint64_t cur = gpa.value();
    while (cur < end) {
      const auto range = table_.range_at_or_after(Gpa{cur});
      if (!range) return;
      const std::uint64_t first =
          std::max(cur, range->start.align_up(kPage4K).value());
      if (first >= end) return;
      const std::uint64_t stop =
          std::min(range->start.value() + range->len, end);
      if (first < stop) {
        // Round up: a range ending mid-page still owns that page's start.
        const std::uint64_t run_len =
            (stop - first + kPage4K - 1) & ~(kPage4K - 1);
        if (!fn(Gpa{first}, range->dst + (first - range->start.value()),
                run_len)) {
          return;
        }
        cur = first + run_len;
      } else {
        cur = first;  // the range holds no page start: skip past it
      }
    }
  }

  bool contains(Gpa gpa) const { return table_.contains(gpa); }

  /// Does [gpa, gpa+len) overlap any direct-mapped device register range?
  bool overlaps_device_register(Gpa gpa, std::uint64_t len) const {
    return registers_.overlaps(gpa, len);
  }

  std::uint64_t mapped_bytes() const { return table_.mapped_bytes(); }
  std::size_t range_count() const { return table_.range_count(); }

  /// Checkpoint/restore of the full GPA->HPA table plus the
  /// device-register subset. For a backend hot-upgrade the guest keeps its
  /// physical frames, so the restored table is exact.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& e) {
    ar(e.table_, e.registers_);
  }

  /// Live migration, after a restore: the destination host backs the guest
  /// with a different physical window. HPAs inside the old backing window
  /// [old_base, old_base+old_len) are rebased by `delta = new_base -
  /// old_base`, and device-register windows (host MMIO of the *source*
  /// host's RNIC BARs) are dropped — the destination re-maps them when it
  /// re-creates the virtual devices.
  void rebase(std::int64_t delta, Hpa old_base, std::uint64_t old_len) {
    const RangeMap<Gpa, Hpa> table = std::move(table_);
    table_.clear();
    for (const auto& [start, e] : table) {
      if (registers_.contains(Gpa{start})) continue;
      Hpa dst = e.dst;
      if (dst.value() >= old_base.value() &&
          dst.value() < old_base.value() + old_len) {
        dst = Hpa{static_cast<std::uint64_t>(
            static_cast<std::int64_t>(dst.value()) + delta)};
      }
      (void)table_.map(Gpa{start}, dst, e.len);
    }
    registers_.clear();
  }

 private:
  RangeMap<Gpa, Hpa> table_;
  RangeMap<Gpa, Hpa> registers_;  // subset of table_: device registers
};

}  // namespace stellar
