// PVDMA Map Cache: tracks which fixed-size guest-physical blocks are
// already registered in the IOMMU (Figure 4, stage 3).
//
// A hit means the DMA can proceed immediately (memory already pinned); a
// miss triggers on-demand registration + pinning. Blocks carry a use count
// so PVDMA knows when an unmap would be safe — the paper's Figure 5 bug is
// exactly a block kept alive by one user (the GPU command queue) while a
// stale 4 KiB sub-mapping (the vDB) lingers inside it.
//
// The blocks live in a flat open-addressing table of (block, users) slots
// (power-of-two, load <= 1/2, Fibonacci hash, backward-shift deletion, as
// in translation_cache.h): a pin or unpin touches one slot and allocates
// nothing once the table has grown to the working set. It stays empty
// until the first insert.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "memory/address.h"

namespace stellar {

class MapCache {
 public:
  explicit MapCache(std::uint64_t block_size = kPage2M)
      : block_size_(block_size) {}

  std::uint64_t block_size() const { return block_size_; }

  Gpa block_of(Gpa gpa) const { return gpa.align_down(block_size_); }

  /// Is the block containing `gpa` registered? Counts hit/miss statistics.
  bool lookup(Gpa gpa) {
    const bool hit = find(block_of(gpa).value()) != nullptr;
    hit ? ++hits_ : ++misses_;
    return hit;
  }

  bool contains(Gpa gpa) const {
    return find(block_of(gpa).value()) != nullptr;
  }

  /// Register the block containing `gpa` with one initial user.
  void insert(Gpa gpa) { slot(block_of(gpa).value()).users = 1; }

  /// Another DMA consumer started using the block.
  void add_user(Gpa gpa) {
    if (Slot* s = find(block_of(gpa).value())) ++s->users;
  }

  /// A consumer finished. Returns true if the block is now unused and the
  /// caller may unmap/unpin it.
  bool release_user(Gpa gpa) {
    Slot* s = find(block_of(gpa).value());
    if (s == nullptr) return false;
    if (s->users > 0) --s->users;
    return s->users == 0;
  }

  std::uint32_t users(Gpa gpa) const {
    const Slot* s = find(block_of(gpa).value());
    return s == nullptr ? 0 : s->users;
  }

  void erase(Gpa gpa) {
    const std::uint64_t block = block_of(gpa).value();
    if (find(block) == nullptr) return;
    // Backward shift: each later slot of the probe run moves into the hole
    // unless its home lies cyclically after the hole, so every run stays
    // unbroken without tombstones.
    std::size_t hole = home(block);
    while (slots_[hole].block != block) hole = (hole + 1) & mask();
    for (std::size_t j = (hole + 1) & mask(); slots_[j].used;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].block);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Visit every resident block as (block-start GPA, user count) — the
  /// residency sweep the pin-accounting auditor performs. Visits in
  /// ascending block order: the table is unordered, and the callback may
  /// emit audit findings whose order must be deterministic.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const auto& [block, users] : sorted_blocks()) fn(Gpa{block}, users);
  }

  std::size_t block_count() const { return size_; }
  std::uint64_t registered_bytes() const { return size_ * block_size_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Checkpoint/restore: the block size (a restore fails unless it
  /// matches), hit/miss statistics, then the resident blocks as a u32
  /// count and (u64 block start, u32 users) pairs in ascending block
  /// order.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& c) {
    std::uint64_t block_size = c.block_size_;
    ar(block_size);
    if constexpr (Ar::kLoading) {
      if (block_size != c.block_size_) {
        return ar.fail(
            invalid_argument("MapCache::restore: block size mismatch"));
      }
    }
    ar(c.hits_, c.misses_);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> blocks;
    if constexpr (!Ar::kLoading) blocks = c.sorted_blocks();
    ar(blocks);
    if constexpr (Ar::kLoading) {
      c.slots_.clear();
      c.size_ = 0;
      c.shift_ = 64;
      for (const auto& [block, users] : blocks) {
        if (c.find(block) == nullptr) c.slot(block).users = users;  // 1st wins
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t block = 0;
    std::uint32_t users = 0;
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 16;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t block) const {
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  const Slot* find(std::uint64_t block) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(block);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.block == block) return &s;
    }
  }
  Slot* find(std::uint64_t block) {
    return const_cast<Slot*>(std::as_const(*this).find(block));
  }

  /// The slot of `block`, claimed (with zero users) if it was absent.
  Slot& slot(std::uint64_t block) {
    if (Slot* s = find(block)) return *s;
    if ((size_ + 1) * 2 > slots_.size()) grow();
    ++size_;
    return place(block);
  }

  Slot& place(std::uint64_t block) {
    std::size_t i = home(block);
    while (slots_[i].used) i = (i + 1) & mask();
    slots_[i].block = block;
    slots_[i].used = true;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : old.size() * 2;
    slots_.assign(n, Slot{});
    shift_ = 64 - std::countr_zero(n);
    for (const Slot& s : old) {
      if (s.used) place(s.block).users = s.users;
    }
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_blocks() const {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    out.reserve(size_);
    for (const Slot& s : slots_) {
      if (s.used) out.emplace_back(s.block, s.users);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::uint64_t block_size_;
  std::vector<Slot> slots_;  // empty until the first insert
  std::size_t size_ = 0;
  int shift_ = 64;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace stellar
