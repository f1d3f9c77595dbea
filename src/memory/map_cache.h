// PVDMA Map Cache: tracks which fixed-size guest-physical blocks are
// already registered in the IOMMU (Figure 4, stage 3).
//
// A hit means the DMA can proceed immediately (memory already pinned); a
// miss triggers on-demand registration + pinning. Blocks carry a use count
// so PVDMA knows when an unmap would be safe — the paper's Figure 5 bug is
// exactly a block kept alive by one user (the GPU command queue) while a
// stale 4 KiB sub-mapping (the vDB) lingers inside it.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/ordered.h"
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
    const bool hit = blocks_.count(block_of(gpa).value()) != 0;
    hit ? ++hits_ : ++misses_;
    return hit;
  }

  bool contains(Gpa gpa) const {
    return blocks_.count(block_of(gpa).value()) != 0;
  }

  /// Register the block containing `gpa` with one initial user.
  void insert(Gpa gpa) { blocks_[block_of(gpa).value()].users = 1; }

  /// Another DMA consumer started using the block.
  void add_user(Gpa gpa) {
    auto it = blocks_.find(block_of(gpa).value());
    if (it != blocks_.end()) ++it->second.users;
  }

  /// A consumer finished. Returns true if the block is now unused and the
  /// caller may unmap/unpin it.
  bool release_user(Gpa gpa) {
    auto it = blocks_.find(block_of(gpa).value());
    if (it == blocks_.end()) return false;
    if (it->second.users > 0) --it->second.users;
    return it->second.users == 0;
  }

  std::uint32_t users(Gpa gpa) const {
    auto it = blocks_.find(block_of(gpa).value());
    return it == blocks_.end() ? 0 : it->second.users;
  }

  void erase(Gpa gpa) { blocks_.erase(block_of(gpa).value()); }

  /// Visit every resident block as (block-start GPA, user count) — the
  /// residency sweep the pin-accounting auditor performs. Visits in
  /// ascending block order: the container is unordered, and the callback
  /// may emit audit findings whose order must be deterministic.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const std::uint64_t start : sorted_keys(blocks_)) {
      fn(Gpa{start}, blocks_.at(start).users);
    }
  }

  std::size_t block_count() const { return blocks_.size(); }
  std::uint64_t registered_bytes() const {
    return blocks_.size() * block_size_;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Checkpoint/restore: the block size (a restore fails unless it
  /// matches), hit/miss statistics, then the resident blocks in ascending
  /// block-start order.
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
    ar(c.hits_, c.misses_, c.blocks_);
  }

 private:
  struct Block {
    std::uint32_t users = 0;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& b) {
      ar(b.users);
    }
  };

  std::uint64_t block_size_;
  std::unordered_map<std::uint64_t, Block> blocks_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace stellar
