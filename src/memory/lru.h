// Generic capacity-bounded LRU map, the storage of TranslationCache
// (memory/translation_cache.h): the IOMMU's IOTLB and the device ATCs.
//
// Flat layout, so a lookup, a miss and an eviction touch no heap once the
// cache has reached its working size:
//  * a node slab of (key, value, 32-bit prev/next); erased nodes go on a
//    free list threaded through `next` and are reused before the slab grows;
//  * an intrusive recency list through the slab, MRU at the head;
//  * an open-addressing index from key to node: a power-of-two table of
//    node numbers kept at load <= 1/2, linear probing, backward-shift
//    deletion (no tombstones). The keys in use are page addresses, so the
//    hash runs through a multiplicative mix: by identity they would share
//    their low bits and pile into a few slots.
// Storage grows with occupancy, never up front to capacity (a 64 Ki-entry
// IOTLB that sees a few hundred pages stays small), and clear() keeps it.
// Pointers returned by get()/peek() stay valid until the next put().
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace stellar {

template <typename Key, typename Value>
class LruCache {
 public:
  /// `capacity` must stay below 2^32 - 1 (nodes are 32-bit numbered).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up and refresh recency. nullptr on miss.
  const Value* get(const Key& key) {
    const std::uint32_t n = find(key);
    if (n == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    move_to_front(n);
    return &nodes_[n].value;
  }

  /// Peek without touching recency or counters.
  const Value* peek(const Key& key) const {
    const std::uint32_t n = find(key);
    return n == kNil ? nullptr : &nodes_[n].value;
  }

  /// Insert or refresh. Evicts the LRU entry when at capacity; the victim
  /// (if any) is returned so owners that keep side accounting — e.g. the
  /// per-tenant occupancy ledger of TranslationCache — can debit the right
  /// party.
  std::optional<std::pair<Key, Value>> put(const Key& key, Value value) {
    const std::uint32_t n = find(key);
    if (n != kNil) {
      nodes_[n].value = std::move(value);
      move_to_front(n);
      return std::nullopt;
    }
    return insert_absent(key, std::move(value));
  }

  /// put() for a key the caller knows is absent, typically because get()
  /// just missed it: skips put()'s index probe. Inserting a key that is
  /// present corrupts the cache.
  std::optional<std::pair<Key, Value>> insert_absent(const Key& key,
                                                     Value value) {
    if (capacity_ == 0) return std::nullopt;
    std::optional<std::pair<Key, Value>> victim;
    if (size_ >= capacity_) {
      ++evictions_;
      victim = remove(tail_);
    }
    insert_front(key, std::move(value));
    return victim;
  }

  /// Evict the least-recently-used entry satisfying `pred(key, value)` and
  /// return it. Walks from the LRU end — O(n) worst case, but only invoked
  /// on quota-enforcement paths (a tenant over its cache share evicts its
  /// own coldest entry instead of a neighbor's).
  template <typename Pred>
  std::optional<std::pair<Key, Value>> evict_lru_matching(Pred pred) {
    for (std::uint32_t n = tail_; n != kNil; n = nodes_[n].prev) {
      if (!pred(nodes_[n].key, nodes_[n].value)) continue;
      ++evictions_;
      return remove(n);
    }
    return std::nullopt;
  }

  bool erase(const Key& key) {
    const std::uint32_t n = find(key);
    if (n == kNil) return false;
    remove(n);
    return true;
  }

  /// O(entries): unindexes each live key, keeps the slab and the table.
  void clear() {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) {
      unindex(nodes_[n].key);
    }
    nodes_.clear();
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }
  void reset_counters() { hits_ = misses_ = evictions_ = 0; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMinSlots = 16;

  struct Node {
    Key key;
    Value value;
    std::uint32_t prev;
    std::uint32_t next;  // also the free-list link
  };

  std::size_t mask() const { return slots_.size() - 1; }

  /// Home slot: Fibonacci hashing keeps the high bits of the product.
  std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::uint32_t find(const Key& key) const {
    if (slots_.empty()) return kNil;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const std::uint32_t n = slots_[i];
      if (n == kNil || nodes_[n].key == key) return n;
    }
  }

  void place(std::uint32_t n) {
    std::size_t i = home(nodes_[n].key);
    while (slots_[i] != kNil) i = (i + 1) & mask();
    slots_[i] = n;
  }

  /// Drop `key` (present) from the index. Backward shift: each later entry
  /// of the probe run moves into the hole unless its home lies cyclically
  /// after the hole, so every run stays unbroken without tombstones.
  void unindex(const Key& key) {
    std::size_t hole = home(key);
    while (nodes_[slots_[hole]].key != key) hole = (hole + 1) & mask();
    for (std::size_t j = (hole + 1) & mask(); slots_[j] != kNil;
         j = (j + 1) & mask()) {
      const std::size_t h = home(nodes_[slots_[j]].key);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kNil;
  }

  void grow_index() {
    const std::size_t n = slots_.empty() ? kMinSlots : slots_.size() * 2;
    slots_.assign(n, kNil);
    shift_ = 64 - std::countr_zero(n);
    for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) place(i);
  }

  void unlink(std::uint32_t n) {
    const Node& x = nodes_[n];
    (x.prev == kNil ? head_ : nodes_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : nodes_[x.next].prev) = x.prev;
  }

  void link_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  void move_to_front(std::uint32_t n) {
    if (n == head_) return;
    unlink(n);
    link_front(n);
  }

  void insert_front(const Key& key, Value value) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
      nodes_[n].key = key;
      nodes_[n].value = std::move(value);
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{key, std::move(value), kNil, kNil});
    }
    if ((size_ + 1) * 2 > slots_.size()) grow_index();
    place(n);
    link_front(n);
    ++size_;
  }

  /// Unindex and unlink node `n`, put it on the free list, return its entry.
  std::pair<Key, Value> remove(std::uint32_t n) {
    unindex(nodes_[n].key);
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
    --size_;
    return {std::move(nodes_[n].key), std::move(nodes_[n].value)};
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> slots_;  // node number or kNil
  int shift_ = 64;
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace stellar
