// Dense, PSN-indexed per-connection window state for the transport's
// packet path. Stellar sprays every message over up to 128 paths, ACKs
// every packet and places packets out of order (DPP, §7), so the sender's
// unacked-packet table and the receiver's duplicate filter are touched
// once per packet. Both structures here allocate only when they grow.
//
// SendWindow<Rec>: the sender's unacked packets. A power-of-two ring
// indexed by PSN holds a 32-bit slot index for every PSN in [base, end),
// where base is the oldest unacked PSN and end is one past the newest
// sent; the records live in a slab of live entries recycled through a
// free list. The ring costs 4 bytes per PSN of span, the slab one record
// per packet in flight. Lookup, insert and erase are O(1); iteration
// walks the span in PSN order. Any per-connection sequence number works
// as the key: the sender's message table is a SendWindow keyed by
// message id, whose holes are messages that completed out of order.
//
// ReceiveWindow: the receiver's duplicate filter. A compacting floor
// (every PSN below it was received) plus a ring bitmap of the PSNs
// received above it, indexed by absolute PSN. An in-order receiver only
// moves the floor and never allocates; a PSN further above the floor than
// the bitmap spans grows the bitmap instead of aliasing a stored bit. The
// receiver's completed-message ledger is a ReceiveWindow of message ids.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.h"

namespace stellar {

template <typename Rec>
class SendWindow {
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

 public:
  using key_type = std::uint64_t;
  using mapped_type = Rec;

  /// One live entry as iteration yields it: the PSN and its record, named
  /// as a map's entries are.
  template <typename R>
  struct Entry {
    std::uint64_t first;
    R& second;
  };

  /// Visits the live PSNs in ascending order.
  template <bool kConst>
  class Iterator {
    using Window = std::conditional_t<kConst, const SendWindow, SendWindow>;
    using R = std::conditional_t<kConst, const Rec, Rec>;

   public:
    Iterator(Window* w, std::uint64_t psn) : w_(w), psn_(psn) {}
    Entry<R> operator*() const { return {psn_, w_->slab_[w_->slot(psn_)]}; }
    Iterator& operator++() {
      psn_ = w_->next_live(psn_ + 1);
      return *this;
    }
    bool operator!=(const Iterator& o) const { return psn_ != o.psn_; }

   private:
    Window* w_;
    std::uint64_t psn_;
  };

  bool empty() const { return size() == 0; }
  /// Live (unacked) entries.
  std::size_t size() const { return slab_.size() - free_.size(); }
  /// PSNs the ring currently covers, live or not: end - base.
  std::uint64_t span() const { return end_ - base_; }
  /// Ring slots allocated (a power of two, or zero before the first insert).
  std::size_t ring_capacity() const { return ring_.size(); }
  /// Records the slab holds room for: the high-water mark of live entries.
  std::size_t record_capacity() const { return slab_.capacity(); }

  Rec* find(std::uint64_t psn) {
    const std::uint32_t idx = lookup(psn);
    return idx == kNone ? nullptr : &slab_[idx];
  }
  const Rec* find(std::uint64_t psn) const {
    const std::uint32_t idx = lookup(psn);
    return idx == kNone ? nullptr : &slab_[idx];
  }
  /// The record of a live `psn`.
  Rec& at(std::uint64_t psn) {
    const std::uint32_t idx = lookup(psn);
    STELLAR_DCHECK(idx != kNone, "SendWindow: PSN %llu not live",
                   static_cast<unsigned long long>(psn));
    return slab_[idx];
  }
  const Rec& at(std::uint64_t psn) const {
    return const_cast<SendWindow*>(this)->at(psn);
  }

  /// Add `psn`, which must lie above every live PSN (senders issue PSNs
  /// monotonically; a restore inserts them in ascending order). An empty
  /// window restarts at `psn`.
  void insert(std::uint64_t psn, const Rec& rec) { put(psn, rec); }
  void insert(std::uint64_t psn, Rec&& rec) { put(psn, std::move(rec)); }

  /// Remove a live `psn`. Erasing the oldest advances the base past the
  /// gap of already-acked PSNs behind it (each PSN is passed once). The
  /// record stays in the slab until an insert reuses its slot or clear()
  /// runs, so move out of it whatever it must not keep alive.
  void erase(std::uint64_t psn) {
    const std::uint32_t idx = lookup(psn);
    STELLAR_DCHECK(idx != kNone, "SendWindow: erase of PSN %llu not live",
                   static_cast<unsigned long long>(psn));
    ring_[psn & mask_] = kNone;
    free_.push_back(idx);
    if (psn == base_) base_ = next_live(base_ + 1);
  }

  /// Drop every entry; ring and slab keep their capacity.
  void clear() {
    for (std::uint64_t psn = base_; psn != end_; ++psn) {
      ring_[psn & mask_] = kNone;
    }
    slab_.clear();
    free_.clear();
    base_ = end_;
  }

  Iterator<false> begin() { return {this, base_}; }
  Iterator<false> end() { return {this, end_}; }
  Iterator<true> begin() const { return {this, base_}; }
  Iterator<true> end() const { return {this, end_}; }

 private:
  template <typename R>
  void put(std::uint64_t psn, R&& rec) {
    if (empty()) {
      base_ = psn;
      end_ = psn;
    }
    STELLAR_CHECK(psn >= end_, "SendWindow: PSN %llu inserted below end %llu",
                  static_cast<unsigned long long>(psn),
                  static_cast<unsigned long long>(end_));
    if (psn - base_ >= ring_.size()) grow(psn - base_ + 1);
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      slab_[idx] = std::forward<R>(rec);
    } else {
      STELLAR_CHECK(slab_.size() < kNone, "SendWindow: slab index overflow");
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::forward<R>(rec));
    }
    ring_[psn & mask_] = idx;
    end_ = psn + 1;
  }

  std::uint32_t lookup(std::uint64_t psn) const {
    if (psn < base_ || psn >= end_) return kNone;
    return ring_[psn & mask_];
  }
  std::uint32_t slot(std::uint64_t psn) const { return ring_[psn & mask_]; }
  /// First live PSN at or after `psn`, or end_.
  std::uint64_t next_live(std::uint64_t psn) const {
    while (psn != end_ && ring_[psn & mask_] == kNone) ++psn;
    return psn;
  }
  /// Re-place the span [base_, end_) in a ring of at least `need` slots.
  /// Slots outside the span always hold kNone, so only the span moves.
  void grow(std::uint64_t need) {
    const std::size_t cap = std::bit_ceil(
        static_cast<std::size_t>(std::max<std::uint64_t>(need, 16)));
    std::vector<std::uint32_t> next(cap, kNone);
    for (std::uint64_t psn = base_; psn != end_; ++psn) {
      next[psn & (cap - 1)] = ring_[psn & mask_];
    }
    ring_.swap(next);
    mask_ = cap - 1;
  }

  std::vector<std::uint32_t> ring_;  // PSN & mask_ -> slab index or kNone
  std::uint64_t mask_ = 0;
  std::uint64_t base_ = 0;  // oldest live PSN (== end_ when empty)
  std::uint64_t end_ = 0;   // one past the newest PSN inserted
  std::vector<Rec> slab_;
  std::vector<std::uint32_t> free_;  // recycled slab indices
};

class ReceiveWindow {
 public:
  /// Every PSN below the floor has been received.
  std::uint64_t floor() const { return floor_; }

  /// Record an arriving PSN: true if fresh, false for a duplicate.
  bool record(std::uint64_t psn) {
    if (psn < floor_) return false;
    if (psn == floor_) {
      // In order: the floor moves without touching the bitmap, then
      // swallows the run of out-of-order arrivals it now reaches.
      ++floor_;
      compact();
      return true;
    }
    if (!spans(psn)) grow(psn);
    std::uint64_t& w = word(psn);
    const std::uint64_t bit = std::uint64_t{1} << (psn & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    return true;
  }

  /// True if `psn` was recorded: it lies below the floor or is stored.
  bool contains(std::uint64_t psn) const {
    if (psn < floor_) return true;
    if (!spans(psn)) return false;
    return ((word(psn) >> (psn & 63)) & 1) != 0;
  }

  /// PSNs stored above the floor.
  std::size_t above_floor_count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// Calls f(psn) for every stored PSN, ascending.
  template <typename F>
  void for_each_above_floor(F&& f) const {
    const std::uint64_t first = floor_ >> 6;
    for (std::uint64_t wi = first; wi != first + words_.size(); ++wi) {
      for (std::uint64_t w = words_[wi & mask_]; w != 0; w &= w - 1) {
        f(wi * 64 + static_cast<std::uint64_t>(std::countr_zero(w)));
      }
    }
  }

  /// Empty the window and move the floor to `floor` (restore).
  void reset(std::uint64_t floor) {
    floor_ = floor;
    std::fill(words_.begin(), words_.end(), 0);
  }
  /// Store `psn` (>= floor) as received without compacting the floor — the
  /// restore path, which replays an already-compacted set.
  void mark(std::uint64_t psn) {
    STELLAR_CHECK(psn >= floor_, "ReceiveWindow: mark below the floor");
    if (!spans(psn)) grow(psn);
    word(psn) |= std::uint64_t{1} << (psn & 63);
  }

  /// The floor is fully compacted: neither the floor PSN itself nor any
  /// PSN below it in the floor's word is stored. (Bits below the floor
  /// would alias PSNs one bitmap span above it.)
  bool compacted() const {
    if (words_.empty()) return true;
    const std::uint64_t at_or_below =
        (std::uint64_t{2} << (floor_ & 63)) - 1;  // bits [0, floor & 63]
    return (word(floor_) & at_or_below) == 0;
  }

  /// Bitmap words allocated (a power of two, or zero while in order).
  std::size_t capacity_words() const { return words_.size(); }

 private:
  /// `psn` (>= floor) falls inside the words the ring can hold at once:
  /// word indices [floor/64, floor/64 + words), all distinct slots.
  bool spans(std::uint64_t psn) const {
    return (psn >> 6) - (floor_ >> 6) < words_.size();
  }
  std::uint64_t& word(std::uint64_t psn) { return words_[(psn >> 6) & mask_]; }
  std::uint64_t word(std::uint64_t psn) const {
    return words_[(psn >> 6) & mask_];
  }

  /// Advance the floor over the run of stored PSNs starting at it,
  /// clearing their bits, a word at a time.
  void compact() {
    if (words_.empty()) return;
    for (;;) {
      std::uint64_t& w = word(floor_);
      const unsigned bit = static_cast<unsigned>(floor_ & 63);
      const auto run = static_cast<unsigned>(std::countr_one(w >> bit));
      if (run == 0) return;
      w &= ~((run == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << run) - 1)
             << bit);
      floor_ += run;
      if (bit + run < 64) return;
    }
  }

  /// Re-place the stored words in a ring wide enough for `psn`.
  void grow(std::uint64_t psn) {
    const std::uint64_t need = (psn >> 6) - (floor_ >> 6) + 1;
    const std::size_t n = std::bit_ceil(
        static_cast<std::size_t>(std::max<std::uint64_t>(need, 2)));
    std::vector<std::uint64_t> next(n, 0);
    const std::uint64_t first = floor_ >> 6;
    for (std::uint64_t wi = first; wi != first + words_.size(); ++wi) {
      next[wi & (n - 1)] = words_[wi & mask_];
    }
    words_.swap(next);
    mask_ = n - 1;
  }

  std::uint64_t floor_ = 0;
  std::vector<std::uint64_t> words_;  // ring: word psn/64 at (psn/64) & mask_
  std::uint64_t mask_ = 0;
};

}  // namespace stellar
