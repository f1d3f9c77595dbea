#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.h"

namespace stellar {

Simulator::Simulator() = default;

Simulator::~Simulator() {
  for (TimerSlot& t : timers_) {
    if (t.timer != nullptr) t.timer->sim_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Overflow heap (events a revolution or more ahead, min-heap by (at, seq))
// ---------------------------------------------------------------------------

void Simulator::overflow_push(Entry e) {
  STELLAR_TRACE_ONLY(++work_.overflow_pushes;)
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [](const Entry& a, const Entry& b) {
                   return EntryLess{}(b, a);
                 });
}

Simulator::Entry Simulator::overflow_pop() {
  std::pop_heap(overflow_.begin(), overflow_.end(),
                [](const Entry& a, const Entry& b) {
                  return EntryLess{}(b, a);
                });
  Entry e = overflow_.back();
  overflow_.pop_back();
  return e;
}

// ---------------------------------------------------------------------------
// Wheel placement
// ---------------------------------------------------------------------------

inline void Simulator::slot_push(std::size_t s, const Entry& e) {
  std::vector<Entry>& slot = wheel_.slots[s];
  if (slot.capacity() == 0 && !spare_.empty()) {
    slot.swap(spare_.back());
    spare_.pop_back();
  }
  slot.push_back(e);
  wheel_.occupied[s >> 6] |= std::uint64_t{1} << (s & 63);
  ++wheel_.count;
}

void Simulator::stash(std::vector<Entry>& slot) {
  slot.clear();
  if (slot.capacity() != 0) spare_.push_back(std::move(slot));
}

void Simulator::bucket_insert(const Entry& e) {
  auto it = std::upper_bound(bucket_.begin() +
                                 static_cast<std::ptrdiff_t>(bucket_pos_),
                             bucket_.end(), e, EntryLess{});
  STELLAR_TRACE_ONLY(++work_.bucket_inserts;
                     work_.entries_shifted +=
                         static_cast<std::uint64_t>(bucket_.end() - it);)
  bucket_.insert(it, e);
}

std::int64_t Simulator::next_occupied_tick() const {
  if (wheel_.count == 0) return -1;
  // Ring-scan the occupancy bitmap starting just after the cursor slot;
  // ring distance order is tick order because a slot holds one tick at a
  // time and all pending ticks are within one wheel revolution.
  const std::size_t start =
      static_cast<std::size_t>(cur_tick_ + 1) & kSlotMask;
  std::size_t word = start >> 6;
  std::uint64_t bits =
      wheel_.occupied[word] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t scanned = 0; scanned <= kSlots / 64; ++scanned) {
    if (bits != 0) {
      const std::size_t s =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      return wheel_.slots[s].front().at_ps >> kGranularityShift;
    }
    ++word;
    if (word == kSlots / 64) word = 0;
    bits = wheel_.occupied[word];
  }
  return -1;  // unreachable while count > 0
}

bool Simulator::advance_to_next_bucket(std::int64_t limit) {
  bucket_.clear();
  bucket_pos_ = 0;
  const std::int64_t t0 = next_occupied_tick();
  const std::int64_t tov =
      overflow_.empty() ? -1 : overflow_.front().at_ps >> kGranularityShift;
  if (t0 < 0 && tov < 0) {
    // A tombstone sweep may have carried the cursor past the clock; bring
    // it back so the next arm does not land behind it.
    cur_tick_ = now_.ps() >> kGranularityShift;
    return false;
  }
  // Ties go to the wheel slot; the heap's entries of that tick join it.
  const std::int64_t next = t0 >= 0 && (tov < 0 || t0 <= tov) ? t0 : tov;
  if (next > limit) return false;
  cur_tick_ = next;
  if (next == t0) {
    const std::size_t s = static_cast<std::size_t>(t0) & kSlotMask;
    bucket_.swap(wheel_.slots[s]);
    wheel_.occupied[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    wheel_.count -= bucket_.size();
    stash(wheel_.slots[s]);  // the bucket's old buffer
  }
  while (!overflow_.empty() &&
         (overflow_.front().at_ps >> kGranularityShift) == cur_tick_) {
    bucket_.push_back(overflow_pop());
  }
  STELLAR_TRACE_ONLY(++work_.buckets_loaded;
                     work_.entries_sorted += bucket_.size();)
  std::sort(bucket_.begin(), bucket_.end(), EntryLess{});
  return true;
}

std::uint32_t Simulator::peek_live(std::int64_t limit) {
  for (;;) {
    while (bucket_pos_ < bucket_.size()) {
      const Entry& e = bucket_[bucket_pos_];
      const std::uint32_t id = entry_idx(e);
      if (bucket_pos_ + 1 < bucket_.size()) {
        // The next timer slot is touched either way (tombstone sweep or the
        // next peek); overlap its load with this event's work.
        __builtin_prefetch(&timers_[entry_idx(bucket_[bucket_pos_ + 1])]);
      }
      if (tombstones_ != 0 && is_tombstone(e)) {
        --tombstones_;
        ++bucket_pos_;
        continue;
      }
      return id;
    }
    if (!advance_to_next_bucket(limit)) return kNone;
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

// The failure halves of check_schedule and arm_timer, kept out of line so
// the paths that schedule every packet hop stay small.
[[gnu::cold, gnu::noinline]] void Simulator::fail_schedule(
    SimTime at, std::uint64_t seq, const char* what) const {
  STELLAR_CHECK(seq < (std::uint64_t{1} << kSeqBits),
                "event seq space exhausted");
  if (at < now_) {
    throw std::invalid_argument(std::string(what) + ": time in the past");
  }
}

[[gnu::cold, gnu::noinline]] void Simulator::fail_armed(std::uint32_t id) {
  STELLAR_CHECK(timers_[id].seq == 0, "timer %u armed while armed (seq %llu)",
                id, static_cast<unsigned long long>(timers_[id].seq));
}

inline void Simulator::check_schedule(SimTime at, std::uint64_t seq,
                                      const char* what) const {
  STELLAR_DCHECK(seq < next_seq_, "seq %llu was never reserved (next is %llu)",
                 static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(next_seq_));
  if (seq >= (std::uint64_t{1} << kSeqBits) || at < now_) [[unlikely]] {
    fail_schedule(at, seq, what);
  }
}

void Simulator::consume_and_run(std::uint32_t id) {
  const std::int64_t at_ps = bucket_[bucket_pos_].at_ps;
  STELLAR_CHECK(at_ps >= now_.ps(),
                "event scheduled at %lld ps would run before now=%lld ps",
                static_cast<long long>(at_ps),
                static_cast<long long>(now_.ps()));
  now_ = SimTime::picos(at_ps);
  ++bucket_pos_;
  // Disarm before the action runs, so it may re-arm its own timer (and a
  // disarm from inside returns false), with the counters already down: an
  // auditor running inside the action sees consistent double-entry books.
  TimerSlot& t = timers_[id];
  t.seq = 0;
  --armed_timers_;
  --live_events_;
  --pending_count_;
  ++executed_;
  t.timer->fire();
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

std::uint32_t Simulator::register_timer(Timer* timer) {
  std::uint32_t id;
  if (!free_timers_.empty()) {
    id = free_timers_.back();
    free_timers_.pop_back();
  } else {
    STELLAR_CHECK(timers_.size() <= kIdxMask, "more than %llu timers",
                  static_cast<unsigned long long>(kIdxMask));
    id = static_cast<std::uint32_t>(timers_.size());
    timers_.emplace_back();
  }
  timers_[id].timer = timer;
  return id;
}

void Simulator::unregister_timer(std::uint32_t id) {
  owner_.assert_held();
  disarm_timer(id);  // an armed timer's entry becomes a tombstone
  timers_[id].timer = nullptr;
  free_timers_.push_back(id);
}

void Simulator::arm_timer(std::uint32_t id, SimTime at, std::uint64_t seq) {
  TimerSlot& t = timers_[id];
  if (t.seq != 0) [[unlikely]] fail_armed(id);
  check_schedule(at, seq, "Simulator::Timer::arm");
  t.seq = seq;
  const Entry e{at.ps(), seq << kIdxBits | id};
  const std::int64_t t0 = at.ps() >> kGranularityShift;
  STELLAR_DCHECK(t0 >= cur_tick_, "timer armed at tick %lld behind cursor %lld",
                 static_cast<long long>(t0),
                 static_cast<long long>(cur_tick_));
  if (t0 == cur_tick_) {
    bucket_insert(e);
  } else if (static_cast<std::uint64_t>(t0 - cur_tick_) < kSlots) {
    // Hot path: almost every event lands within one revolution.
    slot_push(static_cast<std::size_t>(t0) & kSlotMask, e);
  } else {
    overflow_push(e);
  }
  ++armed_timers_;
  ++live_events_;
  ++pending_count_;
}

bool Simulator::step() {
  owner_.assert_held();
  const std::uint32_t id = peek_live(kNoLimit);
  if (id == kNone) return false;
  consume_and_run(id);
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  owner_.assert_held();
  std::uint64_t n = 0;
  for (;;) {
    const std::uint32_t id = peek_live(deadline.ps() >> kGranularityShift);
    if (id == kNone) break;
    // Live event beyond the horizon: leave it queued — peeking never pops,
    // so there is nothing to re-push.
    if (bucket_[bucket_pos_].at_ps > deadline.ps()) break;
    consume_and_run(id);
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

Simulator::HeapStats Simulator::heap_stats() const {
  owner_.assert_held();
  HeapStats st;
  for (const auto& slot : wheel_.slots) {
    st.wheel_entries += slot.size();
    st.occupied_slots += slot.empty() ? 0 : 1;
    st.slot_buffers += slot.capacity() != 0 ? 1 : 0;
  }
  st.slot_buffers += spare_.size();
  STELLAR_TRACE_ONLY(st.work = work_;)
  st.overflow_entries = overflow_.size();
  st.bucket_entries = bucket_.size() - bucket_pos_;
  st.queued = st.wheel_entries + st.overflow_entries + st.bucket_entries;
  st.tombstones = tombstones_;
  st.pending_ids = pending_count_;
  st.live_events = live_events_;
  st.pool_capacity = one_shots_ != nullptr ? one_shots_->capacity() : 0;
  st.armed_timers = armed_timers_;
  st.timers = timers_.size() - free_timers_.size();
  return st;
}

// ---------------------------------------------------------------------------
// OwnedEvents
// ---------------------------------------------------------------------------

// Heap order of an OwnedEvents queue: the earliest (time, seq) at the front.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.at_ps != b.at_ps ? a.at_ps > b.at_ps : a.seq > b.seq;
};

std::uint64_t OwnedEvents::take_seq(SimTime at) {
  sim_->owner_.assert_held();
  const std::uint64_t seq = sim_->next_seq_++;
  sim_->check_schedule(at, seq, "OwnedEvents::schedule_at");
  return seq;
}

void OwnedEvents::push(SimTime at, std::uint64_t seq, InlineAction action) {
  heap_.push_back(Pending{at.ps(), seq, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  if (heap_.front().seq != seq) return;
  // The new entry is the head: move the timer to it.
  timer_.disarm();
  timer_.arm(at, seq);
}

void OwnedEvents::fire_head() {
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  InlineAction action = std::move(heap_.back().action);
  heap_.pop_back();
  if (!heap_.empty()) {
    timer_.arm(SimTime::picos(heap_.front().at_ps), heap_.front().seq);
  }
  // Last: the action may destroy this queue.
  action();
}

void OwnedEvents::clear() {
  timer_.disarm();
  heap_.clear();
}

}  // namespace stellar
