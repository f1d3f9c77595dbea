// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps run in the
// order they were scheduled (a monotonically increasing sequence number
// breaks ties), so every experiment is exactly reproducible.
//
// Hot-path design (docs/PERF.md has the full write-up):
//
//  * Scheduling is a hierarchical timing wheel (calendar queue): two
//    4096-slot wheels — 2.048 ns slots covering ~8.39 us, then ~8.39 us
//    slots covering ~34.4 ms — with a binary min-heap for events beyond the
//    outer horizon. Schedule and pop are O(1) amortized; only far-future
//    timers (fault plans, second-scale horizons) ever touch the heap. An
//    idle slot holds no buffer: emptied slot vectors wait in a stash for
//    the next slot that gets an entry.
//  * One-shot events are fire-and-forget closures in a pooled slab of
//    records addressed by index. Their callables are stored as InlineAction
//    (64-byte small-buffer storage), built directly in the record before
//    its entry is queued, so scheduling never heap-allocates and never
//    relocates its closure. A one-shot event cannot be cancelled.
//  * Cancellable and recurring events are Simulator::Timer objects
//    embedded in their owner (a link's serialization-done and delivery
//    events, a connection's RTO and probes, the hybrid driver's service
//    events, the periodic samplers): registered once, then armed, disarmed
//    and re-armed in place. A wheel entry names either a record or a timer
//    (a tag bit), so an armed timer takes no record and builds no closure.
//    Disarming leaves the entry behind as a tombstone, swept lazily; only
//    timer entries are ever tombstones.
//
// Determinism contract: events fire in strict (time, seq) order. Wheel
// slots are coarser than a picosecond, so each slot is sorted by
// (time, seq) when it becomes current; cascades and overflow merges
// preserve the same total order. Timers draw their seq from the same
// counter at the moment they are armed, exactly as schedule_at() would, so
// records and timers share one (time, seq) order. See
// tests/sim_determinism_test.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace_only.h"
#include "common/units.h"
#include "sim/inline_action.h"

namespace stellar {

/// What Simulator::schedule_*() accept: any callable invocable as void(),
/// built in place in the event record, or an InlineAction rvalue, moved
/// in. An lvalue InlineAction is rejected: it is move-only, and silently
/// emptying the caller's variable would hide a bug.
template <typename F>
concept EventCallable =
    std::is_same_v<F, InlineAction> ||
    (!std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
     std::is_invocable_r_v<void, std::decay_t<F>&>);

class Simulator {
  // Wheel geometry: two levels of 4096 slots.
  static constexpr int kLevels = 2;
  static constexpr unsigned kSlotBits = 12;  // 4096 slots per level
  /// Level-0 slot width: 2^11 ps = 2.048 ns, below the 2.56 ns a 64 B ACK
  /// takes to serialize at 200G. So an event scheduled by a running one
  /// almost never lands in the slot being drained (a sorted insert into
  /// the live bucket), and a loaded slot holds a few entries to sort.
  /// Level l slot width is 2^(11 + 12*l) ps, so level 1 slots span
  /// ~8.39 us and the wheels together cover ~34.4 ms (kWheelHorizon) ahead
  /// of the cursor; only longer timers (fault plans, multi-second horizons)
  /// reach the overflow heap. docs/PERF.md "Wheel granularity" has the
  /// counts and timings this width was picked by.
  static constexpr unsigned kGranularityShift = 11;

 public:
  /// How far ahead of the cursor the wheel reaches (2^35 ps, ~34.4 ms):
  /// one revolution of its outer level. Later events wait in the overflow
  /// heap.
  static constexpr SimTime kWheelHorizon = SimTime::picos(
      std::int64_t{1} << (kGranularityShift + kLevels * kSlotBits));

  Simulator();
  /// Detaches every timer still registered: destroying one afterwards
  /// touches nothing. Arming one afterwards is a use-after-free, as
  /// scheduling on a destroyed Simulator is.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `action` to run at absolute time `at` (must be >= now();
  /// throws std::invalid_argument, with nothing scheduled, otherwise). The
  /// event cannot be cancelled: an event its owner may need to call off is
  /// a Timer.
  template <EventCallable F>
  void schedule_at(SimTime at, F&& action) {
    owner_.assert_held();
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t idx = take_record(at, seq);
    EventRecord& r = record(idx);
    try {
      if constexpr (std::is_same_v<F, InlineAction>) {
        r.action = std::move(action);
      } else {
        r.action.emplace(std::forward<F>(action));
      }
    } catch (...) {
      free_record(idx);  // a throwing copy or box: nothing was queued
      throw;
    }
    place_pending(at, seq, idx);
  }

  /// Schedule `action` to run `delay` after the current time.
  template <EventCallable F>
  void schedule_after(SimTime delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Consume and return the next tie-break sequence number without
  /// scheduling anything. A pipelined producer (e.g. a link draining many
  /// in-flight packets through one shared timer) reserves a seq at the
  /// moment it would classically have scheduled a per-item event, then
  /// arms the shared timer with Timer::arm(at, seq): equal-timestamp FIFO
  /// ordering against every other event stays exactly as if each item had
  /// its own event.
  std::uint64_t reserve_seq() {
    owner_.assert_held();
    return next_seq_++;
  }

  class Timer;

  /// Run until the event queue drains. Returns number of events executed.
  std::uint64_t run();

  /// Run until the queue drains or simulated time reaches `deadline`
  /// (events at exactly `deadline` do run). Remaining events stay queued.
  std::uint64_t run_until(SimTime deadline);

  /// Execute at most one pending event. Returns false if queue is empty.
  bool step();

  bool empty() const { return live_events_ == 0; }
  std::uint64_t pending_events() const { return live_events_; }
  std::uint64_t executed_events() const { return executed_; }

  /// Scheduler work, counted only in traced builds (STELLAR_TRACE_ONLY)
  /// and all zero otherwise: the units the wheel spends host time on.
  struct WorkCounts {
    std::uint64_t buckets_loaded = 0;    // slots made the active bucket
    std::uint64_t entries_sorted = 0;    // entries in them at their sort
    std::uint64_t bucket_inserts = 0;    // sorted inserts into the live bucket
    std::uint64_t entries_shifted = 0;   // entries those inserts moved up
    std::uint64_t cascades = 0;          // outer slots moved down a level
    std::uint64_t entries_cascaded = 0;  // entries (tombstones too) moved
    std::uint64_t overflow_pushes = 0;   // entries pushed on the overflow heap
  };

  /// Internal bookkeeping snapshot for the scheduler-sanity invariant
  /// auditor. `queued` is ground truth (the wheels, overflow heap, and
  /// current bucket are walked); the other totals are double-entry
  /// counters that must agree with it and with each other.
  struct HeapStats {
    std::size_t queued = 0;       // entries walked across wheel+heap+bucket
    std::size_t tombstones = 0;   // disarmed timer entries awaiting sweep
    std::size_t pending_ids = 0;  // live (schedulable) entries [counter]
    std::uint64_t live_events = 0;
    // Breakdown + pool accounting (bench/auditor detail).
    std::size_t wheel_entries = 0;     // across all wheel levels
    std::size_t overflow_entries = 0;  // far-future min-heap
    std::size_t bucket_entries = 0;    // current-slot bucket remainder
    std::size_t allocated_records = 0; // pool records in use
    std::size_t pool_capacity = 0;     // pool records ever created
    // Timers: every pending entry is a record or an armed timer, so
    // allocated_records + armed_timers == pending_ids.
    std::size_t armed_timers = 0;      // timers armed now [counter]
    std::size_t timers = 0;            // timers registered now
    // Slot buffers: only occupied slots hold one, so `slot_buffers` (slots
    // holding capacity, plus the stash) never exceeds the peak number of
    // occupied slots plus one.
    std::size_t occupied_slots = 0;  // wheel slots holding entries
    std::size_t slot_buffers = 0;    // slot vectors with capacity + stash
    WorkCounts work;
  };
  HeapStats heap_stats() const;

 private:
  friend struct SimulatorTestPeer;  // corruption injection in audit tests

  // Thread-safety contract: the whole scheduler is single-owner state — the
  // one thread that drives the simulation runs it without locks, and a
  // Simulator never moves between threads (run-level sharding,
  // core/run_shard.h, builds and runs each simulation on one worker). The
  // deep scheduler structures are STELLAR_GUARDED_BY(owner_); every public
  // mutating entry point opens with owner_.assert_held(), which the clang
  // thread-safety analysis treats as acquiring the capability and audit
  // builds enforce at runtime (src/common/mutex.h). The published counters
  // (now_, live_events_, executed_, next_seq_) stay unannotated: they are
  // written only under the same ownership and read by cold accessors.

  // -- Event record pool ------------------------------------------------------
  //
  // Records live in fixed chunks (stable addresses) and are recycled
  // through a free list. A record is taken when its event is scheduled and
  // freed when it runs; nothing else can retire it, so its queued entry is
  // never a tombstone.

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct EventRecord {
    InlineAction action;
    std::uint32_t next_free = kNone;  // while free: the next free record
  };

  static constexpr unsigned kChunkBits = 9;  // 512 records per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;

  // -- Timers -----------------------------------------------------------------
  //
  // One slot per registered Timer, addressed by the timer's id. `seq` is
  // the seq of the timer's one live entry while it is armed and 0 while it
  // is not (seqs start at 1), so an entry naming a timer is a tombstone
  // unless the slot still carries the entry's seq. A destroyed timer's id
  // goes to free_timers_ with seq 0 and is recycled by the next timer to
  // register; the new owner's seqs are all fresh, so an old entry can
  // never fire it.

  struct TimerSlot {
    std::uint64_t seq = 0;    // armed: seq of its live entry; 0: disarmed
    Timer* timer = nullptr;   // registered owner; nullptr once destroyed
  };

  // -- Timing wheel -----------------------------------------------------------

  /// A scheduled entry as stored in wheel slots / overflow / bucket.
  /// 16 bytes: `key` packs (seq << kIdxBits) | index, so comparing
  /// (at_ps, key) is the unique (time, seq) total execution order (seq is
  /// unique among live entries, so the index bits never decide) and
  /// sort/cascade moves stay cheap. The index is a record index, or a
  /// timer id with kTimerTag set. kIdxBits caps the pool and the timers at
  /// 8M each and seq at 2^40 events — all checked, none reachable in
  /// practice.
  static constexpr unsigned kIdxBits = 24;
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;
  static constexpr unsigned kSeqBits = 64 - kIdxBits;
  static constexpr std::uint32_t kTimerTag = std::uint32_t{1} << (kIdxBits - 1);

  struct Entry {
    std::int64_t at_ps;
    std::uint64_t key;
  };
  static constexpr std::uint32_t entry_idx(const Entry& e) {
    return static_cast<std::uint32_t>(e.key & kIdxMask);
  }
  /// A tombstone: the entry names a timer that was disarmed (or
  /// destroyed), and is now unarmed or armed under another seq. A record's
  /// entry never is one.
  bool is_tombstone(const Entry& e) const STELLAR_REQUIRES(owner_) {
    const std::uint32_t idx = entry_idx(e);
    return (idx & kTimerTag) != 0 &&
           timers_[idx & ~kTimerTag].seq != e.key >> kIdxBits;
  }
  /// Inline comparator (std::sort with a function pointer cannot inline the
  /// compare, which dominated bucket sorting before this).
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at_ps != b.at_ps) return a.at_ps < b.at_ps;
      return a.key < b.key;
    }
  };

  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kSlotMask = kSlots - 1;

  struct WheelLevel {
    std::vector<std::vector<Entry>> slots{kSlots};
    std::vector<std::uint64_t> occupied =
        std::vector<std::uint64_t>(kSlots / 64, 0);
    std::size_t count = 0;
  };

  static constexpr unsigned level_shift(int level) {
    return kGranularityShift + static_cast<unsigned>(level) * kSlotBits;
  }

  EventRecord& record(std::uint32_t idx) STELLAR_REQUIRES(owner_) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }
  const EventRecord& record(std::uint32_t idx) const
      STELLAR_REQUIRES(owner_) {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  std::uint32_t alloc_record() STELLAR_REQUIRES(owner_);
  /// Return a record whose action is empty (it never got one) to the pool.
  void free_record(std::uint32_t idx) STELLAR_REQUIRES(owner_);

  /// The non-template half of schedule_*(): checks `at` and `seq` and
  /// takes a record, whose (empty) action the caller then builds. Returns
  /// the record index.
  std::uint32_t take_record(SimTime at, std::uint64_t seq)
      STELLAR_REQUIRES(owner_);
  /// Checks shared by records and timers: `seq` was reserved and fits the
  /// key, and `at` is not in the past (throws std::invalid_argument).
  void check_schedule(SimTime at, std::uint64_t seq, const char* what) const;
  /// The failure halves of check_schedule() and of arm_timer()'s "armed
  /// while armed" check: cold and out of line.
  void fail_schedule(SimTime at, std::uint64_t seq, const char* what) const;
  void fail_armed(std::uint32_t id) STELLAR_REQUIRES(owner_);
  /// Queue the entry `(at, seq, idx)` (a record index or a tagged timer id)
  /// and count it pending.
  void place_pending(SimTime at, std::uint64_t seq, std::uint32_t idx)
      STELLAR_REQUIRES(owner_);

  // Timer half of the API (Simulator::Timer forwards here).
  std::uint32_t register_timer(Timer* timer) STELLAR_REQUIRES(owner_);
  void unregister_timer(std::uint32_t id) STELLAR_REQUIRES(owner_);
  void arm_timer(std::uint32_t id, SimTime at, std::uint64_t seq)
      STELLAR_REQUIRES(owner_);
  bool disarm_timer(std::uint32_t id) STELLAR_REQUIRES(owner_) {
    TimerSlot& t = timers_[id];
    if (t.seq == 0) return false;
    // The entry stays queued as a tombstone and is swept lazily, while the
    // timer can be re-armed at once.
    t.seq = 0;
    --armed_timers_;
    --live_events_;
    --pending_count_;
    ++tombstones_;
    return true;
  }

  /// Append `e` to slot `s` of `level`; a slot's first entry brings it a
  /// buffer from the stash when there is one.
  void slot_push(WheelLevel& level, std::size_t s, const Entry& e)
      STELLAR_REQUIRES(owner_);
  /// Return an emptied slot's buffer, if it has one, to the stash.
  void stash(std::vector<Entry>& slot) STELLAR_REQUIRES(owner_);
  /// Place an entry whose level-0 tick differs from cur_tick_ into the
  /// right wheel level or the overflow heap.
  void place_entry(const Entry& e) STELLAR_REQUIRES(owner_);
  /// Sorted insert into the active bucket (entry tick == cur_tick_).
  void bucket_insert(const Entry& e) STELLAR_REQUIRES(owner_);
  /// Move the un-drained tail of the bucket back into the wheels and make
  /// `new_tick` the active tick (scheduling earlier than the cursor after
  /// run_until() parked it on a far-future slot).
  void rewind_to(std::int64_t new_tick) STELLAR_REQUIRES(owner_);
  /// Smallest pending tick at `level` granularity, or -1 if level empty.
  std::int64_t next_occupied_tick(int level) const STELLAR_REQUIRES(owner_);
  /// Move one outer-level slot down: its entries land in the level-0
  /// wheel or the bucket; tombstones are swept on the way.
  void cascade(int level, std::int64_t level_tick) STELLAR_REQUIRES(owner_);
  /// Load the next non-empty slot into bucket_ (sorted). False if drained.
  bool advance_to_next_bucket() STELLAR_REQUIRES(owner_);
  /// Index of the next live event without consuming it, or kNone.
  /// Sweeps tombstones and advances the wheel cursor as needed.
  std::uint32_t peek_live() STELLAR_REQUIRES(owner_);
  /// Pop the event found by peek_live() and run it.
  void consume_and_run(std::uint32_t idx) STELLAR_REQUIRES(owner_);
  /// The record or timer slot an entry index names, for prefetching.
  const void* entry_target(std::uint32_t idx) const STELLAR_REQUIRES(owner_) {
    if ((idx & kTimerTag) != 0) return &timers_[idx & ~kTimerTag];
    return &record(idx);
  }

  void overflow_push(Entry e) STELLAR_REQUIRES(owner_);
  Entry overflow_pop() STELLAR_REQUIRES(owner_);

  // Single-owner capability for the whole scheduler (see contract above).
  SingleOwner owner_;

  // Pool.
  std::vector<std::unique_ptr<EventRecord[]>> chunks_
      STELLAR_GUARDED_BY(owner_);
  std::uint32_t free_head_ STELLAR_GUARDED_BY(owner_) = kNone;
  std::size_t pool_capacity_ STELLAR_GUARDED_BY(owner_) = 0;
  std::size_t allocated_records_ STELLAR_GUARDED_BY(owner_) = 0;

  // Timers, by id; ids of destroyed timers wait in free_timers_.
  std::vector<TimerSlot> timers_ STELLAR_GUARDED_BY(owner_);
  std::vector<std::uint32_t> free_timers_ STELLAR_GUARDED_BY(owner_);
  std::size_t armed_timers_ STELLAR_GUARDED_BY(owner_) = 0;

  // Scheduler structures.
  WheelLevel levels_[kLevels] STELLAR_GUARDED_BY(owner_);
  // min-heap by (at, seq)
  std::vector<Entry> overflow_ STELLAR_GUARDED_BY(owner_);
  // active tick, sorted ascending
  std::vector<Entry> bucket_ STELLAR_GUARDED_BY(owner_);
  // consumed prefix of bucket_
  std::size_t bucket_pos_ STELLAR_GUARDED_BY(owner_) = 0;
  // level-0 tick the bucket belongs to
  std::int64_t cur_tick_ STELLAR_GUARDED_BY(owner_) = 0;
  // Emptied slot vectors, cleared but keeping their capacity. A slot gives
  // its buffer back here when it empties, and takes one when it gets its
  // first entry, so the wheel holds no more buffers than its peak number
  // of occupied slots plus the bucket's.
  std::vector<std::vector<Entry>> spare_ STELLAR_GUARDED_BY(owner_);
  STELLAR_TRACE_ONLY(WorkCounts work_ STELLAR_GUARDED_BY(owner_);)

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t live_events_ = 0;
  std::uint64_t executed_ = 0;
  // Double-entry bookkeeping mirrored by the auditor against `queued`.
  std::size_t pending_count_ STELLAR_GUARDED_BY(owner_) = 0;
  std::size_t tombstones_ STELLAR_GUARDED_BY(owner_) = 0;
};

/// A recurring event embedded in its owner: registered with its Simulator
/// once, at construction, then armed, disarmed and re-armed in place. An
/// armed timer is one wheel entry that names the timer; it takes no event
/// record and builds no closure. Arming takes the next seq exactly as
/// schedule_at() does (or a reserve_seq()'d one), so timers and one-shot
/// events fire in one (time, seq) order. Disarming leaves a tombstone, and
/// a timer is the only event that can be called off.
///
/// The action is a small, trivially copyable callable, typically a lambda
/// capturing only `this`. It runs with the timer already disarmed, so the
/// action may re-arm it, and a disarm() from inside returns false.
/// Destroying an armed timer disarms it.
class Simulator::Timer {
 public:
  template <typename F>
    requires(std::is_trivially_copyable_v<F> && sizeof(F) <= sizeof(void*) &&
             alignof(F) <= alignof(void*) &&
             std::is_invocable_r_v<void, F&>)
  Timer(Simulator& sim, F action) : sim_(&sim) {
    ::new (static_cast<void*>(storage_)) F(action);
    fire_ = [](void* storage) { (*std::launder(static_cast<F*>(storage)))(); };
    sim_->owner_.assert_held();
    id_ = sim_->register_timer(this);
  }
  ~Timer() {
    if (sim_ != nullptr) sim_->unregister_timer(id_);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire at `at` (>= now(); throws std::invalid_argument, leaving the
  /// timer disarmed, otherwise) under the next seq. The timer must be
  /// disarmed (STELLAR_CHECK).
  void arm(SimTime at) {
    sim_->owner_.assert_held();
    sim_->arm_timer(id_, at, sim_->next_seq_++);
  }
  /// Fire at `at` under a seq from reserve_seq(), used at most once.
  void arm(SimTime at, std::uint64_t reserved_seq) {
    sim_->owner_.assert_held();
    sim_->arm_timer(id_, at, reserved_seq);
  }
  /// Disarm a pending timer. Returns false if it was not armed (already
  /// fired, or disarmed).
  bool disarm() {
    sim_->owner_.assert_held();
    return sim_->disarm_timer(id_);
  }
  bool armed() const { return sim_->timers_[id_].seq != 0; }

 private:
  friend class Simulator;
  void fire() { fire_(storage_); }

  Simulator* sim_;
  void (*fire_)(void*);
  alignas(void*) unsigned char storage_[sizeof(void*)];
  std::uint32_t id_ = 0;
};

}  // namespace stellar
