// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps run in the
// order they were scheduled (a monotonically increasing sequence number
// breaks ties), so every experiment is exactly reproducible.
//
// Hot-path design (docs/PERF.md has the full write-up):
//
//  * Scheduling is a timing wheel (calendar queue): one 4096-slot wheel of
//    2.048 ns slots covering ~8.39 us, with a binary min-heap for events
//    one revolution or more ahead. Link events (serialization, delivery,
//    ACKs) land in the wheel: O(1) schedule and pop. Only the rare longer
//    timers (RTOs, probes, periodic samplers, fault plans) touch the heap,
//    and the next bucket is the earlier of the wheel's next occupied slot
//    and the heap's front. An idle slot holds no buffer: emptied slot
//    vectors wait in a stash for the next slot that gets an entry.
//  * Every wheel entry names a Simulator::Timer embedded in its owner (a
//    link's serialization-done and delivery events, a connection's RTO and
//    probes, the hybrid driver's service events, the periodic samplers):
//    registered once, then armed, disarmed and re-armed in place. An armed
//    timer builds no closure. Disarming leaves the entry behind as a
//    tombstone, swept lazily.
//  * One-shot closures belong to an owner: an OwnedEvents queue (a
//    (time, seq) min-heap of InlineActions behind one member Timer armed at
//    its head). Destroying the queue, or clear(), drops what is pending, so
//    no one-shot outlives the object that scheduled it.
//    Simulator::schedule_at/after put the closure in the Simulator's own
//    queue, for harness code whose closures live as long as the run: each
//    pays one heap push and one heap pop.
//
// Determinism contract: events fire in strict (time, seq) order. Wheel
// slots are coarser than a picosecond, so each slot is sorted by
// (time, seq) when it becomes current, heap entries of the same slot
// included. A timer draws its seq from the shared counter at the moment it
// is armed, and a one-shot at the moment it is scheduled (its queue arms
// its timer under that seq once it is the head), so timers and one-shots
// share one (time, seq) order. See tests/sim_determinism_test.cc.
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

/// What the schedule_*() calls accept: any callable invocable as void(),
/// built into an InlineAction, or an InlineAction rvalue, moved in. An
/// lvalue InlineAction is rejected: it is move-only, and silently emptying
/// the caller's variable would hide a bug.
template <typename F>
concept EventCallable =
    std::is_same_v<F, InlineAction> ||
    (!std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
     std::is_invocable_r_v<void, std::decay_t<F>&>);

class OwnedEvents;

class Simulator {
  static constexpr unsigned kSlotBits = 12;  // 4096 wheel slots
  /// Slot width: 2^11 ps = 2.048 ns, below the 2.56 ns a 64 B ACK takes to
  /// serialize at 200G. So an event scheduled by a running one almost never
  /// lands in the slot being drained (a sorted insert into the live
  /// bucket), and a loaded slot holds a few entries to sort. The wheel
  /// covers ~8.39 us (kWheelHorizon) ahead of the cursor; later timers
  /// wait in the overflow heap. docs/PERF.md "Wheel granularity" has the
  /// counts and timings this width was picked by.
  static constexpr unsigned kGranularityShift = 11;

 public:
  /// How far ahead of the cursor the wheel reaches (2^23 ps, ~8.39 us):
  /// one revolution. Later events wait in the overflow heap.
  static constexpr SimTime kWheelHorizon =
      SimTime::picos(std::int64_t{1} << (kGranularityShift + kSlotBits));

  Simulator();
  /// Detaches every timer still registered: destroying one afterwards
  /// touches nothing. Arming one afterwards is a use-after-free, as
  /// scheduling on a destroyed Simulator is.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `action` to run at absolute time `at` (must be >= now();
  /// throws std::invalid_argument, with nothing scheduled, otherwise) in
  /// the Simulator's own one-shot queue. The event cannot be cancelled and
  /// lives as long as the Simulator: an object that schedules work for
  /// itself holds an OwnedEvents (or a Timer) that dies with it.
  template <EventCallable F>
  void schedule_at(SimTime at, F&& action);

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
  /// Armed timers, counting each one-shot in the Simulator's own queue
  /// (an owner's OwnedEvents counts once, as its timer).
  std::uint64_t pending_events() const;
  std::uint64_t executed_events() const { return executed_; }

  /// Scheduler work, counted only in traced builds (STELLAR_TRACE_ONLY)
  /// and all zero otherwise: the units the wheel spends host time on.
  struct WorkCounts {
    std::uint64_t buckets_loaded = 0;    // slots made the active bucket
    std::uint64_t entries_sorted = 0;    // entries in them at their sort
    std::uint64_t bucket_inserts = 0;    // sorted inserts into the live bucket
    std::uint64_t entries_shifted = 0;   // entries those inserts moved up
    std::uint64_t overflow_pushes = 0;   // entries pushed on the overflow heap
  };

  /// Internal bookkeeping snapshot for the scheduler-sanity invariant
  /// auditor. `queued` is ground truth (the wheel, overflow heap, and
  /// current bucket are walked); the other totals are double-entry
  /// counters that must agree with it and with each other.
  struct HeapStats {
    std::size_t queued = 0;       // entries walked across wheel+heap+bucket
    std::size_t tombstones = 0;   // disarmed timer entries awaiting sweep
    std::size_t pending_ids = 0;  // live (schedulable) entries [counter]
    std::uint64_t live_events = 0;
    // Breakdown (bench/auditor detail).
    std::size_t wheel_entries = 0;     // across the wheel's slots
    std::size_t overflow_entries = 0;  // far-future min-heap
    std::size_t bucket_entries = 0;    // current-slot bucket remainder
    std::size_t pool_capacity = 0;     // capacity of the own one-shot queue
    // Timers: every pending entry is an armed timer, so
    // armed_timers == pending_ids.
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
  friend class OwnedEvents;

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

  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

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
  /// 16 bytes: `key` packs (seq << kIdxBits) | timer id, so comparing
  /// (at_ps, key) is the unique (time, seq) total execution order and
  /// sorts and slot moves stay cheap. Seq is unique among live entries; an
  /// OwnedEvents queue re-arms its timer under a head's seq after an
  /// earlier entry displaced it, and then the displaced entry is an exact
  /// copy of the live one that is swept as a tombstone once the live one
  /// fires. So the id bits never decide. kIdxBits caps the timers at 16M
  /// and seq at 2^40 events — both checked, neither reachable in practice.
  static constexpr unsigned kIdxBits = 24;
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kIdxBits) - 1;
  static constexpr unsigned kSeqBits = 64 - kIdxBits;

  struct Entry {
    std::int64_t at_ps;
    std::uint64_t key;
  };
  static constexpr std::uint32_t entry_idx(const Entry& e) {
    return static_cast<std::uint32_t>(e.key & kIdxMask);
  }
  /// A tombstone: the entry names a timer that was disarmed (or
  /// destroyed), and is now unarmed or armed under another seq.
  bool is_tombstone(const Entry& e) const STELLAR_REQUIRES(owner_) {
    return timers_[entry_idx(e)].seq != e.key >> kIdxBits;
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

  /// No limit on how far advance_to_next_bucket() may move the cursor.
  static constexpr std::int64_t kNoLimit = INT64_MAX;

  /// Checks shared by timers and one-shots: `seq` was reserved and fits
  /// the key, and `at` is not in the past (throws std::invalid_argument).
  void check_schedule(SimTime at, std::uint64_t seq, const char* what) const;
  /// The failure halves of check_schedule() and of arm_timer()'s "armed
  /// while armed" check: cold and out of line.
  void fail_schedule(SimTime at, std::uint64_t seq, const char* what) const;
  void fail_armed(std::uint32_t id) STELLAR_REQUIRES(owner_);

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

  /// Append `e` to slot `s`; a slot's first entry brings it a buffer from
  /// the stash when there is one.
  void slot_push(std::size_t s, const Entry& e) STELLAR_REQUIRES(owner_);
  /// Return an emptied slot's buffer, if it has one, to the stash.
  void stash(std::vector<Entry>& slot) STELLAR_REQUIRES(owner_);
  /// Sorted insert into the active bucket (entry tick == cur_tick_).
  void bucket_insert(const Entry& e) STELLAR_REQUIRES(owner_);
  /// Smallest pending wheel tick, or -1 if the wheel is empty.
  std::int64_t next_occupied_tick() const STELLAR_REQUIRES(owner_);
  /// Load the next tick's entries, from its wheel slot and the overflow
  /// heap, into bucket_ (sorted). False, with the cursor left where it is,
  /// if that tick is past `limit`; false, with the cursor moved to now()'s
  /// tick, if the wheel and the heap are empty.
  bool advance_to_next_bucket(std::int64_t limit) STELLAR_REQUIRES(owner_);
  /// Timer id of the next live event without consuming it, or kNone.
  /// Sweeps tombstones and advances the cursor, up to tick `limit`, as
  /// needed.
  std::uint32_t peek_live(std::int64_t limit) STELLAR_REQUIRES(owner_);
  /// Pop the event found by peek_live() and fire its timer.
  void consume_and_run(std::uint32_t id) STELLAR_REQUIRES(owner_);
  /// The one-shot queue behind schedule_at(), created on first use.
  OwnedEvents& one_shots();

  void overflow_push(Entry e) STELLAR_REQUIRES(owner_);
  Entry overflow_pop() STELLAR_REQUIRES(owner_);

  // Single-owner capability for the whole scheduler (see contract above).
  SingleOwner owner_;

  // Timers, by id; ids of destroyed timers wait in free_timers_.
  std::vector<TimerSlot> timers_ STELLAR_GUARDED_BY(owner_);
  std::vector<std::uint32_t> free_timers_ STELLAR_GUARDED_BY(owner_);
  std::size_t armed_timers_ STELLAR_GUARDED_BY(owner_) = 0;

  // Scheduler structures.
  WheelLevel wheel_ STELLAR_GUARDED_BY(owner_);
  // min-heap by (at, seq)
  std::vector<Entry> overflow_ STELLAR_GUARDED_BY(owner_);
  // active tick, sorted ascending
  std::vector<Entry> bucket_ STELLAR_GUARDED_BY(owner_);
  // consumed prefix of bucket_
  std::size_t bucket_pos_ STELLAR_GUARDED_BY(owner_) = 0;
  // tick the bucket belongs to. Never past now()'s tick between events and
  // equal to it inside one, so no arm lands behind it.
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
  // The one-shots scheduled on the Simulator itself (schedule_at()).
  std::unique_ptr<OwnedEvents> one_shots_;
};

/// A recurring event embedded in its owner: registered with its Simulator
/// once, at construction, then armed, disarmed and re-armed in place. An
/// armed timer is one wheel entry that names the timer; it builds no
/// closure. Arming takes the next seq exactly as schedule_at() does (or a
/// reserve_seq()'d one), so timers and one-shot events fire in one
/// (time, seq) order. Disarming leaves a tombstone.
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
  /// Fire at `at` under a seq from reserve_seq(), used for one event. (An
  /// OwnedEvents queue may arm its timer under the same seq and time again
  /// after a disarm; that re-arm stands for the same event.)
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

/// One-shot events held by the object they act on: a (time, seq) min-heap
/// of closures behind one member Timer, armed at the head. Each entry
/// draws its seq when it is scheduled, as Simulator::schedule_at() does,
/// so entries fire in the shared (time, seq) order whichever queue holds
/// them. Destroying the queue, or clear(), drops the pending entries
/// without running them: an owner that dies, errors or restarts takes its
/// pending work with it. Each entry pays one heap push and one heap pop.
class OwnedEvents {
 public:
  explicit OwnedEvents(Simulator& sim)
      : sim_(&sim), timer_(sim, [this] { fire_head(); }) {}
  OwnedEvents(const OwnedEvents&) = delete;
  OwnedEvents& operator=(const OwnedEvents&) = delete;

  Simulator& simulator() const { return *sim_; }

  /// Run `action` at `at` (>= now(); throws std::invalid_argument, with
  /// nothing queued but the seq consumed, otherwise).
  template <EventCallable F>
  void schedule_at(SimTime at, F&& action) {
    const std::uint64_t seq = take_seq(at);
    if constexpr (std::is_same_v<F, InlineAction>) {
      push(at, seq, std::move(action));
    } else {
      push(at, seq, InlineAction(std::forward<F>(action)));
    }
  }
  template <EventCallable F>
  void schedule_after(SimTime delay, F&& action) {
    schedule_at(sim_->now() + delay, std::forward<F>(action));
  }

  /// Drop every pending entry without running it.
  void clear();
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  std::size_t capacity() const { return heap_.capacity(); }

 private:
  struct Pending {
    std::int64_t at_ps;
    std::uint64_t seq;
    InlineAction action;
  };

  /// Draw the next seq and check `at` against it (throws on a past time).
  std::uint64_t take_seq(SimTime at);
  /// Queue an entry; a new head re-arms the timer under its seq.
  void push(SimTime at, std::uint64_t seq, InlineAction action);
  /// The timer's action: pop the head, arm for the next one, run it.
  void fire_head();

  Simulator* sim_;
  std::vector<Pending> heap_;
  Simulator::Timer timer_;  // armed at the head's (time, seq) while queued
};

template <EventCallable F>
void Simulator::schedule_at(SimTime at, F&& action) {
  one_shots().schedule_at(at, std::forward<F>(action));
}

inline OwnedEvents& Simulator::one_shots() {
  if (one_shots_ == nullptr) [[unlikely]] {
    one_shots_ = std::make_unique<OwnedEvents>(*this);
  }
  return *one_shots_;
}

inline std::uint64_t Simulator::pending_events() const {
  // The queue's armed timer already counts its head.
  const std::size_t queued = one_shots_ != nullptr ? one_shots_->size() : 0;
  return live_events_ + (queued > 0 ? queued - 1 : 0);
}

}  // namespace stellar
