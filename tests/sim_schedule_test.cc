// Scheduler paths of the timing wheel that the determinism tests do not
// pin directly:
//
//  * closures built in place: InlineFunction::emplace for trivial,
//    non-trivial and boxed callables, what schedule_*() accept, and what a
//    throwing schedule leaves behind;
//  * OwnedEvents, the one-shot queue behind one timer: its firing order
//    against a reference heap, dropping entries unrun, and re-arming for
//    an earlier head;
//  * events between 40 ms and 130 ms, far past the wheel's ~8.39 us
//    horizon, which go to the overflow heap and must still fire in
//    (time, seq) order, drained in run_until() slices;
//  * the slot-vector stash: over three wheel revolutions of timer churn,
//    idle slots hold no buffer, so slot buffers plus the stash never
//    exceed the peak number of occupied slots plus one;
//  * the scheduler's work counters (traced builds only) on a fixed 200G
//    data-and-ACK pipeline, where no event lands in the slot being drained.
#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace_only.h"
#include "sim/simulator.h"

using namespace stellar;

namespace {

/// Counts live copies of a capture, so a test can see every constructor
/// matched by a destructor.
struct Tally {
  int constructed = 0;
  int destroyed = 0;
};

struct Counted {
  Tally* tally;
  std::string text;
  Counted(Tally* t, std::string s) : tally(t), text(std::move(s)) {
    ++tally->constructed;
  }
  Counted(const Counted& o) : tally(o.tally), text(o.text) {
    ++tally->constructed;
  }
  Counted(Counted&& o) noexcept : tally(o.tally), text(std::move(o.text)) {
    ++tally->constructed;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++tally->destroyed; }
};

/// A timer whose action appends `id` to `log`.
struct LogTimer {
  LogTimer(Simulator& sim, std::vector<int>& log, int tag)
      : fired(&log), id(tag), timer(sim, [this] { fired->push_back(id); }) {}
  std::vector<int>* fired;
  int id;
  Simulator::Timer timer;
};

std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Closures built in place.
// ---------------------------------------------------------------------------

TEST(InlineFunctionEmplaceTest, TriviallyCopyableLambdaIsStoredInline) {
  int hits = 0;
  int* p = &hits;
  const auto f = [p] { ++*p; };
  static_assert(InlineAction::fits_inline<decltype(f)>);
  InlineAction a;
  a.emplace(f);
  ASSERT_TRUE(a);
  a();
  a();
  EXPECT_EQ(hits, 2);
  // Emplacing over a held callable replaces it.
  a.emplace([p] { *p += 10; });
  a();
  EXPECT_EQ(hits, 12);
}

TEST(InlineFunctionEmplaceTest, NonTrivialCaptureIsBuiltOnceAndDestroyed) {
  Tally tally;
  std::string seen;
  {
    InlineAction a;
    a.emplace([c = Counted(&tally, "payload"), &seen] { seen = c.text; });
    a();
    EXPECT_EQ(seen, "payload");
    // Moving the action relocates the capture; re-emplacing destroys it.
    InlineAction b(std::move(a));
    EXPECT_FALSE(a);
    b();
    b.emplace([] {});
  }
  EXPECT_GT(tally.constructed, 0);
  EXPECT_EQ(tally.constructed, tally.destroyed);
}

TEST(InlineFunctionEmplaceTest, OversizedCallableIsBoxed) {
  Tally tally;
  std::array<char, 100> big{};
  big[99] = 'z';
  char seen = 0;
  {
    const auto f = [big, c = Counted(&tally, "boxed"), &seen] {
      seen = big[99];
    };
    static_assert(sizeof(f) > InlineAction::kInlineBytes);
    static_assert(!InlineAction::fits_inline<decltype(f)>);
    InlineAction a;
    a.emplace(f);
    InlineAction b(std::move(a));  // moves the box pointer, not the callable
    b();
  }
  EXPECT_EQ(seen, 'z');
  EXPECT_EQ(tally.constructed, tally.destroyed);
}

// schedule_*() take any void() callable and an InlineAction rvalue, but not
// an lvalue InlineAction: that would silently empty the caller's variable.
// `A` is the argument's value category: `T&` an lvalue, plain `T` an rvalue.
template <typename A>
concept SchedulableAt = requires(Simulator& s, A&& a) {
  s.schedule_at(SimTime::zero(), std::forward<A>(a));
};
template <typename A>
concept SchedulableAfter = requires(Simulator& s, A&& a) {
  s.schedule_after(SimTime::zero(), std::forward<A>(a));
};
static_assert(SchedulableAt<std::function<void()>&>);
static_assert(SchedulableAt<InlineAction>);
static_assert(SchedulableAfter<InlineAction>);
static_assert(!SchedulableAt<InlineAction&>);
static_assert(!SchedulableAfter<InlineAction&>);
static_assert(!SchedulableAt<int (*)(int)>);

TEST(SimScheduleTest, LvalueStdFunctionIsCopiedAndRvalueInlineActionMoved) {
  Simulator sim;
  std::vector<int> fired;
  std::function<void()> fn = [&fired] { fired.push_back(1); };
  sim.schedule_at(SimTime::nanos(5), fn);
  ASSERT_TRUE(fn);  // copied, not moved from
  InlineAction act = [&fired] { fired.push_back(2); };
  sim.schedule_at(SimTime::nanos(5), std::move(act));
  EXPECT_FALSE(act);
  sim.schedule_after(SimTime::nanos(1), fn);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 2}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimScheduleTest, PastTimeThrowsWithoutRecordOrLeakedCapture) {
  Tally tally;
  Simulator sim;
  sim.run_until(SimTime::micros(1));
  {
    auto f = [c = Counted(&tally, "late")] { (void)c; };
    EXPECT_THROW(sim.schedule_at(SimTime::nanos(500), std::move(f)),
                 std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(SimTime::nanos(500), f),
                 std::invalid_argument);
  }
  EXPECT_EQ(sim.heap_stats().live_events, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(tally.constructed, tally.destroyed);
}

/// A callable whose copy throws: scheduling an lvalue of it fails while
/// its closure is built, before its entry is queued, which must leave
/// nothing queued.
struct ThrowsOnCopy {
  ThrowsOnCopy() = default;
  ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
  ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
  void operator()() const {}
};

TEST(SimScheduleTest, ThrowingClosureCopyLeavesNothingPending) {
  Simulator sim;
  int hits = 0;
  sim.schedule_at(SimTime::nanos(10), [&hits] { ++hits; });
  const ThrowsOnCopy bad;
  EXPECT_THROW(sim.schedule_at(SimTime::nanos(10), bad), std::runtime_error);
  Simulator::HeapStats st = sim.heap_stats();
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(st.pending_ids, 1u);
  EXPECT_EQ(st.tombstones, 0u);
  EXPECT_EQ(st.queued, 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(hits, 1);
  st = sim.heap_stats();
  EXPECT_EQ(st.queued, 0u);
  EXPECT_EQ(st.tombstones, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// OwnedEvents.
// ---------------------------------------------------------------------------

TEST(OwnedEventsTest, MatchesReferenceOrderAndDropsPendingUnrun) {
  Simulator sim;
  std::uint64_t rng = 5;
  // Four sources share one (time, seq) order: two owners' queues, the
  // Simulator's own one-shots and a pool of timers. Every schedule or arm
  // also goes on a reference heap keyed on (time, call order); each
  // firing must be the reference's head. Times sit on a 1 ns grid, some
  // past the wheel horizon, and a queue often gets an entry earlier than
  // its head.
  struct Ref {
    std::int64_t at_ps;
    std::uint64_t order;
    int label;
    bool operator>(const Ref& o) const {
      if (at_ps != o.at_ps) return at_ps > o.at_ps;
      return order > o.order;
    }
  };
  std::vector<Ref> ref;  // min-heap
  std::uint64_t calls = 0;
  int next_label = 0;
  int mismatches = 0;
  int fired = 0;
  OwnedEvents a(sim);
  OwnedEvents b(sim);
  struct PoolTimer {
    PoolTimer(Simulator& sim, std::function<void(PoolTimer&)>* hook)
        : on_fire(hook), timer(sim, [this] { (*on_fire)(*this); }) {}
    std::function<void(PoolTimer&)>* on_fire;
    int label = -1;
    Simulator::Timer timer;
  };
  std::vector<std::unique_ptr<PoolTimer>> timers;
  std::function<void(int)> check;
  std::function<void()> add;
  std::function<void(PoolTimer&)> timer_fired = [&](PoolTimer& t) {
    check(t.label);
  };
  for (int i = 0; i < 64; ++i) {
    timers.push_back(std::make_unique<PoolTimer>(sim, &timer_fired));
  }
  check = [&](int label) {
    ++fired;
    std::pop_heap(ref.begin(), ref.end(), std::greater<>{});
    const Ref head = ref.back();
    ref.pop_back();
    if (head.label != label || head.at_ps != sim.now().ps()) ++mismatches;
    if (fired < 4000) add();
  };
  add = [&] {
    const std::uint64_t r = mix64(rng);
    const SimTime at =
        sim.now() + (r % 50 == 0 ? SimTime::millis(35 + (r >> 8) % 10)
                                 : SimTime::nanos((r >> 8) % 20'000));
    const int label = next_label++;
    ref.push_back({at.ps(), calls++, label});
    std::push_heap(ref.begin(), ref.end(), std::greater<>{});
    auto action = [&check, label] { check(label); };
    switch ((r >> 40) % 4) {
      case 0: a.schedule_at(at, action); break;
      case 1: b.schedule_at(at, action); break;
      case 2: sim.schedule_at(at, action); break;
      default:
        for (const auto& t : timers) {
          if (t->timer.armed()) continue;
          t->label = label;
          t->timer.arm(at);
          return;
        }
        sim.schedule_at(at, action);  // every timer is armed
    }
  };
  for (int i = 0; i < 200; ++i) add();
  sim.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(fired, 4000 + 199);
  EXPECT_TRUE(ref.empty());
  EXPECT_TRUE(a.empty());
  EXPECT_GT(a.capacity(), 1u);

  // An entry earlier than the head moves the queue's timer: the old arm
  // becomes a tombstone, and the new head fires first.
  std::vector<int> log;
  const SimTime t0 = sim.now();
  a.schedule_at(t0 + SimTime::micros(10), [&log] { log.push_back(10); });
  a.schedule_at(t0 + SimTime::micros(20), [&log] { log.push_back(20); });
  EXPECT_EQ(sim.heap_stats().tombstones, 0u);
  a.schedule_at(t0 + SimTime::micros(5), [&log] { log.push_back(5); });
  EXPECT_EQ(sim.heap_stats().tombstones, 1u);
  EXPECT_EQ(sim.heap_stats().live_events, 1u);  // one timer for three
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(sim.pending_events(), 1u);  // an owner's queue counts once
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, (std::vector<int>{5, 10, 20}));

  // clear() and destruction drop entries without running them, and
  // destroy their closures.
  Tally tally;
  auto doomed = std::make_unique<OwnedEvents>(sim);
  for (int i = 1; i <= 3; ++i) {
    a.schedule_after(SimTime::nanos(i),
                     [c = Counted(&tally, "a"), &log] { log.push_back(-1); });
    doomed->schedule_after(SimTime::nanos(i), [c = Counted(&tally, "d"),
                                               &log] { log.push_back(-2); });
  }
  EXPECT_EQ(sim.pending_events(), 2u);
  a.clear();
  EXPECT_TRUE(a.empty());
  doomed.reset();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(tally.constructed, tally.destroyed);

  // A past time throws, queues nothing and consumes a seq, as
  // Simulator::schedule_at() does.
  const std::uint64_t before = sim.reserve_seq();
  EXPECT_THROW(a.schedule_at(sim.now() - SimTime::nanos(1), [] {}),
               std::invalid_argument);
  EXPECT_EQ(sim.reserve_seq(), before + 2);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Past the wheel horizon.
// ---------------------------------------------------------------------------

TEST(SimScheduleTest, EventsPastWheelHorizonFireInTimeSeqOrder) {
  static_assert(Simulator::kWheelHorizon < SimTime::millis(40));
  Simulator sim;
  std::uint64_t rng = 11;
  // Near events (1 ns – 1 ms) and far ones (40–130 ms, past the horizon),
  // on a 1 us grid so equal timestamps are common; a fifth of the far ones
  // are cancelled. Each event is a timer, armed in schedule order, so it
  // is a wheel entry of its own. Arm order is seq order, so the expected
  // firing order is a stable sort of the survivors by time.
  struct Planned {
    std::int64_t at_ps;
    int id;
  };
  std::vector<Planned> planned;
  std::vector<int> fired;
  std::vector<std::unique_ptr<LogTimer>> timers;
  std::vector<LogTimer*> doomed;
  std::vector<int> cancelled;
  for (int i = 0; i < 1000; ++i) {
    const bool is_far = i % 2 == 1;
    const SimTime at =
        is_far ? SimTime::millis(40) + SimTime::micros(mix64(rng) % 90'000)
               : SimTime::micros(mix64(rng) % 1000) + SimTime::nanos(1);
    const bool cancel = is_far && i % 10 == 1;
    timers.push_back(std::make_unique<LogTimer>(sim, fired, cancel ? -1 : i));
    timers.back()->timer.arm(at);
    if (cancel) {
      doomed.push_back(timers.back().get());
      cancelled.push_back(i);
    }
    planned.push_back({at.ps(), i});
  }
  EXPECT_GT(sim.heap_stats().overflow_entries, 0u)
      << "events past the wheel horizon did not reach the overflow heap";
  for (LogTimer* t : doomed) ASSERT_TRUE(t->timer.disarm());
  std::vector<Planned> expected;
  for (const Planned& p : planned) {
    if (!std::binary_search(cancelled.begin(), cancelled.end(), p.id)) {
      expected.push_back(p);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.at_ps < b.at_ps;
                   });
  // Drain in run_until slices, which stop between far events.
  for (int s = 1; s <= 20; ++s) {
    sim.run_until(SimTime::millis(7 * s));
  }
  sim.run();
  std::vector<int> expected_ids;
  for (const Planned& p : expected) expected_ids.push_back(p.id);
  EXPECT_EQ(fired, expected_ids);
  EXPECT_EQ(sim.heap_stats().queued, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Slot-vector stash.
// ---------------------------------------------------------------------------

TEST(SimScheduleTest, TimerChurnHoldsNoMoreBuffersThanPeakOccupiedSlots) {
  Simulator sim;
  std::uint64_t rng = 3;
  std::size_t peak_occupied = 0;
  std::size_t max_buffers = 0;
  bool bounded = true;
  const auto sample = [&] {
    const Simulator::HeapStats st = sim.heap_stats();
    peak_occupied = std::max(peak_occupied, st.occupied_slots);
    max_buffers = std::max(max_buffers, st.slot_buffers);
    if (st.slot_buffers > peak_occupied + 1) {
      ADD_FAILURE() << st.slot_buffers << " slot buffers at "
                    << sim.now().ps() << " ps, peak occupied "
                    << peak_occupied;
      bounded = false;
    }
  };
  // 64 timers, each re-arming itself 1 ns – 5 us ahead and re-arming a
  // companion deadline 2–20 us ahead (in the wheel or past it), disarming
  // the previous one: the transport's RTO pattern, leaving tombstones in
  // the wheel and the heap.
  constexpr int kTimers = 64;
  std::uint64_t deadlines_fired = 0;
  std::vector<std::unique_ptr<Simulator::Timer>> deadlines;
  for (int t = 0; t < kTimers; ++t) {
    deadlines.push_back(std::make_unique<Simulator::Timer>(
        sim, [&deadlines_fired] { ++deadlines_fired; }));
  }
  const SimTime end = SimTime::picos(3 * Simulator::kWheelHorizon.ps());
  std::function<void(int)> fire = [&](int t) {
    if (sim.now() >= end) return;
    deadlines[t]->disarm();
    deadlines[t]->arm(sim.now() +
                      SimTime::nanos(2000 + mix64(rng) % 18'000));
    sim.schedule_after(SimTime::nanos(1 + mix64(rng) % 4'999),
                       [&fire, t] { fire(t); });
    sample();
  };
  for (int t = 0; t < kTimers; ++t) {
    sim.schedule_after(SimTime::nanos(1 + mix64(rng) % 100),
                       [&fire, t] { fire(t); });
  }
  sample();
  sim.run();
  EXPECT_TRUE(bounded);
  EXPECT_GE(sim.now(), end);
  EXPECT_GT(deadlines_fired, 0u);
  EXPECT_GT(peak_occupied, 0u);
  // Drained: every buffer is in the stash, and there are no more of them
  // than slots were ever occupied at once (plus the bucket's).
  const Simulator::HeapStats st = sim.heap_stats();
  EXPECT_EQ(st.occupied_slots, 0u);
  EXPECT_LE(st.slot_buffers, peak_occupied + 1);
  EXPECT_LE(max_buffers, peak_occupied + 1);
}

// ---------------------------------------------------------------------------
// Work counters.
// ---------------------------------------------------------------------------

/// A 200G link pair carrying `packets` back-to-back 4,096 B payloads: each
/// data packet's serialization end (166.4 ns) starts the next and, after
/// 1 us of propagation, the receiver's 64 B ACK (2.56 ns to serialize).
/// Each ACK's arrival re-arms the sender's 10 ms retransmission timer.
/// Every event is a timer armed where a link arms its own: the sender's
/// serialization timer, and one timer per packet re-armed for each hop.
class DataAndAckPipeline {
 public:
  DataAndAckPipeline(Simulator& sim, int packets)
      : sim_(sim),
        packets_(packets),
        serialized_(sim, [this] { on_serialized(); }),
        rto_(sim, [this] { ++timeouts_; }) {
    for (int i = 0; i < packets; ++i) {
      hops_.push_back(std::make_unique<Hops>(this));
    }
    EXPECT_EQ(kAckTx, SimTime::picos(2560));
  }

  Simulator::WorkCounts run() {
    serialized_.arm(sim_.now() + kDataTx);
    sim_.run();
    EXPECT_EQ(sent_, packets_);
    EXPECT_EQ(acked_, packets_);
    EXPECT_EQ(timeouts_, 1);
    return sim_.heap_stats().work;
  }

 private:
  static constexpr Bandwidth kRate = Bandwidth::gbps(200);
  static constexpr SimTime kDataTx = kRate.transmit_time(4096 + 64);
  static constexpr SimTime kAckTx = kRate.transmit_time(64);
  static constexpr SimTime kPropagation = SimTime::micros(1);

  /// One packet's timer: data arrival, ACK serialized, ACK arrival.
  struct Hops {
    explicit Hops(DataAndAckPipeline* p)
        : pipe(p), timer(p->sim_, [this] { pipe->on_hop(*this); }) {}
    DataAndAckPipeline* pipe;
    int hop = 0;
    Simulator::Timer timer;
  };

  void on_serialized() {
    hops_[static_cast<std::size_t>(sent_++)]->timer.arm(sim_.now() +
                                                         kPropagation);
    if (sent_ < packets_) serialized_.arm(sim_.now() + kDataTx);
  }

  void on_hop(Hops& h) {
    switch (++h.hop) {
      case 1:
        h.timer.arm(sim_.now() + kAckTx);
        break;
      case 2:
        h.timer.arm(sim_.now() + kPropagation);
        break;
      default:
        ++acked_;
        rto_.disarm();
        rto_.arm(sim_.now() + SimTime::millis(10));
    }
  }

  Simulator& sim_;
  int packets_;
  int sent_ = 0;
  int acked_ = 0;
  int timeouts_ = 0;
  Simulator::Timer serialized_;
  Simulator::Timer rto_;
  std::vector<std::unique_ptr<Hops>> hops_;
};

TEST(SimWorkCountersTest, DataAndAckPipelineAt200GNeverInsertsIntoLiveBucket) {
  if (!STELLAR_TRACE_ENABLED) {
    GTEST_SKIP() << "work counters are compiled out (STELLAR_TRACE=OFF)";
  }
  Simulator sim;
  const Simulator::WorkCounts w = DataAndAckPipeline(sim, 500).run();
  EXPECT_EQ(sim.executed_events(), 4u * 500 + 1);
  // No event schedules another less than one 2.048 ns slot ahead, so none
  // lands in the slot being drained.
  EXPECT_EQ(w.bucket_inserts, 0u);
  EXPECT_EQ(w.entries_shifted, 0u);
  // Pinned at this wheel geometry. Each of the 500 RTO arms is 10 ms
  // ahead, past the wheel's ~8.39 us, so it goes to the overflow heap and
  // is loaded as a bucket of its own; the 499 disarmed ones are swept
  // there. The other events are sorted once, in 1,753 slots: a packet's
  // arrival lands 1.6 ns after a later packet's serialization end, and
  // such pairs often share a slot.
  EXPECT_EQ(w.overflow_pushes, 500u);
  EXPECT_EQ(w.entries_sorted, 4u * 500 + 500);
  EXPECT_EQ(w.buckets_loaded, 2253u);
}

}  // namespace
