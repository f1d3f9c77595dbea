// Determinism and scheduler stress tests for the timing-wheel engine (one
// wheel of 2.048 ns slots plus an overflow heap).
//
// The engine's contract is byte-identical replay: events fire in strict
// (time, seq) order, so the same workload produces the same trace every
// run — including under periodic invariant auditing, whose extra events
// may consume sequence numbers but must not perturb workload ordering.
// The stress half drives the scheduler through the regimes the fabric
// benches rely on: equal-timestamp FIFO bursts, disarm-heavy timer churn,
// far-future timers that overflow the ~8.39 us wheel horizon into the heap,
// and arms after run_until() or a drained tombstone sweep, which must not
// land behind the cursor. The firing-order half runs three
// self-rescheduling hold-model mixes on the wheel and on a reference binary
// heap, and requires the same firing log and the same disarm() results
// from both.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/auditors.h"
#include "collective/traffic.h"
#include "sim/simulator.h"

using namespace stellar;

namespace {

/// A timer whose action appends `id` to `fired`.
struct OrderTimer {
  OrderTimer(Simulator& sim, std::vector<int>& log, int tag)
      : fired(&log), id(tag), timer(sim, [this] { fired->push_back(id); }) {}
  std::vector<int>* fired;
  int id;
  Simulator::Timer timer;
};

// ---------------------------------------------------------------------------
// Deterministic replay of a mini permutation workload.
// ---------------------------------------------------------------------------

/// FNV-1a over a stream of 64-bit words.
struct TraceHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }
};

struct RunResult {
  std::uint64_t executed = 0;
  std::int64_t final_ps = 0;
  std::uint64_t trace_hash = 0;
};

/// A scaled-down fig09: 8 endpoints, permutation RDMA writes, sampled
/// every 50 us. The trace hash folds in time-stamped completion progress
/// and the final per-link byte/queue counters, so any ordering difference
/// in the engine shows up even if totals happen to match.
RunResult run_mini_permutation(bool with_audit) {
  Simulator sim;
  AuditRegistry registry;

  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  if (with_audit) {
    registry.add(std::make_unique<SimulatorAuditor>(sim));
    registry.attach_periodic(sim, SimTime::micros(100));
  }

  std::vector<EndpointId> eps;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      eps.push_back(fabric.endpoint(s, h));
    }
  }

  PermutationConfig pc;
  pc.message_bytes = 256 * 1024;
  pc.transport.algo = MultipathAlgo::kObs;
  pc.transport.num_paths = 16;
  pc.seed = 11;
  PermutationTraffic traffic(fleet, eps, {}, pc);
  traffic.start();

  TraceHash trace;
  for (int sample = 0; sample < 20; ++sample) {
    sim.run_until(sim.now() + SimTime::micros(50));
    trace.mix(static_cast<std::uint64_t>(sim.now().ps()));
    trace.mix(traffic.completed_bytes());
  }
  traffic.stop();

  for (NetLink* l : fabric.all_tor_uplinks()) {
    trace.mix(l->bytes_sent());
    trace.mix(l->max_queue_bytes());
  }

  RunResult out;
  out.executed = sim.executed_events();
  out.final_ps = sim.now().ps();
  out.trace_hash = trace.h;
  return out;
}

TEST(SimDeterminismTest, MiniPermutationReplaysByteIdentical) {
  const RunResult a = run_mini_permutation(/*with_audit=*/false);
  const RunResult b = run_mini_permutation(/*with_audit=*/false);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.final_ps, b.final_ps);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_GT(a.executed, 1000u) << "workload too small to be meaningful";
}

TEST(SimDeterminismTest, PeriodicAuditDoesNotPerturbWorkload) {
  const RunResult plain = run_mini_permutation(/*with_audit=*/false);
  const RunResult audited = run_mini_permutation(/*with_audit=*/true);
  // Audit firings consume seq numbers and add executed events, but the
  // workload-visible trace must be identical.
  EXPECT_EQ(plain.final_ps, audited.final_ps);
  EXPECT_EQ(plain.trace_hash, audited.trace_hash);
  EXPECT_GT(audited.executed, plain.executed);
}

// ---------------------------------------------------------------------------
// Scheduler stress: the regimes the wheel must get exactly right.
// ---------------------------------------------------------------------------

/// Deterministic 64-bit mixer (splitmix64) for stress-test "randomness".
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(SimSchedulerStressTest, EqualTimestampBurstFiresInScheduleOrder) {
  Simulator sim;
  const SimTime at = SimTime::micros(5);
  std::vector<int> fired;
  std::vector<std::unique_ptr<OrderTimer>> doomed;
  constexpr int kBurst = 2000;
  for (int i = 0; i < kBurst; ++i) {
    if (i % 3 == 0) {
      doomed.push_back(std::make_unique<OrderTimer>(sim, fired, i));
      doomed.back()->timer.arm(at);
    } else {
      sim.schedule_at(at, [&fired, i] { fired.push_back(i); });
    }
  }
  // Disarm every third event (the timers) after the fact; FIFO order of
  // the survivors must be untouched.
  for (const auto& t : doomed) EXPECT_TRUE(t->timer.disarm());
  sim.run();

  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kBurst - (kBurst + 2) / 3));
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  for (int i : fired) EXPECT_NE(i % 3, 0);
  EXPECT_EQ(sim.now(), at);
}

TEST(SimSchedulerStressTest, ReservedSeqKeepsFifoWhenArmedOutOfOrder) {
  Simulator sim;
  const SimTime at = SimTime::micros(3);
  // Reserve tie-break seqs in FIFO order, then arm the timers backwards —
  // execution must follow the reserved order, not the arming order.
  std::uint64_t seqs[8];
  for (auto& s : seqs) s = sim.reserve_seq();
  std::vector<int> fired;
  std::vector<std::unique_ptr<OrderTimer>> timers;
  for (int i = 0; i < 8; ++i) {
    timers.push_back(std::make_unique<OrderTimer>(sim, fired, i));
  }
  for (int i = 7; i >= 0; --i) timers[i]->timer.arm(at, seqs[i]);
  sim.run();
  ASSERT_EQ(fired.size(), 8u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(SimSchedulerStressTest, CancelHeavyChurnDrainsClean) {
  Simulator sim;
  std::uint64_t rng = 42;
  constexpr int kEvents = 20000;
  std::vector<std::unique_ptr<Simulator::Timer>> timers;
  std::uint64_t fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    const SimTime at = SimTime::nanos(1 + mix64(rng) % 2'000'000);  // ≤2 ms
    timers.push_back(
        std::make_unique<Simulator::Timer>(sim, [&fired] { ++fired; }));
    timers.back()->arm(at);
  }
  // Disarm well over half; a second disarm must report false. A disarmed
  // timer's entry is a tombstone that counts as neither pending nor armed.
  std::uint64_t cancelled = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (mix64(rng) % 100 < 60) {
      EXPECT_TRUE(timers[i]->disarm());
      EXPECT_EQ(sim.heap_stats().armed_timers, sim.pending_events());
      EXPECT_FALSE(timers[i]->disarm());
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, kEvents / 2u);
  EXPECT_EQ(sim.heap_stats().tombstones, cancelled);

  const std::uint64_t executed = sim.run();
  EXPECT_EQ(executed, kEvents - cancelled);
  EXPECT_EQ(fired, kEvents - cancelled);

  const Simulator::HeapStats s = sim.heap_stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.tombstones, 0u);
  EXPECT_EQ(s.live_events, 0u);
  EXPECT_EQ(s.armed_timers, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimSchedulerStressTest, CancelRescheduleChurnReusesOneChunk) {
  // The RTO pattern: every event re-arms a timer far ahead of it, disarming
  // the previous arm. Each tick leaves the one-shot queue before the next
  // is scheduled, so the queue never holds more than one entry even
  // though ~25k tombstones of disarmed arms sit in the wheel at once.
  Simulator sim;
  constexpr std::uint64_t kPairs = 1'000'000;
  const SimTime step = SimTime::nanos(10);
  const SimTime timeout = SimTime::micros(250);
  std::uint64_t pairs = 0;
  std::uint64_t timer_fired = 0;
  std::size_t max_tombstones = 0;
  Simulator::Timer timer(sim, [&timer_fired] { ++timer_fired; });
  std::function<void()> tick = [&] {
    EXPECT_TRUE(timer.disarm());
    timer.arm(sim.now() + timeout);
    if (++pairs % 4096 == 0) {
      max_tombstones = std::max(max_tombstones, sim.heap_stats().tombstones);
    }
    if (pairs < kPairs) sim.schedule_after(step, [&] { tick(); });
  };
  timer.arm(sim.now() + timeout);
  sim.schedule_after(step, [&] { tick(); });
  sim.run();

  EXPECT_EQ(pairs, kPairs);
  EXPECT_EQ(timer_fired, 1u);  // only the last arm survives
  EXPECT_GT(max_tombstones, 20'000u);
  const Simulator::HeapStats s = sim.heap_stats();
  EXPECT_EQ(s.pool_capacity, 1u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.tombstones, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimSchedulerStressTest, FarFutureEventsOverflowAndMergeInOrder) {
  Simulator sim;
  std::uint64_t rng = 7;
  // Mix near events (wheel) with far-future ones (200 ms – 3 s, beyond the
  // ~8.39 us wheel horizon, so they must land in the overflow heap) and a
  // couple of disarmed timers inside the overflow set.
  std::vector<std::unique_ptr<Simulator::Timer>> doomed;
  std::int64_t last_ps = -1;
  bool monotonic = true;
  std::uint64_t fired = 0;
  auto observe = [&] {
    monotonic = monotonic && sim.now().ps() >= last_ps;
    last_ps = sim.now().ps();
    ++fired;
  };
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(SimTime::nanos(1 + mix64(rng) % 1'000'000), observe);
    const SimTime far =
        SimTime::millis(200) + SimTime::micros(mix64(rng) % 2'800'000);
    if (i % 5 == 0) {
      doomed.push_back(
          std::make_unique<Simulator::Timer>(sim, [&observe] { observe(); }));
      doomed.back()->arm(far);
    } else {
      sim.schedule_at(far, observe);
    }
  }
  EXPECT_GT(sim.heap_stats().overflow_entries, 0u)
      << "far-future events did not reach the overflow heap";
  for (const auto& timer : doomed) EXPECT_TRUE(timer->disarm());

  const std::uint64_t executed = sim.run();
  EXPECT_EQ(executed, 1000u - 100u);
  EXPECT_EQ(fired, executed);
  EXPECT_TRUE(monotonic);
  EXPECT_GE(sim.now(), SimTime::millis(200));
}

TEST(SimSchedulerStressTest, SchedulingEarlierThanParkedCursorRewinds) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime::millis(1), [&] { fired.push_back(2); });
  // run_until stops short of the far event without moving the cursor to
  // it (an older wheel parked the cursor there and had to rewind it)...
  sim.run_until(SimTime::micros(500));
  EXPECT_TRUE(fired.empty());
  // ...so an earlier schedule lands ahead of the cursor and fires first.
  sim.schedule_at(SimTime::micros(600), [&] { fired.push_back(1); });
  sim.schedule_at(SimTime::micros(600), [&] { fired.push_back(11); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 11);
  EXPECT_EQ(fired[2], 2);
  EXPECT_EQ(sim.now(), SimTime::millis(1));
}

TEST(SimSchedulerStressTest, RemoteHandoffBehindParkedCursorRewinds) {
  // Regression: a handoff armed with a previously reserved seq (the way a
  // link hands a pipelined delivery to its shared event) before the next
  // pending event, after run_until() stopped short of it (the case that
  // once landed behind a parked cursor), must fire in time order like a
  // plain schedule, and equal-time handoffs must fire in seq order, not
  // arming order.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime::millis(1), [&] { fired.push_back(4); });
  // Seqs are reserved before run_until(); the later handoff gets the
  // smallest one.
  const std::uint64_t later = sim.reserve_seq();
  const std::uint64_t first = sim.reserve_seq();
  const std::uint64_t second = sim.reserve_seq();
  // run_until stops short of the far event...
  sim.run_until(SimTime::micros(500));
  EXPECT_TRUE(fired.empty());
  // ...then handoffs land before it. The second arming lands in the same
  // slot with a smaller seq and must fire first...
  OrderTimer one(sim, fired, 1);
  OrderTimer two(sim, fired, 2);
  OrderTimer three(sim, fired, 3);
  two.timer.arm(SimTime::micros(600), second);
  one.timer.arm(SimTime::micros(600), first);
  // ...and a later handoff sorts by time, whatever its seq.
  three.timer.arm(SimTime::micros(700), later);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), SimTime::millis(1));
}

TEST(SimSchedulerStressTest, ArmAfterDrainedTombstoneSweepFiresInOrder) {
  // A run() that finds only tombstones executes nothing and leaves the
  // clock where it was, but sweeps the wheel out to the last tombstone.
  // Arms earlier than that sweep must still fire at their times.
  struct Stamp {
    Stamp(Simulator& s, std::vector<std::pair<int, SimTime>>& l, int t)
        : sim(&s), log(&l), tag(t),
          timer(s, [this] { log->emplace_back(tag, sim->now()); }) {}
    Simulator* sim;
    std::vector<std::pair<int, SimTime>>* log;
    int tag;
    Simulator::Timer timer;
  };
  Simulator sim;
  std::vector<std::pair<int, SimTime>> fired;
  Stamp in_wheel(sim, fired, -1);
  Stamp in_heap(sim, fired, -2);
  in_wheel.timer.arm(SimTime::micros(5));
  in_heap.timer.arm(SimTime::millis(1));
  ASSERT_TRUE(in_wheel.timer.disarm());
  ASSERT_TRUE(in_heap.timer.disarm());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.now(), SimTime::zero());

  Stamp one(sim, fired, 1);
  Stamp two(sim, fired, 2);
  one.timer.arm(SimTime::micros(1));
  two.timer.arm(SimTime::micros(2));
  sim.schedule_at(SimTime::micros(1),
                  [&] { fired.emplace_back(11, sim.now()); });
  EXPECT_EQ(sim.run(), 3u);
  const std::vector<std::pair<int, SimTime>> expected{
      {1, SimTime::micros(1)}, {11, SimTime::micros(1)},
      {2, SimTime::micros(2)}};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.heap_stats().queued, 0u);
}

TEST(SimSchedulerStressTest, ReentrantSchedulingFromActionsKeepsOrder) {
  Simulator sim;
  std::vector<int> fired;
  // Each firing schedules two children at the same future instant, into
  // the one-shot queue it was just popped from.
  std::function<void(int)> spawn = [&](int depth) {
    fired.push_back(depth);
    if (depth < 6) {
      sim.schedule_after(SimTime::nanos(10), [&spawn, depth] {
        spawn(depth + 1);
      });
      sim.schedule_after(SimTime::nanos(10), [&spawn, depth] {
        spawn(depth + 1);
      });
    }
  };
  sim.schedule_at(SimTime::nanos(1), [&spawn] { spawn(0); });
  const std::uint64_t executed = sim.run();
  EXPECT_EQ(executed, (1u << 7) - 1);  // full binary tree of depth 6
  EXPECT_EQ(fired.size(), executed);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Firing order against a reference heap.
// ---------------------------------------------------------------------------

/// The seed engine's ordering rule and nothing else: a binary heap keyed on
/// (time, schedule order), and the set of ids still pending, so disarming
/// a timer whose event ran or was disarmed already reports false.
class ReferenceHeap {
 public:
  using Handle = std::uint64_t;  // the event's schedule order

  /// Simulator::Timer's interface: each arm schedules one event.
  class Timer {
   public:
    template <typename F>
    Timer(ReferenceHeap& eng, F action) : eng_(&eng), action_(action) {}
    void arm(SimTime at) {
      armed_ = eng_->schedule_at(at, [this] { action_(); });
    }
    bool disarm() { return eng_->pending_.erase(armed_) > 0; }

   private:
    ReferenceHeap* eng_;
    std::function<void()> action_;
    Handle armed_ = 0;  // seqs start at 1
  };

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime at, std::function<void()> action) {
    const Handle id = next_seq_++;
    queue_.push(Event{at.ps(), id, std::move(action)});
    pending_.insert(id);
    return id;
  }
  void schedule_after(SimTime delay, std::function<void()> action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Time of the next event that will run, or -1 when none is pending.
  std::int64_t next_ps() {
    while (!queue_.empty() && !pending_.contains(queue_.top().seq)) {
      queue_.pop();  // disarmed
    }
    return queue_.empty() ? -1 : queue_.top().at_ps;
  }

  void run_until(SimTime deadline) {
    for (std::int64_t at = next_ps(); at >= 0 && at <= deadline.ps();
         at = next_ps()) {
      fire_top();
    }
    if (now_ < deadline) now_ = deadline;
  }
  void run() {
    while (next_ps() >= 0) fire_top();
  }

 private:
  struct Event {
    std::int64_t at_ps;
    std::uint64_t seq;
    std::function<void()> action;
    bool operator>(const Event& o) const {
      if (at_ps != o.at_ps) return at_ps > o.at_ps;
      return seq > o.seq;
    }
  };

  void fire_top() {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    pending_.erase(ev.seq);
    now_ = SimTime::picos(ev.at_ps);
    ev.action();
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_set<std::uint64_t> pending_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
};

enum class Mix { kScheduleFire, kCancelHeavy, kFarFuture };

struct MixCase {
  Mix mix;
  const char* name;
  std::uint32_t rounds;  // firings per actor after its first
  SimTime slice;         // run_until step before the final run()
};

void PrintTo(const MixCase& c, std::ostream* os) { *os << c.name; }

constexpr std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

/// Per-mix delta distribution, on a 1 ns grid so equal timestamps are
/// common. schedule_fire stays at the link event scale (1 ns .. 8 us,
/// inside the wheel's ~8.39 us), so it never touches the overflow heap;
/// cancel_heavy reaches 32 us, past the wheel; far_future sends ~20 % of
/// deltas to the heap, 100 us to 1 s ahead.
SimTime delta_for(Mix mix, std::uint64_t r) {
  if (mix == Mix::kScheduleFire) return SimTime::nanos(1 + (r >> 33) % 8000);
  if (mix == Mix::kFarFuture) {
    const std::uint64_t pick = (r >> 32) % 100;
    if (pick >= 95) return SimTime::millis(200 + (r >> 40) % 800);
    if (pick >= 80) return SimTime::micros(100 + (r >> 40) % 900);
  }
  return SimTime::nanos(1 + (r >> 33) % 32000);
}

/// One firing: the actor's own event (kind 0), a victim it armed in
/// `round` (kind 1), or the probe scheduled from outside the run after
/// slice `round` (kind 2, actor = number of actors).
struct Firing {
  std::int64_t at_ps;
  std::uint32_t actor;
  std::uint32_t round;
  std::uint8_t kind;
  bool operator==(const Firing&) const = default;
};

struct FiringTrace {
  std::vector<Firing> firings;
  std::vector<bool> disarms;  // every disarm() result, in call order
  // Simulator only: the regime each mix is named for, sampled per slice.
  std::size_t max_overflow = 0;
  std::size_t max_tombstones = 0;
  // Reference only: probes that landed a whole slot (2.048 ns) before the
  // next pending event, where an older wheel had parked its cursor and had
  // to rewind it.
  std::uint32_t probes_behind_cursor = 0;
};

template <class Engine>
struct Actor;

/// A victim timer of cancel_heavy: logs the round it was last armed in.
template <class Engine>
struct Victim {
  explicit Victim(Actor<Engine>* a)
      : actor(a), timer(*a->eng, [this] { actor->victim_fired(round); }) {}
  Actor<Engine>* actor;
  std::uint32_t round = 0;
  typename Engine::Timer timer;
};

/// A self-rescheduling actor: fires `rounds` more times, each firing
/// drawing its next delta from a private LCG stream and re-arming its own
/// timer, so each firing is a wheel entry of its own (one-shots would wait
/// in the Simulator's queue behind a single entry). In cancel_heavy each
/// firing also arms two victim timers: it disarms one at once (a
/// tombstone) and leaves the other armed until its next firing, by which
/// time the victim may have run (disarm() false) or not (true).
template <class Engine>
struct Actor {
  Actor(Engine* e, FiringTrace* t, std::uint32_t actor_id,
        std::uint32_t rounds, Mix m)
      : eng(e),
        trace(t),
        id(actor_id),
        rng(lcg(actor_id + 1)),
        rounds_left(rounds),
        mix(m) {}
  Engine* eng;
  FiringTrace* trace;
  std::uint32_t id;
  std::uint64_t rng;
  std::uint32_t rounds_left;
  std::uint32_t round = 0;
  Mix mix;
  typename Engine::Timer own{*eng, [this] { fire(); }};
  Victim<Engine> now_victim{this};
  Victim<Engine> held{this};

  void victim_fired(std::uint32_t r) {
    trace->firings.push_back({eng->now().ps(), id, r, 1});
  }

  void fire() {
    trace->firings.push_back({eng->now().ps(), id, round, 0});
    if (rounds_left == 0) return;
    --rounds_left;
    ++round;
    rng = lcg(rng);
    if (mix == Mix::kCancelHeavy) {
      if (round > 1) trace->disarms.push_back(held.timer.disarm());
      now_victim.round = round;
      now_victim.timer.arm(eng->now() + delta_for(mix, lcg(rng ^ 1)));
      held.round = round;
      held.timer.arm(eng->now() + delta_for(mix, lcg(rng ^ 2)));
      trace->disarms.push_back(now_victim.timer.disarm());
    }
    own.arm(eng->now() + delta_for(mix, rng));
  }
};

constexpr std::uint32_t kActors = 4096;
constexpr std::uint32_t kSlices = 64;

template <class Engine>
FiringTrace run_mix(const MixCase& c) {
  Engine eng;
  FiringTrace trace;
  std::vector<std::unique_ptr<Actor<Engine>>> pool;
  for (std::uint32_t i = 0; i < kActors; ++i) {
    pool.push_back(
        std::make_unique<Actor<Engine>>(&eng, &trace, i, c.rounds, c.mix));
    Actor<Engine>* self = pool.back().get();
    self->own.arm(eng.now() + delta_for(c.mix, self->rng));
  }
  for (std::uint32_t s = 1; s <= kSlices; ++s) {
    eng.run_until(SimTime::picos(c.slice.ps() * s));
    if constexpr (std::is_same_v<Engine, Simulator>) {
      const Simulator::HeapStats st = eng.heap_stats();
      trace.max_overflow = std::max(trace.max_overflow, st.overflow_entries);
      trace.max_tombstones = std::max(trace.max_tombstones, st.tombstones);
    }
    // Work posted between slices, as a fig bench posts the next phase:
    // one picosecond after the deadline, off the 1 ns grid, so it ties
    // with nothing.
    const SimTime probe = eng.now() + SimTime::picos(1);
    if constexpr (std::is_same_v<Engine, ReferenceHeap>) {
      const std::int64_t next = eng.next_ps();
      if (next >= 0 && next - probe.ps() >= 2048) ++trace.probes_behind_cursor;
    }
    FiringTrace* t = &trace;
    eng.schedule_at(probe, [t, probe, s] {
      t->firings.push_back({probe.ps(), kActors, s, 2});
    });
  }
  eng.run();
  if constexpr (std::is_same_v<Engine, Simulator>) {
    const Simulator::HeapStats st = eng.heap_stats();
    EXPECT_EQ(st.queued, 0u);
    EXPECT_EQ(st.tombstones, 0u);
    EXPECT_EQ(eng.pending_events(), 0u);
  }
  EXPECT_EQ(std::count_if(pool.begin(), pool.end(),
                          [](const std::unique_ptr<Actor<Engine>>& a) {
                            return a->rounds_left != 0;
                          }),
            0)
      << "actors that stopped before their last round";
  return trace;
}

class SimFiringOrderTest : public ::testing::TestWithParam<MixCase> {};

TEST_P(SimFiringOrderTest, MatchesReferenceHeap) {
  const MixCase& c = GetParam();
  const FiringTrace wheel = run_mix<Simulator>(c);
  const FiringTrace ref = run_mix<ReferenceHeap>(c);

  const std::size_t own = std::size_t{kActors} * (c.rounds + 1);
  ASSERT_GE(ref.firings.size(), own + kSlices);
  ASSERT_EQ(wheel.firings.size(), ref.firings.size());
  const auto diverged = std::mismatch(wheel.firings.begin(),
                                      wheel.firings.end(),
                                      ref.firings.begin());
  if (diverged.first != wheel.firings.end()) {
    const Firing& w = *diverged.first;
    const Firing& r = *diverged.second;
    FAIL() << "firing " << (diverged.first - wheel.firings.begin())
           << " differs: wheel ran (" << w.at_ps << " ps, actor " << w.actor
           << ", round " << w.round << ", kind " << int{w.kind}
           << "), the reference heap (" << r.at_ps << " ps, actor "
           << r.actor << ", round " << r.round << ", kind " << int{r.kind}
           << ")";
  }
  EXPECT_EQ(wheel.disarms, ref.disarms);
  EXPECT_GT(ref.probes_behind_cursor, 0u)
      << "no probe was scheduled a slot or more before the next event";

  switch (c.mix) {
    case Mix::kScheduleFire:
      EXPECT_EQ(wheel.max_overflow, 0u);
      EXPECT_EQ(wheel.max_tombstones, 0u);
      break;
    case Mix::kCancelHeavy: {
      EXPECT_GT(wheel.max_tombstones, kActors / 4);
      const auto refused = std::count(ref.disarms.begin(), ref.disarms.end(),
                                      false);
      EXPECT_GT(refused, 0) << "no disarm() of a timer that had fired";
      EXPECT_LT(static_cast<std::size_t>(refused), ref.disarms.size() / 2);
      break;
    }
    case Mix::kFarFuture:
      EXPECT_GT(wheel.max_overflow, 0u)
          << "far-future events did not reach the overflow heap";
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SimFiringOrderTest,
    ::testing::Values(
        MixCase{Mix::kScheduleFire, "schedule_fire", 24, SimTime::micros(5)},
        MixCase{Mix::kCancelHeavy, "cancel_heavy", 16, SimTime::micros(5)},
        MixCase{Mix::kFarFuture, "far_future", 24, SimTime::millis(2)}),
    [](const ::testing::TestParamInfo<MixCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
