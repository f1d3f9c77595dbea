// Simulator::Timer, the recurring event embedded in its owner (a link's
// serialization-done and delivery events, a connection's RTO):
//
//  * arm, disarm and re-arm from inside the timer's own action, where the
//    timer is already disarmed;
//  * a destroyed armed timer leaves a tombstone that never fires, and a
//    recycled timer id is never fired by the old timer's entry;
//  * timers and one-shot closures at equal times fire in seq order, with
//    the seq taken when each is armed or scheduled;
//  * arming an armed timer traps, arming in the past throws, and a timer
//    that outlives its Simulator is detached from it.
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/auditors.h"
#include "check/check.h"
#include "sim/simulator.h"

using namespace stellar;

namespace {

/// A timer that logs (id, firing time) and then runs an optional hook.
struct LogTimer {
  LogTimer(Simulator& s, std::vector<std::int64_t>& log, std::int64_t tag)
      : sim(&s), fired(&log), id(tag), timer(s, [this] { on_fire(); }) {}
  void on_fire() {
    fired->push_back(id);
    fired->push_back(sim->now().ps());
    if (hook) hook(*this);
  }
  Simulator* sim;
  std::vector<std::int64_t>* fired;
  std::int64_t id;
  std::function<void(LogTimer&)> hook;
  Simulator::Timer timer;
};

/// Runs every auditor check the simulator has and expects a clean report.
void expect_books_balance(Simulator& sim) {
  AuditRegistry registry;
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.set_trap_on_finding(false);
  const AuditReport report = registry.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(SimTimerTest, ArmDisarmAndRearmFromOwnCallback) {
  Simulator sim;
  std::vector<std::int64_t> log;
  LogTimer t(sim, log, 7);
  int fires = 0;
  t.hook = [&](LogTimer& self) {
    // Inside its own action the timer is already disarmed: a disarm finds
    // nothing, and a re-arm takes effect.
    EXPECT_FALSE(self.timer.armed());
    EXPECT_FALSE(self.timer.disarm());
    if (++fires == 4) return;
    self.timer.arm(sim.now() + SimTime::nanos(10));
    EXPECT_TRUE(self.timer.armed());
    if (fires == 2) {
      // Disarm and re-arm in the same action: only the last arm fires.
      EXPECT_TRUE(self.timer.disarm());
      EXPECT_FALSE(self.timer.armed());
      self.timer.arm(sim.now() + SimTime::nanos(5));
    }
    expect_books_balance(sim);
  };
  t.timer.arm(SimTime::nanos(10));
  EXPECT_TRUE(t.timer.armed());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.heap_stats().armed_timers, 1u);
  EXPECT_EQ(sim.heap_stats().live_events, 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{7, 10'000, 7, 20'000, 7, 25'000,
                                            7, 35'000}));
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_EQ(sim.heap_stats().tombstones, 0u);  // the swept disarm
  EXPECT_EQ(sim.heap_stats().pool_capacity, 0u);
  expect_books_balance(sim);
}

TEST(SimTimerTest, DisarmLeavesTombstoneAndRearmFiresOnce) {
  Simulator sim;
  std::vector<std::int64_t> log;
  LogTimer t(sim, log, 1);
  t.timer.arm(SimTime::nanos(50));
  EXPECT_TRUE(t.timer.disarm());
  EXPECT_FALSE(t.timer.disarm());
  EXPECT_EQ(sim.heap_stats().tombstones, 1u);
  EXPECT_TRUE(sim.empty());
  expect_books_balance(sim);
  // Re-armed at the same time: the old entry is a tombstone under the new
  // seq, so the timer fires once.
  t.timer.arm(SimTime::nanos(50));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 50'000}));
  EXPECT_EQ(sim.heap_stats().tombstones, 0u);
  expect_books_balance(sim);
}

TEST(SimTimerTest, DestroyedArmedTimerLeavesTombstoneThatNeverFires) {
  Simulator sim;
  std::vector<std::int64_t> log;
  {
    LogTimer t(sim, log, 1);
    t.timer.arm(SimTime::nanos(10));
    EXPECT_EQ(sim.heap_stats().timers, 1u);
  }
  const Simulator::HeapStats st = sim.heap_stats();
  EXPECT_EQ(st.timers, 0u);
  EXPECT_EQ(st.armed_timers, 0u);
  EXPECT_EQ(st.tombstones, 1u);
  EXPECT_EQ(st.queued, 1u);
  EXPECT_TRUE(sim.empty());
  expect_books_balance(sim);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.heap_stats().tombstones, 0u);
  EXPECT_EQ(sim.heap_stats().queued, 0u);
}

TEST(SimTimerTest, RecycledTimerIdIsNeverFiredByOldEntry) {
  Simulator sim;
  std::vector<std::int64_t> log;
  auto old_timer = std::make_unique<LogTimer>(sim, log, 1);
  old_timer->timer.arm(SimTime::nanos(10));
  old_timer.reset();
  // The next timer to register takes the freed id. Armed later, and again
  // at the old entry's own time, it fires only at its own arms.
  LogTimer fresh(sim, log, 2);
  EXPECT_EQ(sim.heap_stats().timers, 1u);
  fresh.timer.arm(SimTime::nanos(20));
  sim.run_until(SimTime::nanos(15));
  EXPECT_TRUE(log.empty());
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{2, 20'000}));

  auto stale = std::make_unique<LogTimer>(sim, log, 3);
  stale->timer.arm(SimTime::nanos(40));
  stale.reset();
  LogTimer reused(sim, log, 4);
  reused.timer.arm(SimTime::nanos(40));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{2, 20'000, 4, 40'000}));
  expect_books_balance(sim);
}

TEST(SimTimerTest, TimersAndClosuresAtEqualTimesFireInSeqOrder) {
  Simulator sim;
  std::vector<std::int64_t> log;
  const SimTime at = SimTime::micros(2);
  std::vector<std::unique_ptr<LogTimer>> timers;
  // Interleave closures and timer arms at one instant; each takes the next
  // seq, so they fire in arming order whatever their kind.
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 1) {
      sim.schedule_at(at, [&log, i] {
        log.push_back(i);
        log.push_back(-1);
      });
    } else {
      timers.push_back(std::make_unique<LogTimer>(sim, log, i));
      timers.back()->timer.arm(at);
    }
  }
  // A reserved seq sorts where it was reserved, not where it was armed.
  const std::uint64_t early = sim.reserve_seq();
  sim.schedule_at(at, [&log] {
    log.push_back(13);
    log.push_back(-1);
  });
  LogTimer late(sim, log, 12);
  late.timer.arm(at, early);
  // Nine timers and the one-shot queue's, which stands for its five.
  EXPECT_EQ(sim.heap_stats().armed_timers, 10u);
  EXPECT_EQ(sim.pending_events(), 14u);
  expect_books_balance(sim);
  sim.run();
  std::vector<std::int64_t> ids;
  for (std::size_t k = 0; k < log.size(); k += 2) ids.push_back(log[k]);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                            11, 12, 13}));
}

TEST(SimTimerTest, ArmingArmedTimerTrapsAndPastTimeThrows) {
  Simulator sim;
  std::vector<std::int64_t> log;
  LogTimer t(sim, log, 1);
  sim.schedule_at(SimTime::nanos(100), [] {});
  sim.run();
  // In the past: throws, nothing armed, nothing queued.
  EXPECT_THROW(t.timer.arm(SimTime::nanos(99)), std::invalid_argument);
  EXPECT_FALSE(t.timer.armed());
  EXPECT_EQ(sim.heap_stats().queued, 0u);
  expect_books_balance(sim);

  t.timer.arm(SimTime::nanos(200));
  CheckFailHandler previous =
      set_check_fail_handler([](const CheckFailure& f) { throw f; });
  EXPECT_THROW(t.timer.arm(SimTime::nanos(300)), CheckFailure);
  set_check_fail_handler(std::move(previous));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 200'000}));
}

TEST(SimTimerTest, TimerOutlivingItsSimulatorIsDetached) {
  std::vector<std::int64_t> log;
  std::unique_ptr<LogTimer> t;
  {
    Simulator sim;
    t = std::make_unique<LogTimer>(sim, log, 1);
    t->timer.arm(SimTime::nanos(10));
  }
  t.reset();  // touches no freed Simulator (the sanitizer build checks)
  EXPECT_TRUE(log.empty());
}

}  // namespace
