#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace stellar {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::nanos(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::nanos(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::nanos(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::nanos(30));
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::nanos(5), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::nanos(100), [&] {
    sim.schedule_after(SimTime::nanos(50), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, SimTime::nanos(150));
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::nanos(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::nanos(5), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  Simulator::Timer timer(sim, [&ran] { ran = true; });
  timer.arm(SimTime::nanos(10));
  EXPECT_TRUE(timer.disarm());
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(SimulatorTest, CancelledEventDoesNotBlockOthers) {
  Simulator sim;
  std::vector<int> order;
  Simulator::Timer timer(sim, [&order] { order.push_back(1); });
  timer.arm(SimTime::nanos(10));
  sim.schedule_at(SimTime::nanos(10), [&] { order.push_back(2); });
  timer.disarm();
  sim.run();
  EXPECT_EQ(order, std::vector<int>{2});
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::nanos(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::nanos(20), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::nanos(30), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(SimTime::nanos(20)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::nanos(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  // The remaining event still runs on the next call.
  sim.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::micros(5));
  EXPECT_EQ(sim.now(), SimTime::micros(5));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(SimTime::nanos(1), chain);
  };
  sim.schedule_at(SimTime::zero(), chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), SimTime::nanos(99));
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::nanos(1), [&] { ++count; });
  sim.schedule_at(SimTime::nanos(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, LargeEventCountStaysOrdered) {
  Simulator sim;
  SimTime last = SimTime::zero();
  bool monotonic = true;
  for (int i = 0; i < 50'000; ++i) {
    // Pseudo-random but deterministic times.
    const auto t = SimTime::nanos((i * 2654435761u) % 1'000'000);
    sim.schedule_at(t, [&, t] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.executed_events(), 50'000u);
}

}  // namespace
}  // namespace stellar
