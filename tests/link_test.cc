#include "net/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace stellar {
namespace {

NetPacket make_packet(std::uint32_t payload) {
  NetPacket p;
  p.payload = payload;
  p.header = 64;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(LinkTest, SerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(100);  // 80 ps/bit -> 4096+64 B = 3.328 us? no:
  cfg.propagation = SimTime::nanos(500);
  NetLink link(sim_, "l", cfg);
  SimTime arrival;
  link.set_deliver([&](NetPacket&&) { arrival = sim_.now(); });
  link.enqueue(make_packet(4096));
  sim_.run();
  // (4096+64)*8 bits / 100 Gbps = 332.8 ns, + 500 ns propagation.
  EXPECT_EQ(arrival, SimTime::picos(332'800) + SimTime::nanos(500));
}

TEST_F(LinkTest, FifoQueueingBacklog) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(8);  // 1 GB/s: 1 byte/ns
  cfg.propagation = SimTime::zero();
  NetLink link(sim_, "l", cfg);
  std::vector<SimTime> arrivals;
  link.set_deliver([&](NetPacket&&) { arrivals.push_back(sim_.now()); });
  link.enqueue(make_packet(936));   // 1000 B wire
  link.enqueue(make_packet(1936));  // 2000 B wire
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], SimTime::micros(1));
  EXPECT_EQ(arrivals[1], SimTime::micros(3));  // waits for the first
}

TEST_F(LinkTest, PropagationShrinkDeliversInArrivalOrder) {
  // Packets past serialization wait in the in-flight FIFO in arrival
  // order. A runtime propagation cut makes later packets arrive before
  // earlier ones, so they are inserted ahead of them; the FIFO must come
  // out sorted by arrival (ties in serialization order) and lose nothing,
  // also while it grows.
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(8);  // 1 byte/ns: 1 us per packet
  cfg.propagation = SimTime::micros(10);
  NetLink link(sim_, "l", cfg);
  std::vector<std::pair<SimTime, std::uint64_t>> got;
  link.set_deliver(
      [&](NetPacket&& p) { got.emplace_back(sim_.now(), p.psn); });
  constexpr std::uint64_t kPackets = 20;
  for (std::uint64_t i = 1; i <= kPackets; ++i) {
    NetPacket p = make_packet(936);  // 1000 B wire
    p.psn = i;  // serialization ends at i us
    link.enqueue(std::move(p));
  }
  sim_.schedule_at(SimTime::nanos(5500),
                   [&] { link.set_propagation(SimTime::micros(1)); });
  sim_.run();

  std::vector<std::pair<SimTime, std::uint64_t>> want;
  for (std::uint64_t i = 1; i <= kPackets; ++i) {
    const std::int64_t done_us = static_cast<std::int64_t>(i);
    want.emplace_back(SimTime::micros(done_us + (i <= 5 ? 10 : 1)), i);
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(LinkTest, EcnMarkAboveThreshold) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(1);
  cfg.ecn_threshold_bytes = 1500;
  NetLink link(sim_, "l", cfg);
  std::vector<bool> marks;
  link.set_deliver([&](NetPacket&& p) { marks.push_back(p.ecn_marked); });
  link.enqueue(make_packet(936));   // queue 1000 < 1500: clean
  link.enqueue(make_packet(936));   // queue 2000 > 1500: marked
  sim_.run();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_FALSE(marks[0]);
  EXPECT_TRUE(marks[1]);
  EXPECT_EQ(link.ecn_marks(), 1u);
}

TEST_F(LinkTest, TailDropWhenFull) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(1);
  cfg.queue_capacity_bytes = 2000;
  NetLink link(sim_, "l", cfg);
  int count = 0;
  link.set_deliver([&](NetPacket&&) { ++count; });
  link.enqueue(make_packet(936));  // 1000 B
  link.enqueue(make_packet(936));  // 2000 B: fits exactly
  link.enqueue(make_packet(936));  // dropped
  sim_.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(link.tail_drops(), 1u);
}

TEST_F(LinkTest, RandomDropProbability) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(100);
  cfg.drop_probability = 0.3;
  cfg.queue_capacity_bytes = 1u << 30;
  NetLink link(sim_, "l", cfg, /*drop_seed=*/77);
  int count = 0;
  link.set_deliver([&](NetPacket&&) { ++count; });
  constexpr int kPackets = 10'000;
  for (int i = 0; i < kPackets; ++i) link.enqueue(make_packet(0));
  sim_.run();
  EXPECT_NEAR(static_cast<double>(count) / kPackets, 0.7, 0.02);
  EXPECT_EQ(link.random_drops() + count, static_cast<std::uint64_t>(kPackets));
}

TEST_F(LinkTest, StatsAccounting) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(1);
  NetLink link(sim_, "l", cfg);
  link.set_deliver([](NetPacket&&) {});
  link.enqueue(make_packet(936));
  link.enqueue(make_packet(936));
  EXPECT_EQ(link.queue_bytes(), 2000u);
  EXPECT_EQ(link.max_queue_bytes(), 2000u);
  sim_.run();
  EXPECT_EQ(link.queue_bytes(), 0u);
  EXPECT_EQ(link.bytes_sent(), 2000u);
  EXPECT_EQ(link.packets_sent(), 2u);
  link.reset_stats();
  EXPECT_EQ(link.bytes_sent(), 0u);
  EXPECT_EQ(link.max_queue_bytes(), 0u);
}

TEST_F(LinkTest, MeanQueueIsTimeWeighted) {
  LinkConfig cfg;
  cfg.bandwidth = Bandwidth::gbps(8);  // 1 byte/ns
  cfg.propagation = SimTime::zero();
  NetLink link(sim_, "l", cfg);
  link.set_deliver([](NetPacket&&) {});
  // One 1000-byte wire packet: queue holds 1000 B for 1 us, then empty.
  link.enqueue(make_packet(936));
  sim_.run_until(SimTime::micros(2));
  // Average over 2 us = 1000 * 1/2 = 500.
  EXPECT_NEAR(link.mean_queue_bytes(), 500.0, 5.0);
}

}  // namespace
}  // namespace stellar
