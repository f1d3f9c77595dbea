// RunSet tests: index-deterministic placement of independent run-jobs
// (core/run_shard.h), the executor the fig benches shard whole runs with.
#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_shard.h"

using namespace stellar;

namespace {

TEST(RunSetTest, PlacementIsIndexDeterministic) {
  RunSet rs;
  constexpr int kJobs = 7;
  constexpr std::uint32_t kThreads = 3;
  std::vector<int> worker(kJobs, -1);
  std::vector<int> stamp(kJobs, -1);
  std::atomic<int> ctr{0};
  for (int i = 0; i < kJobs; ++i) {
    const std::size_t index = rs.add([&worker, &stamp, &ctr, i] {
      worker[i] = RunSet::current_worker();
      stamp[i] = ctr.fetch_add(1);
    });
    EXPECT_EQ(index, static_cast<std::size_t>(i));
  }
  EXPECT_EQ(RunSet::current_worker(), -1);
  rs.execute(kThreads);
  EXPECT_EQ(RunSet::current_worker(), -1);

  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(worker[i], static_cast<int>(i % kThreads))
        << "job " << i << " ran on the wrong worker";
  }
  // Each worker executes its jobs in ascending index order.
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    int last = -1;
    for (int i = static_cast<int>(w); i < kJobs;
         i += static_cast<int>(kThreads)) {
      EXPECT_GT(stamp[i], last);
      last = stamp[i];
    }
  }
}

TEST(RunSetTest, InlineExecutionUsesWorkerZero) {
  RunSet rs;
  std::vector<int> order;
  int w0 = -2, w1 = -2;
  rs.add([&] {
    order.push_back(0);
    w0 = RunSet::current_worker();
  });
  rs.add([&] {
    order.push_back(1);
    w1 = RunSet::current_worker();
  });
  rs.execute(1);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(w0, 0);
  EXPECT_EQ(w1, 0);
}

}  // namespace
