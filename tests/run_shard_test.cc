// ShardedRunSet tests (core/run_shard.h), the executor the fig benches
// shard whole runs with: every job runs once, placement is
// index-deterministic (job i on worker i % threads, each worker in index
// order, inline on the caller at one thread), and per-run obs capture
// merges into the base hub in run-index order whatever the thread count.
// Part of the tsan_smoke binary, so the TSan build runs the threaded cases.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_shard.h"
#include "obs/obs.h"

using namespace stellar;

namespace {

constexpr int kJobs = 7;

struct JobRecord {
  std::thread::id thread;
  int stamp = -1;  // global start order across all workers
  int runs = 0;
};

std::vector<JobRecord> run_jobs(std::uint32_t threads) {
  std::vector<JobRecord> rec(kJobs);
  std::atomic<int> ctr{0};
  ShardedRunSet runs(threads);
  for (int i = 0; i < kJobs; ++i) {
    JobRecord* slot = &rec[static_cast<std::size_t>(i)];
    runs.add([slot, &ctr] {
      slot->thread = std::this_thread::get_id();
      slot->stamp = ctr.fetch_add(1);
      ++slot->runs;
    });
  }
  runs.execute();
  return rec;
}

TEST(ShardedRunSetTest, EachJobRunsExactlyOnce) {
  for (const std::uint32_t threads : {1u, 3u, 16u}) {
    for (const JobRecord& r : run_jobs(threads)) {
      EXPECT_EQ(r.runs, 1) << "threads=" << threads;
    }
  }
}

TEST(ShardedRunSetTest, InlineExecutionRunsOnCallerInIndexOrder) {
  const std::vector<JobRecord> rec = run_jobs(1);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(rec[static_cast<std::size_t>(i)].thread,
              std::this_thread::get_id());
    EXPECT_EQ(rec[static_cast<std::size_t>(i)].stamp, i);
  }
}

TEST(ShardedRunSetTest, PlacementIsIndexDeterministic) {
  constexpr int kThreads = 3;
  const std::vector<JobRecord> rec = run_jobs(kThreads);
  // Jobs equal mod kThreads share one thread, and each residue class has
  // its own.
  for (int i = 0; i < kJobs; ++i) {
    for (int j = 0; j < kJobs; ++j) {
      EXPECT_EQ(rec[static_cast<std::size_t>(i)].thread ==
                    rec[static_cast<std::size_t>(j)].thread,
                i % kThreads == j % kThreads)
          << "jobs " << i << " and " << j;
    }
  }
  // Each worker runs its jobs in ascending index order.
  for (int i = kThreads; i < kJobs; ++i) {
    EXPECT_GT(rec[static_cast<std::size_t>(i)].stamp,
              rec[static_cast<std::size_t>(i - kThreads)].stamp);
  }
}

struct Captured {
  std::uint64_t jobs = 0;
  std::uint64_t index_sum = 0;
  std::string metrics_json;
  std::string trace_json;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uintptr_t> job_hubs;  // obs::hub() inside each job
};

/// Every job counts and emits three instants named after its run; the base
/// tracer keeps 1 of 2 per category, which each run's hub must copy.
Captured capture(std::uint32_t threads) {
  obs::ObsHub base;
  base.tracer().set_sample_period(obs::TraceCat::kSim, 2);
  obs::ObsHub* prev = obs::install_hub(&base);
  Captured out;
  out.job_hubs.resize(kJobs);
  ShardedRunSet runs(threads);
  for (int i = 0; i < kJobs; ++i) {
    std::uintptr_t* hub_slot = &out.job_hubs[static_cast<std::size_t>(i)];
    runs.add([i, hub_slot] {
      *hub_slot = reinterpret_cast<std::uintptr_t>(obs::hub());
      obs::count("shard/jobs");
      obs::count("shard/index_sum", static_cast<std::uint64_t>(i));
      const std::string name = "run" + std::to_string(i);
      for (int k = 0; k < 3; ++k) {
        obs::instant(obs::TraceCat::kSim, name, SimTime::picos(10 * i + k));
      }
    });
  }
  runs.execute();
  obs::install_hub(prev);
  // Each job recorded into a capture hub of its own, never the base.
  for (int i = 0; i < kJobs; ++i) {
    const std::uintptr_t h = out.job_hubs[static_cast<std::size_t>(i)];
    EXPECT_NE(h, 0u) << "job " << i;
    EXPECT_NE(h, reinterpret_cast<std::uintptr_t>(&base)) << "job " << i;
    for (int j = 0; j < i; ++j) {
      EXPECT_NE(h, out.job_hubs[static_cast<std::size_t>(j)]);
    }
  }
  out.jobs = base.metrics().counter("shard/jobs").value();
  out.index_sum = base.metrics().counter("shard/index_sum").value();
  out.metrics_json = base.metrics().to_json();
  out.trace_json = base.tracer().to_json();
  out.events = base.tracer().event_count();
  out.dropped = base.tracer().dropped_by_sampling();
  return out;
}

TEST(ShardedRunSetTest, ProbesMergeIntoBaseInRunIndexOrder) {
  const Captured one = capture(1);
  const Captured three = capture(3);

  // Per-run sampling from a fresh offered-count: 2 of each run's 3.
  EXPECT_EQ(one.events, 2u * kJobs);
  EXPECT_EQ(one.dropped, 1u * kJobs);
  EXPECT_EQ(one.jobs, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(one.index_sum,
            static_cast<std::uint64_t>(kJobs * (kJobs - 1) / 2));
  // Run i's instants precede run i + 1's.
  std::size_t last = 0;
  for (int i = 0; i < kJobs; ++i) {
    const std::size_t at =
        one.trace_json.find("\"run" + std::to_string(i) + "\"");
    ASSERT_NE(at, std::string::npos) << "run " << i;
    EXPECT_GT(at, last) << "run " << i;
    last = at;
  }
  EXPECT_EQ(one.metrics_json, three.metrics_json);
  EXPECT_EQ(one.trace_json, three.trace_json);
}

TEST(ShardedRunSetTest, NoHubMeansNoHubInsideJobs) {
  ASSERT_EQ(obs::hub(), nullptr);
  for (const std::uint32_t threads : {1u, 3u}) {
    std::vector<int> saw_hub(kJobs, -1);
    ShardedRunSet runs(threads);
    for (int i = 0; i < kJobs; ++i) {
      int* slot = &saw_hub[static_cast<std::size_t>(i)];
      runs.add([slot] { *slot = obs::hub() != nullptr ? 1 : 0; });
    }
    runs.execute();
    EXPECT_EQ(saw_hub, std::vector<int>(kJobs, 0))
        << "threads=" << threads;
  }
}

}  // namespace
