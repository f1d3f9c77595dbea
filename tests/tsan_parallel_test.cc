// Threaded run-level sharding smoke for the TSan gate.
//
// tsan_smoke_test.cc certifies the obs layer's sharing pattern; this file
// certifies run-level sharding (core/run_shard.h) under real worker
// threads: a fig09-mini sweep sharded across a ShardedRunSet with per-run
// obs capture. Under -DSTELLAR_SANITIZE=thread (tools/ci_checks.sh) TSan
// watches the concurrent runs and the per-run capture hubs for real; in
// plain builds the test still asserts the merge contract: the threaded
// sweep's results, merged trace bytes and merged metrics equal the
// single-threaded reference exactly.
//
// tests/tsan_race_demo.cc is the control: an *unprotected* producer/
// consumer pattern that the same TSan build MUST flag.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collective/traffic.h"
#include "core/run_shard.h"
#include "obs/obs.h"

using namespace stellar;

namespace {

// ---------------------------------------------------------------------------
// fig09-mini sharded across a ShardedRunSet (run-level parallelism with
// per-run obs capture merged in index order).
// ---------------------------------------------------------------------------

struct MiniResult {
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::int64_t final_ps = 0;
};

MiniResult run_mini(MultipathAlgo algo) {
  Simulator sim;
  if (obs::ObsHub* h = obs::hub()) h->set_clock(&sim);
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 2;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> eps;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 2; ++h) {
      eps.push_back(fabric.endpoint(s, h));
    }
  }
  PermutationConfig pc;
  pc.message_bytes = 64 * 1024;
  pc.transport.algo = algo;
  pc.transport.num_paths = 8;
  pc.seed = 5;
  PermutationTraffic traffic(fleet, eps, {}, pc);
  traffic.start();
  sim.run_until(SimTime::micros(200));
  MiniResult out;
  out.bytes = traffic.completed_bytes();
  traffic.stop();
  out.events = sim.executed_events();
  out.final_ps = sim.now().ps();
  if (obs::ObsHub* h = obs::hub()) h->set_clock(nullptr);
  return out;
}

struct SweepResult {
  std::vector<MiniResult> runs;
  std::string trace_json;
  std::string metrics_json;
  std::size_t trace_events = 0;
};

/// Four fig09-mini runs sharded over `threads` workers, captured into a
/// fresh hub so each sweep's merged trace and metrics stand alone.
SweepResult sweep(std::uint32_t threads) {
  const MultipathAlgo algos[] = {
      MultipathAlgo::kObs, MultipathAlgo::kRoundRobin,
      MultipathAlgo::kSinglePath, MultipathAlgo::kBestRtt};
  obs::ObsHub hub;
  obs::ObsHub* prev = obs::install_hub(&hub);
  SweepResult out;
  out.runs.resize(4);
  ShardedRunSet runs(threads);
  for (std::size_t i = 0; i < out.runs.size(); ++i) {
    MiniResult* slot = &out.runs[i];
    const MultipathAlgo algo = algos[i];
    runs.add([slot, algo] { *slot = run_mini(algo); });
  }
  runs.execute();
  obs::install_hub(prev);
  out.trace_json = hub.tracer().to_json();
  out.metrics_json = hub.metrics().to_json();
  out.trace_events = hub.tracer().event_count();
  return out;
}

TEST(TsanParallelTest, ThreadedMiniPermutationRunSet) {
  const SweepResult ref = sweep(1);
  const SweepResult par = sweep(4);

  for (std::size_t i = 0; i < ref.runs.size(); ++i) {
    EXPECT_GT(ref.runs[i].events, 100u) << "run " << i << " too small";
    EXPECT_EQ(ref.runs[i].bytes, par.runs[i].bytes) << "run " << i;
    EXPECT_EQ(ref.runs[i].events, par.runs[i].events) << "run " << i;
    EXPECT_EQ(ref.runs[i].final_ps, par.runs[i].final_ps) << "run " << i;
  }
  // Per-run capture merges in run-index order, so the merged trace and
  // metrics are byte-identical whatever the thread count. Compared with
  // EXPECT_TRUE: on a mismatch, gtest's edit-distance diff of two traces
  // this large exhausts memory.
  EXPECT_TRUE(ref.trace_json == par.trace_json)
      << "merged trace differs between 1 and 4 workers";
  EXPECT_TRUE(ref.metrics_json == par.metrics_json)
      << "merged metrics differ between 1 and 4 workers";
#if STELLAR_TRACE_ENABLED
  // The sweep must exercise the probes, or the comparison is vacuous.
  EXPECT_GT(ref.trace_events, 1000u);
  EXPECT_NE(ref.metrics_json.find("transport/packets_sent"),
            std::string::npos);
#endif
}

}  // namespace
