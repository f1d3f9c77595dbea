// Figure 10: AllReduce bus bandwidth for a test job competing with
// (a) static and (b) bursty background AllReduce jobs.
//
// Paper: 2 background + 1 test 512-GPU AllReduce (scaled to 8-rank rings
// across two segments). (a) with 128 paths, RR/OBS saturate the NIC while
// BestRTT/DWRR concentrate on few paths and congest. (b) 128 paths
// mitigates bursts; OBS slightly more resilient than RR.
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/allreduce.h"
#include "collective/traffic.h"
#include "core/run_shard.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

FabricConfig fabric_config() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 12;
  // Mildly oversubscribed aggregation layer (8x200G uplinks vs 12x200G
  // host ports): with three jobs' cross-segment rings in flight, how well
  // an algorithm spreads load decides the attainable bandwidth — the
  // regime the paper's 512-GPU tasks create on the production fabric.
  fc.aggs_per_plane = 8;
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);
  return fc;
}

/// Cross-segment ring: ranks alternate segments so every hop crosses aggs.
std::vector<EndpointId> cross_ring(ClosFabric& fabric, std::uint32_t n,
                                   std::uint32_t host_base) {
  std::vector<EndpointId> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(fabric.endpoint(i % 2, host_base + i / 2));
  }
  return out;
}

TransportConfig transport(MultipathAlgo algo, std::uint16_t paths) {
  TransportConfig t;
  t.algo = algo;
  t.num_paths = paths;
  return t;
}

double static_background_bw(MultipathAlgo algo, std::uint16_t paths) {
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);

  AllReduceConfig bg_cfg;
  bg_cfg.data_bytes = 16_MiB;
  bg_cfg.transport = transport(algo, paths);
  RingAllReduce bg1(fleet, cross_ring(fabric, 8, 0), bg_cfg);
  RingAllReduce bg2(fleet, cross_ring(fabric, 8, 4), bg_cfg);
  // Background jobs iterate forever.
  auto loop = [&sim](RingAllReduce& ar) {
    auto restart = std::make_shared<std::function<void()>>();
    *restart = [&ar, restart] { ar.start(*restart); };
    ar.start(*restart);
    (void)sim;
  };
  loop(bg1);
  loop(bg2);

  AllReduceConfig test_cfg = bg_cfg;
  RingAllReduce test(fleet, cross_ring(fabric, 8, 8), test_cfg);

  // Warm-up, then measure 3 consecutive test AllReduces.
  sim.run_until(SimTime::millis(1));
  double total_bw = 0;
  int measured = 0;
  std::function<void()> chain = [&] {
    total_bw += test.bus_bandwidth_gbps();
    if (++measured < 3) test.start(chain);
  };
  test.start(chain);
  // Step the clock until the three measurements land (the background jobs
  // loop forever, so a fixed long horizon would waste most of the run).
  const SimTime deadline = sim.now() + SimTime::millis(60);
  while (measured < 3 && sim.now() < deadline) {
    sim.run_until(sim.now() + SimTime::millis(1));
  }
  engine_meter().add(sim);
  return measured > 0 ? total_bw / measured : 0.0;
}

double bursty_background_bw(MultipathAlgo algo, std::uint16_t paths) {
  Simulator sim;
  ClosFabric fabric(sim, fabric_config());
  EngineFleet fleet(sim, fabric);

  AllReduceConfig bg_cfg;
  bg_cfg.data_bytes = 16_MiB;
  bg_cfg.transport = transport(MultipathAlgo::kObs, 128);
  RingAllReduce bg(fleet, cross_ring(fabric, 8, 0), bg_cfg);
  // Paper: 5 s on / 5 s off, scaled to 2 ms / 2 ms.
  BurstyDriver bursty(
      sim, [&](std::function<void()> done) { bg.start(std::move(done)); },
      SimTime::millis(2), SimTime::millis(2));
  bursty.run();

  AllReduceConfig test_cfg;
  test_cfg.data_bytes = 16_MiB;
  test_cfg.transport = transport(algo, paths);
  RingAllReduce test(fleet, cross_ring(fabric, 8, 6), test_cfg);

  sim.run_until(SimTime::millis(1));
  double total_bw = 0;
  int measured = 0;
  std::function<void()> chain = [&] {
    total_bw += test.bus_bandwidth_gbps();
    if (++measured < 6) test.start(chain);
  };
  test.start(chain);
  const SimTime deadline = sim.now() + SimTime::millis(120);
  while (measured < 6 && sim.now() < deadline) {
    sim.run_until(sim.now() + SimTime::millis(1));
  }
  engine_meter().add(sim);
  return measured > 0 ? total_bw / measured : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig10");
  engine_meter();  // start the engine wall clock
  print_header(
      "Figure 10a - test AllReduce bus bandwidth (Gbps) under static\n"
      "background (2 looping AllReduce jobs), 8-rank cross-segment rings\n"
      "paper: at 128 paths RR/OBS saturate; BestRTT/DWRR concentrate & lose");
  print_row({"algorithm", "4 paths", "128 paths"});
  const MultipathAlgo algos[] = {
      MultipathAlgo::kSinglePath, MultipathAlgo::kBestRtt,
      MultipathAlgo::kDwrr, MultipathAlgo::kRoundRobin,
      MultipathAlgo::kMprdmaLike, MultipathAlgo::kObs};
  const MultipathAlgo bursty_algos[] = {MultipathAlgo::kRoundRobin,
                                        MultipathAlgo::kObs};

  // All 16 (scenario, algo, paths) runs are independent, so they shard
  // across --threads=N workers (core/run_shard.h); both tables print
  // after the merge, in sweep order — byte-identical for any thread count.
  const std::uint32_t threads = threads_arg(argc, argv);
  double static_bw[6][2];
  double bursty_bw[2][2];
  ShardedRunSet runs(threads);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t p = 0; p < 2; ++p) {
      const MultipathAlgo algo = algos[a];
      const std::uint16_t paths = p == 0 ? 4 : 128;
      double* slot = &static_bw[a][p];
      runs.add([algo, paths, slot] {
        *slot = static_background_bw(algo, paths);
      });
    }
  }
  for (std::size_t a = 0; a < 2; ++a) {
    for (std::size_t p = 0; p < 2; ++p) {
      const MultipathAlgo algo = bursty_algos[a];
      const std::uint16_t paths = p == 0 ? 4 : 128;
      double* slot = &bursty_bw[a][p];
      runs.add([algo, paths, slot] {
        *slot = bursty_background_bw(algo, paths);
      });
    }
  }
  runs.execute();

  for (std::size_t a = 0; a < 6; ++a) {
    print_row({multipath_algo_name(algos[a]), fmt(static_bw[a][0], 1),
               fmt(static_bw[a][1], 1)});
  }

  print_header(
      "Figure 10b - test AllReduce bus bandwidth (Gbps) under bursty\n"
      "background (2ms on / 2ms off; paper 5s/5s)\n"
      "paper: 128 paths mitigates bursts; OBS more resilient than RR");
  print_row({"algorithm", "4 paths", "128 paths"});
  for (std::size_t a = 0; a < 2; ++a) {
    print_row({multipath_algo_name(bursty_algos[a]), fmt(bursty_bw[a][0], 1),
               fmt(bursty_bw[a][1], 1)});
  }
  engine_meter().report();
  return 0;
}
