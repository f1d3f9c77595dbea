// Figure 12: ToR uplink load imbalance vs number of paths per connection.
//
// Paper setup: RDMA bandwidth between two RNICs with 16 connections,
// sweeping 4..256 paths; imbalance = (max - min uplink load) / port
// bandwidth. Ideal balance is reached only around 128 paths — enough to
// cover all aggregation switches (60 in production, 16 here).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/fleet.h"
#include "core/run_shard.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

struct Imbalance {
  double max_min_delta_pct = 0;  // (max-min)/port bandwidth
  double cov_pct = 0;            // coefficient of variation of loads
};

Imbalance run(std::uint16_t paths, Fidelity fidelity) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 16;
  ClosFabric fabric(sim, fc);
  auto hybrid = make_fidelity_driver(sim, fabric, fidelity);
  if (hybrid != nullptr) attach_fluid_spans(*hybrid);
  EngineFleet fleet(sim, fabric);

  // Two RNICs (one per segment host 0), 16 connections between them.
  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(1, 0);
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = paths;

  std::vector<RdmaConnection*> conns;
  for (int i = 0; i < 16; ++i) {
    conns.push_back(fleet.connect(a, b, t).value());
  }
  // Continuous streaming on all 16 connections.
  for (auto* c : conns) {
    auto repost = std::make_shared<std::function<void()>>();
    *repost = [c, repost] { c->post_write(512_KiB, *repost); };
    c->post_write(512_KiB, *repost);
  }

  // Hybrid: fluid fast-forward over the first half of the warmup, packet
  // zoom from there through the whole measured window — per-uplink
  // bytes_sent (the imbalance metric) only exists in packet mode.
  if (fidelity == Fidelity::kHybrid) {
    hybrid->request_zoom_window(SimTime::micros(500), SimTime::millis(5));
  }
  sim.run_until(SimTime::millis(1));  // warm up
  fabric.reset_stats();
  const SimTime window = SimTime::millis(4);
  sim.run_until(sim.now() + window);
  engine_meter().add(sim);

  double max_load = 0, min_load = 1e18, sum = 0, sum2 = 0;
  const auto uplinks = fabric.tor_uplinks(0);
  for (NetLink* l : uplinks) {
    const double gbps =
        static_cast<double>(l->bytes_sent()) * 8.0 / window.sec() / 1e9;
    max_load = std::max(max_load, gbps);
    min_load = std::min(min_load, gbps);
    sum += gbps;
    sum2 += gbps * gbps;
  }
  const double n = static_cast<double>(uplinks.size());
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  Imbalance out;
  // Paper metric: (max - min load) over the traffic actually offered to
  // the port group (normalizing by raw 400G port capacity would shrink
  // every number by the utilization factor without changing the shape).
  out.max_min_delta_pct = mean > 0
                              ? 100.0 * (max_load - min_load) / (mean * n)
                              : 0;
  out.cov_pct = mean > 0 ? 100.0 * std::sqrt(std::max(0.0, var)) / mean : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig12");
  engine_meter();  // start the engine wall clock
  // Independent sweep points shard across --threads=N workers
  // (core/run_shard.h); printing happens after the merge, in sweep order,
  // so output is byte-identical for every thread count.
  const std::uint32_t threads = threads_arg(argc, argv);
  const Fidelity fidelity = fidelity_arg(argc, argv);
  print_header(
      "Figure 12 - ToR uplink imbalance vs paths per connection\n"
      "2 RNICs, 16 connections, 16 aggregation switches\n"
      "paper: balance becomes ideal only at >=128 paths");
  print_row({"paths", "max-min delta %", "load CoV %"});
  std::printf("fidelity: %s\n", fidelity_name(fidelity));
  const std::vector<std::uint16_t> sweep = {4, 8, 16, 32, 64, 128, 256};
  std::vector<Imbalance> results(sweep.size());
  ShardedRunSet runs(threads);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::uint16_t paths = sweep[i];
    Imbalance* slot = &results[i];
    runs.add([paths, slot, fidelity] { *slot = run(paths, fidelity); });
  }
  runs.execute();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    print_row({std::to_string(sweep[i]), fmt(results[i].max_min_delta_pct, 2),
               fmt(results[i].cov_pct, 1)});
  }
  engine_meter().report();
  return 0;
}
