// Multipath training workload: a 32-rank cross-segment ring AllReduce on
// the rail-optimized fabric, comparing classic single-path RDMA against
// Stellar's 128-path OBS spray — including a mid-run link failure.
//
// This is the §7 story end-to-end: spraying flattens ToR queues, and when
// a link dies, the 250 us RTO retransmits on another path so the collective
// barely notices.
//
// Run: ./examples/multipath_training
#include <cstdio>
#include <functional>

#include "collective/allreduce.h"

using namespace stellar;

namespace {

struct RunResult {
  double first_bw = 0;     // bus bandwidth before the failure
  double failover_bw = 0;  // bus bandwidth of the iteration during failure
  std::uint64_t retransmits = 0;
  double max_queue_kib = 0;
};

RunResult run(MultipathAlgo algo, std::uint16_t paths) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 16;
  fc.aggs_per_plane = 16;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 32; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 64_MiB;
  cfg.transport.algo = algo;
  cfg.transport.num_paths = paths;
  RingAllReduce ar(fleet, ranks, cfg);

  RunResult out;
  int iteration = 0;
  std::function<void()> chain = [&] {
    if (iteration == 0) out.first_bw = ar.bus_bandwidth_gbps();
    if (iteration == 1) {
      // A fiber goes dark between iterations 1 and 2.
      fabric.tor_uplink(0, /*agg=*/5).set_drop_probability(1.0);
    }
    if (iteration == 2) out.failover_bw = ar.bus_bandwidth_gbps();
    if (++iteration < 3) ar.start(chain);
  };
  ar.start(chain);
  sim.run_until(SimTime::millis(500));

  out.retransmits = ar.total_retransmits();
  for (NetLink* l : fabric.all_tor_uplinks()) {
    out.max_queue_kib =
        std::max(out.max_queue_kib, l->max_queue_bytes() / 1024.0);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== 32-rank cross-segment AllReduce, with a link failure ==\n");
  std::printf("%-14s%-12s%-14s%-14s%-12s\n", "transport", "bus Gbps",
              "bus Gbps", "retransmits", "max queue");
  std::printf("%-14s%-12s%-14s%-14s%-12s\n", "", "(healthy)", "(1 link down)",
              "", "(KiB)");
  for (auto [algo, paths] :
       {std::pair{MultipathAlgo::kSinglePath, std::uint16_t{128}},
        std::pair{MultipathAlgo::kObs, std::uint16_t{4}},
        std::pair{MultipathAlgo::kObs, std::uint16_t{128}}}) {
    const RunResult r = run(algo, paths);
    char name[32];
    std::snprintf(name, sizeof(name), "%s/%u", multipath_algo_name(algo),
                  paths);
    std::printf("%-14s%-12.1f%-14.1f%-14llu%-12.1f\n", name, r.first_bw,
                r.failover_bw, static_cast<unsigned long long>(r.retransmits),
                r.max_queue_kib);
  }
  std::printf(
      "\nExpected: OBS keeps the collective moving through the failure —\n"
      "the dead link carries 1/16th of the spray and every timed-out packet\n"
      "is re-sent on another path after the 250us RTO — while single-path\n"
      "connections hashed onto the dead link stall the whole ring (0 Gbps\n"
      "until the control plane would reroute).\n");
  return 0;
}
