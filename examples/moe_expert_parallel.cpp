// Mixture-of-Experts expert parallelism over the Stellar fabric: the
// dispatch/combine all-to-alls of the paper's §9 discussion ("MoE
// introducing expert parallelism"), under both cluster placements, with
// single-path ECMP and 128-path OBS side by side.
//
// All-to-all is the hardest collective for a shared fabric: every rank
// talks to every other rank at once, so hash collisions hurt immediately.
//
// Run: ./examples/moe_expert_parallel
#include <cstdio>
#include <functional>

#include "collective/collectives.h"
#include "workload/placement.h"

using namespace stellar;

namespace {

double run(PlacementPolicy policy, MultipathAlgo algo, std::uint16_t paths) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 8;
  fc.aggs_per_plane = 16;
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);  // 1:1 ToR radix
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  // 16 experts, one per GPU; each iteration dispatches 32 MiB of tokens.
  auto ranks = place_job(fabric, 16, 0, policy);
  CollectiveConfig cfg;
  cfg.data_bytes = 32_MiB;
  cfg.transport.algo = algo;
  cfg.transport.num_paths = paths;
  AllToAll dispatch(fleet, ranks, cfg);

  double total = 0;
  int measured = 0;
  std::function<void()> chain = [&] {
    total += dispatch.algo_bandwidth_gbps();
    if (++measured < 3) dispatch.start(chain);
  };
  dispatch.start(chain);
  sim.run_until(SimTime::millis(100));
  return measured ? total / measured : 0;
}

}  // namespace

int main() {
  std::printf("== MoE expert-parallel all-to-all (16 experts, 32 MiB) ==\n\n");
  std::printf("%-12s%-22s%-22s\n", "placement", "CX7 single-path Gbps",
              "Stellar OBS/128 Gbps");
  for (auto policy :
       {PlacementPolicy::kReranked, PlacementPolicy::kRandomRanking}) {
    const double single = run(policy, MultipathAlgo::kSinglePath, 128);
    const double obs = run(policy, MultipathAlgo::kObs, 128);
    std::printf("%-12s%-22.1f%-22.1f  (%+.1f%%)\n",
                placement_policy_name(policy), single, obs,
                100.0 * (obs / single - 1.0));
  }
  std::printf(
      "\nNote the contrast with ring collectives (multipath_training):\n"
      "all-to-all decomposes into many small flows, giving plain ECMP\n"
      "enough entropy to spread load — so spraying roughly ties here.\n"
      "Elephant-flow rings are where spraying wins big. This matches the\n"
      "paper's §9 observation that today's regular, high-entropy-enough\n"
      "patterns keep simple OBS sufficient, with advanced multipath held\n"
      "in reserve for future traffic.\n");
  return 0;
}
