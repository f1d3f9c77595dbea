// Ablations for the design choices DESIGN.md calls out:
//   (a) single shared CC context with 128 paths vs per-path CC with 4
//       paths (§9: per-path CC would shrink the feasible fan-out 128 -> 4);
//   (b) PVDMA block size: 4 KiB vs 2 MiB vs 16 MiB (map-cache size vs pin
//       overhead vs conflict surface, §5);
//   (c) RTO sweep under a lossy link (the 250 us production choice, §7).
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/allreduce.h"
#include "virt/pvdma.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

struct AblationResult {
  double bw_gbps = 0;
  double uplink_cov_pct = 0;  // load imbalance across ToR uplinks
};

AblationResult allreduce_bw(std::uint16_t paths, SimTime rto, double loss,
                            bool per_path_cc = false,
                            CcAlgo cc_algo = CcAlgo::kWindowEcnRtt) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 8;
  // Oversubscribed 1:2 aggregation layer at 200G: spreading quality (the
  // benefit of high fan-out) decides attainable bandwidth.
  fc.aggs_per_plane = 8;
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  if (loss > 0) fabric.tor_uplink(0, 2).set_drop_probability(loss);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 16_MiB;
  cfg.transport.algo = MultipathAlgo::kObs;
  cfg.transport.num_paths = paths;
  cfg.transport.rto = rto;
  cfg.transport.per_path_cc = per_path_cc;
  cfg.transport.cc_algo = cc_algo;
  RingAllReduce ar(fleet, ranks, cfg);
  double total = 0;
  int measured = 0;
  std::function<void()> chain = [&] {
    total += ar.bus_bandwidth_gbps();
    if (++measured < 2) ar.start(chain);
  };
  fabric.reset_stats();
  const SimTime window_start = sim.now();
  ar.start(chain);
  sim.run_until(SimTime::millis(300));
  engine_meter().add(sim);

  AblationResult out;
  out.bw_gbps = measured ? total / measured : 0;
  double sum = 0, sum2 = 0;
  const auto uplinks = fabric.tor_uplinks(0);
  const double window_sec = (sim.now() - window_start).sec();
  for (NetLink* l : uplinks) {
    const double gbps =
        static_cast<double>(l->bytes_sent()) * 8.0 / window_sec / 1e9;
    sum += gbps;
    sum2 += gbps * gbps;
  }
  const double n = static_cast<double>(uplinks.size());
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  out.uplink_cov_pct =
      mean > 0 ? 100.0 * std::sqrt(std::max(0.0, var)) / mean : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "ablation");
  engine_meter();  // start the engine wall clock
  print_header(
      "Ablation (a) - shared CC context, 128 paths vs per-path CC's\n"
      "feasible fan-out of 4 (same silicon budget), under a lossy link");
  print_row({"design", "clean Gbps", "1% loss Gbps", "uplink CoV"});
  {
    const AblationResult clean = allreduce_bw(128, SimTime::micros(250), 0);
    const AblationResult lossy =
        allreduce_bw(128, SimTime::micros(250), 0.01);
    print_row({"shared CCC, 128p", fmt(clean.bw_gbps, 1),
               fmt(lossy.bw_gbps, 1), fmt(clean.uplink_cov_pct, 1) + "%"});
  }
  {
    const AblationResult clean =
        allreduce_bw(4, SimTime::micros(250), 0, true);
    const AblationResult lossy =
        allreduce_bw(4, SimTime::micros(250), 0.01, true);
    print_row({"per-path CC, 4p", fmt(clean.bw_gbps, 1),
               fmt(lossy.bw_gbps, 1), fmt(clean.uplink_cov_pct, 1) + "%"});
  }
  std::printf(
      "\nPer-path CC reacts more precisely (the §9 trade), but its 4-path\n"
      "fan-out covers the aggregation layer far less evenly — the CoV gap\n"
      "is what turns into collisions and tail latency with many tenants\n"
      "(cf. Figures 9/12).\n");

  print_header(
      "Ablation (b) - PVDMA block size: pin cost of first touch vs\n"
      "map-cache entries for a 1 GiB hot set (the 2 MiB balance point)");
  print_row({"block", "first-touch pin", "entries for 1GiB", "covers vDB?"});
  for (std::uint64_t block : {kPage4K, kPage2M, 16 * kPage2M}) {
    Iommu iommu;
    Ept ept;
    (void)ept.map(Gpa{0}, Hpa{16_GiB}, 2_GiB);
    PvdmaConfig pc;
    pc.block_size = block;
    Pvdma pvdma(iommu, ept, pc);
    const auto r = pvdma.prepare_dma(Gpa{0}, 4096);
    print_row({format_bytes(block), r.value().cost.to_string(),
               std::to_string(1_GiB / block),
               block > kPage4K ? "yes (Fig.5 hazard)" : "no"});
  }

  print_header(
      "Ablation (c) - RTO sweep under 1% loss on one link, OBS/128\n"
      "paper choice: 250 us for a low-latency datacenter topology");
  print_row({"RTO", "bus bw Gbps"});
  for (std::int64_t us : {100, 250, 1000, 4000, 16000}) {
    print_row({std::to_string(us) + " us",
               fmt(allreduce_bw(128, SimTime::micros(us), 0.01).bw_gbps, 1)});
  }

  print_header(
      "Ablation (d) - congestion-control algorithm under OBS/128 on the\n"
      "oversubscribed fabric: the paper's ECN+RTT window CC vs a pure\n"
      "delay-target (Swift-like) alternative");
  print_row({"CC algorithm", "clean Gbps", "1% loss Gbps"});
  for (CcAlgo algo : {CcAlgo::kWindowEcnRtt, CcAlgo::kSwiftDelay}) {
    print_row({cc_algo_name(algo),
               fmt(allreduce_bw(128, SimTime::micros(250), 0, false, algo)
                       .bw_gbps,
                   1),
               fmt(allreduce_bw(128, SimTime::micros(250), 0.01, false, algo)
                       .bw_gbps,
                   1)});
  }
  engine_meter().report();
  return 0;
}
