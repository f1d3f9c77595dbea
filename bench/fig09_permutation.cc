// Figure 9: ToR switch queue depth under permutation RDMA-write traffic,
// comparing the multipath algorithms with 4 paths vs 128 paths per
// connection.
//
// Paper setup: 30 GPU servers across two segments, 120 flows. Scaled here
// to 32 endpoints / 32 flows (documented in EXPERIMENTS.md); per-link rates
// match production (200G host links, 400G fabric links).
//
// Paper shape: with 4 paths, RR and OBS already beat Single/BestRTT; with
// 128 paths every spraying algorithm collapses the average and maximum
// queue depth (~90% reduction vs single path).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/traffic.h"
#include "common/stats.h"
#include "core/run_shard.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

struct QueueStats {
  double mean_kib = 0;
  double max_kib = 0;
  double goodput_gbps = 0;
};

QueueStats run_permutation(MultipathAlgo algo, std::uint16_t paths,
                           double scale, Fidelity fidelity) {
  Simulator sim;
  if (obs::ObsHub* h = obs::hub()) h->set_clock(&sim);
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 16;
  fc.aggs_per_plane = 16;
  // 1:1 ToR radix (16x200G host ports, 16x200G uplinks): an ECMP hash
  // collision of two elephant flows genuinely oversubscribes an uplink,
  // as in the production fabric.
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);
  ClosFabric fabric(sim, fc);
  auto hybrid = make_fidelity_driver(sim, fabric, fidelity);
  if (hybrid != nullptr) attach_fluid_spans(*hybrid);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> eps;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 16; ++h) {
      eps.push_back(fabric.endpoint(s, h));
    }
  }

  PermutationConfig pc;
  pc.message_bytes = 1_MiB;
  pc.transport.algo = algo;
  pc.transport.num_paths = paths;
  pc.seed = 7;  // same derangement for every algorithm
  PermutationTraffic traffic(fleet, eps, {}, pc);

  traffic.start();
  // Warm up CC, then measure a 2 ms window (both scaled by the optional
  // positional argument; scale=1 reproduces the paper tables exactly).
  const SimTime warmup =
      SimTime::picos(static_cast<std::int64_t>(1e9 * scale));
  const SimTime window =
      SimTime::picos(static_cast<std::int64_t>(2e9 * scale));
  // Hybrid: fast-forward the first half of the warmup flow-level, then zoom
  // to packets for the second half (CC re-converges from the fluid rates)
  // and the entire measured window — queue depths are real packet-mode
  // observations (a flow-level run has no queues to measure).
  if (fidelity == Fidelity::kHybrid) {
    hybrid->request_zoom_window(SimTime::picos(warmup.ps() / 2),
                                warmup + window);
  }
  sim.run_until(warmup);
  fabric.reset_stats();
  const std::uint64_t before = traffic.completed_bytes();
  sim.run_until(sim.now() + window);
  const std::uint64_t delivered = traffic.completed_bytes() - before;
  traffic.stop();
  engine_meter().add(sim);
  if (obs::ObsHub* h = obs::hub()) h->set_clock(nullptr);

  QueueStats out;
  RunningStats mean_q, max_q;
  for (NetLink* l : fabric.all_tor_uplinks()) {
    mean_q.add(l->mean_queue_bytes());
    max_q.add(static_cast<double>(l->max_queue_bytes()));
  }
  out.mean_kib = mean_q.mean() / 1024.0;
  out.max_kib = max_q.max() / 1024.0;
  out.goodput_gbps =
      static_cast<double>(delivered) * 8.0 / window.sec() / 1e9 / 32.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  engine_meter();  // start the engine wall clock
  ObsScope obs_scope(argc, argv, "fig09");
  const double scale = scale_arg(argc, argv);
  const std::uint32_t threads = threads_arg(argc, argv);
  const Fidelity fidelity = fidelity_arg(argc, argv);
  print_header(
      "Figure 9 - ToR uplink queue depth, permutation traffic (32 flows,\n"
      "2 segments, 16 aggs/plane; paper uses 30 servers / 120 flows)\n"
      "columns: mean queue KiB | max queue KiB | per-flow goodput Gbps");
  std::printf("fidelity: %s\n", fidelity_name(fidelity));

  const MultipathAlgo algos[] = {
      MultipathAlgo::kSinglePath, MultipathAlgo::kBestRtt,
      MultipathAlgo::kRoundRobin, MultipathAlgo::kDwrr,
      MultipathAlgo::kMprdmaLike, MultipathAlgo::kObs};
  const std::uint16_t path_counts[] = {4, 128};

  // The 12 (algorithm x path-count) runs are independent, so they shard
  // across --threads=N workers (core/run_shard.h). Results land in
  // index-addressed slots and all printing/JSON emission happens after the
  // merge, in index order — byte-identical output for every thread count.
  struct RunSpec {
    MultipathAlgo algo;
    std::uint16_t paths;
  };
  std::vector<RunSpec> specs;
  for (std::uint16_t paths : path_counts) {
    for (MultipathAlgo algo : algos) specs.push_back({algo, paths});
  }
  std::vector<QueueStats> results(specs.size());

  ShardedRunSet runs(threads);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec spec = specs[i];
    QueueStats* slot = &results[i];
    runs.add([spec, slot, scale, fidelity] {
      *slot = run_permutation(spec.algo, spec.paths, scale, fidelity);
    });
  }
  runs.execute();

  JsonResult json("fig09");
  std::size_t i = 0;
  for (std::uint16_t paths : path_counts) {
    std::printf("\n--- %u paths per connection ---\n", paths);
    print_row({"algorithm", "mean KiB", "max KiB", "goodput Gbps"});
    for (MultipathAlgo algo : algos) {
      const QueueStats& s = results[i++];
      print_row({multipath_algo_name(algo), fmt(s.mean_kib, 1),
                 fmt(s.max_kib, 1), fmt(s.goodput_gbps, 1)});
      json.add_row({{"algo", jstr(multipath_algo_name(algo))},
                    {"paths", jint(paths)},
                    {"fidelity", jstr(fidelity_name(fidelity))},
                    {"mean_queue_kib", jnum(s.mean_kib)},
                    {"max_queue_kib", jnum(s.max_kib)},
                    {"goodput_gbps", jnum(s.goodput_gbps)}});
    }
  }
  json.write();
  engine_meter().report();
  return 0;
}
