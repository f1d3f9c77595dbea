// stellarlab — configurable experiment driver for the Stellar simulation.
//
// Run custom what-if experiments without writing code:
//
//   stellarlab --collective allreduce --algo obs --paths 128 \
//              --segments 2 --hosts 16 --aggs 16 --fabric-gbps 200 \
//              --data-mib 32 --ranks 16 --loss 0.01 --loss-agg 3
//
// Prints completion time, bus bandwidth, retransmits and ToR queue stats —
// the same metrics the figure benches report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "collective/allreduce.h"
#include "collective/collectives.h"
#include "collective/traffic.h"
#include "common/stats.h"
#include "workload/placement.h"

using namespace stellar;

namespace {

struct Options {
  std::uint32_t segments = 2;
  std::uint32_t hosts = 16;
  std::uint32_t aggs = 16;
  double host_gbps = 200;
  double fabric_gbps = 200;
  std::string collective = "allreduce";  // allreduce|reducescatter|allgather|
                                         // alltoall|permutation
  std::string algo = "obs";
  std::uint16_t paths = 128;
  std::uint32_t ranks = 16;
  double data_mib = 32;
  std::uint32_t iterations = 3;
  double loss = 0.0;
  std::int64_t loss_agg = -1;  // which uplink takes the loss (-1: none)
  std::string placement = "random";  // reranked|random
  double rto_us = 250;
  bool per_path_cc = false;
  std::string cc = "window";  // window|swift
};

MultipathAlgo parse_algo(const std::string& name) {
  if (name == "single") return MultipathAlgo::kSinglePath;
  if (name == "rr") return MultipathAlgo::kRoundRobin;
  if (name == "obs") return MultipathAlgo::kObs;
  if (name == "dwrr") return MultipathAlgo::kDwrr;
  if (name == "bestrtt") return MultipathAlgo::kBestRtt;
  if (name == "mprdma") return MultipathAlgo::kMprdmaLike;
  if (name == "flowlet") return MultipathAlgo::kFlowlet;
  std::fprintf(stderr, "unknown --algo %s\n", name.c_str());
  std::exit(2);
}

[[noreturn]] void usage() {
  std::puts(
      "usage: stellarlab [options]\n"
      "  --collective allreduce|reducescatter|allgather|alltoall|permutation\n"
      "  --algo single|rr|obs|dwrr|bestrtt|mprdma|flowlet   (default obs)\n"
      "  --paths N            paths per connection (default 128)\n"
      "  --ranks N            collective world size (default 16)\n"
      "  --data-mib M         data per collective (default 32)\n"
      "  --iterations N       measured iterations (default 3)\n"
      "  --segments/--hosts/--aggs N   fabric geometry (2/16/16)\n"
      "  --host-gbps/--fabric-gbps G   link rates (200/200)\n"
      "  --loss P --loss-agg K    drop probability on ToR uplink K\n"
      "  --placement reranked|random   rank placement (random)\n"
      "  --rto-us N           retransmission timeout (250)\n"
      "  --per-path-cc        per-path CC contexts instead of shared\n"
      "  --cc window|swift    congestion control algorithm (window)");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--segments") opt.segments = std::atoi(need(i));
    else if (a == "--hosts") opt.hosts = std::atoi(need(i));
    else if (a == "--aggs") opt.aggs = std::atoi(need(i));
    else if (a == "--host-gbps") opt.host_gbps = std::atof(need(i));
    else if (a == "--fabric-gbps") opt.fabric_gbps = std::atof(need(i));
    else if (a == "--collective") opt.collective = need(i);
    else if (a == "--algo") opt.algo = need(i);
    else if (a == "--paths") opt.paths = std::atoi(need(i));
    else if (a == "--ranks") opt.ranks = std::atoi(need(i));
    else if (a == "--data-mib") opt.data_mib = std::atof(need(i));
    else if (a == "--iterations") opt.iterations = std::atoi(need(i));
    else if (a == "--loss") opt.loss = std::atof(need(i));
    else if (a == "--loss-agg") opt.loss_agg = std::atoi(need(i));
    else if (a == "--placement") opt.placement = need(i);
    else if (a == "--rto-us") opt.rto_us = std::atof(need(i));
    else if (a == "--per-path-cc") opt.per_path_cc = true;
    else if (a == "--cc") opt.cc = need(i);
    else usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  Simulator sim;
  FabricConfig fc;
  fc.segments = opt.segments;
  fc.hosts_per_segment = opt.hosts;
  fc.aggs_per_plane = opt.aggs;
  fc.host_link.bandwidth = Bandwidth::gbps(opt.host_gbps);
  fc.fabric_link.bandwidth = Bandwidth::gbps(opt.fabric_gbps);
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  if (opt.loss > 0 && opt.loss_agg >= 0) {
    fabric.tor_uplink(0, static_cast<std::uint32_t>(opt.loss_agg))
        .set_drop_probability(opt.loss);
  }

  TransportConfig t;
  t.algo = parse_algo(opt.algo);
  t.num_paths = opt.paths;
  t.rto = SimTime::nanos(static_cast<std::int64_t>(opt.rto_us * 1000));
  t.per_path_cc = opt.per_path_cc;
  t.cc_algo = opt.cc == "swift" ? CcAlgo::kSwiftDelay : CcAlgo::kWindowEcnRtt;

  const PlacementPolicy policy = opt.placement == "reranked"
                                     ? PlacementPolicy::kReranked
                                     : PlacementPolicy::kRandomRanking;
  auto ranks = place_job(fabric, opt.ranks, 0, policy);
  const auto data_bytes =
      static_cast<std::uint64_t>(opt.data_mib * 1024 * 1024);

  std::printf("stellarlab: %s over %s/%u, %u ranks (%s placement), %.0f MiB\n",
              opt.collective.c_str(), multipath_algo_name(t.algo), t.num_paths,
              opt.ranks, placement_policy_name(policy), opt.data_mib);

  RunningStats bus_bw;
  std::uint64_t retx = 0;

  auto run_iterations = [&](auto& task, auto bw_of) {
    std::uint32_t measured = 0;
    std::function<void()> chain = [&] {
      bus_bw.add(bw_of(task));
      if (++measured < opt.iterations) task.start(chain);
    };
    task.start(chain);
    sim.run_until(SimTime::seconds(2.0));
    if (measured < opt.iterations) {
      std::printf("WARNING: only %u/%u iterations completed by the 2 s "
                  "horizon\n", measured, opt.iterations);
    }
  };

  if (opt.collective == "allreduce") {
    AllReduceConfig cfg;
    cfg.data_bytes = data_bytes;
    cfg.transport = t;
    RingAllReduce task(fleet, ranks, cfg);
    run_iterations(task, [](RingAllReduce& a) { return a.bus_bandwidth_gbps(); });
    retx = task.total_retransmits();
  } else if (opt.collective == "reducescatter" ||
             opt.collective == "allgather") {
    CollectiveConfig cfg;
    cfg.data_bytes = data_bytes;
    cfg.transport = t;
    RingReduceScatter task(fleet, ranks, cfg);
    run_iterations(task,
                   [](RingCollective& c) { return c.bus_bandwidth_gbps(); });
  } else if (opt.collective == "alltoall") {
    CollectiveConfig cfg;
    cfg.data_bytes = data_bytes;
    cfg.transport = t;
    AllToAll task(fleet, ranks, cfg);
    run_iterations(task, [](AllToAll& a) { return a.algo_bandwidth_gbps(); });
  } else if (opt.collective == "permutation") {
    PermutationConfig cfg;
    cfg.message_bytes = data_bytes;
    cfg.transport = t;
    PermutationTraffic traffic(fleet, ranks, {}, cfg);
    traffic.start();
    sim.run_until(SimTime::millis(1));
    fabric.reset_stats();
    const SimTime window = SimTime::millis(4);
    const std::uint64_t before = traffic.completed_bytes();
    sim.run_until(sim.now() + window);
    const std::uint64_t delivered = traffic.completed_bytes() - before;
    bus_bw.add(static_cast<double>(delivered) * 8 / window.sec() / 1e9 /
               ranks.size());
    retx = traffic.total_retransmits();
    traffic.stop();
  } else {
    usage();
  }

  RunningStats queue_max;
  for (NetLink* l : fabric.all_tor_uplinks()) {
    queue_max.add(static_cast<double>(l->max_queue_bytes()) / 1024.0);
  }

  std::printf("  bandwidth: mean %.1f Gbps (min %.1f, max %.1f over %llu "
              "iterations)\n",
              bus_bw.mean(), bus_bw.min(), bus_bw.max(),
              static_cast<unsigned long long>(bus_bw.count()));
  std::printf("  retransmits: %llu\n", static_cast<unsigned long long>(retx));
  std::printf("  ToR uplink max queue: mean %.1f KiB, worst %.1f KiB\n",
              queue_max.mean(), queue_max.max());
  std::printf("  simulated time: %s, events: %llu\n",
              sim.now().to_string().c_str(),
              static_cast<unsigned long long>(sim.executed_events()));
  return 0;
}
