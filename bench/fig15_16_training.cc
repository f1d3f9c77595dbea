// Figures 15 & 16: end-to-end LLM training performance.
//
// Method (hybrid measurement + model, as the substrate is a simulator):
//  1. measure effective AllReduce bandwidth on the packet-level fabric for
//     each (placement, transport) combination — reranked placement keeps
//     rings inside a segment; random ranking forces cross-segment rings;
//  2. feed the measured bandwidths into the analytic iteration-time model
//     (workload/llm.h) for the paper's parallel configurations.
//
// Paper: Fig 16a (reranked) Stellar ~0.72% faster than the CX7 baseline;
// Fig 16b (random) ~6% average, up to 14%. Fig 15: secure (vStellar) vs
// regular containers are indistinguishable on the same Stellar transport.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/allreduce.h"
#include "core/run_shard.h"
#include "workload/models.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

enum class Placement { kReranked, kRandom };

/// Measured per-GPU effective AllReduce bandwidth (Gbps) on the simulated
/// fabric for a given placement and transport. `endpoints` scales the
/// fabric (2 segments x endpoints/2 hosts; two rings of endpoints/2 ranks);
/// the default 32 reduces every index formula to the original fixed-size
/// bench, byte for byte.
double measure_allreduce_bw(Placement placement, MultipathAlgo algo,
                            std::uint16_t paths, std::uint32_t endpoints = 32,
                            Fidelity fidelity = Fidelity::kPacket,
                            SimTime control_path_tax = SimTime::zero()) {
  Simulator sim;
  const std::uint32_t hosts = endpoints / 2;
  const std::uint32_t ring = endpoints / 2;  // two rings cover all endpoints
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = hosts;
  fc.aggs_per_plane = 16;
  // 1:1 ToR provisioning (200G uplinks matching 200G host ports): ECMP
  // hash collisions genuinely oversubscribe a link, which is what the
  // random-ranking placement exposes and packet spray avoids.
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);
  ClosFabric fabric(sim, fc);
  auto hybrid = make_fidelity_driver(sim, fabric, fidelity);
  if (hybrid != nullptr) attach_fluid_spans(*hybrid);
  EngineFleet fleet(sim, fabric);

  // Two concurrent rings model co-scheduled tenants fighting for the
  // aggregation layer. Ring AllReduce is pure WRITE traffic, so under
  // --fidelity=hybrid the whole run fast-forwards flow-level: no
  // trigger ever forces a packet zoom, which is what buys the scale-up
  // wall-clock headroom (docs/HYBRID.md).
  auto ring_ranks = [&](std::uint32_t base) {
    std::vector<EndpointId> out;
    for (std::uint32_t i = 0; i < ring; ++i) {
      if (placement == Placement::kReranked) {
        // Reranking co-locates communicating ranks: ring/2 consecutive
        // ranks per segment, so only 2 ring hops cross the aggregation
        // layer.
        out.push_back(fabric.endpoint(
            i / (ring / 2), (base * (ring / 2) + i % (ring / 2)) % hosts));
      } else {
        // Random ranking: every hop crosses segments.
        out.push_back(
            fabric.endpoint(i % 2, (base * (ring / 4) + i / 2) % hosts));
      }
    }
    return out;
  };

  AllReduceConfig cfg;
  cfg.data_bytes = 32_MiB;
  cfg.transport.algo = algo;
  cfg.transport.num_paths = paths;
  RingAllReduce ring_a(fleet, ring_ranks(0), cfg);
  RingAllReduce ring_b(fleet, ring_ranks(1), cfg);

  auto loop_b = std::make_shared<std::function<void()>>();
  *loop_b = [&ring_b, loop_b] { ring_b.start(*loop_b); };
  ring_b.start(*loop_b);

  double total = 0;
  int measured = 0;
  std::function<void()> chain = [&] {
    total += ring_a.bus_bandwidth_gbps();
    if (++measured < 3) ring_a.start(chain);
  };
  ring_a.start(chain);
  // ring_b loops forever; stop as soon as ring_a's three runs finish.
  while (measured < 3 && sim.now() < SimTime::millis(200)) {
    sim.run_until(sim.now() + SimTime::millis(1));
  }
  engine_meter().add(sim);
  double bw = measured > 0 ? total / measured : 0.0;
  // Secure containers add only the (per-iteration amortized) control-path
  // cost, which is ~zero relative to data-path time — Figure 15's result.
  (void)control_path_tax;
  return bw;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig15_16");
  engine_meter();  // start the engine wall clock
  // ---- Measure transport bandwidths under both placements -----------------
  // The four (placement, transport) measurements are independent
  // simulations, so they shard across --threads=N workers
  // (core/run_shard.h); everything downstream is closed-form on the merged
  // results, so output stays byte-identical for every thread count.
  const std::uint32_t threads = threads_arg(argc, argv);
  const Fidelity fidelity = fidelity_arg(argc, argv);
  // --endpoints=N scales the fabric/ring size (default 32 = the paper-shape
  // bench; the CI scale gate runs 256 to compare hybrid vs packet
  // wall-clock). Must be a multiple of 4.
  std::uint32_t endpoints = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--endpoints=", 12) == 0) {
      const int v = std::atoi(argv[i] + 12);
      if (v >= 4 && v % 4 == 0) endpoints = static_cast<std::uint32_t>(v);
    }
  }
  std::printf("fidelity: %s  endpoints: %u\n", fidelity_name(fidelity),
              endpoints);
  double stellar_reranked = 0, cx7_reranked = 0;
  double stellar_random = 0, cx7_random = 0;
  {
    ShardedRunSet runs(threads);
    runs.add([&stellar_reranked, endpoints, fidelity] {
      stellar_reranked = measure_allreduce_bw(
          Placement::kReranked, MultipathAlgo::kObs, 128, endpoints, fidelity);
    });
    runs.add([&cx7_reranked, endpoints, fidelity] {
      cx7_reranked =
          measure_allreduce_bw(Placement::kReranked, MultipathAlgo::kSinglePath,
                               128, endpoints, fidelity);
    });
    runs.add([&stellar_random, endpoints, fidelity] {
      stellar_random = measure_allreduce_bw(
          Placement::kRandom, MultipathAlgo::kObs, 128, endpoints, fidelity);
    });
    runs.add([&cx7_random, endpoints, fidelity] {
      cx7_random =
          measure_allreduce_bw(Placement::kRandom, MultipathAlgo::kSinglePath,
                               128, endpoints, fidelity);
    });
    runs.execute();
  }

  print_header("Measured AllReduce bus bandwidth (Gbps) on the fabric");
  print_row({"placement", "Stellar OBS/128", "CX7 single-path"});
  print_row({"reranked", fmt(stellar_reranked, 1), fmt(cx7_reranked, 1)});
  print_row({"random", fmt(stellar_random, 1), fmt(cx7_random, 1)});

  const double intra_bw = 180.0;  // intra-segment PP/EP traffic, ~uncongested

  // ---- Figure 16: training speed vs the CX7 SOTA --------------------------
  const auto jobs = figure16_jobs();
  auto run_fig16 = [&](const char* title, double stellar_bw, double cx7_bw) {
    print_header(title);
    print_row({"TP,PP,DP,EP", "model", "Stellar it/s", "CX7 it/s", "gain"},
              16);
    double total_gain = 0;
    double max_gain = 0;
    for (const TrainJob& job : jobs) {
      const double t_stellar =
          iteration_seconds_split(job, intra_bw, stellar_bw);
      const double t_cx7 = iteration_seconds_split(job, intra_bw, cx7_bw);
      const double gain = 100.0 * (t_cx7 / t_stellar - 1.0);
      total_gain += gain;
      max_gain = std::max(max_gain, gain);
      char label[32];
      std::snprintf(label, sizeof(label), "%u,%u,%u,%u", job.parallel.tp,
                    job.parallel.pp, job.parallel.dp, job.parallel.ep);
      print_row({label, job.model.name, fmt(1.0 / t_stellar, 3),
                 fmt(1.0 / t_cx7, 3), fmt(gain, 2) + "%"},
                16);
    }
    std::printf("average gain: %.2f%%   max gain: %.2f%%\n",
                total_gain / static_cast<double>(jobs.size()), max_gain);
  };

  run_fig16(
      "Figure 16a - training speed, RERANKED placement\n"
      "paper: Stellar beats CX7 by ~0.72% on average",
      stellar_reranked, cx7_reranked);
  run_fig16(
      "Figure 16b - training speed, RANDOM ranking\n"
      "paper: ~6% average improvement, max 14%",
      stellar_random, cx7_random);

  // ---- Figure 15: secure vs regular containers ----------------------------
  print_header(
      "Figure 15 - secure (vStellar) vs regular container, random ranking\n"
      "paper: indistinguishable — vStellar's data path adds no overhead");
  print_row({"model", "regular it/s", "secure it/s", "delta"}, 16);
  for (const TrainJob& job : jobs) {
    const double t_regular =
        iteration_seconds_split(job, intra_bw, stellar_random);
    // Secure container: identical data path; the virtio control path only
    // matters at connection setup (~200 commands x 30 us), amortized over
    // a 10k-iteration job — a vanishing per-iteration tax.
    const double setup_tax = 200.0 * 30e-6 / 10'000.0;
    const double t_secure = t_regular + setup_tax;
    print_row({job.model.name, fmt(1.0 / t_regular, 3), fmt(1.0 / t_secure, 3),
               fmt(100.0 * (t_secure / t_regular - 1.0), 3) + "%"},
              16);
  }
  engine_meter().report();
  return 0;
}
