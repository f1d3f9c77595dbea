// Figure 13: perftest-style microbenchmarks — RDMA write latency and
// throughput vs message size for three stacks:
//   bare-metal Stellar, vStellar (secure container), VF+VxLAN (CX7-like).
//
// Paper: vStellar is indistinguishable from bare metal (the data path is
// direct-mapped); the VF+VxLAN baseline pays ~7% extra latency at 8 B and
// ~9% bandwidth at 8 MB from encapsulation and vSwitch rule processing.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/fleet.h"
#include "core/run_shard.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

enum class Stack { kBareMetal, kVStellar, kVfVxlan };

const char* stack_name(Stack s) {
  switch (s) {
    case Stack::kBareMetal:
      return "bare-metal";
    case Stack::kVStellar:
      return "vStellar";
    case Stack::kVfVxlan:
      return "VF+VxLAN";
  }
  return "?";
}

TransportConfig stack_transport(Stack s) {
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 128;
  if (s == Stack::kVfVxlan) {
    // VxLAN outer headers (~50 B), vSwitch steering pipeline per packet,
    // and the encap engine's sustained-rate ceiling.
    t.extra_header_bytes = 50;
    t.per_packet_overhead = SimTime::nanos(85);
    t.stack_rate_cap = Bandwidth::gbps(182);
  }
  // vStellar == bare metal on the data path: the whole Figure-13 point.
  return t;
}

struct Result {
  double latency_us = 0;
  double gbps = 0;
};

Result run(Stack stack, std::uint64_t msg_bytes) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 1;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 1;
  fc.host_link.bandwidth = Bandwidth::gbps(200);
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(0, 1);
  auto conn = fleet.connect(a, b, stack_transport(stack));

  Result out;
  // Latency: one-way time until receiver-side completion, averaged over
  // several pings after warm-up.
  {
    int received = 0;
    SimTime total = SimTime::zero();
    SimTime posted;
    std::function<void()> ping = [&] {
      posted = sim.now();
      conn.value()->post_write(msg_bytes);
    };
    fleet.at(b).set_message_handler([&](const RxMessage&) {
      if (received > 0) total += sim.now() - posted;  // skip cold ping
      if (++received <= 8) ping();
    });
    ping();
    sim.run();
    out.latency_us = total.us() / 8.0;
  }
  // Throughput: stream 64 MiB.
  {
    const std::uint64_t bytes = 64_MiB;
    const SimTime t0 = sim.now();
    bool done = false;
    conn.value()->post_write(bytes, [&] { done = true; });
    sim.run();
    (void)done;
    out.gbps = static_cast<double>(bytes) * 8.0 / (sim.now() - t0).sec() / 1e9;
  }
  engine_meter().add(sim);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig13");
  engine_meter();  // start the engine wall clock
  print_header(
      "Figure 13 - perftest microbenchmark: one-way latency (us) and\n"
      "streaming throughput (Gbps), two hosts under one ToR, 200G links\n"
      "paper: vStellar == bare-metal; VF+VxLAN ~7% worse latency, ~9% less "
      "bw");

  print_row({"msg size", "bare lat", "vStlr lat", "VxLAN lat", "bare bw",
             "vStlr bw", "VxLAN bw"},
            11);
  // The 18 table cells plus the 4 summary-line runs are independent
  // simulations, so they shard across --threads=N workers
  // (core/run_shard.h); the table and summary print after the merge, in
  // sweep order — byte-identical output for every thread count.
  const std::uint32_t threads = threads_arg(argc, argv);
  const std::vector<std::uint64_t> sizes = {2_B,    64_B,  1_KiB,
                                            64_KiB, 1_MiB, 8_MiB};
  const Stack stacks[] = {Stack::kBareMetal, Stack::kVStellar,
                          Stack::kVfVxlan};
  std::vector<Result> table(sizes.size() * 3);
  Result summary[4];  // bare@2B, vxlan@2B, bare@8MiB, vxlan@8MiB
  ShardedRunSet runs(threads);
  for (std::size_t m = 0; m < sizes.size(); ++m) {
    for (std::size_t s = 0; s < 3; ++s) {
      const Stack stack = stacks[s];
      const std::uint64_t msg = sizes[m];
      Result* slot = &table[m * 3 + s];
      runs.add([stack, msg, slot] { *slot = run(stack, msg); });
    }
  }
  const struct {
    Stack stack;
    std::uint64_t msg;
  } summary_specs[4] = {{Stack::kBareMetal, 2},
                        {Stack::kVfVxlan, 2},
                        {Stack::kBareMetal, 8_MiB},
                        {Stack::kVfVxlan, 8_MiB}};
  for (std::size_t i = 0; i < 4; ++i) {
    const Stack stack = summary_specs[i].stack;
    const std::uint64_t msg = summary_specs[i].msg;
    Result* slot = &summary[i];
    runs.add([stack, msg, slot] { *slot = run(stack, msg); });
  }
  runs.execute();

  for (std::size_t m = 0; m < sizes.size(); ++m) {
    const Result& bare = table[m * 3 + 0];
    const Result& vstellar = table[m * 3 + 1];
    const Result& vxlan = table[m * 3 + 2];
    print_row({format_bytes(sizes[m]), fmt(bare.latency_us, 2),
               fmt(vstellar.latency_us, 2), fmt(vxlan.latency_us, 2),
               fmt(bare.gbps, 1), fmt(vstellar.gbps, 1), fmt(vxlan.gbps, 1)},
              11);
  }
  std::printf("\nVF+VxLAN small-message latency overhead: +%.1f%%\n",
              100.0 * (summary[1].latency_us / summary[0].latency_us - 1.0));
  std::printf("VF+VxLAN 8 MiB bandwidth loss: -%.1f%%\n",
              100.0 * (1.0 - summary[3].gbps / summary[2].gbps));
  engine_meter().report();
  return 0;
}
