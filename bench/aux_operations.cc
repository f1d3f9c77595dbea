// Auxiliary reproductions of the §3.1 operational problems that motivate
// Stellar's architecture (no figure number in the paper — these are the
// war stories of Problems 4 and 5) plus the §7.1 monitoring argument:
//
//  (4) conflicting PCIe fabric settings: ATS vs iommu=pt on the affected
//      server model, and what each escape hatch costs;
//  (5) RNIC vSwitch interference: RDMA lookup latency as a function of
//      foreign TCP rules installed ahead of it;
//  (7.1) path observability: RNIC-side spraying keeps the path id in the
//      packet, so a receiver can attribute load per path — switch-side
//      adaptive routing cannot.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/fleet.h"
#include "rnic/vswitch.h"
#include "virt/virtio_net.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

void problem4() {
  print_header(
      "Problem 4 - conflicting PCIe settings on the affected server model\n"
      "(baseline stack; Stellar's eMTT+SF needs neither ATS nor pt)");
  print_row({"config", "valid?", "GDR?", "host TCP Gbps"}, 18);
  struct Case {
    const char* name;
    IommuMode mode;
    bool ats;
  };
  const Case cases[] = {
      {"pt + ATS", IommuMode::kPassthrough, true},
      {"pt, no ATS", IommuMode::kPassthrough, false},
      {"nopt + ATS", IommuMode::kNoPassthrough, true},
  };
  for (const Case& c : cases) {
    HostPlatformConfig cfg;
    cfg.iommu_mode = c.mode;
    cfg.ats_enabled = c.ats;
    const Status valid = validate_platform(cfg);
    print_row({c.name, valid.is_ok() ? "yes" : "NO",
               valid.is_ok() && baseline_gdr_possible(cfg) ? "yes" : "no",
               valid.is_ok() ? fmt(host_tcp_throughput(cfg).as_gbps(), 0)
                             : "-"},
              18);
  }
  std::printf(
      "\nProduction had to pick 'nopt + ATS' to keep GDR, eating the host\n"
      "TCP regression; with Stellar both GDR (eMTT) and TCP (SF/vDPA) are\n"
      "independent of these settings.\n");
}

void problem5() {
  print_header(
      "Problem 5 - vSwitch steering interference: RDMA rule lookup latency\n"
      "vs foreign TCP rules installed ahead of it");
  print_row({"TCP rules ahead", "RDMA lookup", "TCP lookup"}, 18);
  for (std::size_t tcp_rules : {0, 64, 256, 1024}) {
    VSwitch vsw;
    for (std::size_t i = 0; i < tcp_rules; ++i) {
      (void)vsw.add_rule({i, TrafficClass::kTcp, /*tenant=*/1, true, 1, 1});
    }
    (void)vsw.add_rule({9999, TrafficClass::kRdma, /*tenant=*/2, false, 1, 1});
    (void)vsw.add_rule({9998, TrafficClass::kTcp, /*tenant=*/2, true, 1, 1});
    auto rdma = vsw.lookup(TrafficClass::kRdma, 2);
    auto tcp = vsw.lookup(TrafficClass::kTcp,
                          tcp_rules > 0 ? 1 : 2);  // first-match TCP rule
    print_row({std::to_string(tcp_rules),
               rdma.is_ok() ? rdma.value().latency.to_string() : "-",
               tcp.is_ok() ? tcp.value().latency.to_string() : "-"},
              18);
  }
  std::printf(
      "\nOne tenant's TCP churn linearly inflates another tenant's RDMA\n"
      "lookup latency. Stellar removes RDMA from this pipeline entirely.\n");
}

void monitoring() {
  print_header(
      "Section 7.1 - path observability under RNIC-side spraying\n"
      "(per-path packet counts reconstructed at the receiver)");
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 16;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 128;
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(1, 0), t);
  conn.value()->post_write(64_MiB);
  sim.run();
  engine_meter().add(sim);
  const auto& hist = fleet.at(fabric.endpoint(1, 0)).rx_path_histogram();
  std::uint64_t total = 0, max_count = 0, min_count = ~0ull;
  for (const auto& [path, count] : hist) {
    total += count;
    max_count = std::max(max_count, count);
    min_count = std::min(min_count, count);
  }
  std::printf(
      "paths observed: %zu / 128, packets attributed: %llu (100%% of the\n"
      "transfer), per-path min/max: %llu/%llu\n",
      hist.size(), static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(min_count),
      static_cast<unsigned long long>(max_count));
  std::printf(
      "Every packet carries its sender-chosen path id, so diagnostics can\n"
      "localize a misbehaving path — impossible with switch-side AR, where\n"
      "identical headers take different paths invisibly.\n");
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "aux");
  engine_meter();  // start the engine wall clock
  problem4();
  problem5();
  monitoring();
  engine_meter().report();
  return 0;
}
