// Figure 11b (companion): AllReduce under HARD failures — a ToR uplink cut
// mid-run and a whole aggregation switch dying mid-run — driven by the
// fault-injection framework, with detection/recovery telemetry.
//
// Paper (§7.2): packet spraying plus RTO-driven rerouting and path
// blacklisting make a hard failure cost roughly one RTO: the sprayed
// algorithms complete within a few percent of the fault-free time, while a
// single-path connection pinned to the dead device either crawls or moves
// its QP to the error state (fail fast) instead of hanging.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "collective/allreduce.h"
#include "core/run_shard.h"
#include "fault/fault.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

constexpr std::uint32_t kFaultAgg = 3;  // the device that dies

struct Trial {
  double seconds = 0.0;
  bool completed = false;
  std::string status = "OK";
  std::uint64_t probes_sent = 0;
  std::uint64_t paths_reinstated = 0;
  bool detected = false;
  double detect_us = 0.0;
  bool recovered = false;
  double recover_us = 0.0;
  double goodput_dip = 1.0;
};

Trial one_trial(MultipathAlgo algo, std::uint16_t paths,
                const std::string& scenario, SimTime inject_at) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 8;
  fc.aggs_per_plane = 32;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 32_MiB;
  cfg.transport.algo = algo;
  cfg.transport.num_paths = paths;
  cfg.transport.max_retries = 32;  // fail fast instead of grinding forever
  RingAllReduce ar(fleet, ranks, cfg);

  FaultTelemetry telemetry;
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { telemetry.watch_engine(&engine); });

  FaultInjector injector(sim, fabric, &telemetry);
  FaultPlan plan;
  plan.seed = 7;
  if (scenario == "link_down") {
    FaultEvent e;
    e.at = inject_at;
    e.kind = FaultKind::kLinkDown;
    e.label = "tor_uplink";
    e.link = {LinkLayer::kTorUp, 0, 0, 0, kFaultAgg};
    plan.events.push_back(e);
  } else if (scenario == "switch_down") {
    FaultEvent e;
    e.at = inject_at;
    e.kind = FaultKind::kSwitchDown;
    e.label = "agg_switch";
    e.sw.agg = kFaultAgg;
    plan.events.push_back(e);
  }
  STELLAR_CHECK_OK(injector.arm(plan), "fault plan rejected");
  telemetry.attach(sim, SimTime::micros(50));

  Trial out;
  ar.start([&] { out.completed = true; });
  sim.run_until(SimTime::millis(400));

  out.seconds = ar.last_duration().sec();
  if (!ar.status().is_ok()) {
    out.status = std::string("ERROR(") +
                 status_code_name(ar.status().code()) + ")";
  } else if (!out.completed) {
    out.status = "STALLED";
  }
  fleet.for_each_engine([&](RdmaEngine& engine) {
    for (const auto& conn : engine.connections()) {
      out.probes_sent += conn->probes_sent();
      out.paths_reinstated += conn->paths_reinstated();
    }
  });
  for (const auto& a : telemetry.analyze()) {
    out.detected = a.detected;
    out.detect_us = a.detect_latency.sec() * 1e6;
    out.recovered = a.recovered;
    out.recover_us = a.recover_latency.sec() * 1e6;
    out.goodput_dip = a.goodput_dip;
  }
  engine_meter().add(sim);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig11b");
  engine_meter();  // start the engine wall clock
  print_header(
      "Figure 11b - AllReduce under hard failures (one ToR uplink cut /\n"
      "one Agg switch dead, injected mid-run), 16-rank cross-segment ring\n"
      "paper: spraying turns a hard failure into ~one RTO of disturbance");

  struct Config {
    MultipathAlgo algo;
    std::uint16_t paths;
  };
  const Config configs[] = {{MultipathAlgo::kObs, 4},
                            {MultipathAlgo::kObs, 128},
                            {MultipathAlgo::kRoundRobin, 128},
                            {MultipathAlgo::kSinglePath, 128}};

  JsonResult json("fig11b");
  // Each (scenario, config) cell — a clean trial plus the fault trial whose
  // injection time derives from it — is one independent job; the 8 cells
  // shard across --threads=N workers (core/run_shard.h). Tables + JSON
  // emit after the merge, in sweep order — byte-identical output for every
  // thread count.
  const std::uint32_t threads = threads_arg(argc, argv);
  struct Cell {
    Trial clean;
    Trial fault;
  };
  const std::string scenarios[] = {"link_down", "switch_down"};
  std::vector<Cell> cells(2 * 4);
  ShardedRunSet runs(threads);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::string scenario = scenarios[s];
      const Config c = configs[k];
      Cell* slot = &cells[s * 4 + k];
      runs.add([scenario, c, slot] {
        slot->clean = one_trial(c.algo, c.paths, "none", SimTime::zero());
        // Inject a quarter of the way into the fault-free duration.
        const SimTime inject_at = SimTime::picos(
            static_cast<std::int64_t>(slot->clean.seconds * 1e12 / 4));
        slot->fault = one_trial(c.algo, c.paths, scenario, inject_at);
      });
    }
  }
  runs.execute();

  for (std::size_t s = 0; s < 2; ++s) {
    const std::string scenario = scenarios[s];
    std::printf("\n--- scenario: %s (agg %u) ---\n", scenario.c_str(),
                kFaultAgg);
    print_row({"algorithm", "paths", "clean ms", "fault ms", "overhead",
               "status", "detect us", "dip"},
              11);
    for (std::size_t k = 0; k < 4; ++k) {
      const Config& c = configs[k];
      const Trial& clean = cells[s * 4 + k].clean;
      const Trial& fault = cells[s * 4 + k].fault;
      const double overhead =
          clean.seconds > 0.0 && fault.status == "OK"
              ? 100.0 * (fault.seconds / clean.seconds - 1.0)
              : 0.0;
      print_row({multipath_algo_name(c.algo), std::to_string(c.paths),
                 fmt(clean.seconds * 1e3, 2), fmt(fault.seconds * 1e3, 2),
                 fault.status == "OK" ? fmt(overhead, 1) + "%" : "-",
                 fault.status,
                 fault.detected ? fmt(fault.detect_us, 0) : "-",
                 fmt(fault.goodput_dip, 2)},
                11);
      json.add_row(
          {{"scenario", jstr(scenario)},
           {"algorithm", jstr(multipath_algo_name(c.algo))},
           {"paths", jint(c.paths)},
           {"clean_ms", jnum(clean.seconds * 1e3, 4)},
           {"fault_ms", jnum(fault.seconds * 1e3, 4)},
           {"overhead_pct", jnum(overhead, 2)},
           {"status", jstr(fault.status)},
           {"detected", fault.detected ? "true" : "false"},
           {"detect_us", jnum(fault.detect_us, 1)},
           {"recovered", fault.recovered ? "true" : "false"},
           {"recover_us", jnum(fault.recover_us, 1)},
           {"goodput_dip", jnum(fault.goodput_dip, 4)},
           {"probes_sent", jint(static_cast<long long>(fault.probes_sent))},
           {"paths_reinstated",
            jint(static_cast<long long>(fault.paths_reinstated))}});
    }
  }
  json.write();

  std::printf(
      "\nReading: sprayed algorithms absorb both failures with percent-level\n"
      "overhead (one RTO to notice, blacklist steers around, probes\n"
      "reinstate nothing while the device stays dead). SinglePath rings\n"
      "whose hash lands on the dead device move the QP to the error state\n"
      "after the retry budget (status ERROR) instead of hanging - the\n"
      "fail-fast half of the recovery story.\n");
  engine_meter().report();
  return 0;
}
