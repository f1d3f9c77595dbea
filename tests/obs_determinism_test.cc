// Observability golden tests: the tracer and metrics registry must be
// byte-deterministic and inert.
//
// Contract (docs/OBSERVABILITY.md): two seeded replays of the same workload
// produce byte-identical trace JSON and metrics JSON — including with
// periodic invariant audits running, whose extra events consume sequence
// numbers but must not perturb the workload or anything the probes observe.
// Installing a hub must not change the simulation itself: same
// executed-event count, same final time.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/auditors.h"
#include "collective/traffic.h"
#include "obs/obs.h"
#include "sim/simulator.h"

using namespace stellar;

namespace {

struct ObsRun {
  std::string trace_json;
  std::string metrics_json;
  std::size_t trace_events = 0;
  std::uint64_t executed = 0;
  std::int64_t final_ps = 0;
};

/// The mini fig09 permutation from sim_determinism_test, run under an
/// installed ObsHub: 8 endpoints, 256 KiB messages, OBS spraying over 16
/// paths, seed 11. An optional AuditRegistry fires every 100 us.
ObsRun run_mini_permutation(bool with_hub, bool with_audit,
                            std::uint32_t sample_period) {
  auto hub = std::make_unique<obs::ObsHub>();
  obs::ObsHub* prev = nullptr;
  if (with_hub) {
    if (sample_period > 1) {
      for (int c = 0; c < obs::kTraceCats; ++c) {
        hub->tracer().set_sample_period(static_cast<obs::TraceCat>(c),
                                        sample_period);
      }
    }
    prev = obs::install_hub(hub.get());
  }

  Simulator sim;
  AuditRegistry registry;
  if (with_hub) hub->set_clock(&sim);

  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  if (with_audit) {
    registry.add(std::make_unique<SimulatorAuditor>(sim));
    registry.attach_periodic(sim, SimTime::micros(100));
  }

  std::vector<EndpointId> eps;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 4; ++h) {
      eps.push_back(fabric.endpoint(s, h));
    }
  }

  PermutationConfig pc;
  pc.message_bytes = 256 * 1024;
  pc.transport.algo = MultipathAlgo::kObs;
  pc.transport.num_paths = 16;
  pc.seed = 11;
  PermutationTraffic traffic(fleet, eps, {}, pc);
  traffic.start();

  sim.run_until(SimTime::millis(1));
  traffic.stop();

  ObsRun out;
  out.executed = sim.executed_events();
  out.final_ps = sim.now().ps();
  if (with_hub) {
    hub->set_clock(nullptr);
    obs::install_hub(prev);
    out.trace_json = hub->tracer().to_json();
    out.metrics_json = hub->metrics().to_json();
    out.trace_events = hub->tracer().event_count();
  }
  return out;
}

TEST(ObsDeterminismTest, TraceAndMetricsReplayByteIdentical) {
#if !STELLAR_TRACE_ENABLED
  GTEST_SKIP() << "built with STELLAR_TRACE=OFF";
#endif
  const ObsRun a = run_mini_permutation(/*with_hub=*/true,
                                        /*with_audit=*/false,
                                        /*sample_period=*/1);
  const ObsRun b = run_mini_permutation(/*with_hub=*/true,
                                        /*with_audit=*/false,
                                        /*sample_period=*/1);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.final_ps, b.final_ps);
  // The run must actually exercise the probes, or the goldens are vacuous.
  EXPECT_GT(a.trace_events, 1000u) << "workload produced too few events";
  EXPECT_NE(a.metrics_json.find("transport/packets_sent"), std::string::npos);
  EXPECT_NE(a.metrics_json.find("transport/rtt_ps"), std::string::npos);
  EXPECT_NE(a.metrics_json.find("fabric/transit_ps"), std::string::npos);
}

TEST(ObsDeterminismTest, PeriodicAuditDoesNotPerturbObservedOutput) {
#if !STELLAR_TRACE_ENABLED
  GTEST_SKIP() << "built with STELLAR_TRACE=OFF";
#endif
  const ObsRun plain = run_mini_permutation(/*with_hub=*/true,
                                            /*with_audit=*/false,
                                            /*sample_period=*/1);
  const ObsRun audited = run_mini_permutation(/*with_hub=*/true,
                                              /*with_audit=*/true,
                                              /*sample_period=*/1);
  // Audit firings add executed events but everything the probes see —
  // packet order, latencies, gauge levels — must be unchanged, so both
  // JSON dumps stay byte-identical.
  EXPECT_EQ(plain.trace_json, audited.trace_json);
  EXPECT_EQ(plain.metrics_json, audited.metrics_json);
  EXPECT_GT(audited.executed, plain.executed);
}

TEST(ObsDeterminismTest, InstallingHubDoesNotPerturbSimulation) {
  // Determinism contract half two: observation is passive. A hub
  // schedules no events, so a run with a hub and a run without one agree
  // on executed events and final time. A hubless run against a hubless run
  // first is the control.
  const ObsRun bare_a = run_mini_permutation(/*with_hub=*/false,
                                             /*with_audit=*/false,
                                             /*sample_period=*/1);
  const ObsRun bare_b = run_mini_permutation(/*with_hub=*/false,
                                             /*with_audit=*/false,
                                             /*sample_period=*/1);
  EXPECT_EQ(bare_a.executed, bare_b.executed);
  EXPECT_EQ(bare_a.final_ps, bare_b.final_ps);

  const ObsRun hubbed = run_mini_permutation(/*with_hub=*/true,
                                             /*with_audit=*/false,
                                             /*sample_period=*/1);
  EXPECT_EQ(hubbed.final_ps, bare_a.final_ps);
  EXPECT_EQ(hubbed.executed, bare_a.executed);
}

TEST(ObsDeterminismTest, SamplingIsDeterministicAndShrinksTrace) {
#if !STELLAR_TRACE_ENABLED
  GTEST_SKIP() << "built with STELLAR_TRACE=OFF";
#endif
  const ObsRun full = run_mini_permutation(/*with_hub=*/true,
                                           /*with_audit=*/false,
                                           /*sample_period=*/1);
  const ObsRun s_a = run_mini_permutation(/*with_hub=*/true,
                                          /*with_audit=*/false,
                                          /*sample_period=*/16);
  const ObsRun s_b = run_mini_permutation(/*with_hub=*/true,
                                          /*with_audit=*/false,
                                          /*sample_period=*/16);
  // Keep-1-of-N depends only on per-category offered counts, so it is as
  // replayable as the full trace...
  EXPECT_EQ(s_a.trace_json, s_b.trace_json);
  // ...and it must not touch metrics at all.
  EXPECT_EQ(s_a.metrics_json, full.metrics_json);
  EXPECT_LT(s_a.trace_events, full.trace_events / 8);
  EXPECT_GT(s_a.trace_events, 0u);
}

TEST(ObsDeterminismTest, TraceJsonIsWellFormedChromeFormat) {
#if !STELLAR_TRACE_ENABLED
  GTEST_SKIP() << "built with STELLAR_TRACE=OFF";
#endif
  const ObsRun r = run_mini_permutation(/*with_hub=*/true,
                                        /*with_audit=*/false,
                                        /*sample_period=*/64);
  const std::string& j = r.trace_json;
  ASSERT_FALSE(j.empty());
  // Structural spot-checks a JSON parser would enforce; the CI smoke run
  // (fig09 --trace + trace_summarize) covers end-to-end parsing.
  EXPECT_EQ(j.find("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["), 0u);
  EXPECT_EQ(j.substr(j.size() - 4), "\n]}\n");
  EXPECT_EQ(j.find(",\n]"), std::string::npos) << "trailing comma";
  // One metadata record per category track, before any event.
  EXPECT_NE(j.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  for (int c = 0; c < obs::kTraceCats; ++c) {
    const std::string name(
        obs::trace_cat_name(static_cast<obs::TraceCat>(c)));
    EXPECT_NE(j.find("\"name\":\"" + name + "\""), std::string::npos)
        << "missing track metadata for category " << name;
  }
}

}  // namespace
