// Composition soak: one driver over fidelity {packet, hybrid} x plan
// {none, scripted data-plane plan, seeded chaos plan}. Every cell runs a
// continuously restarting AllReduce and a PVDMA pin/unpin workload on one
// clock, with the injector's control target doing backend restarts and
// live migrations while RDMA is in flight (and, at hybrid fidelity, while
// the fabric freezes and thaws). All six invariant auditors trap on findings.
// Fault-free cells hot-restart every engine mid-run and must deliver the
// same bytes per connection and per engine at both fidelities; every cell
// ends with a snapshot round-trip idempotence check.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "core/stellar.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "sim/hybrid.h"

namespace stellar {
namespace {

FabricConfig soak_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 4;
  return fc;
}

ChaosConfig soak_config() {
  ChaosConfig cc;
  cc.seed = 0xC0FFEE;
  cc.events = 110;
  cc.start = SimTime::micros(500);
  cc.horizon = SimTime::millis(40);
  cc.engines = 8;
  cc.pvdmas = 1;
  cc.controls = 1;
  return cc;
}

TEST(ChaosPlanTest, SameSeedSamePlan) {
  const FabricConfig fc = soak_fabric();
  const ChaosConfig cc = soak_config();
  const FaultPlan a = make_chaos_plan(fc, cc);
  const FaultPlan b = make_chaos_plan(fc, cc);
  ASSERT_GE(a.events.size(), cc.events);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at) << "event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].label, b.events[i].label) << "event " << i;
  }

  ChaosConfig other = cc;
  other.seed = cc.seed + 1;
  const FaultPlan c = make_chaos_plan(fc, other);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].at != c.events[i].at ||
              a.events[i].kind != c.events[i].kind;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical plans";
}

TEST(ChaosPlanTest, ControlKindsAppearAndHardOutagesSerialize) {
  const FaultPlan plan = make_chaos_plan(soak_fabric(), soak_config());
  std::size_t restarts = 0, migrates = 0;
  for (const FaultEvent& e : plan.events) {
    if (e.kind == FaultKind::kBackendRestart) ++restarts;
    if (e.kind == FaultKind::kLiveMigrate) ++migrates;
  }
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(migrates, 0u);

  // Events arrive time-sorted so the injector can schedule them directly.
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
  }
}

// Migration hook on the collective itself: a paused rank defers its sends
// (the ring stalls behind it) and resume replays them.
TEST(ChaosSoakTest, PausedRankStallsRingUntilResumed) {
  Simulator sim;
  ClosFabric fabric(sim, soak_fabric());
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 2_MiB;
  cfg.transport.num_paths = 4;
  RingAllReduce ar(fleet, ranks, cfg);

  bool completed = false;
  ar.start([&] { completed = true; });
  sim.schedule_after(SimTime::micros(30), [&] {
    ar.pause_rank(1);
    EXPECT_TRUE(ar.rank_paused(1));
  });
  sim.run_until(SimTime::millis(5));
  EXPECT_FALSE(completed) << "ring completed around a paused rank";
  EXPECT_TRUE(ar.running());

  ar.resume_rank(1);
  EXPECT_FALSE(ar.rank_paused(1));
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(ar.status().is_ok());
}

// ---------------------------------------------------------------------------
// Composition soak: fidelity {packet, hybrid} x plan {none, scripted, chaos}.
// ---------------------------------------------------------------------------

enum class Fidelity { kPacket, kHybrid };
enum class Plan { kNone, kScripted, kChaos };

/// Ring generations a fault-free cell runs. At 500 us, in the middle of
/// generation two, every engine is hot-restarted.
constexpr std::uint64_t kFaultFreeGenerations = 4;

/// A scripted data-plane plan: a link flap, an Agg switch bounce, a lossy
/// window and a receiver reset. Under hybrid fidelity each one forces a
/// zoom, and the quiet-epoch promoter returns to fluid in between.
FaultPlan scripted_plan() {
  FaultPlan plan;
  // Each event is filled in before the next add() may reallocate.
  auto add = [&](SimTime at, FaultKind kind, const char* label) -> auto& {
    FaultEvent& e = plan.events.emplace_back();
    e.at = at;
    e.kind = kind;
    e.label = label;
    return e;
  };
  FaultEvent& flap = add(SimTime::micros(300), FaultKind::kLinkFlap, "flap");
  flap.link = {LinkLayer::kTorUp, 0, 0, 0, 1};
  flap.duration = SimTime::micros(40);
  flap.flap_period = SimTime::micros(200);
  flap.flaps = 3;
  add(SimTime::millis(1), FaultKind::kSwitchDown, "agg_bounce").sw.agg = 2;
  add(SimTime::millis(2), FaultKind::kSwitchUp, "agg_bounce").sw.agg = 2;
  FaultEvent& lossy = add(SimTime::millis(3), FaultKind::kDegrade, "lossy");
  lossy.link = {LinkLayer::kTorUp, 1, 0, 0, 3};
  lossy.duration = SimTime::micros(300);
  lossy.degrade_loss = 0.05;
  FaultEvent& reset = add(SimTime::millis(5), FaultKind::kRnicReset, "reset");
  reset.engine = 2;
  reset.duration = SimTime::micros(80);
  return plan;
}

struct SoakResult {
  std::uint64_t executed = 0, generations = 0, completions = 0, pins_ok = 0;
  std::uint64_t backend_restarts = 0, live_migrations = 0, transitions = 0;
  SimTime fluid_time = SimTime::zero();
  /// Per connection and per engine, in ascending endpoint order.
  std::vector<std::uint64_t> conn_bytes, engine_goodput;
};

// A continuously restarting ring AllReduce on 8 ranks, a PVDMA guest
// pinning and releasing blocks on the same clock, one injector driving the
// plan against every engine, the guest's PVDMA and a control target that
// implements backend restart and live migration — with all six auditors
// armed, trap-on-finding, so any violation fails the cell where it happens.
// Ends with a snapshot round-trip idempotence check on the soaked engines.
void run_soak(Fidelity fidelity, Plan plan, SoakResult* out) {
  Simulator sim;
  ClosFabric fabric(sim, soak_fabric());
  auto driver = fidelity == Fidelity::kHybrid
                    ? std::make_unique<HybridDriver>(sim, fabric)
                    : nullptr;
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ranks.push_back(fabric.endpoint(i % 2, i / 2));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 4_MiB;
  cfg.transport.algo = MultipathAlgo::kObs;
  cfg.transport.num_paths = 8;
  cfg.transport.max_retries = 64;

  // A fail-fast abort (device reset errors every QP) rebuilds the ring on
  // fresh connections, as a communicator re-init does in production. Old
  // generations stay alive: their dead connections still hold error
  // handlers pointing at them, and a later device reset may fire those.
  const SimTime soak_end =
      plan == Plan::kChaos ? SimTime::millis(45) : SimTime::millis(8);
  const std::uint64_t max_generations =
      plan == Plan::kNone ? kFaultFreeGenerations : UINT64_MAX;
  std::vector<std::unique_ptr<RingAllReduce>> rings;
  std::function<void()> launch = [&] {
    if (sim.now() >= soak_end || out->generations == max_generations) return;
    ++out->generations;
    rings.push_back(std::make_unique<RingAllReduce>(fleet, ranks, cfg));
    RingAllReduce* ar = rings.back().get();
    ar->start([&, ar] {
      if (ar->status().is_ok()) ++out->completions;
      sim.schedule_after(SimTime::micros(5), [&] { launch(); });
    });
  };
  launch();

  // Pin pressure windows race real prepare/release traffic (retry + jitter).
  StellarHost host;
  RundContainer guest(1, "soak-guest", 4ull << 30);
  ASSERT_TRUE(host.boot(guest).is_ok());
  auto region = guest.alloc(64_MiB, kPage2M);
  ASSERT_TRUE(region.is_ok());
  std::uint64_t pin_seq = 0;
  std::function<void()> pin_loop = [&] {
    if (sim.now() >= soak_end) return;
    const Gpa gpa = region.value() + (pin_seq++ % 8) * (8ull << 20);
    host.hypervisor().prepare_dma_with_retry(
        sim, 1, gpa, 2_MiB, [&, gpa](StatusOr<Pvdma::MapResult> result) {
          ASSERT_TRUE(result.is_ok())
              << "a pressure window outlasted the retry budget";
          ++out->pins_ok;
          host.hypervisor().pvdma(1).release_dma(gpa, 2_MiB);
        });
    sim.schedule_after(SimTime::micros(100), pin_loop);
  };
  pin_loop();

  AuditRegistry audits;
  FaultInjector injector(sim, fabric);
  for (EndpointId rank : ranks) {
    injector.register_engine(&fleet.at(rank));
    audits.add(std::make_unique<TransportAuditor>(fleet.at(rank)));
  }
  injector.register_pvdma(&host.hypervisor().pvdma(1));
  // Backend hot-upgrade of every engine; `window` is its ingress blackout.
  auto restart_all = [&](SimTime window) -> Status {
    for (EndpointId rank : ranks) {
      fleet.at(rank).quiesce(window);
      auto snap = fleet.at(rank).hot_restart();
      if (!snap.is_ok()) return snap.status();
    }
    return Status::ok();
  };
  FaultInjector::ControlTarget control;
  control.backend_restart = [&](SimTime window) {
    ++out->backend_restarts;
    return restart_all(window);
  };
  control.live_migrate = [&](SimTime budget) -> StatusOr<SimTime> {
    ++out->live_migrations;
    const std::uint64_t gen = out->generations;
    RingAllReduce* ar = rings.back().get();
    ar->pause_rank(0);
    fleet.at(ranks[0]).quiesce(budget);
    auto snap = fleet.at(ranks[0]).hot_restart();
    if (!snap.is_ok()) return snap.status();
    sim.schedule_after(budget, [&, gen, ar] {
      if (out->generations == gen) ar->resume_rank(0);
    });
    return budget;
  };
  injector.register_control(std::move(control));

  FaultPlan faults;
  if (plan == Plan::kScripted) faults = scripted_plan();
  if (plan == Plan::kChaos) faults = make_chaos_plan(soak_fabric(), soak_config());
  ASSERT_TRUE(injector.arm(faults).is_ok());
  if (plan == Plan::kNone) {
    sim.schedule_at(SimTime::micros(500), [&] {
      STELLAR_CHECK_OK(restart_all(SimTime::zero()), "hot restart failed");
    });
  }

  audits.add(std::make_unique<FabricConservationAuditor>(fabric));
  audits.add(std::make_unique<SimulatorAuditor>(sim));
  audits.add(std::make_unique<PinAccountingAuditor>(
      host.hypervisor().pvdma(1), host.pcie().iommu(),
      host.hypervisor().ept(1)));
  audits.add(std::make_unique<EmttCoherenceAuditor>(host));
  audits.add(std::make_unique<TenantIsolationAuditor>(host));
  audits.attach_periodic(sim, SimTime::micros(200));

  sim.run_until(SimTime::millis(120));

  out->executed = injector.events_executed();
  if (driver) {
    out->transitions = driver->transitions();
    out->fluid_time = driver->fluid_time();
    // Fluid progress is not in a snapshot: zoom before saving one.
    driver->force_packet(SimTime::zero(), "snapshot");
  }
  audits.run_all();  // traps on any finding

  // Snapshot round-trip idempotence on the soaked state: after one restore
  // (which resumes timers/pacing), re-applying the engine's own freshest
  // snapshot is byte-stable.
  fleet.for_each_engine([&](RdmaEngine& engine) {
    out->engine_goodput.push_back(engine.rx_goodput_bytes());
    for (const auto& conn : engine.connections()) {
      out->conn_bytes.push_back(conn->completed_bytes());
    }
    ASSERT_TRUE(engine.restore_state(engine.save_state()).is_ok());
    const std::string stable = engine.save_state();
    ASSERT_TRUE(engine.restore_state(stable).is_ok());
    EXPECT_EQ(engine.save_state(), stable) << "engine " << engine.self();
  });
}

// Runs one cell and checks what every cell must show plus what its plan
// promises.
void check_cell(Fidelity fidelity, Plan plan) {
  SoakResult r;
  run_soak(fidelity, plan, &r);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  EXPECT_GT(r.completions, 0u) << "soak never completed a collective";
  EXPECT_GT(r.pins_ok, 0u);
  const bool hybrid = fidelity == Fidelity::kHybrid;
  EXPECT_EQ(r.transitions > 0, hybrid);
  EXPECT_EQ(r.fluid_time > SimTime::zero(), hybrid);
  switch (plan) {
    case Plan::kNone: {
      EXPECT_EQ(r.completions, kFaultFreeGenerations);
      SoakResult twin;
      run_soak(hybrid ? Fidelity::kPacket : Fidelity::kHybrid, Plan::kNone,
               &twin);
      EXPECT_EQ(r.conn_bytes, twin.conn_bytes);
      EXPECT_EQ(r.engine_goodput, twin.engine_goodput);
      break;
    }
    case Plan::kScripted:
      EXPECT_EQ(r.executed, scripted_plan().events.size());
      // Every fault dropped the fabric to packet mode at least once.
      EXPECT_GE(r.transitions, hybrid ? 4u : 0u);
      break;
    case Plan::kChaos:
      EXPECT_GE(r.executed, 100u);
      EXPECT_GT(r.backend_restarts, 0u);
      EXPECT_GT(r.live_migrations, 0u);
      break;
  }
}

// Two cells keep the names they had as stand-alone soaks: the seeded chaos
// plan at packet fidelity, and the scripted plan at hybrid fidelity.
TEST(ChaosSoakTest, SurvivesHundredEventPlanWithAuditsOn) {
  check_cell(Fidelity::kPacket, Plan::kChaos);
}

TEST(HybridFaultTest, MiniChaosSoakTransitionsStayConservative) {
  check_cell(Fidelity::kHybrid, Plan::kScripted);
}

using Cell = std::tuple<Fidelity, Plan>;

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [fidelity, plan] = info.param;
  const char* plans[] = {"none", "scripted", "chaos"};
  return std::string(fidelity == Fidelity::kPacket ? "packet" : "hybrid") +
         "_" + plans[static_cast<int>(plan)];
}

class CompositionSoakTest : public ::testing::TestWithParam<Cell> {};

TEST_P(CompositionSoakTest, SurvivesWithSixAuditorsTrapping) {
  const auto [fidelity, plan] = GetParam();
  check_cell(fidelity, plan);
}

// The other four cells; packet x chaos and hybrid x scripted run above.
INSTANTIATE_TEST_SUITE_P(
    FidelityByPlan, CompositionSoakTest,
    ::testing::Values(Cell{Fidelity::kPacket, Plan::kNone},
                      Cell{Fidelity::kPacket, Plan::kScripted},
                      Cell{Fidelity::kHybrid, Plan::kNone},
                      Cell{Fidelity::kHybrid, Plan::kChaos}),
    cell_name);

}  // namespace
}  // namespace stellar
