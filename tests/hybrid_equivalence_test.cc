// Golden-equivalence harness for the hybrid fidelity engine (sim/hybrid.h):
// the same mini scenarios run at packet fidelity and at hybrid fidelity
// (fluid fast-forward + packet zoom) must agree on per-row completion time
// within the declared tolerance, and every fidelity must be byte-
// deterministic run-to-run.
//
// Two scenarios mirror the figure benches at mini scale:
//   * fig09-mini: cross-segment permutation writes, rows = (algo, paths);
//   * fig12-mini: 2 RNICs / 4 connections, rows = path counts.
//
// Golden tables below pin the PACKET-mode completion times. They exist to
// make drift loud: an intentional transport/fabric change that shifts them
// should update the table (the failure message prints the measured row),
// an unintentional one is a regression. Hybrid rows are not pinned — they
// are checked against the packet run, which is the actual equivalence
// claim.
//
// Tolerance rationale (docs/HYBRID.md): hybrid completion differs from
// packet because (a) CC state is re-seeded from fluid rates at each thaw
// and re-converges over a few RTTs, (b) a message mid-flight at a
// freeze/thaw boundary can complete up to one CC window early on the
// receiver. Both effects are O(window), not O(run), so a mini run with
// multi-MiB flows bounds them under 15%.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "collective/fleet.h"
#include "sim/hybrid.h"

namespace stellar {
namespace {

// kFluid is unzoomed hybrid (all fluid): the default driver with no zoom
// window, so the fabric stays fluid for the whole run.
enum class Fidelity { kPacket, kFluid, kHybrid };

const char* fidelity_name(Fidelity f) {
  switch (f) {
    case Fidelity::kPacket: return "packet";
    case Fidelity::kFluid: return "fluid";
    case Fidelity::kHybrid: return "hybrid";
  }
  return "?";
}

std::unique_ptr<HybridDriver> make_driver(Simulator& sim, ClosFabric& fabric,
                                          Fidelity f) {
  if (f == Fidelity::kPacket) return nullptr;
  return std::make_unique<HybridDriver>(sim, fabric);
}

/// Declared packet-vs-hybrid tolerance for completion times (fraction).
constexpr double kHybridTol = 0.15;
/// Unzoomed hybrid (all fluid) skips CC ramp-up entirely, so it runs a
/// bounded amount faster than packet; the band is one-sided wider.
constexpr double kFluidTol = 0.35;
/// Goldens pin exact deterministic runs; the band only absorbs platform
/// libm differences, not behavior changes.
constexpr double kGoldenTol = 0.02;

struct RunResult {
  SimTime completion = SimTime::zero();  // sim time of the last completion
  std::uint64_t delivered = 0;           // receiver goodput bytes
  std::uint64_t posted = 0;              // payload bytes posted
  int completions = 0;
  std::uint64_t transitions = 0;
  SimTime fluid_time = SimTime::zero();
};

// ---------------------------------------------------------------------------
// fig09-mini: 8 endpoints across 2 segments, cross-segment permutation,
// 4 x 1 MiB per connection.
// ---------------------------------------------------------------------------

RunResult run_fig09_mini(MultipathAlgo algo, std::uint16_t paths,
                         Fidelity fidelity) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 8;
  fc.fabric_link.bandwidth = Bandwidth::gbps(200);
  ClosFabric fabric(sim, fc);
  auto hybrid = make_driver(sim, fabric, fidelity);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = algo;
  t.num_paths = paths;

  // Cross-segment derangement: (0,h) -> (1,(h+1)%4) and (1,h) -> (0,(h+2)%4).
  std::vector<RdmaConnection*> conns;
  std::vector<EndpointId> dsts;
  for (std::uint32_t h = 0; h < 4; ++h) {
    const EndpointId src = fabric.endpoint(0, h);
    const EndpointId dst = fabric.endpoint(1, (h + 1) % 4);
    conns.push_back(fleet.connect(src, dst, t).value());
    dsts.push_back(dst);
  }
  for (std::uint32_t h = 0; h < 4; ++h) {
    const EndpointId src = fabric.endpoint(1, h);
    const EndpointId dst = fabric.endpoint(0, (h + 2) % 4);
    conns.push_back(fleet.connect(src, dst, t).value());
    dsts.push_back(dst);
  }

  RunResult out;
  constexpr std::uint64_t kMsg = 1_MiB;
  constexpr int kMsgs = 4;
  for (RdmaConnection* c : conns) {
    for (int i = 0; i < kMsgs; ++i) {
      c->post_write(kMsg, [&out, &sim] {
        ++out.completions;
        out.completion = sim.now();
      });
      out.posted += kMsg;
    }
  }
  // Hybrid: fast-forward the start, zoom to packets mid-run (freeze ->
  // thaw -> re-freeze all exercised), mirroring the bench's measurement
  // window placement.
  if (fidelity == Fidelity::kHybrid) {
    hybrid->request_zoom_window(SimTime::micros(80), SimTime::micros(160));
  }
  sim.run();

  for (EndpointId d : dsts) out.delivered += fleet.at(d).rx_goodput_bytes();
  if (hybrid != nullptr) {
    out.transitions = hybrid->transitions();
    out.fluid_time = hybrid->fluid_time();
  }
  return out;
}

// ---------------------------------------------------------------------------
// fig12-mini: 2 RNICs, 4 connections, 6 x 512 KiB each, OBS spraying.
// ---------------------------------------------------------------------------

RunResult run_fig12_mini(std::uint16_t paths, Fidelity fidelity) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 8;
  ClosFabric fabric(sim, fc);
  auto hybrid = make_driver(sim, fabric, fidelity);
  EngineFleet fleet(sim, fabric);

  const EndpointId a = fabric.endpoint(0, 0);
  const EndpointId b = fabric.endpoint(1, 0);
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = paths;

  RunResult out;
  constexpr std::uint64_t kMsg = 512_KiB;
  constexpr int kMsgs = 6;
  for (int i = 0; i < 4; ++i) {
    RdmaConnection* c = fleet.connect(a, b, t).value();
    for (int m = 0; m < kMsgs; ++m) {
      c->post_write(kMsg, [&out, &sim] {
        ++out.completions;
        out.completion = sim.now();
      });
      out.posted += kMsg;
    }
  }
  if (fidelity == Fidelity::kHybrid) {
    hybrid->request_zoom_window(SimTime::micros(100), SimTime::micros(200));
  }
  sim.run();

  out.delivered = fleet.at(b).rx_goodput_bytes();
  if (hybrid != nullptr) {
    out.transitions = hybrid->transitions();
    out.fluid_time = hybrid->fluid_time();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Golden tables: packet-mode completion times, pinned.
// Update procedure: run with --gtest_filter='*Golden*'; each failing row
// prints "measured=<us>" — paste that value here if the shift was intended.
// ---------------------------------------------------------------------------

struct Fig09Golden {
  MultipathAlgo algo;
  std::uint16_t paths;
  double completion_us;  // packet fidelity, measured
};
// clang-format off
const Fig09Golden kFig09Golden[] = {
    {MultipathAlgo::kSinglePath, 4,   348.89216},
    {MultipathAlgo::kObs,        4,   182.24640},
    {MultipathAlgo::kSinglePath, 32,  346.09664},
    {MultipathAlgo::kObs,        32,  178.95424},
};
struct Fig12Golden {
  std::uint16_t paths;
  double completion_us;
};
const Fig12Golden kFig12Golden[] = {
    {4,  516.32128},
    {32, 516.32128},
};
// clang-format on

void expect_golden(const char* scenario, const char* row, double measured_us,
                   double golden_us) {
  const double delta = std::abs(measured_us - golden_us);
  EXPECT_LE(delta, golden_us * kGoldenTol)
      << scenario << " row [" << row << "]: packet completion drifted from "
      << "golden: measured=" << measured_us << " us, golden=" << golden_us
      << " us (" << (100.0 * delta / golden_us) << "% off). If this change "
      << "is intended, update the golden table in hybrid_equivalence_test.cc.";
}

void expect_equivalent(const char* scenario, const char* row,
                       const RunResult& packet, const RunResult& other,
                       double tol) {
  ASSERT_GT(packet.completion.ps(), 0) << scenario << " packet run empty";
  ASSERT_GT(other.completion.ps(), 0) << scenario << " compared run empty";
  const double p_us = static_cast<double>(packet.completion.ps()) / 1e6;
  const double o_us = static_cast<double>(other.completion.ps()) / 1e6;
  const double rel = std::abs(o_us - p_us) / p_us;
  EXPECT_LE(rel, tol) << scenario << " row [" << row << "]: completion "
                      << "disagrees beyond tolerance: packet=" << p_us
                      << " us vs " << o_us << " us (" << (100.0 * rel)
                      << "% > " << (100.0 * tol) << "%)";
  EXPECT_EQ(other.completions, packet.completions)
      << scenario << " row [" << row << "]: completion count mismatch";
}

// ---------------------------------------------------------------------------

using Fig09Param = std::tuple<MultipathAlgo, int>;
class HybridFig09Equivalence : public ::testing::TestWithParam<Fig09Param> {};

TEST_P(HybridFig09Equivalence, PacketVsHybridCompletionAgrees) {
  const auto [algo, paths] = GetParam();
  const auto p16 = static_cast<std::uint16_t>(paths);
  const RunResult packet = run_fig09_mini(algo, p16, Fidelity::kPacket);
  const RunResult hybrid = run_fig09_mini(algo, p16, Fidelity::kHybrid);
  char row[64];
  std::snprintf(row, sizeof(row), "%s/%d", multipath_algo_name(algo), paths);

  // Packet run sanity: every posted byte delivered exactly once.
  EXPECT_EQ(packet.delivered, packet.posted);
  EXPECT_EQ(packet.completions, 8 * 4);

  // The hybrid run really did change modes: at least fluid -> packet at
  // the zoom start and packet -> fluid after it.
  EXPECT_GE(hybrid.transitions, 2u) << "zoom window never entered";
  EXPECT_GT(hybrid.fluid_time.ps(), 0) << "no time was fast-forwarded";
  // All senders finished; deliveries can exceed posted by at most one
  // re-served overlap per connection at a mode boundary (docs/HYBRID.md).
  EXPECT_EQ(hybrid.completions, 8 * 4);
  EXPECT_GE(hybrid.delivered, hybrid.posted);

  expect_equivalent("fig09-mini", row, packet, hybrid, kHybridTol);
}

TEST_P(HybridFig09Equivalence, PacketVsFluidCompletionAgrees) {
  const auto [algo, paths] = GetParam();
  const auto p16 = static_cast<std::uint16_t>(paths);
  const RunResult packet = run_fig09_mini(algo, p16, Fidelity::kPacket);
  const RunResult fluid = run_fig09_mini(algo, p16, Fidelity::kFluid);
  char row[64];
  std::snprintf(row, sizeof(row), "%s/%d", multipath_algo_name(algo), paths);
  EXPECT_EQ(fluid.completions, 8 * 4);
  expect_equivalent("fig09-mini", row, packet, fluid, kFluidTol);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, HybridFig09Equivalence,
    ::testing::Combine(::testing::Values(MultipathAlgo::kSinglePath,
                                         MultipathAlgo::kObs),
                       ::testing::Values(4, 32)));

TEST(HybridFig09Golden, PacketCompletionMatchesGoldenTable) {
  for (const Fig09Golden& g : kFig09Golden) {
    const RunResult r = run_fig09_mini(g.algo, g.paths, Fidelity::kPacket);
    char row[64];
    std::snprintf(row, sizeof(row), "%s/%u", multipath_algo_name(g.algo),
                  g.paths);
    expect_golden("fig09-mini", row,
                  static_cast<double>(r.completion.ps()) / 1e6,
                  g.completion_us);
  }
}

TEST(HybridFig12Equivalence, PacketVsHybridCompletionAgrees) {
  for (std::uint16_t paths : {std::uint16_t{4}, std::uint16_t{32}}) {
    const RunResult packet = run_fig12_mini(paths, Fidelity::kPacket);
    const RunResult hybrid = run_fig12_mini(paths, Fidelity::kHybrid);
    char row[32];
    std::snprintf(row, sizeof(row), "paths=%u", paths);
    EXPECT_EQ(packet.delivered, packet.posted);
    EXPECT_GE(hybrid.transitions, 2u);
    expect_equivalent("fig12-mini", row, packet, hybrid, kHybridTol);
  }
}

TEST(HybridFig12Golden, PacketCompletionMatchesGoldenTable) {
  for (const Fig12Golden& g : kFig12Golden) {
    const RunResult r = run_fig12_mini(g.paths, Fidelity::kPacket);
    char row[32];
    std::snprintf(row, sizeof(row), "paths=%u", g.paths);
    expect_golden("fig12-mini", row,
                  static_cast<double>(r.completion.ps()) / 1e6,
                  g.completion_us);
  }
}

// ---------------------------------------------------------------------------
// Run-twice byte determinism, per fidelity mode: identical completion
// timestamps (integer picoseconds) and identical byte counters.
// ---------------------------------------------------------------------------

class HybridDeterminism
    : public ::testing::TestWithParam<Fidelity> {};

TEST_P(HybridDeterminism, RunTwiceIsByteIdentical) {
  const Fidelity f = GetParam();
  const RunResult a = run_fig09_mini(MultipathAlgo::kObs, 4, f);
  const RunResult b = run_fig09_mini(MultipathAlgo::kObs, 4, f);
  EXPECT_EQ(a.completion.ps(), b.completion.ps())
      << fidelity_name(f) << " completion time differs run-to-run";
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.fluid_time.ps(), b.fluid_time.ps());

  const RunResult c = run_fig12_mini(4, f);
  const RunResult d = run_fig12_mini(4, f);
  EXPECT_EQ(c.completion.ps(), d.completion.ps())
      << fidelity_name(f) << " fig12-mini completion differs run-to-run";
  EXPECT_EQ(c.delivered, d.delivered);
  EXPECT_EQ(c.transitions, d.transitions);
}

INSTANTIATE_TEST_SUITE_P(Fidelities, HybridDeterminism,
                         ::testing::Values(Fidelity::kPacket, Fidelity::kFluid,
                                           Fidelity::kHybrid),
                         [](const ::testing::TestParamInfo<Fidelity>& info) {
                           return fidelity_name(info.param);
                         });

}  // namespace
}  // namespace stellar
