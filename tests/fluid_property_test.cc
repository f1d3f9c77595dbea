// Property sweeps over the max-min fluid solver (sim/fluid.h): on seeded
// random topologies the solution must satisfy the defining max-min
// invariants —
//   * feasibility: no link carries more than its capacity;
//   * bottleneck: every active flow crosses at least one saturated link
//     (otherwise its rate could still grow, contradicting max-min);
//   * monotonicity: removing a flow never lowers any survivor's rate;
//   * determinism: re-running the identical call sequence reproduces
//     bitwise-identical rates;
//   * conservation: integrating rates over a rate-change schedule serves
//     exactly the demand the flows brought (no bytes created or lost);
//   * incrementality: re-solving only the touched components is bitwise
//     equal to a fresh solve, and leaves untouched components alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/fluid.h"

namespace stellar {
namespace {

// Relative slack for comparing stored doubles that went through independent
// arithmetic (load sums vs capacities). The solver itself compares exact
// stored values; tests allow accumulated rounding across many flows.
constexpr double kRelEps = 1e-9;

struct RandomCase {
  FluidSolver solver;
  std::vector<std::uint32_t> flows;
  std::vector<std::vector<FluidSolver::LinkShare>> shares;  // per flow
  std::vector<double> capacities;
};

/// Build a random capacitated network: `links` links with capacities in
/// [1, 100] GB/s and `flows` flows, each crossing 1..4 distinct links with
/// weights in (0, 1].
RandomCase build_case(std::uint64_t seed, std::uint32_t links,
                      std::uint32_t flows) {
  RandomCase c;
  Rng rng(seed);
  for (std::uint32_t l = 0; l < links; ++l) {
    const double cap = 1e9 * (1.0 + 99.0 * rng.uniform());
    c.capacities.push_back(cap);
    c.solver.add_link(cap);
  }
  for (std::uint32_t f = 0; f < flows; ++f) {
    const std::uint32_t span = 1 + static_cast<std::uint32_t>(rng.below(4));
    std::vector<FluidSolver::LinkShare> shares;
    std::uint32_t start = static_cast<std::uint32_t>(rng.below(links));
    for (std::uint32_t k = 0; k < span; ++k) {
      // Distinct links: walk a strided window so no link repeats.
      const std::uint32_t link = (start + k * 7 + k) % links;
      bool dup = false;
      for (const auto& s : shares) dup |= (s.link == link);
      if (dup) continue;
      shares.push_back({link, 0.05 + 0.95 * rng.uniform()});
    }
    c.shares.push_back(shares);
    c.flows.push_back(c.solver.add_flow(shares));
  }
  c.solver.solve();
  return c;
}

void check_feasibility_and_bottleneck(const RandomCase& c) {
  // Feasibility: every link at or under capacity (with rounding slack).
  for (std::uint32_t l = 0; l < c.capacities.size(); ++l) {
    EXPECT_LE(c.solver.link_load(l),
              c.capacities[l] * (1.0 + kRelEps))
        << "link " << l << " over capacity";
  }
  // Bottleneck property: each active flow has a saturated link among its
  // shares. A flow crossing only unsaturated links could still grow.
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    const double rate = c.solver.rate(c.flows[i]);
    EXPECT_GT(rate, 0.0) << "flow " << i << " starved";
    bool bottlenecked = false;
    for (const auto& s : c.shares[i]) {
      if (c.solver.link_load(s.link) >=
          c.solver.capacity(s.link) * (1.0 - kRelEps)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << i << " has no saturated link";
  }
}

class FluidPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidPropertyTest, FeasibleAndBottlenecked) {
  const std::uint64_t seed = GetParam();
  check_feasibility_and_bottleneck(build_case(seed, 12, 40));
  check_feasibility_and_bottleneck(build_case(seed ^ 0xabcdu, 3, 50));
  check_feasibility_and_bottleneck(build_case(seed ^ 0x1234u, 25, 8));
}

TEST_P(FluidPropertyTest, DepartureLexicographicImprovement) {
  // Per-flow monotonicity under departure is NOT a max-min theorem in
  // multi-link networks (removing a flow can un-bottleneck a neighbor,
  // which then takes more of a shared link and slows a third party). The
  // correct invariant: the survivors' old allocation stays feasible once a
  // flow leaves, so the new max-min solution must lexicographically
  // dominate it — in particular the slowest survivor never gets slower.
  const std::uint64_t seed = GetParam();
  RandomCase c = build_case(seed, 10, 30);
  std::vector<double> before(c.flows.size());
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    before[i] = c.solver.rate(c.flows[i]);
  }
  // Remove every third flow.
  std::vector<bool> removed(c.flows.size(), false);
  for (std::size_t i = 0; i < c.flows.size(); i += 3) {
    c.solver.remove_flow(c.flows[i]);
    removed[i] = true;
  }
  c.solver.solve();
  std::vector<double> old_rates;
  std::vector<double> new_rates;
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    if (removed[i]) continue;
    old_rates.push_back(before[i]);
    new_rates.push_back(c.solver.rate(c.flows[i]));
  }
  std::sort(old_rates.begin(), old_rates.end());
  std::sort(new_rates.begin(), new_rates.end());
  ASSERT_EQ(old_rates.size(), new_rates.size());
  EXPECT_GE(new_rates.front(), old_rates.front() * (1.0 - kRelEps))
      << "slowest survivor slowed down after departures";
  for (std::size_t i = 0; i < new_rates.size(); ++i) {
    if (new_rates[i] > old_rates[i] * (1.0 + kRelEps)) break;  // dominates
    EXPECT_GE(new_rates[i], old_rates[i] * (1.0 - kRelEps))
        << "sorted rate vector regressed at position " << i;
  }
}

TEST_P(FluidPropertyTest, BitwiseDeterministicAcrossRuns) {
  const std::uint64_t seed = GetParam();
  RandomCase a = build_case(seed, 14, 36);
  RandomCase b = build_case(seed, 14, 36);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    // Bitwise equality, not approximate: same inputs, same arithmetic.
    EXPECT_EQ(a.solver.rate(a.flows[i]), b.solver.rate(b.flows[i]));
  }
  for (std::uint32_t l = 0; l < 14; ++l) {
    EXPECT_EQ(a.solver.link_load(l), b.solver.link_load(l));
  }
}

TEST_P(FluidPropertyTest, ByteConservationAcrossRateChanges) {
  // Integrate each flow's rate over a schedule of departures (the exact
  // arithmetic HybridDriver::advance_to_now performs) and check that each
  // flow is credited exactly the bytes of demand it brought: rate changes
  // must neither create nor destroy bytes.
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5eedf00du);
  FluidSolver solver;
  const std::uint32_t kLinks = 6;
  for (std::uint32_t l = 0; l < kLinks; ++l) {
    solver.add_link(1e9 * (1.0 + 9.0 * rng.uniform()));
  }
  struct Demand {
    std::uint32_t flow;
    double remaining;  // bytes
    double served = 0.0;
    bool done = false;
  };
  std::vector<Demand> demands;
  for (std::uint32_t f = 0; f < 12; ++f) {
    std::vector<FluidSolver::LinkShare> shares{
        {static_cast<std::uint32_t>(rng.below(kLinks)), 1.0}};
    const std::uint32_t second = static_cast<std::uint32_t>(rng.below(kLinks));
    if (second != shares[0].link) shares.push_back({second, 0.5});
    const double bytes = 1e6 * (1.0 + 9.0 * rng.uniform());
    demands.push_back({solver.add_flow(shares), bytes});
  }
  solver.solve();

  // Event loop: advance to the earliest flow completion, credit every
  // active flow rate*dt, remove finished flows, re-solve.
  double total_served = 0.0;
  for (int guard = 0; guard < 64 && solver.active_flows() > 0; ++guard) {
    double dt = 1e18;
    for (const Demand& d : demands) {
      if (d.done) continue;
      const double rate = solver.rate(d.flow);
      ASSERT_GT(rate, 0.0);
      dt = std::min(dt, (d.remaining - d.served) / rate);
    }
    bool removed_any = false;
    for (Demand& d : demands) {
      if (d.done) continue;
      d.served += solver.rate(d.flow) * dt;
      total_served += solver.rate(d.flow) * dt;
      if (d.served >= d.remaining * (1.0 - kRelEps)) {
        solver.remove_flow(d.flow);
        d.done = true;
        removed_any = true;
      }
    }
    ASSERT_TRUE(removed_any) << "no completion progress";
    solver.solve();
  }
  EXPECT_EQ(solver.active_flows(), 0u);
  double total_demand = 0.0;
  for (const Demand& d : demands) {
    total_demand += d.remaining;
    // Per-flow conservation: served bytes match the demand brought.
    EXPECT_NEAR(d.served, d.remaining, d.remaining * 1e-6);
  }
  EXPECT_NEAR(total_served, total_demand, total_demand * 1e-6);
}

TEST(FluidSolverTest, SingleBottleneckEqualShares) {
  FluidSolver solver;
  const std::uint32_t l = solver.add_link(4e9);
  const auto f1 = solver.add_flow({{l, 1.0}});
  const auto f2 = solver.add_flow({{l, 1.0}});
  const auto f3 = solver.add_flow({{l, 1.0}});
  const auto f4 = solver.add_flow({{l, 1.0}});
  solver.solve();
  for (auto f : {f1, f2, f3, f4}) EXPECT_DOUBLE_EQ(solver.rate(f), 1e9);
  EXPECT_DOUBLE_EQ(solver.link_load(l), 4e9);
}

TEST(FluidSolverTest, ClassicTwoLinkMaxMin) {
  // The textbook example: flow A crosses both links, flows B and C one
  // each. With C1=1, C2=2: A and B split link 1 at 0.5; C gets the rest of
  // link 2 (1.5).
  FluidSolver solver;
  const std::uint32_t l1 = solver.add_link(1e9);
  const std::uint32_t l2 = solver.add_link(2e9);
  const auto fa = solver.add_flow({{l1, 1.0}, {l2, 1.0}});
  const auto fb = solver.add_flow({{l1, 1.0}});
  const auto fc = solver.add_flow({{l2, 1.0}});
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(fa), 0.5e9);
  EXPECT_DOUBLE_EQ(solver.rate(fb), 0.5e9);
  EXPECT_DOUBLE_EQ(solver.rate(fc), 1.5e9);
}

TEST(FluidSolverTest, WeightedSprayShares) {
  // A flow spraying 1/4 of its packets over each of 4 uplinks can run 4x
  // the single-link capacity.
  FluidSolver solver;
  std::vector<FluidSolver::LinkShare> shares;
  for (int i = 0; i < 4; ++i) shares.push_back({solver.add_link(1e9), 0.25});
  const auto f = solver.add_flow(shares);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f), 4e9);
  for (std::uint32_t l = 0; l < 4; ++l) {
    EXPECT_DOUBLE_EQ(solver.link_load(l), 1e9);
  }
}

TEST(FluidSolverTest, CapacityChangeReflowsRates) {
  FluidSolver solver;
  const std::uint32_t l = solver.add_link(2e9);
  const auto f1 = solver.add_flow({{l, 1.0}});
  const auto f2 = solver.add_flow({{l, 1.0}});
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f1), 1e9);
  solver.set_capacity(l, 8e9);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f1), 4e9);
  EXPECT_DOUBLE_EQ(solver.rate(f2), 4e9);
}

// Incremental re-solve. A churned solver only re-solves the components its
// changes touched; the result must still be bitwise what a fresh solver
// computes from scratch for the same links and the same active flows added
// in id order (so the fresh solver sees the same flow order).
class IncrementalSolveTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::uint32_t kHalf = 8;  // links [0,8) = A, [8,16) = B

  void SetUp() override {
    for (std::uint32_t l = 0; l < kHalf; ++l) {
      caps_.push_back(1e9 * (1.0 + static_cast<double>(l % 3)));
    }
    // Side B mirrors side A link for link: identical capacities, so
    // mirrored flows give two symmetric components whose bottlenecks tie
    // exactly.
    for (std::uint32_t l = 0; l < kHalf; ++l) caps_.push_back(caps_[l]);
    for (const double cap : caps_) solver_.add_link(cap);
  }

  void add(const std::vector<FluidSolver::LinkShare>& shares) {
    const std::uint32_t id = solver_.add_flow(shares);
    if (shares_.size() <= id) shares_.resize(id + 1);
    shares_[id] = shares;
  }

  /// 1..3 links on one side (`base` = 0 or kHalf), occasionally listing a
  /// link twice (the solver accepts repeated links).
  std::vector<FluidSolver::LinkShare> random_shares(Rng& rng,
                                                    std::uint32_t base) {
    std::vector<FluidSolver::LinkShare> shares;
    const std::uint32_t span = 1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t k = 0; k < span; ++k) {
      shares.push_back({base + static_cast<std::uint32_t>(rng.below(kHalf)),
                        0.1 + 0.9 * rng.uniform()});
    }
    return shares;
  }

  static std::vector<FluidSolver::LinkShare> mirrored(
      std::vector<FluidSolver::LinkShare> shares) {
    for (auto& s : shares) s.link += kHalf;
    return shares;
  }

  void solve_and_compare(const char* step) {
    solver_.solve();
    FluidSolver fresh;
    for (const double cap : caps_) fresh.add_link(cap);
    const std::vector<std::uint32_t> ids = solver_.flow_ids();
    for (const std::uint32_t id : ids) fresh.add_flow(shares_[id]);
    fresh.solve();
    for (std::uint32_t k = 0; k < ids.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(solver_.rate(ids[k])),
                std::bit_cast<std::uint64_t>(fresh.rate(k)))
          << step << ": flow " << ids[k] << " rate " << solver_.rate(ids[k])
          << " vs fresh " << fresh.rate(k);
    }
    for (std::uint32_t l = 0; l < caps_.size(); ++l) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(solver_.link_load(l)),
                std::bit_cast<std::uint64_t>(fresh.link_load(l)))
          << step << ": link " << l << " load " << solver_.link_load(l)
          << " vs fresh " << fresh.link_load(l);
    }
  }

  FluidSolver solver_;
  std::vector<double> caps_;
  std::vector<std::vector<FluidSolver::LinkShare>> shares_;  // by flow id
};

TEST_P(IncrementalSolveTest, IncrementalMatchesFreshSolve) {
  Rng rng(GetParam() ^ 0x1ac5u);
  // Two symmetric disjoint components to start.
  for (int k = 0; k < 6; ++k) {
    const auto shares = random_shares(rng, 0);
    add(shares);
    add(mirrored(shares));
  }
  solve_and_compare("symmetric start");

  for (int step = 0; step < 300; ++step) {
    // A few changes per solve, so one solve sees several dirty components.
    const int changes = 1 + static_cast<int>(rng.below(3));
    for (int c = 0; c < changes; ++c) {
      const std::vector<std::uint32_t> ids = solver_.flow_ids();
      // Past 40 flows, only remove: the table stays small enough for the
      // two halves to keep splitting apart.
      switch (ids.size() > 40 ? 5 : rng.below(10)) {
        case 0:
        case 1:
        case 2:
          add(random_shares(rng, rng.below(2) == 0 ? 0 : kHalf));
          break;
        case 3: {
          // A bridge across the halves merges their components; removing
          // it later splits them again.
          auto shares = random_shares(rng, 0);
          shares.push_back({kHalf + static_cast<std::uint32_t>(
                                        rng.below(kHalf)),
                            0.5});
          add(shares);
          break;
        }
        case 4: {
          const auto shares = random_shares(rng, 0);
          add(shares);
          add(mirrored(shares));
          break;
        }
        case 5:
        case 6:
        case 7:
          if (!ids.empty()) {
            solver_.remove_flow(ids[rng.below(ids.size())]);
          }
          break;
        case 8: {
          const auto l = static_cast<std::uint32_t>(rng.below(caps_.size()));
          caps_[l] = 1e9 * (0.5 + 3.0 * rng.uniform());
          solver_.set_capacity(l, caps_[l]);
          break;
        }
        default: {
          // Re-setting a capacity to its current value is not a change.
          const auto l = static_cast<std::uint32_t>(rng.below(caps_.size()));
          solver_.set_capacity(l, caps_[l]);
          break;
        }
      }
    }
    solve_and_compare("churn");
  }
}

TEST(FluidSolverTest, ChangeReSolvesOnlyItsComponent) {
  FluidSolver solver;
  const std::uint32_t a0 = solver.add_link(1e9);
  const std::uint32_t a1 = solver.add_link(2e9);
  const std::uint32_t b0 = solver.add_link(1e9);
  const std::uint32_t b1 = solver.add_link(2e9);
  const auto fa1 = solver.add_flow({{a0, 1.0}, {a1, 1.0}});
  const auto fa2 = solver.add_flow({{a1, 1.0}});
  const auto fb1 = solver.add_flow({{b0, 1.0}, {b1, 1.0}});
  const auto fb2 = solver.add_flow({{b1, 1.0}});
  solver.solve();
  const auto sorted_solved = [&] {
    std::vector<std::uint32_t> v = solver.last_solved_flows();
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted_solved(),
            (std::vector<std::uint32_t>{fa1, fa2, fb1, fb2}));
  const double rb1 = solver.rate(fb1);
  const double rb2 = solver.rate(fb2);
  const double load_b1 = solver.link_load(b1);

  // A new flow in component A re-solves A alone; B keeps its rates.
  const auto fa3 = solver.add_flow({{a0, 1.0}});
  solver.solve();
  EXPECT_EQ(sorted_solved(), (std::vector<std::uint32_t>{fa1, fa2, fa3}));
  EXPECT_DOUBLE_EQ(solver.rate(fa3), 0.5e9);
  EXPECT_EQ(solver.rate(fb1), rb1);
  EXPECT_EQ(solver.rate(fb2), rb2);
  EXPECT_EQ(solver.link_load(b1), load_b1);

  // An unchanged capacity touches nothing; a changed one its component.
  solver.set_capacity(b0, 1e9);
  solver.solve();
  EXPECT_TRUE(solver.last_solved_flows().empty());
  solver.set_capacity(b0, 4e9);
  solver.solve();
  EXPECT_EQ(sorted_solved(), (std::vector<std::uint32_t>{fb1, fb2}));
  EXPECT_DOUBLE_EQ(solver.rate(fb1), 1e9);

  // A bridge merges the components; removing it splits them again.
  const auto bridge = solver.add_flow({{a1, 1.0}, {b1, 1.0}});
  solver.solve();
  EXPECT_EQ(solver.last_solved_flows().size(), 6u);
  solver.remove_flow(bridge);
  solver.solve();
  EXPECT_EQ(solver.last_solved_flows().size(), 5u);
  solver.remove_flow(fa2);
  solver.solve();
  EXPECT_EQ(sorted_solved(), (std::vector<std::uint32_t>{fa1, fa3}));
  EXPECT_EQ(solver.rate(fb1), 1e9);
}

TEST(FluidSolverTest, TiedBottlenecksFreezeInLinkIndexOrder) {
  // l0 and l1 tie as bottlenecks; the flows they freeze both cross x, so
  // the order they freeze in decides how x's residual rounds (with these
  // weights the two orders differ in the last bit) and so fc's rate. A
  // change touching only l1 reaches l0 last in the component walk; the
  // re-solve must still freeze l0 first, as a fresh solve does.
  const auto build = [](FluidSolver& s, double l1_cap) {
    const std::uint32_t l0 = s.add_link(0.1);
    const std::uint32_t l1 = s.add_link(l1_cap);
    const std::uint32_t x = s.add_link(1.0);
    s.add_flow({{l0, 1.0}, {x, 0.1}});
    s.add_flow({{l1, 1.0}, {x, 0.4}});
    return s.add_flow({{x, 1.0}});
  };
  FluidSolver incremental;
  const std::uint32_t fc = build(incremental, 0.2);
  incremental.solve();
  incremental.set_capacity(1, 0.1);
  incremental.solve();
  FluidSolver fresh;
  build(fresh, 0.1);
  fresh.solve();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(incremental.rate(fc)),
            std::bit_cast<std::uint64_t>(fresh.rate(fc)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 0xfeedfaceu));
INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSolveTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 0xfeedfaceu));

}  // namespace
}  // namespace stellar
