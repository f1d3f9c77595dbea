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
//
// The HybridServiceTest cases drive HybridDriver's lazy fluid service over
// real fabric links: a fluid event touches only the flows it completes or
// re-rates, completion times follow the piecewise rates to the picosecond,
// every service event completes a message, and reading the byte count
// serves nothing. HybridPromotionTest pins when a zoomed fabric promotes
// back to fluid.
// FluidFootprintTest pins ClosFabric::fluid_footprint, bit for bit, to a
// walk of the packet routes it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/fleet.h"
#include "common/rng.h"
#include "fluid_churn.h"
#include "rnic/multipath.h"
#include "sim/fluid.h"
#include "sim/hybrid.h"

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

TEST(FluidSolverTest, RejectedFlowLeavesSolverUnchanged) {
  // A bad share anywhere in the list trips add_flow's check before the
  // solver changes: with a throwing fail handler the caller can go on, and
  // the solver behaves as if the call never happened.
  FluidSolver solver;
  const std::uint32_t l0 = solver.add_link(2e9);
  const std::uint32_t l1 = solver.add_link(3e9);
  const auto fa = solver.add_flow({{l0, 1.0}, {l1, 1.0}});
  const auto fb = solver.add_flow({{l1, 1.0}});
  solver.remove_flow(fb);  // leave a recyclable slot behind
  solver.solve();
  CheckFailHandler previous =
      set_check_fail_handler([](const CheckFailure& f) { throw f; });
  EXPECT_THROW(solver.add_flow({{l0, 1.0}, {l1, 1.0}, {7, 1.0}}),
               CheckFailure);
  EXPECT_THROW(solver.add_flow({{l1, 1.0}, {l0, 0.0}}), CheckFailure);
  set_check_fail_handler(std::move(previous));
  EXPECT_EQ(solver.active_flows(), 1u);
  // The rejected calls took no slot and left no entry on l0 or l1.
  EXPECT_EQ(solver.add_flow({{l1, 1.0}}), fb);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(fa), 1.5e9);
  EXPECT_DOUBLE_EQ(solver.rate(fb), 1.5e9);
  solver.remove_flow(fa);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(fb), 3e9);
  EXPECT_DOUBLE_EQ(solver.link_load(l0), 0.0);
  EXPECT_DOUBLE_EQ(solver.link_load(l1), 3e9);
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

TEST_P(IncrementalSolveTest, LongCrossingListsMatchFreshSolve) {
  // Over 100 flows on the 16 links: every crossing list holds dozens of
  // entries, so most removals take an entry out of the middle of several
  // lists at once.
  Rng rng(GetParam() ^ 0x1096u);
  const auto add_one = [&] {
    switch (rng.below(4)) {
      case 0: {
        auto shares = random_shares(rng, 0);
        shares.push_back({kHalf + static_cast<std::uint32_t>(
                                      rng.below(kHalf)),
                          0.5});
        add(shares);
        break;
      }
      case 1: {
        const auto shares = random_shares(rng, 0);
        add(shares);
        add(mirrored(shares));
        break;
      }
      default:
        add(random_shares(rng, rng.below(2) == 0 ? 0 : kHalf));
        break;
    }
  };
  while (solver_.active_flows() < 120) add_one();
  solve_and_compare("long lists");

  for (int step = 0; step < 200; ++step) {
    const int changes = 1 + static_cast<int>(rng.below(4));
    for (int c = 0; c < changes; ++c) {
      const std::vector<std::uint32_t> ids = solver_.flow_ids();
      const std::uint64_t op =
          ids.size() < 110 ? 0 : ids.size() > 140 ? 1 : rng.below(5);
      if (op == 0 || op == 2) {
        add_one();
      } else if (op == 4) {
        const auto l = static_cast<std::uint32_t>(rng.below(caps_.size()));
        caps_[l] = 1e9 * (0.5 + 3.0 * rng.uniform());
        solver_.set_capacity(l, caps_[l]);
      } else {
        solver_.remove_flow(ids[rng.below(ids.size())]);
      }
    }
    ASSERT_GE(solver_.active_flows(), 100u);
    solve_and_compare("long churn");
  }
}

/// FNV-1a over the bytes of 64-bit words, low byte first.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void fold(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
};

TEST(FluidSolverTest, ChurnMatchesParentDigest) {
  // A seeded churn over a hybrid-sized region (tests/fluid_churn.h): after
  // every solve, the re-solved flow runs, every active flow's id and rate
  // bits and every link's load bits go into one digest. The expected value
  // was recorded from the solver that kept each crossing list sorted by
  // flow id and each component sorted with std::sort; a change in any
  // operation order that moves one rate or load by one bit changes it.
  FluidChurn churn(0x5eed0c4u);
  FluidSolver& solver = churn.solver();
  Fnv1a digest;
  const auto fold_solve = [&] {
    for (const std::uint32_t id : solver.last_solved_flows()) {
      digest.fold(id);
    }
    for (const std::uint32_t id : solver.flow_ids()) {
      digest.fold(id);
      digest.fold(std::bit_cast<std::uint64_t>(solver.rate(id)));
    }
    for (std::uint32_t l = 0; l < solver.link_count(); ++l) {
      digest.fold(std::bit_cast<std::uint64_t>(solver.link_load(l)));
    }
  };
  fold_solve();
  for (int step = 0; step < 2000; ++step) {
    churn.step();
    solver.solve();
    fold_solve();
  }
  EXPECT_EQ(solver.active_flows(), churn.live().size());
  EXPECT_EQ(digest.hash, 0x568509ce223561cfull);
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

// ---------------------------------------------------------------------------
// Fluid footprint (ClosFabric)
// ---------------------------------------------------------------------------

using Footprint = decltype(FluidFlowDesc::shares);

/// The footprint as a walk of the packet routes builds it: path_links() of
/// every path with weight > 0 in ascending id order, links merged in
/// first-encounter order, each link's weight summed in path order.
Footprint walked_footprint(ClosFabric& fabric, EndpointId src, EndpointId dst,
                           std::uint64_t conn_id,
                           const std::vector<double>& weights) {
  Footprint shares;
  for (std::size_t path = 0; path < weights.size(); ++path) {
    if (weights[path] <= 0.0) continue;
    for (const NetLink* link : fabric.path_links(
             src, dst, conn_id, static_cast<std::uint16_t>(path))) {
      auto it = std::find_if(shares.begin(), shares.end(),
                             [link](const auto& s) {
                               return s.first == link;
                             });
      if (it == shares.end()) {
        shares.emplace_back(link, weights[path]);
      } else {
        it->second += weights[path];
      }
    }
  }
  return shares;
}

/// fluid_footprint of (src, dst, conn_id, weights) must equal the walk:
/// the same link pointers in the same order with the same weight bits.
void expect_footprint_matches_walk(ClosFabric& fabric, EndpointId src,
                                   EndpointId dst, std::uint64_t conn_id,
                                   const std::vector<double>& weights) {
  const Footprint want = walked_footprint(fabric, src, dst, conn_id, weights);
  Footprint got{{nullptr, 1.0}};  // replaced
  fabric.fluid_footprint(src, dst, conn_id, weights, got);
  ASSERT_EQ(got.size(), want.size())
      << src << " -> " << dst << " conn " << conn_id;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first)
        << "share " << i << " of " << src << " -> " << dst << " conn "
        << conn_id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].second),
              std::bit_cast<std::uint64_t>(want[i].second))
        << "share " << i << " of " << src << " -> " << dst << " conn "
        << conn_id << ": " << got[i].second << " vs " << want[i].second;
  }
}

/// Two segments of four hosts and `aggs` aggregation switches.
FabricConfig footprint_fabric(std::uint32_t aggs) {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = aggs;
  return fc;
}

TEST(FluidFootprintTest, MatchesPathWalkForEverySelector) {
  for (const std::uint32_t aggs : {4u, 16u}) {
    Simulator sim;
    ClosFabric fabric(sim, footprint_fabric(aggs));
    // Same-segment and cross-segment.
    const std::pair<EndpointId, EndpointId> pairs[] = {
        {fabric.endpoint(0, 0), fabric.endpoint(0, 3)},
        {fabric.endpoint(0, 1), fabric.endpoint(1, 2)},
    };
    for (const MultipathAlgo algo :
         {MultipathAlgo::kSinglePath, MultipathAlgo::kRoundRobin,
          MultipathAlgo::kObs}) {
      for (const std::uint16_t paths : {1, 4, 16, 128}) {
        for (std::uint64_t conn_id = 1; conn_id <= 6; ++conn_id) {
          std::vector<double> weights;
          PathSelector::create(algo, paths, conn_id * 977)
              ->fluid_path_weights(weights);
          for (const auto& [src, dst] : pairs) {
            SCOPED_TRACE(std::string(multipath_algo_name(algo)) + "/" +
                         std::to_string(paths) + " aggs " +
                         std::to_string(aggs));
            expect_footprint_matches_walk(fabric, src, dst, conn_id, weights);
          }
        }
      }
    }
  }
}

TEST(FluidFootprintTest, MatchesPathWalkWithZeroAndUnevenWeights) {
  for (const std::uint32_t aggs : {4u, 16u}) {
    Simulator sim;
    ClosFabric fabric(sim, footprint_fabric(aggs));
    const EndpointId same_a = fabric.endpoint(0, 0);
    const EndpointId same_b = fabric.endpoint(0, 2);
    const EndpointId cross = fabric.endpoint(1, 1);
    std::vector<std::vector<double>> cases;
    for (const std::size_t paths : {1u, 4u, 16u, 128u}) {
      // One weighted path, at the front, in the middle and at the end.
      for (const std::size_t only : {std::size_t{0}, paths / 2, paths - 1}) {
        std::vector<double> w(paths, 0.0);
        w[only] = 1.0;
        cases.push_back(w);
      }
      // Held-out paths: every third one weighs nothing, the rest share
      // thirds, whose sums round differently in another order.
      std::vector<double> held(paths);
      for (std::size_t p = 0; p < paths; ++p) {
        held[p] = p % 3 == 1 ? 0.0 : 1.0 / 3.0;
      }
      cases.push_back(held);
      // Uneven weights, and nothing weighted at all (an empty footprint).
      std::vector<double> uneven(paths);
      for (std::size_t p = 0; p < paths; ++p) {
        uneven[p] = 1.0 / static_cast<double>(p + 3);
      }
      cases.push_back(uneven);
      cases.emplace_back(paths, 0.0);
    }
    for (const std::vector<double>& w : cases) {
      for (std::uint64_t conn_id : {3u, 0x5eedu, 0xfffffu}) {
        SCOPED_TRACE("paths " + std::to_string(w.size()) + " aggs " +
                     std::to_string(aggs));
        expect_footprint_matches_walk(fabric, same_a, same_b, conn_id, w);
        expect_footprint_matches_walk(fabric, same_a, cross, conn_id, w);
        expect_footprint_matches_walk(fabric, cross, same_b, conn_id, w);
      }
    }
    Footprint none;
    fabric.fluid_footprint(same_a, cross, 1, std::vector<double>(8, 0.0),
                           none);
    EXPECT_TRUE(none.empty());
  }
}

// ---------------------------------------------------------------------------
// Lazy fluid service (HybridDriver)
// ---------------------------------------------------------------------------

/// 2 x 8 hosts.
FabricConfig service_fabric(double host_gbps) {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 8;
  fc.aggs_per_plane = 2;
  fc.host_link.bandwidth = Bandwidth::gbps(host_gbps);
  return fc;
}

/// A fluid client with a scripted WRITE queue whose footprint is its source
/// host's uplink and its destination host's downlink. It counts the calls
/// the driver makes and records when each message completes, so a test can
/// see exactly which flows a fluid event touched.
class ScriptedFlow : public FluidClient {
 public:
  ScriptedFlow(Simulator& sim, ClosFabric& fabric, HybridDriver& driver,
               EndpointId src, EndpointId dst)
      : sim_(sim), fabric_(fabric), driver_(driver), src_(src), dst_(dst) {
    driver_.register_client(this);
  }
  ~ScriptedFlow() override { driver_.unregister_client(this); }
  ScriptedFlow(const ScriptedFlow&) = delete;
  ScriptedFlow& operator=(const ScriptedFlow&) = delete;

  void post(std::uint64_t bytes) {
    queue_.push_back(bytes);
    remaining_ += bytes;
    driver_.on_fluid_post(this, bytes);
  }
  void reset_counts() {
    serve_calls = 0;
    next_calls = 0;
  }

  bool fluid_eligible() const override { return true; }
  bool fluid_errored() const override { return false; }
  FluidFlowDesc fluid_freeze() override {
    const ClosFabric::EndpointCoords s = fabric_.coords(src_);
    const ClosFabric::EndpointCoords d = fabric_.coords(dst_);
    FluidFlowDesc desc;
    desc.remaining = remaining_;
    desc.shares.emplace_back(&fabric_.host_uplink(s.segment, s.host), 1.0);
    desc.shares.emplace_back(&fabric_.tor_downlink(d.segment, d.host), 1.0);
    return desc;
  }
  void fluid_thaw(double) override {}
  FluidServe fluid_serve(std::uint64_t bytes) override {
    ++serve_calls;
    std::uint64_t served = 0;
    while (served < bytes && !queue_.empty()) {
      const std::uint64_t take =
          std::min(queue_.front() - head_served_, bytes - served);
      head_served_ += take;
      served += take;
      remaining_ -= take;
      if (head_served_ == queue_.front()) {
        queue_.pop_front();
        head_served_ = 0;
        completions.push_back(sim_.now());
        if (on_complete) on_complete();
      }
    }
    total_served += served;
    return FluidServe{served, head_bytes()};
  }
  std::uint64_t fluid_next_completion_bytes() const override {
    ++next_calls;
    return head_bytes();
  }
  std::uint64_t fluid_retransmit_count() const override { return 0; }

  std::vector<SimTime> completions;
  std::function<void()> on_complete;
  std::uint64_t serve_calls = 0;
  mutable std::uint64_t next_calls = 0;
  std::uint64_t total_served = 0;

 private:
  Simulator& sim_;
  ClosFabric& fabric_;
  HybridDriver& driver_;
  EndpointId src_;
  EndpointId dst_;
  std::uint64_t head_bytes() const {
    return queue_.empty() ? 0 : queue_.front() - head_served_;
  }

  std::deque<std::uint64_t> queue_;
  std::uint64_t head_served_ = 0;
  std::uint64_t remaining_ = 0;
};

TEST(HybridServiceTest, CompletionTouchesOnlyItsComponent) {
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(200));
  HybridDriver driver(sim, fabric);
  const auto ep = [&](std::uint32_t host) {
    return fabric.endpoint(0, host);
  };
  // Three link-disjoint groups: {0->1, 2->1} share host 1's downlink,
  // {3->4, 5->4} host 4's, and {6->7} stands alone.
  ScriptedFlow a(sim, fabric, driver, ep(0), ep(1));
  ScriptedFlow b(sim, fabric, driver, ep(2), ep(1));
  ScriptedFlow c(sim, fabric, driver, ep(3), ep(4));
  ScriptedFlow d(sim, fabric, driver, ep(5), ep(4));
  ScriptedFlow e(sim, fabric, driver, ep(6), ep(7));
  a.post(64_KiB);  // the first completion anywhere
  for (ScriptedFlow* f : {&b, &c, &d, &e}) f->post(16_MiB);
  ASSERT_TRUE(sim.step());  // the kick: one solve anchors every flow
  ASSERT_TRUE(a.completions.empty());

  for (ScriptedFlow* f : {&a, &b, &c, &d, &e}) f->reset_counts();
  while (a.completions.empty()) ASSERT_TRUE(sim.step());
  // a completed and drained; the re-solve re-rated b, its only neighbour.
  EXPECT_GT(a.serve_calls, 0u);
  EXPECT_GT(b.serve_calls, 0u);
  for (const ScriptedFlow* f : {&c, &d, &e}) {
    EXPECT_EQ(f->serve_calls, 0u) << "a completion served another group";
    EXPECT_EQ(f->next_calls, 0u) << "a completion rescheduled another group";
  }
}

TEST(HybridServiceTest, CompletionTimesFollowPiecewiseRates) {
  // 300G host links: 80/3 ps per byte at a full-link rate, so completion
  // times fall between picoseconds.
  constexpr double kRate = 300e9 / 8;  // bytes/s
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(300));
  HybridDriver driver(sim, fabric);
  const auto ep = [&](std::uint32_t host) {
    return fabric.endpoint(0, host);
  };
  ScriptedFlow lone(sim, fabric, driver, ep(0), ep(1));
  ScriptedFlow first(sim, fabric, driver, ep(2), ep(3));
  ScriptedFlow joiner(sim, fabric, driver, ep(4), ep(3));

  // A lone flow completes B bytes at t0 + ceil(B * 1e12 / R) ps, which at
  // R = 37.5 GB/s is ceil(B * 80 / 3).
  constexpr std::uint64_t kLone = 1'000'003;
  constexpr std::uint64_t kFirst = 1'000'000;
  const SimTime t0 = SimTime::micros(1);
  const SimTime t1 = t0 + SimTime::micros(10);
  sim.schedule_at(t0, [&] {
    lone.post(kLone);
    first.post(kFirst);
  });
  // `first` runs alone at R for 10 us, then shares host 3's downlink with
  // `joiner` at R / 2.
  sim.schedule_at(t1, [&] { joiner.post(64_MiB); });
  sim.run_until(t0 + SimTime::micros(100));

  ASSERT_EQ(lone.completions.size(), 1u);
  EXPECT_EQ(lone.completions[0].ps(),
            t0.ps() + static_cast<std::int64_t>((kLone * 80 + 2) / 3));
  ASSERT_EQ(first.completions.size(), 1u);
  const double before_join = kRate * 10e-6;
  const double expected_ps =
      static_cast<double>(t1.ps()) +
      (static_cast<double>(kFirst) - before_join) / (kRate / 2) * 1e12;
  EXPECT_NEAR(static_cast<double>(first.completions[0].ps()), expected_ps,
              1.0);

  // A zoom mid-message materializes the accrued prefix and syncs exactly
  // that to the receiver; packet mode then delivers the rest once.
  Simulator zsim;
  ClosFabric zfabric(zsim, service_fabric(300));
  HybridDriver zdriver(zsim, zfabric);
  EngineFleet fleet(zsim, zfabric);
  const EndpointId src = zfabric.endpoint(0, 0);
  const EndpointId dst = zfabric.endpoint(0, 1);
  auto conn = fleet.connect(src, dst, {});
  ASSERT_TRUE(conn.is_ok());
  bool done = false;
  conn.value()->post_write(4_MiB, [&] { done = true; });
  std::uint64_t accrued = 0;
  std::uint64_t synced = 0;
  std::uint64_t materialized = 0;
  zsim.schedule_at(SimTime::micros(10), [&] {
    accrued = zdriver.fluid_bytes_served();
    zdriver.force_packet(SimTime::zero(), "test");
    synced = fleet.at(dst).rx_goodput_bytes();
    materialized = zdriver.fluid_bytes_served();
  });
  zsim.run_until(SimTime::micros(10));
  EXPECT_EQ(zdriver.mode(), RegionMode::kPacket);
  EXPECT_NEAR(static_cast<double>(accrued), kRate * 10e-6, 1.0);
  EXPECT_EQ(materialized, accrued);
  EXPECT_EQ(synced, accrued);
  zsim.run_until(SimTime::millis(2));
  EXPECT_TRUE(done);
  EXPECT_EQ(fleet.at(dst).rx_goodput_bytes(), 4_MiB);
}

TEST(HybridServiceTest, DueEventAlwaysCompletes) {
  // 200G host links: 40 ps per byte at a full-link rate (120 at a third),
  // so due times land exactly on byte boundaries, where rate * dt rounds
  // either way. Rates change whenever a flow drains.
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(200));
  HybridDriver driver(sim, fabric);
  std::vector<std::unique_ptr<ScriptedFlow>> flows;
  for (std::uint32_t h = 0; h < 6; ++h) {
    flows.push_back(std::make_unique<ScriptedFlow>(
        sim, fabric, driver, fabric.endpoint(0, h),
        fabric.endpoint(0, 6 + h % 2)));
  }
  Rng rng(7);
  std::uint64_t posted = 0;
  for (auto& f : flows) {
    for (int m = 0; m < 40; ++m) {
      f->post(1 + rng.below(256_KiB));
      ++posted;
    }
  }
  const auto completed = [&] {
    std::uint64_t n = 0;
    for (const auto& f : flows) n += f->completions.size();
    return n;
  };
  ASSERT_TRUE(sim.step());  // the kick
  std::uint64_t events = 0;
  for (;;) {
    const std::uint64_t before = completed();
    if (!sim.step()) break;
    ++events;
    EXPECT_GT(completed(), before)
        << "service event " << events << " at " << sim.now().ps()
        << " ps completed no message";
  }
  EXPECT_EQ(completed(), posted);
  EXPECT_GT(events, 100u);
}

TEST(HybridServiceTest, SameTimeCompletionsRunInRegistrationOrder) {
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(200));
  HybridDriver driver(sim, fabric);
  // Eight link-disjoint flows at one rate, with one equal message each:
  // all complete in the same picosecond.
  std::vector<std::unique_ptr<ScriptedFlow>> flows;
  std::vector<int> order;
  for (std::uint32_t h = 0; h < 8; ++h) {
    flows.push_back(std::make_unique<ScriptedFlow>(
        sim, fabric, driver, fabric.endpoint(0, h),
        fabric.endpoint(1, h)));
    flows.back()->on_complete = [&order, h] {
      order.push_back(static_cast<int>(h));
    };
  }
  // Posted in reverse, so solver ids (and due-heap insertion) run backwards.
  for (auto it = flows.rbegin(); it != flows.rend(); ++it) (*it)->post(64_KiB);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  for (const auto& f : flows) {
    ASSERT_EQ(f->completions.size(), 1u);
    EXPECT_EQ(f->completions[0], flows[0]->completions[0]);
  }
}

TEST(HybridServiceTest, BytesServedCountsAccrualWithoutServing) {
  constexpr double kRate = 300e9 / 8;
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(300));
  HybridDriver driver(sim, fabric);
  ScriptedFlow f(sim, fabric, driver, fabric.endpoint(0, 0),
                 fabric.endpoint(0, 1));
  f.post(1_MiB);
  sim.run_until(SimTime::micros(10));
  const std::uint64_t mid = driver.fluid_bytes_served();
  EXPECT_NEAR(static_cast<double>(mid), kRate * 10e-6, 1.0);
  EXPECT_EQ(f.serve_calls, 0u) << "reading the count must not serve";
  EXPECT_EQ(driver.fluid_bytes_served(), mid);
  sim.run_until(SimTime::micros(100));
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.total_served, 1_MiB);
  EXPECT_EQ(driver.fluid_bytes_served(), 1_MiB);

  // Several flows whose rates changed mid-message: the count read through
  // now is exactly what a zoom then materializes.
  std::vector<std::unique_ptr<ScriptedFlow>> flows;
  for (std::uint32_t h = 2; h < 6; ++h) {
    flows.push_back(std::make_unique<ScriptedFlow>(
        sim, fabric, driver, fabric.endpoint(0, h),
        fabric.endpoint(0, 6 + h % 2)));
  }
  std::uint64_t posted = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::uint64_t m = 0; m < 5; ++m) {
      flows[i]->post(100'003 * (i + 1) + 7'919 * m);
      posted += 100'003 * (i + 1) + 7'919 * m;
    }
  }
  sim.run_until(SimTime::micros(137));
  const std::uint64_t accrued = driver.fluid_bytes_served();
  driver.force_packet(SimTime::zero(), "test");
  std::uint64_t materialized = 1_MiB;
  for (const auto& g : flows) materialized += g->total_served;
  EXPECT_GT(materialized, 1_MiB);
  EXPECT_LT(materialized, 1_MiB + posted);
  EXPECT_EQ(driver.fluid_bytes_served(), materialized);
  EXPECT_EQ(accrued, materialized);
}

TEST(HybridServiceTest, ZeroLengthWriteBehindAMessageCompletesWithIt) {
  // The serve that completes a message also completes a zero-length WRITE
  // queued behind it; otherwise the flow keeps demand but has no next
  // completion to schedule, and its last message never completes.
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(200));
  HybridDriver driver(sim, fabric);
  EngineFleet fleet(sim, fabric);
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(0, 1), {});
  ASSERT_TRUE(conn.is_ok());
  int done = 0;
  const auto count = [&] { ++done; };
  conn.value()->post_write(64_KiB, count);
  conn.value()->post_write(0, count);
  conn.value()->post_write(64_KiB, count);
  sim.run_until(SimTime::millis(1));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(driver.mode(), RegionMode::kFluid);
}

TEST(HybridPromotionTest, PromotesOnThirdQuietEpochAfterZoomWindow) {
  // Pins the promotion constants: triggers are polled every 5 us while a
  // fabric is in packet mode, and 3 consecutive quiet epochs promote it.
  // A scripted flow sends no packets, so once the window's hold ends every
  // epoch is quiet. Window [10, 16) us: the zoom at 10 arms polls at 15
  // (held), 20, 25 and 30 us (quiet epochs 1, 2, 3). The window end sits
  // off the poll grid so that another period or count moves the promotion
  // off 30 us.
  Simulator sim;
  ClosFabric fabric(sim, service_fabric(200));
  HybridDriver driver(sim, fabric);
  ScriptedFlow flow(sim, fabric, driver, fabric.endpoint(0, 0),
                    fabric.endpoint(1, 0));
  flow.post(64_MiB);  // outlasts the test: the flow is live throughout
  // Keep the simulator busy: the driver stops polling once nothing else is
  // pending.
  sim.schedule_at(SimTime::millis(1), [] {});
  driver.request_zoom_window(SimTime::micros(10), SimTime::micros(16));

  sim.run_until(SimTime::micros(10));
  EXPECT_EQ(driver.mode(), RegionMode::kPacket);
  sim.run_until(SimTime::micros(25));
  EXPECT_EQ(driver.mode(), RegionMode::kPacket)
      << "promoted before the third quiet epoch";
  sim.run_until(SimTime::micros(30) - SimTime::picos(1));
  EXPECT_EQ(driver.mode(), RegionMode::kPacket);
  sim.run_until(SimTime::micros(30));
  EXPECT_EQ(driver.mode(), RegionMode::kFluid)
      << "not promoted on the third quiet epoch";
  EXPECT_EQ(driver.transitions(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 0xfeedfaceu));
INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSolveTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 0xfeedfaceu));

}  // namespace
}  // namespace stellar
