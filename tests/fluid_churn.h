// A seeded churn over one FluidSolver region shaped like a hybrid fabric
// region: 64 hosts with an uplink and a downlink each, and 448 fabric
// links, 576 links in all. Flows come from a catalog built up front:
//   * OBS-like flows run between hosts 0..31, cross their source uplink and
//     destination downlink at weight 1 and spray over 32 of the first 224
//     fabric links at weight 1/32 (34 shares); every eighth lists one
//     fabric link twice. Together they form one large component.
//   * single-path flows stay inside one of 16 pods (two of hosts 32..63
//     and 14 of the other fabric links) and cross four links at weight 1,
//     so they form many small components that split and merge, and leave
//     links with no flows behind.
// Host links share one capacity and most fabric links another, so
// bottlenecks tie. Each step makes one to three changes — add, remove,
// replace, or set a capacity (sometimes to its current value) — around a
// working set of 256 flows.
//
// Used by the fluid property tests (rate and load digests) and by the
// allocation budget test (steady-state solves allocate nothing).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/fluid.h"

namespace stellar {

class FluidChurn {
 public:
  static constexpr std::uint32_t kHosts = 64;
  static constexpr std::uint32_t kFabricLinks = 448;
  static constexpr std::uint32_t kLinks = 2 * kHosts + kFabricLinks;  // 576
  static constexpr std::uint32_t kFlows = 256;
  static constexpr std::uint32_t kSprayPaths = 32;
  static constexpr double kHostCapacity = 50e9;  // 400 Gb/s in bytes/s

  explicit FluidChurn(std::uint64_t seed) : rng_(seed) {
    for (std::uint32_t l = 0; l < kLinks; ++l) {
      const bool fabric = l >= 2 * kHosts;
      solver_.add_link(fabric && rng_.below(8) == 0 ? kHostCapacity / 2
                                                    : kHostCapacity);
    }
    for (std::uint32_t k = 0; k < 2 * kFlows; ++k) {
      catalog_.push_back(k % 2 == 0 ? sprayed(k) : single_path());
    }
    live_.reserve(2 * kFlows);
    removed_.reserve(kFlows);
    while (live_.size() < kFlows) add();
    solver_.solve();
  }

  FluidSolver& solver() { return solver_; }
  const std::vector<std::uint32_t>& live() const { return live_; }

  /// One to three random changes; the caller solves.
  void step() {
    const std::uint64_t changes = 1 + rng_.below(3);
    for (std::uint64_t c = 0; c < changes; ++c) {
      switch (rng_.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          remove();
          add();
          break;
        case 4:
        case 5:
          if (live_.size() < kFlows + kFlows / 8) add();
          break;
        case 6:
        case 7:
          if (live_.size() > kFlows - kFlows / 8) remove();
          break;
        case 8: {
          const auto l = static_cast<std::uint32_t>(rng_.below(kLinks));
          static constexpr double kCaps[] = {kHostCapacity, kHostCapacity / 2,
                                             kHostCapacity / 4, 0.0};
          solver_.set_capacity(l, kCaps[rng_.below(4)]);
          break;
        }
        default: {
          const auto l = static_cast<std::uint32_t>(rng_.below(kLinks));
          solver_.set_capacity(l, solver_.capacity(l));
          break;
        }
      }
    }
  }

  /// Remove `count` (at most kFlows) random live flows, then add their
  /// share lists back in reverse order: the solver's LIFO slot reuse hands
  /// every flow its old id, so the region ends the cycle as it began.
  /// Solves after each half.
  void remove_add_cycle(std::uint32_t count) {
    removed_.clear();
    for (std::uint32_t k = 0; k < count; ++k) {
      const auto at = static_cast<std::size_t>(rng_.below(live_.size()));
      removed_.push_back(live_[at]);
      solver_.remove_flow(live_[at]);
      live_[at] = live_.back();
      live_.pop_back();
    }
    solver_.solve();
    for (std::size_t k = removed_.size(); k-- > 0;) {
      live_.push_back(solver_.add_flow(catalog_[catalog_of_[removed_[k]]]));
    }
    solver_.solve();
  }

 private:
  static constexpr std::uint32_t kObsHosts = kHosts / 2;
  static constexpr std::uint32_t kObsFabricLinks = kFabricLinks / 2;
  static constexpr std::uint32_t kPods = 16;
  static constexpr std::uint32_t kPodHosts = (kHosts - kObsHosts) / kPods;
  static constexpr std::uint32_t kPodFabricLinks =
      (kFabricLinks - kObsFabricLinks) / kPods;

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_.below(n));
  }

  std::vector<FluidSolver::LinkShare> sprayed(std::uint32_t k) {
    const std::uint32_t src = pick(kObsHosts);
    const std::uint32_t dst = pick(kObsHosts);
    std::vector<FluidSolver::LinkShare> shares{{src, 1.0}};
    const std::uint32_t first = pick(kObsFabricLinks);
    for (std::uint32_t p = 0; p < kSprayPaths; ++p) {
      // Every eighth sprayed flow lists its first path link twice.
      const std::uint32_t path = k % 16 == 0 && p == 1 ? 0 : p;
      shares.push_back({2 * kHosts + (first + path * 7) % kObsFabricLinks,
                        1.0 / kSprayPaths});
    }
    shares.push_back({kHosts + dst, 1.0});
    return shares;
  }

  std::vector<FluidSolver::LinkShare> single_path() {
    const std::uint32_t pod = pick(kPods);
    const std::uint32_t hosts = kObsHosts + pod * kPodHosts;
    const std::uint32_t fabric =
        2 * kHosts + kObsFabricLinks + pod * kPodFabricLinks;
    return {{hosts + pick(kPodHosts), 1.0},
            {fabric + pick(kPodFabricLinks), 1.0},
            {fabric + pick(kPodFabricLinks), 1.0},
            {kHosts + hosts + pick(kPodHosts), 1.0}};
  }

  void add() {
    const auto entry = static_cast<std::uint32_t>(rng_.below(catalog_.size()));
    const std::uint32_t id = solver_.add_flow(catalog_[entry]);
    if (catalog_of_.size() <= id) catalog_of_.resize(id + 1);
    catalog_of_[id] = entry;
    live_.push_back(id);
  }

  void remove() {
    if (live_.empty()) return;
    const auto at = static_cast<std::size_t>(rng_.below(live_.size()));
    solver_.remove_flow(live_[at]);
    live_[at] = live_.back();
    live_.pop_back();
  }

  FluidSolver solver_;
  Rng rng_;
  std::vector<std::vector<FluidSolver::LinkShare>> catalog_;
  std::vector<std::uint32_t> catalog_of_;  // catalog entry by flow id
  std::vector<std::uint32_t> live_;        // active flow ids
  std::vector<std::uint32_t> removed_;     // remove_add_cycle scratch
};

}  // namespace stellar
