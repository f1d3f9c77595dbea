// Max-min fair-share fluid solver: the analytic flow-level network model
// behind hybrid fidelity (docs/HYBRID.md).
//
// The solver sees the fabric as abstract capacitated links and flows with
// fractional per-link weights. A packet-sprayed connection touches a set of
// egress ports, each with the fraction of its packets the spray policy lands
// there; the classic water-filling iteration then assigns every flow the
// max-min fair rate:
//
//   maximize the minimum flow rate subject to  sum_f w_{f,l} * r_f <= C_l
//
// Progressive filling: all unfrozen flows grow at a common rate; the link
// that saturates first freezes every flow crossing it at the current level;
// repeat on the residual network. Each round freezes at least one flow, so
// the iteration terminates in at most F rounds.
//
// Incremental re-solve. Every link keeps a persistent index of the flows
// crossing it, sorted by flow id; add_flow, remove_flow and set_capacity
// keep it current and mark the links they touch dirty. Max-min rates
// decompose exactly over the connected components of the flow–link graph,
// so solve() re-runs progressive filling only on the components reachable
// from dirty links and leaves every other flow's rate and link's load as it
// was. One solve costs O(shares + rounds * links) of the touched components
// instead of the whole flow table — a message completion re-solves the
// flows connected to it through shared links, not the fabric. The 1e-12
// bottleneck-grouping tolerance (see solve_component) applies within one
// component: links of different components never freeze in one round.
//
// Determinism: inside a component, links are iterated in index order and
// flows in id order, every float is derived from the same arithmetic on
// every run, and the solver never consults pointers, hashes, or clocks —
// two identical call sequences produce bitwise-identical rates, and an
// incremental solve is bitwise equal to a fresh solver given the same
// active flows in id order.
//
// The solver is pure (src/sim layer: no net/ dependency); HybridDriver
// (sim/hybrid.h) maps real NetLink objects onto link indices.
#pragma once

#include <cstdint>
#include <vector>

#include "check/check.h"

namespace stellar {

class FluidSolver {
 public:
  /// One (link, weight) term of a flow's capacity footprint. `weight` is
  /// the fraction of the flow's packets that cross this link (1.0 for the
  /// shared first/last hop, 1/paths per sprayed fabric link).
  struct LinkShare {
    std::uint32_t link = 0;
    double weight = 1.0;
  };

  /// Register a link; returns its index. Capacity in bytes/second.
  std::uint32_t add_link(double capacity_bytes_per_sec) {
    links_.push_back(Link{});
    links_.back().capacity = capacity_bytes_per_sec;
    return static_cast<std::uint32_t>(links_.size() - 1);
  }

  /// Change a link's capacity. Only an actual change marks the link for
  /// re-solve.
  void set_capacity(std::uint32_t link, double capacity_bytes_per_sec);
  double capacity(std::uint32_t link) const { return links_.at(link).capacity; }
  std::size_t link_count() const { return links_.size(); }

  /// Register a flow; returns its id. Shares must be non-empty (every flow
  /// crosses at least its own NIC egress) with positive weights.
  std::uint32_t add_flow(const std::vector<LinkShare>& shares);

  /// Remove a departed flow. Its slot (and id, and share storage) is
  /// recycled by a later add_flow — long-running churn keeps the flow table
  /// at the peak concurrent size instead of growing without bound. Callers
  /// must treat a removed id as dead immediately.
  void remove_flow(std::uint32_t flow);

  std::size_t active_flows() const { return active_count_; }

  /// Recompute max-min rates for the components touched since the last
  /// solve. Call after any add/remove/capacity change and before reading
  /// rate().
  void solve();

  /// Assigned rate (bytes/second) of an active flow, valid after solve().
  double rate(std::uint32_t flow) const;

  /// Total offered load on a link (sum of weight * rate), from solve().
  double link_load(std::uint32_t link) const { return links_.at(link).load; }

  /// Active flow ids in id order (deterministic iteration surface).
  std::vector<std::uint32_t> flow_ids() const;

  /// Flows whose rates the last solve() recomputed: one id-sorted run per
  /// re-solved component. Every other active flow kept its rate bit for
  /// bit, so HybridDriver serves and re-anchors only these (those whose
  /// rate actually changed) after a solve.
  const std::vector<std::uint32_t>& last_solved_flows() const {
    return solved_flows_;
  }

 private:
  struct Link {
    double capacity = 0.0;  // bytes/sec
    double load = 0.0;      // filled by solve()
    std::vector<std::uint32_t> crossing;  // ids of crossing flows, sorted
    // Progressive-filling scratch, valid inside solve_component only.
    double residual = 0.0;
    double unfrozen_weight = 0.0;
    std::uint32_t unfrozen_count = 0;
    bool dirty = false;    // queued in dirty_links_
    bool visited = false;  // reached by the current solve()
  };
  struct Flow {
    std::vector<LinkShare> shares;
    double rate = 0.0;
    bool active = false;
    bool visited = false;  // reached by the current solve()
    bool frozen = false;   // progressive-filling scratch
  };

  void mark_dirty(std::uint32_t link);
  /// Progressive filling over solved_links_[link_begin..] and
  /// solved_flows_[flow_begin..] — one connected component.
  void solve_component(std::size_t link_begin, std::size_t flow_begin);

  std::vector<Link> links_;
  std::vector<Flow> flows_;  // indexed by flow id; inactive slots recycled
  std::vector<std::uint32_t> free_ids_;  // LIFO of recyclable slots
  std::size_t active_count_ = 0;
  std::vector<std::uint32_t> dirty_links_;  // touched since the last solve
  // Member scratch reused across solves (no allocation in steady state).
  std::vector<std::uint32_t> solved_links_;
  std::vector<std::uint32_t> solved_flows_;
  std::vector<std::uint32_t> active_links_;
};

}  // namespace stellar
