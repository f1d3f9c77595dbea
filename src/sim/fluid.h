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
// Incremental re-solve. Every link keeps a persistent, unsorted index of
// the (flow, share) entries crossing it, and every share remembers where
// its entry sits, so add_flow appends and remove_flow swap-removes in O(1)
// per share; both, and set_capacity, mark the links they touch dirty.
// Max-min rates decompose exactly over the connected components of the
// flow–link graph, so solve() re-runs progressive filling only on the
// components reachable from dirty links and leaves every other flow's rate
// as it was. A dirty link no flow crosses any more is dropped without a
// walk. One solve costs O(shares + rounds * links) of the touched
// components instead of the whole flow table — a message completion
// re-solves the flows connected to it through shared links, not the
// fabric. The 1e-12 bottleneck-grouping tolerance (see solve_component)
// applies within one component: links of different components never
// freeze in one round.
//
// Determinism: inside a component, links are iterated in index order and
// flows in id order, every float is derived from the same arithmetic on
// every run, and the solver never consults pointers, hashes, or clocks —
// two identical call sequences produce bitwise-identical rates, and an
// incremental solve is bitwise equal to a fresh solver given the same
// active flows in id order. Neither order costs a sort: the component walk
// marks its links and flows in two scratch bitmaps, and reading a bitmap
// back yields its members in index order (the same read-back orders a
// bottleneck link's flows before they freeze). link_load() is not stored;
// it sums the link's entries in (flow id, share) order, the order a solve
// would, so it too is bitwise reproducible.
//
// The solver is pure (src/sim layer: no net/ dependency); HybridDriver
// (sim/hybrid.h) maps real NetLink objects onto link indices.
#pragma once

#include <bit>
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
  std::uint32_t add_link(double capacity_bytes_per_sec);

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

  /// Total offered load on a link (sum of weight * rate over the flows
  /// crossing it), from the rates of the last solve(). Computed on demand.
  double link_load(std::uint32_t link) const;

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
  /// One share of a flow in the flat share table.
  struct Share {
    double weight = 0.0;
    std::uint32_t link = 0;
    std::uint32_t pos = 0;  // index of its entry in links_[link].crossing
  };
  /// One entry of a link's crossing index.
  struct Crossing {
    std::uint32_t flow = 0;
    std::uint32_t share = 0;  // index into shares_
  };
  struct Link {
    double capacity = 0.0;  // bytes/sec
    // Progressive-filling scratch, valid inside solve_component only.
    double residual = 0.0;
    double unfrozen_weight = 0.0;
    std::uint32_t unfrozen_count = 0;
    bool dirty = false;  // queued in dirty_links_ and not yet re-solved
    std::vector<Crossing> crossing;  // unsorted
  };
  struct Flow {
    double rate = 0.0;
    // The flow's shares are shares_[share_begin, share_begin + share_count);
    // the slot owns share_capacity entries there, kept across recycling.
    std::uint32_t share_begin = 0;
    std::uint32_t share_count = 0;
    std::uint32_t share_capacity = 0;
    bool active = false;
    bool frozen = false;  // progressive-filling scratch
  };

  /// A set of indices held as a bitmap and the span of words in use.
  /// insert() is O(1); drain() hands the members to `fn` in ascending
  /// order and empties the set, in O(members + span / 64).
  class IndexBitmap {
   public:
    void resize(std::size_t indices) { words_.resize((indices + 63) / 64); }
    /// Adds `i`; false if it was already a member.
    bool insert(std::uint32_t i) {
      const std::uint32_t w = i >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      if ((words_[w] & bit) != 0) return false;
      words_[w] |= bit;
      if (w < lo_) lo_ = w;
      if (w > hi_) hi_ = w;
      return true;
    }
    template <typename Fn>
    void drain(Fn&& fn) {
      for (std::uint32_t w = lo_; w <= hi_; ++w) {
        std::uint64_t word = words_[w];
        words_[w] = 0;
        while (word != 0) {
          fn((w << 6) | static_cast<std::uint32_t>(std::countr_zero(word)));
          word &= word - 1;
        }
      }
      lo_ = ~std::uint32_t{0};
      hi_ = 0;
    }

   private:
    std::vector<std::uint64_t> words_;
    std::uint32_t lo_ = ~std::uint32_t{0};
    std::uint32_t hi_ = 0;
  };

  void mark_dirty(std::uint32_t link);
  /// Collect the component reachable from `seed`: its links into
  /// active_links_ in index order, its flows appended to solved_flows_ in
  /// id order, with their filling scratch initialised.
  void collect_component(std::uint32_t seed);
  /// Start a link's filling scratch and queue it on the walk.
  void start_link(std::uint32_t link);
  /// Progressive filling over active_links_ and solved_flows_[flow_begin..]
  /// — one connected component.
  void solve_component(std::size_t flow_begin);
  void freeze(std::uint32_t flow, double rate);
  /// The common rate the link's unfrozen flows could still reach.
  static double level(const Link& link) {
    return link.residual > 0.0 ? link.residual / link.unfrozen_weight : 0.0;
  }

  std::vector<Link> links_;
  std::vector<Flow> flows_;  // indexed by flow id; inactive slots recycled
  std::vector<Share> shares_;  // flat share table; see Flow
  std::vector<std::uint32_t> free_ids_;  // LIFO of recyclable slots
  std::size_t active_count_ = 0;
  std::vector<std::uint32_t> dirty_links_;  // touched since the last solve
  // Member scratch reused across solves (no allocation in steady state).
  IndexBitmap link_bits_;  // by link index
  IndexBitmap flow_bits_;  // by flow id
  std::vector<std::uint32_t> walk_;  // the component walk's link queue
  std::vector<std::uint32_t> solved_flows_;
  std::vector<std::uint32_t> active_links_;
};

}  // namespace stellar
