#include "sim/fluid.h"

#include <algorithm>
#include <limits>

namespace stellar {

void FluidSolver::mark_dirty(std::uint32_t link) {
  Link& l = links_[link];
  if (l.dirty) return;
  l.dirty = true;
  dirty_links_.push_back(link);
}

void FluidSolver::set_capacity(std::uint32_t link,
                               double capacity_bytes_per_sec) {
  Link& l = links_.at(link);
  if (l.capacity == capacity_bytes_per_sec) return;
  l.capacity = capacity_bytes_per_sec;
  mark_dirty(link);
}

std::uint32_t FluidSolver::add_flow(const std::vector<LinkShare>& shares) {
  STELLAR_CHECK(!shares.empty(), "fluid flow must cross at least one link");
  for (const LinkShare& s : shares) {
    STELLAR_CHECK(s.link < links_.size(), "fluid flow references unknown link");
    STELLAR_CHECK(s.weight > 0.0, "fluid link share weight must be positive");
  }
  ++active_count_;
  auto id = static_cast<std::uint32_t>(flows_.size());
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    flows_.emplace_back();
  }
  Flow& f = flows_[id];
  f.shares.assign(shares.begin(), shares.end());
  f.rate = 0.0;
  f.active = true;
  for (const LinkShare& s : shares) {
    std::vector<std::uint32_t>& crossing = links_[s.link].crossing;
    crossing.insert(std::upper_bound(crossing.begin(), crossing.end(), id),
                    id);
    mark_dirty(s.link);
  }
  return id;
}

void FluidSolver::remove_flow(std::uint32_t flow) {
  Flow& f = flows_.at(flow);
  STELLAR_CHECK(f.active, "removing an inactive fluid flow");
  for (const LinkShare& s : f.shares) {
    std::vector<std::uint32_t>& crossing = links_[s.link].crossing;
    const auto at = std::lower_bound(crossing.begin(), crossing.end(), flow);
    STELLAR_DCHECK(at != crossing.end() && *at == flow,
                   "fluid crossing index lost a flow");
    crossing.erase(at);
    mark_dirty(s.link);
  }
  f.active = false;
  f.rate = 0.0;
  f.shares.clear();  // keeps capacity for the slot's next flow
  --active_count_;
  free_ids_.push_back(flow);
}

double FluidSolver::rate(std::uint32_t flow) const {
  const Flow& f = flows_.at(flow);
  STELLAR_CHECK(f.active, "querying rate of an inactive fluid flow");
  return f.rate;
}

std::vector<std::uint32_t> FluidSolver::flow_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(active_count_);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_[i].active) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

void FluidSolver::solve() {
  solved_links_.clear();
  solved_flows_.clear();
  // Each not-yet-reached dirty link seeds one connected component: a
  // breadth-first walk over link -> crossing flows -> their links collects
  // it, and progressive filling runs on it alone.
  for (const std::uint32_t seed : dirty_links_) {
    links_[seed].dirty = false;
    if (links_[seed].visited) continue;
    const std::size_t link_begin = solved_links_.size();
    const std::size_t flow_begin = solved_flows_.size();
    links_[seed].visited = true;
    solved_links_.push_back(seed);
    for (std::size_t i = link_begin; i < solved_links_.size(); ++i) {
      for (const std::uint32_t fid : links_[solved_links_[i]].crossing) {
        Flow& f = flows_[fid];
        if (f.visited) continue;
        f.visited = true;
        solved_flows_.push_back(fid);
        for (const LinkShare& s : f.shares) {
          if (links_[s.link].visited) continue;
          links_[s.link].visited = true;
          solved_links_.push_back(s.link);
        }
      }
    }
    solve_component(link_begin, flow_begin);
  }
  dirty_links_.clear();
  for (const std::uint32_t l : solved_links_) links_[l].visited = false;
  for (const std::uint32_t f : solved_flows_) flows_[f].visited = false;
}

void FluidSolver::solve_component(std::size_t link_begin,
                                  std::size_t flow_begin) {
  // Links in index order and flows in id order, whatever order the walk
  // found them in: the link order decides the order bottleneck links charge
  // residuals in, the flow order the order weights and loads accumulate in,
  // and together they fix every derived rate bit for bit.
  const auto links = solved_links_.begin() +
                     static_cast<std::ptrdiff_t>(link_begin);
  const auto flows = solved_flows_.begin() +
                     static_cast<std::ptrdiff_t>(flow_begin);
  std::sort(links, solved_links_.end());
  std::sort(flows, solved_flows_.end());

  // Per-link residual capacity and total unfrozen weight. Integer crossing
  // counts decide whether a link still constrains anyone: the float weight
  // sum can retain a tiny residue after its last flow froze (subtractive
  // cancellation), which would otherwise let a spent link masquerade as
  // the bottleneck that nobody crosses.
  for (auto it = links; it != solved_links_.end(); ++it) {
    Link& link = links_[*it];
    link.residual = link.capacity;
    link.unfrozen_weight = 0.0;
    link.unfrozen_count = 0;
  }
  for (auto it = flows; it != solved_flows_.end(); ++it) {
    Flow& f = flows_[*it];
    f.frozen = false;
    for (const LinkShare& s : f.shares) {
      links_[s.link].unfrozen_weight += s.weight;
      ++links_[s.link].unfrozen_count;
    }
  }
  // Links with any unfrozen flow, in index order; compacted as they drain
  // so later rounds scan progressively fewer links.
  active_links_.clear();
  for (auto it = links; it != solved_links_.end(); ++it) {
    if (links_[*it].unfrozen_count > 0) active_links_.push_back(*it);
  }

  // Bottleneck matching uses a relative tolerance: links that are equal
  // bottlenecks in exact arithmetic can differ in the last few ulps once
  // residuals are updated in different orders, and exact comparison would
  // then freeze those symmetric groups one link per round instead of all
  // at once. The tolerance is deterministic (same arithmetic every run)
  // and the rate perturbation it admits is ~1e-12 relative — far inside
  // the fluid approximation itself. It groups links of this component
  // only.
  constexpr double kBottleneckTol = 1e-12;

  // Progressive filling. Each round picks the link(s) with the smallest
  // attainable common rate, freezes every flow crossing them, and charges
  // the frozen bandwidth against the residual network.
  std::size_t remaining = solved_flows_.size() - flow_begin;
  while (remaining > 0) {
    double rmin = std::numeric_limits<double>::infinity();
    std::size_t keep = 0;
    for (std::size_t k = 0; k < active_links_.size(); ++k) {
      const std::uint32_t l = active_links_[k];
      const Link& link = links_[l];
      if (link.unfrozen_count == 0 || link.unfrozen_weight <= 0.0) continue;
      active_links_[keep++] = l;
      const double r = link.residual > 0.0
                           ? link.residual / link.unfrozen_weight
                           : 0.0;
      if (r < rmin) rmin = r;
    }
    active_links_.resize(keep);
    // Every unfrozen flow crosses at least one weighted link, so some link
    // had unfrozen_weight > 0 and rmin is finite.
    STELLAR_CHECK(rmin < std::numeric_limits<double>::infinity(),
                  "fluid solve found no constraining link");

    const double cutoff = rmin + rmin * kBottleneckTol;
    bool froze_any = false;
    for (const std::uint32_t l : active_links_) {
      const Link& link = links_[l];
      if (link.unfrozen_count == 0 || link.unfrozen_weight <= 0.0) continue;
      const double r = link.residual > 0.0
                           ? link.residual / link.unfrozen_weight
                           : 0.0;
      if (r > cutoff) continue;
      // Bottleneck link: freeze its unfrozen crossing flows at rmin.
      for (const std::uint32_t fid : link.crossing) {
        Flow& f = flows_[fid];
        if (f.frozen) continue;
        f.frozen = true;
        froze_any = true;
        --remaining;
        f.rate = rmin;
        for (const LinkShare& s : f.shares) {
          Link& sl = links_[s.link];
          sl.unfrozen_weight -= s.weight;
          --sl.unfrozen_count;
          sl.residual -= s.weight * rmin;
          if (sl.residual < 0.0) sl.residual = 0.0;
          if (sl.unfrozen_weight < 0.0) sl.unfrozen_weight = 0.0;
        }
      }
    }
    STELLAR_CHECK(froze_any, "fluid solve made no progress");
  }

  for (auto it = links; it != solved_links_.end(); ++it) {
    links_[*it].load = 0.0;
  }
  for (auto it = flows; it != solved_flows_.end(); ++it) {
    const Flow& f = flows_[*it];
    for (const LinkShare& s : f.shares) {
      links_[s.link].load += s.weight * f.rate;
    }
  }
}

}  // namespace stellar
