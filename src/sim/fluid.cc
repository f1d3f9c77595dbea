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

std::uint32_t FluidSolver::add_link(double capacity_bytes_per_sec) {
  links_.push_back(Link{});
  links_.back().capacity = capacity_bytes_per_sec;
  // Solve scratch holds at most every link (and every flow, below), so it
  // never allocates once the tables stop growing.
  link_bits_.resize(links_.size());
  dirty_links_.reserve(links_.capacity());
  walk_.reserve(links_.capacity());
  active_links_.reserve(links_.capacity());
  return static_cast<std::uint32_t>(links_.size() - 1);
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
    flow_bits_.resize(flows_.size());
    solved_flows_.reserve(flows_.capacity());
  }
  Flow& f = flows_[id];
  const auto count = static_cast<std::uint32_t>(shares.size());
  if (f.share_capacity < count) {
    // Outgrown: take a fresh range at the end of the table (rounded up, so
    // a slot moves a bounded number of times) and abandon the old one.
    f.share_begin = static_cast<std::uint32_t>(shares_.size());
    f.share_capacity = std::bit_ceil(count);
    shares_.resize(shares_.size() + f.share_capacity);
  }
  f.share_count = count;
  f.rate = 0.0;
  f.active = true;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t at = f.share_begin + k;
    std::vector<Crossing>& crossing = links_[shares[k].link].crossing;
    shares_[at] = Share{shares[k].weight, shares[k].link,
                        static_cast<std::uint32_t>(crossing.size())};
    crossing.push_back(Crossing{id, at});
    mark_dirty(shares[k].link);
  }
  return id;
}

void FluidSolver::remove_flow(std::uint32_t flow) {
  Flow& f = flows_.at(flow);
  STELLAR_CHECK(f.active, "removing an inactive fluid flow");
  for (std::uint32_t at = f.share_begin; at < f.share_begin + f.share_count;
       ++at) {
    const std::uint32_t link = shares_[at].link;
    const std::uint32_t pos = shares_[at].pos;
    std::vector<Crossing>& crossing = links_[link].crossing;
    STELLAR_DCHECK(pos < crossing.size() && crossing[pos].flow == flow &&
                       crossing[pos].share == at,
                   "fluid crossing entry does not name its flow");
    // Swap-remove: the last entry takes this one's place.
    const Crossing last = crossing.back();
    crossing[pos] = last;
    shares_[last.share].pos = pos;
    crossing.pop_back();
    mark_dirty(link);
  }
  f.active = false;
  f.rate = 0.0;
  f.share_count = 0;  // the slot keeps its share range for its next flow
  --active_count_;
  free_ids_.push_back(flow);
}

double FluidSolver::rate(std::uint32_t flow) const {
  const Flow& f = flows_.at(flow);
  STELLAR_CHECK(f.active, "querying rate of an inactive fluid flow");
  return f.rate;
}

double FluidSolver::link_load(std::uint32_t link) const {
  // In (flow id, share) order, the order a solve accumulates in, so the
  // sum is the same bits whenever it is taken.
  std::vector<Crossing> entries = links_.at(link).crossing;
  std::sort(entries.begin(), entries.end(),
            [](const Crossing& a, const Crossing& b) {
              return a.flow != b.flow ? a.flow < b.flow : a.share < b.share;
            });
  double load = 0.0;
  for (const Crossing& e : entries) {
    load += shares_[e.share].weight * flows_[e.flow].rate;
  }
  return load;
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
  solved_flows_.clear();
  // Each dirty link not yet re-solved seeds one connected component, and
  // progressive filling runs on that component alone. A link's dirty flag
  // is cleared when a component re-solves it, so a later seed in the same
  // component is skipped.
  for (const std::uint32_t seed : dirty_links_) {
    Link& first = links_[seed];
    if (!first.dirty) continue;
    first.dirty = false;
    // The last flow left this link: it constrains nobody, and its load
    // reads zero.
    if (first.crossing.empty()) continue;
    const std::size_t flow_begin = solved_flows_.size();
    collect_component(seed);
    solve_component(flow_begin);
  }
  dirty_links_.clear();
}

void FluidSolver::start_link(std::uint32_t l) {
  Link& link = links_[l];
  link.residual = link.capacity;
  link.unfrozen_weight = 0.0;
  link.unfrozen_count = 0;
  walk_.push_back(l);
}

void FluidSolver::collect_component(std::uint32_t seed) {
  // Breadth-first walk over link -> crossing flows -> their links, marking
  // each member in its bitmap; every link's filling scratch starts at its
  // full capacity with no unfrozen weight.
  walk_.clear();
  link_bits_.insert(seed);
  start_link(seed);
  for (std::size_t i = 0; i < walk_.size(); ++i) {
    for (const Crossing& c : links_[walk_[i]].crossing) {
      if (!flow_bits_.insert(c.flow)) continue;
      const Flow& f = flows_[c.flow];
      for (std::uint32_t at = f.share_begin;
           at < f.share_begin + f.share_count; ++at) {
        if (link_bits_.insert(shares_[at].link)) start_link(shares_[at].link);
      }
    }
  }
  // Flows in id order: each link's unfrozen weight accumulates in this
  // order. Integer counts decide whether a link still constrains anyone:
  // the float weight sum can retain a tiny residue after its last flow
  // froze (subtractive cancellation), which would otherwise let a spent
  // link masquerade as the bottleneck that nobody crosses.
  flow_bits_.drain([this](std::uint32_t id) {
    solved_flows_.push_back(id);
    Flow& f = flows_[id];
    f.frozen = false;
    for (std::uint32_t at = f.share_begin;
         at < f.share_begin + f.share_count; ++at) {
      Link& link = links_[shares_[at].link];
      link.unfrozen_weight += shares_[at].weight;
      ++link.unfrozen_count;
    }
  });
  // Links in index order: every link of the component has an unfrozen
  // flow, since the walk reached it through one.
  active_links_.clear();
  link_bits_.drain([this](std::uint32_t l) {
    links_[l].dirty = false;
    active_links_.push_back(l);
  });
}

inline void FluidSolver::freeze(std::uint32_t flow, double rate) {
  Flow& f = flows_[flow];
  f.frozen = true;
  f.rate = rate;
  for (std::uint32_t at = f.share_begin; at < f.share_begin + f.share_count;
       ++at) {
    const Share& s = shares_[at];
    Link& sl = links_[s.link];
    sl.unfrozen_weight -= s.weight;
    --sl.unfrozen_count;
    sl.residual -= s.weight * rate;
    if (sl.residual < 0.0) sl.residual = 0.0;
    if (sl.unfrozen_weight < 0.0) sl.unfrozen_weight = 0.0;
  }
}

void FluidSolver::solve_component(std::size_t flow_begin) {
  // Links in index order and flows in id order, whatever order the walk
  // found them in: the link order decides the order bottleneck links charge
  // residuals in, the flow order the order weights accumulate in, and
  // together they fix every derived rate bit for bit. active_links_ holds
  // the links with any unfrozen flow, compacted as they drain so later
  // rounds scan progressively fewer links.
  //
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
      const double r = level(link);
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
      // A freeze earlier in this pass may have changed the link.
      if (level(link) > cutoff) continue;
      // Bottleneck link: freeze its unfrozen crossing flows at rmin, in id
      // order.
      for (const Crossing& c : link.crossing) {
        if (!flows_[c.flow].frozen) flow_bits_.insert(c.flow);
      }
      flow_bits_.drain([&](std::uint32_t flow) {
        freeze(flow, rmin);
        froze_any = true;
        --remaining;
      });
    }
    STELLAR_CHECK(froze_any, "fluid solve made no progress");
  }
}

}  // namespace stellar
