#include "net/fabric.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "check/check.h"
#include "obs/obs.h"

namespace stellar {

namespace {
// "kind[a.b]", built in a buffer and copied into the string once (a chain
// of concatenations made a temporary per operand, a visible part of
// building a fabric's links).
std::string link_name(std::string_view kind, std::uint32_t a,
                      std::uint32_t b) {
  char buf[64];  // the longest kind (8) and two 10-digit fields fit
  char* p = std::copy(kind.begin(), kind.end(), buf);
  char sep = '[';
  for (const std::uint32_t v : {a, b}) {
    *p++ = sep;
    p = std::to_chars(p, std::end(buf), v).ptr;
    sep = '.';
  }
  *p++ = ']';
  return std::string(buf, p);
}
}  // namespace

ClosFabric::ClosFabric(Simulator& sim, FabricConfig config)
    : sim_(&sim), config_(config) {
  const auto& c = config_;
  if (c.segments == 0 || c.hosts_per_segment == 0 || c.aggs_per_plane == 0) {
    throw std::invalid_argument("ClosFabric: all dimensions must be nonzero");
  }
  if (c.rails != 1 || c.planes != 1) {
    // A fabric is one (rail, plane) island; a multi-rail host is several.
    throw std::invalid_argument("ClosFabric: rails and planes must be 1");
  }
  if (c.aggs_per_plane > std::uint32_t{1} << 16) {
    // A packet carries its switch index in 16 bits (NetPacket::agg).
    throw std::invalid_argument("ClosFabric: more than 65536 aggs per plane");
  }

  const std::size_t n_host_links =
      static_cast<std::size_t>(c.segments) * c.hosts_per_segment;
  const std::size_t n_tor_links =
      static_cast<std::size_t>(c.segments) * c.aggs_per_plane;

  // Each link gets its own inline delivery closure (DeliverFn is move-only).
  auto deliver = [this] {
    return [this](NetPacket&& p) { advance(std::move(p)); };
  };

  std::uint64_t seed = 0xC0FFEE;
  host_up_.reserve(n_host_links);
  tor_down_.reserve(n_host_links);
  for (std::uint32_t s = 0; s < c.segments; ++s) {
    for (std::uint32_t h = 0; h < c.hosts_per_segment; ++h) {
      host_up_.push_back(std::make_unique<NetLink>(
          sim, link_name("host_up", s, h), c.host_link, ++seed));
      host_up_.back()->set_deliver(deliver());
      tor_down_.push_back(std::make_unique<NetLink>(
          sim, link_name("tor_down", s, h), c.host_link, ++seed));
      tor_down_.back()->set_deliver(deliver());
    }
  }

  tor_up_.reserve(n_tor_links);
  agg_down_.reserve(n_tor_links);
  for (std::uint32_t s = 0; s < c.segments; ++s) {
    for (std::uint32_t a = 0; a < c.aggs_per_plane; ++a) {
      tor_up_.push_back(std::make_unique<NetLink>(
          sim, link_name("tor_up", s, a), c.fabric_link, ++seed));
      tor_up_.back()->set_deliver(deliver());
      agg_down_.push_back(std::make_unique<NetLink>(
          sim, link_name("agg_down", a, s), c.fabric_link, ++seed));
      agg_down_.back()->set_deliver(deliver());
    }
  }

  ports_.reserve(endpoint_count());
  for (EndpointId id = 0; id < endpoint_count(); ++id) {
    const std::uint32_t segment = coords(id).segment;
    ports_.push_back(Port{host_up_[id].get(), tor_down_[id].get(),
                          static_cast<std::uint32_t>(agg_idx(segment, 0)),
                          segment});
  }
  handlers_.resize(endpoint_count());
}

EndpointId ClosFabric::endpoint(std::uint32_t segment,
                                std::uint32_t host) const {
  const auto& c = config_;
  STELLAR_DCHECK(segment < c.segments && host < c.hosts_per_segment,
                 "endpoint(%u, %u) outside fabric %ux%u", segment, host,
                 c.segments, c.hosts_per_segment);
  return segment * c.hosts_per_segment + host;
}

EndpointId ClosFabric::endpoint(std::uint32_t segment, std::uint32_t host,
                                std::uint32_t rail,
                                std::uint32_t plane) const {
  STELLAR_CHECK(rail == 0 && plane == 0,
                "endpoint rail %u, plane %u: a fabric is one island", rail,
                plane);
  return endpoint(segment, host);
}

std::uint32_t ClosFabric::endpoint_count() const {
  return config_.segments * config_.hosts_per_segment;
}

ClosFabric::EndpointCoords ClosFabric::coords(EndpointId id) const {
  return {id / config_.hosts_per_segment, id % config_.hosts_per_segment};
}

void ClosFabric::set_handler(EndpointId id, Handler handler) {
  handlers_.at(id) = std::move(handler);
}

NetLink& ClosFabric::tor_uplink(std::uint32_t segment, std::uint32_t agg) {
  return *tor_up_.at(agg_idx(segment, agg));
}
NetLink& ClosFabric::agg_downlink(std::uint32_t agg, std::uint32_t segment) {
  return *agg_down_.at(agg_idx(segment, agg));
}
NetLink& ClosFabric::host_uplink(std::uint32_t segment, std::uint32_t host) {
  return *host_up_.at(endpoint(segment, host));
}
NetLink& ClosFabric::tor_downlink(std::uint32_t segment, std::uint32_t host) {
  return *tor_down_.at(endpoint(segment, host));
}

std::vector<NetLink*> ClosFabric::tor_uplinks(std::uint32_t segment) {
  std::vector<NetLink*> out;
  out.reserve(config_.aggs_per_plane);
  for (std::uint32_t a = 0; a < config_.aggs_per_plane; ++a) {
    out.push_back(&tor_uplink(segment, a));
  }
  return out;
}

std::vector<NetLink*> ClosFabric::all_tor_uplinks() {
  std::vector<NetLink*> out;
  out.reserve(tor_up_.size());
  for (auto& l : tor_up_) out.push_back(l.get());
  return out;
}

std::vector<const NetLink*> ClosFabric::all_links() const {
  std::vector<const NetLink*> out;
  out.reserve(host_up_.size() + tor_down_.size() + tor_up_.size() +
              agg_down_.size());
  for (const auto& l : host_up_) out.push_back(l.get());
  for (const auto& l : tor_down_) out.push_back(l.get());
  for (const auto& l : tor_up_) out.push_back(l.get());
  for (const auto& l : agg_down_) out.push_back(l.get());
  return out;
}

std::vector<NetLink*> ClosFabric::agg_switch_ports(std::uint32_t agg) {
  const auto& c = config_;
  STELLAR_CHECK(agg < c.aggs_per_plane, "agg_switch_ports(%u): only %u aggs",
                agg, c.aggs_per_plane);
  std::vector<NetLink*> out;
  out.reserve(2ull * c.segments);
  for (std::uint32_t s = 0; s < c.segments; ++s) {
    out.push_back(agg_down_[agg_idx(s, agg)].get());
    out.push_back(tor_up_[agg_idx(s, agg)].get());
  }
  return out;
}

std::vector<NetLink*> ClosFabric::tor_switch_ports(std::uint32_t segment) {
  const auto& c = config_;
  STELLAR_CHECK(segment < c.segments, "tor_switch_ports(%u): only %u segments",
                segment, c.segments);
  std::vector<NetLink*> out;
  out.reserve(2ull * (c.hosts_per_segment + c.aggs_per_plane));
  for (std::uint32_t h = 0; h < c.hosts_per_segment; ++h) {
    out.push_back(tor_down_[endpoint(segment, h)].get());
    out.push_back(host_up_[endpoint(segment, h)].get());
  }
  for (std::uint32_t a = 0; a < c.aggs_per_plane; ++a) {
    out.push_back(tor_up_[agg_idx(segment, a)].get());
    out.push_back(agg_down_[agg_idx(segment, a)].get());
  }
  return out;
}

void ClosFabric::reset_stats() {
  for (auto& l : host_up_) l->reset_stats();
  for (auto& l : tor_down_) l->reset_stats();
  for (auto& l : tor_up_) l->reset_stats();
  for (auto& l : agg_down_) l->reset_stats();
  // Re-baseline the conservation epoch to match the per-link resets: the
  // packets still held by links are the only ones the new epoch inherits,
  // so they seed the injected count; terminal outcomes start from zero.
  STELLAR_AUDIT_ONLY(std::uint64_t held = 0;
                     for (const NetLink* l : all_links()) {
                       held += l->held_packets();
                     } injected_ = held;)
  delivered_ = 0;
  dropped_no_handler_ = 0;
}

std::uint32_t ClosFabric::physical_paths(EndpointId src,
                                         EndpointId dst) const {
  return ports_.at(src).segment == ports_.at(dst).segment
             ? 1
             : config_.aggs_per_plane;
}

std::uint32_t ClosFabric::agg_of(std::uint64_t conn_id,
                                 std::uint16_t path_id) const {
  // Map the transport-level path id onto a physical aggregation switch.
  // The hash makes each connection's path set a pseudo-random cover of the
  // aggregation layer: few paths -> partial (imbalanced) cover; 128 paths
  // -> near-uniform cover (Figure 12's convergence point).
  return static_cast<std::uint32_t>(hash_combine(conn_id, path_id) %
                                    config_.aggs_per_plane);
}

void ClosFabric::fluid_footprint(
    EndpointId src, EndpointId dst, std::uint64_t conn_id,
    const std::vector<double>& weights,
    std::vector<std::pair<const NetLink*, double>>& shares) {
  const Port& a = ports_.at(src);
  const Port& b = ports_.at(dst);
  shares.clear();
  // Links start at 0.0 and add each weight in path order: 0.0 + w is w
  // exactly, so every sum equals a walk's that starts from the first path.
  if (a.segment == b.segment) {
    // Every path is host_up then tor_down.
    for (const double w : weights) {
      if (w <= 0.0) continue;
      if (shares.empty()) {
        shares.reserve(2);
        shares.emplace_back(a.up, 0.0);
        shares.emplace_back(b.down, 0.0);
      }
      shares[0].second += w;
      shares[1].second += w;
    }
    return;
  }
  // host_up, then each switch's tor_up and agg_down as a path first
  // reaches it, with tor_down after the first switch's pair — the order a
  // walk of the routes meets them in.
  constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  const std::uint32_t aggs = config_.aggs_per_plane;
  agg_slot_.assign(aggs, kNoSlot);
  shares.reserve(2 + 2 * std::min<std::size_t>(aggs, weights.size()));
  const auto add_switch = [&](std::uint32_t agg) {
    agg_slot_[agg] = static_cast<std::uint32_t>(shares.size());
    shares.emplace_back(tor_up_[a.tor + agg].get(), 0.0);
    shares.emplace_back(agg_down_[b.tor + agg].get(), 0.0);
  };
  for (std::size_t path = 0; path < weights.size(); ++path) {
    const double w = weights[path];
    if (w <= 0.0) continue;
    const std::uint32_t agg = agg_of(conn_id, static_cast<std::uint16_t>(path));
    if (shares.empty()) {
      shares.emplace_back(a.up, 0.0);
      add_switch(agg);
      shares.emplace_back(b.down, 0.0);
    } else if (agg_slot_[agg] == kNoSlot) {
      add_switch(agg);
    }
    const std::uint32_t slot = agg_slot_[agg];
    shares[0].second += w;
    shares[slot].second += w;
    shares[slot + 1].second += w;
    shares[3].second += w;
  }
}

std::vector<NetLink*> ClosFabric::path_links(EndpointId src, EndpointId dst,
                                             std::uint64_t conn_id,
                                             std::uint16_t path_id) const {
  const std::uint16_t agg =
      route_agg(ports_.at(src), ports_.at(dst), conn_id, path_id);
  std::vector<NetLink*> links;
  for (std::uint16_t hop = 0; NetLink* l = hop_link(src, dst, agg, hop);
       ++hop) {
    links.push_back(l);
  }
  return links;
}

Status ClosFabric::send(NetPacket&& p) {
  if (p.src >= ports_.size() || p.dst >= ports_.size()) {
    return invalid_argument("ClosFabric::send: bad endpoint");
  }
  const Port& a = ports_[p.src];
  const Port& b = ports_[p.dst];
  if (p.src == p.dst) {
    return invalid_argument("ClosFabric::send: src == dst");
  }
  p.agg = route_agg(a, b, p.conn_id, p.path_id);
  p.hop = 0;
  p.sent_at = sim_->now();
  STELLAR_AUDIT_ONLY(++injected_;)
  STELLAR_TRACE_ONLY(
      obs::count("fabric/injected");
      obs::instant(obs::TraceCat::kNet, p.is_ack ? "inject_ack" : "inject",
                   sim_->now(),
                   obs::TraceArgs{
                       "conn", static_cast<std::int64_t>(p.conn_id), "psn",
                       static_cast<std::int64_t>(p.is_ack ? p.ack_psn : p.psn),
                       "path", p.path_id});)
  if (trace_) trace_(p, a.up, sim_->now());
  a.up->enqueue(std::move(p));
  return Status::ok();
}

void ClosFabric::advance(NetPacket&& p) {
  ++p.hop;
  if (NetLink* next = hop_link(p.src, p.dst, p.agg, p.hop)) {
    if (trace_) trace_(p, next, sim_->now());
    next->enqueue(std::move(p));
    return;
  }
  if (trace_) trace_(p, nullptr, sim_->now());
  auto& handler = handlers_.at(p.dst);
  if (!handler) {
    // No engine attached at the destination: the packet is lost. Counted
    // separately so misconfigured experiments are observable.
    ++dropped_no_handler_;
    STELLAR_TRACE_ONLY(obs::count("fabric/dropped_no_handler");)
    return;
  }
  ++delivered_;
  STELLAR_TRACE_ONLY(
      obs::count("fabric/delivered");
      obs::record_time("fabric/transit_ps", sim_->now() - p.sent_at);)
  handler(std::move(p));
}

}  // namespace stellar
