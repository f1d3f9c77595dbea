// Rail-optimized Clos fabric (the HPN-style topology of §3.1(6) and §7),
// scaled for simulation: one (rail, plane) island of it.
//
// Geometry:
//   * `segments` pods, each with `hosts_per_segment` GPU servers, each
//     reaching the island through one RNIC port;
//   * each segment owns one ToR; every ToR connects to `aggs_per_plane`
//     aggregation switches.
//
// Production NCCL traffic stays on one rail and one plane, so no packet
// ever leaves its island and the islands of a host's other rails and
// planes are disjoint copies of this one. A multi-rail host would be
// several fabrics. HPN7.0's dual-plane spraying, in which one NIC sprays
// over both planes under one CC context, is out of scope.
//
// Switches are decomposed into their egress ports: every port is a NetLink,
// so per-port queue depth / load statistics (Figures 9 and 12) fall out of
// link counters directly. A route is not stored anywhere: the multipath
// path_id selects the aggregation switch of a cross-segment route once, at
// send(), and the packet carries it. Each hop's link then follows from the
// packet's (src, dst, agg, hop) through per-endpoint tables built by the
// constructor, with no lookup and no division per packet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace stellar {

class HybridDriver;  // sim/hybrid.h — attached via set_hybrid_driver()

struct FabricConfig {
  std::uint32_t segments = 2;
  std::uint32_t hosts_per_segment = 16;
  // Fixed at 1, rejected otherwise: kept only because perf/driver.cc sets
  // them (ROADMAP item 9).
  std::uint32_t rails = 1;
  std::uint32_t planes = 1;
  std::uint32_t aggs_per_plane = 16;
  LinkConfig host_link{Bandwidth::gbps(200), SimTime::nanos(600), 8u << 20,
                       512u << 10, 0.0};
  LinkConfig fabric_link{Bandwidth::gbps(400), SimTime::nanos(600), 16u << 20,
                         1u << 20, 0.0};
};

class ClosFabric {
 public:
  /// Endpoint receive handler, invoked once per delivered packet — an
  /// InlineFunction for the same reason as NetLink::DeliverFn.
  using Handler = InlineFunction<void(NetPacket&&)>;

  ClosFabric(Simulator& sim, FabricConfig config);

  // -- Addressing -------------------------------------------------------------

  EndpointId endpoint(std::uint32_t segment, std::uint32_t host) const;
  /// endpoint(segment, host); `rail` and `plane` must be 0. Kept only for
  /// perf/driver.cc (ROADMAP item 9).
  EndpointId endpoint(std::uint32_t segment, std::uint32_t host,
                      std::uint32_t rail, std::uint32_t plane) const;
  std::uint32_t endpoint_count() const;

  struct EndpointCoords {
    std::uint32_t segment, host;
  };
  EndpointCoords coords(EndpointId id) const;

  /// Attach the receive handler (the RNIC transport) for an endpoint.
  void set_handler(EndpointId id, Handler handler);

  // -- Data path ----------------------------------------------------------------

  /// Inject a packet. path_id picks the aggregation switch for cross-segment
  /// routes (hashed per connection so distinct connections map path ids
  /// onto different switch subsets).
  Status send(NetPacket&& p);

  /// Number of distinct physical routes between two endpoints.
  std::uint32_t physical_paths(EndpointId src, EndpointId dst) const;

  /// The exact link sequence packets of (conn_id, path_id) traverse between
  /// src and dst, built on demand through the same hop function send() and
  /// the per-hop forwarding use. The packet-route oracle fluid_footprint()
  /// is tested against.
  std::vector<NetLink*> path_links(EndpointId src, EndpointId dst,
                                   std::uint64_t conn_id,
                                   std::uint16_t path_id) const;

  /// Hybrid fidelity: the links a connection's packet-mode spray crosses,
  /// each with the summed weight of the paths through it. `weights[path]`
  /// is the share of packets on path id `path`; paths with weight <= 0 are
  /// skipped. Equal, bit for bit, to walking path_links() over every
  /// weighted path in ascending id order and merging links in
  /// first-encounter order, weights summed in that same order — but in
  /// one pass with no route lookup: a cross-segment route is fixed by its
  /// aggregation switch, so the switch's two links are indexed directly.
  /// Replaces `shares`, reserved to its bound.
  void fluid_footprint(EndpointId src, EndpointId dst, std::uint64_t conn_id,
                       const std::vector<double>& weights,
                       std::vector<std::pair<const NetLink*, double>>& shares);

  // -- Hybrid fidelity ---------------------------------------------------------

  /// Attach/detach the hybrid fidelity driver (sim/hybrid.h). Owned by the
  /// caller; the driver detaches itself on destruction. Transports and the
  /// fault injector discover it through this hook, so a fabric without a
  /// driver runs pure packet mode with zero overhead.
  void set_hybrid_driver(HybridDriver* driver) { hybrid_driver_ = driver; }
  HybridDriver* hybrid_driver() const { return hybrid_driver_; }

  // -- Telemetry / fault injection ---------------------------------------------

  /// All ToR->Agg egress ports of one segment's ToR.
  std::vector<NetLink*> tor_uplinks(std::uint32_t segment);
  /// Every ToR uplink in the fabric.
  std::vector<NetLink*> all_tor_uplinks();

  NetLink& tor_uplink(std::uint32_t segment, std::uint32_t agg);
  NetLink& agg_downlink(std::uint32_t agg, std::uint32_t segment);
  NetLink& host_uplink(std::uint32_t segment, std::uint32_t host);
  NetLink& tor_downlink(std::uint32_t segment, std::uint32_t host);

  // -- Switch port groups (whole-switch failure injection) --------------------
  //
  // A switch failure takes down every cable touching the switch: its own
  // egress ports plus the far-end egress ports that feed it (a packet sent
  // onto a cable whose far end is dead is lost; modelling the loss at the
  // near-end ingress keeps conservation accounting exact).

  /// All ports of one aggregation switch: agg->ToR downlinks of `agg` in
  /// every segment, plus the ToR->Agg uplinks feeding it.
  std::vector<NetLink*> agg_switch_ports(std::uint32_t agg);
  /// All ports of one segment's ToR: its host downlinks and Agg uplinks,
  /// plus the host NIC egresses and Agg downlinks that feed it.
  std::vector<NetLink*> tor_switch_ports(std::uint32_t segment);

  void reset_stats();

  /// Diagnostics hook: called for every hop a packet takes (`link` is the
  /// egress port it was forwarded on; nullptr marks final delivery). This
  /// is the tooling counterpart of §7.1's observability argument — with
  /// sender-chosen path ids, a tracer can reconstruct exact trajectories.
  // stellar-lint: allow(std-function-hot-path) diagnostics-only hook, null
  // on measured runs; std::function keeps it copyable for tooling.
  using TraceHook =
      std::function<void(const NetPacket&, const NetLink* link, SimTime at)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  const FabricConfig& config() const { return config_; }
  Simulator& simulator() { return *sim_; }

  std::uint64_t delivered_packets() const { return delivered_; }
  /// Packets that reached an endpoint with no registered handler.
  std::uint64_t dropped_no_handler() const { return dropped_no_handler_; }
  /// Packets accepted by send() (STELLAR_AUDIT instrumentation; stays 0 in
  /// audit-off builds). Feeds the conservation auditor; reset_stats()
  /// re-baselines it to the packets still in flight so the conservation
  /// equation holds per measurement epoch.
  std::uint64_t injected_packets() const { return injected_; }

  /// Every egress port in the fabric (host NICs, ToR down/up, Agg down),
  /// for whole-fabric accounting sweeps.
  std::vector<const NetLink*> all_links() const;

 private:
  friend struct FabricTestPeer;  // corruption injection in audit tests
  // host_up_ and tor_down_ are indexed by endpoint id, tor_up_ and
  // agg_down_ both by agg_idx(segment, agg).
  std::size_t agg_idx(std::uint32_t s, std::uint32_t a) const {
    return static_cast<std::size_t>(s) * config_.aggs_per_plane + a;
  }

  /// What routing needs of one endpoint, built once by the constructor.
  struct Port {
    NetLink* up;            // host_up: endpoint -> its ToR
    NetLink* down;          // tor_down: its ToR -> endpoint
    std::uint32_t tor;      // agg_idx(segment, 0): its ToR's uplinks, and
                            // the agg downlinks into that ToR
    std::uint32_t segment;
  };

  /// The aggregation switch path `path_id` of connection `conn_id` crosses
  /// on a cross-segment route — the one hash send(), path_links() and
  /// fluid_footprint() share.
  std::uint32_t agg_of(std::uint64_t conn_id, std::uint16_t path_id) const;
  /// The switch a packet of (conn_id, path_id) from `a` to `b` carries:
  /// agg_of() across segments, 0 within one.
  std::uint16_t route_agg(const Port& a, const Port& b, std::uint64_t conn_id,
                          std::uint16_t path_id) const {
    return static_cast<std::uint16_t>(
        a.segment == b.segment ? 0 : agg_of(conn_id, path_id));
  }

  /// The link a packet from `src` to `dst` through switch `agg` crosses at
  /// hop `hop`, or nullptr once it has crossed the last: host_up, then
  /// tor_up and agg_down when the segments differ, then tor_down.
  NetLink* hop_link(EndpointId src, EndpointId dst, std::uint16_t agg,
                    std::uint16_t hop) const {
    const Port& a = ports_[src];
    const Port& b = ports_[dst];
    if (a.segment == b.segment) {
      return hop == 0 ? a.up : hop == 1 ? b.down : nullptr;
    }
    switch (hop) {
      case 0: return a.up;
      case 1: return tor_up_[a.tor + agg].get();
      case 2: return agg_down_[b.tor + agg].get();
      case 3: return b.down;
      default: return nullptr;
    }
  }

  void advance(NetPacket&& p);

  Simulator* sim_;
  FabricConfig config_;

  std::vector<std::unique_ptr<NetLink>> host_up_;   // endpoint -> ToR
  std::vector<std::unique_ptr<NetLink>> tor_down_;  // ToR -> endpoint
  std::vector<std::unique_ptr<NetLink>> tor_up_;    // ToR -> Agg
  std::vector<std::unique_ptr<NetLink>> agg_down_;  // Agg -> ToR

  std::vector<Port> ports_;  // by endpoint id
  std::vector<Handler> handlers_;
  TraceHook trace_;
  HybridDriver* hybrid_driver_ = nullptr;
  // fluid_footprint scratch: per aggregation switch, the index of its
  // tor_up share in the footprint being built (kNoSlot = not yet crossed).
  std::vector<std::uint32_t> agg_slot_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_no_handler_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace stellar
