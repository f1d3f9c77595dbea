// Hybrid fidelity driver: flow-level fast-forward with packet-level zoom
// (math and tolerance rationale in docs/HYBRID.md).
//
// The fabric — one (rail, plane) island, which connections never leave —
// is in one of two modes:
//
//   * kPacket: the existing per-packet engine; the driver only watches
//     trigger counters (queue occupancy, ECN marks, retransmits).
//   * kFluid: no packets exist. Every connection is a fluid flow served at
//     the max-min fair rate of FluidSolver over the real link graph, and
//     the simulator jumps straight between flow-completion events.
//
// Fluid service is lazy. A flow keeps the rate it is served at, an anchor
// time and a fractional-byte carry; between anchors its bytes accrue
// analytically and nobody serves them. Bytes are materialized only when
// the flow reaches its projected message completion (a due heap), when a
// solve changes its rate, when the fabric zooms, or —
// without serving — when fluid_bytes_served() reads it. A fluid event
// therefore touches only the flows it completes and the flows whose rates
// its re-solve changes, never every connection of the fabric.
//
// Transitions are loss-free and deterministic in both directions:
//
//   packet -> fluid (freeze): every link absorb()s the packets it owns
//     (counted by the conservation auditor as their own terminal outcome),
//     and each transport rewinds unacked wire bytes into unsent demand —
//     the same bytes continue as fluid flow state, whose demand and next
//     completion size the driver keeps from then on. A receiver-side
//     completion ledger suppresses the double delivery this re-serve could
//     otherwise cause for messages whose ACKs were mid-flight.
//   fluid -> packet (thaw): flows stop, each transport syncs the served
//     prefix of every unfinished message to its receiver, its congestion
//     window is seeded from its fluid rate (rate * base RTT), and
//     send_more() repopulates real queues.
//
// The fabric starts in fluid mode. Drop-to-packet triggers: any
// FaultInjector event touching the fabric, a connection posting work the
// fluid model cannot serve (SEND/READ, QP error), and an explicit zoom
// window (benches use this to cover measurement or --trace windows).
// While the fabric is in packet mode the driver polls its triggers every
// 5 us; promotion back to fluid requires 3 consecutive quiet epochs (every
// link's queue at most 256 KiB, no new ECN marks or retransmits).
//
// Per served message the driver does no lookup and no allocation: a
// client's record hangs off the client itself, a receiver is found by
// endpoint index, and each flow's next completion size is cached — taken
// at freeze, returned by every serve, and re-read from the client only
// when a post lands on a flow with no cached head. A zero-length WRITE at
// the head needs no bytes: it is due at once, whether or not its flow has
// demand, so no flow ever waits behind one.
//
// Everything is deterministic: links and clients are iterated in
// construction/registration order, flows due at the same picosecond are
// served in registration order, rates come from the deterministic solver,
// and event times are integer picoseconds derived from the same arithmetic
// on every run.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/fabric.h"
#include "net/link.h"
#include "sim/fluid.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace stellar {

/// The fabric's fidelity. The name predates the one-island fabric and is
/// kept because perf/driver.cc spells it (ROADMAP item 9).
enum class RegionMode : std::uint8_t { kPacket, kFluid };

/// A connection's footprint on the link graph, produced by fluid_freeze().
/// `shares` lists (link, fraction-of-packets) in deterministic route order
/// — first-encounter order over path ids, never pointer order.
struct FluidFlowDesc {
  std::uint64_t remaining = 0;  // unacked bytes re-served as fluid demand
  std::size_t messages = 0;     // WRITEs queued, zero-length ones included
  std::vector<std::pair<const NetLink*, double>> shares;
};

/// What FluidClient::fluid_serve() did: the bytes it consumed, and the
/// bytes until the message then at the head completes (0 = none, or a
/// zero-length WRITE at the head), i.e. fluid_next_completion_bytes()
/// after the serve.
struct FluidServe {
  std::uint64_t served = 0;
  std::uint64_t next = 0;
};

struct FluidClientInfo;

/// Sender side of a connection under fluid service (RdmaConnection). The
/// driver keeps the flow's demand and next completion size itself; the
/// client only serves it.
class FluidClient {
 public:
  virtual ~FluidClient() = default;
  /// True if every queued message is fluid-servable (WRITE) and the QP is
  /// healthy. A false answer keeps (or drops) the fabric in packet mode.
  virtual bool fluid_eligible() const = 0;
  /// True once the QP entered its terminal error state. Errored clients
  /// are skipped at freeze time rather than blocking the whole fabric.
  virtual bool fluid_errored() const = 0;
  /// Convert packet state to fluid state (rewind unacked bytes, cancel
  /// timers). Called once per freeze; must be valid on a fresh connection.
  virtual FluidFlowDesc fluid_freeze() = 0;
  /// Convert back: seed the congestion window from the last fluid rate
  /// (bytes/sec; 0 = no assigned rate) and resume packet transmission.
  virtual void fluid_thaw(double rate_bytes_per_sec) = 0;
  /// Serve up to `bytes` of the queued WRITEs ahead of the first
  /// non-WRITE, firing receiver-then-sender completions exactly as packet
  /// mode would. Returns the bytes consumed and the next completion size.
  virtual FluidServe fluid_serve(std::uint64_t bytes) = 0;
  /// Bytes until the in-service message completes (0 = no demand, or a
  /// zero-length WRITE at the head, which any serve completes). The driver
  /// asks at freeze and when a post lands on a flow with no cached head;
  /// otherwise it uses what fluid_serve() returned.
  virtual std::uint64_t fluid_next_completion_bytes() const = 0;
  /// Cumulative retransmit count — a promotion quietness signal.
  virtual std::uint64_t fluid_retransmit_count() const = 0;

 private:
  friend class HybridDriver;
  /// The driver's record of this client while registered, so a transport
  /// notification reaches the flow without a lookup.
  FluidClientInfo* fluid_info_ = nullptr;
};

/// Receiver side (RdmaEngine): `bytes` of a `total`-byte message were
/// served under fluid. They never travel as packets, so the receiver raises
/// the message's reassembly watermark to `bytes` — a thaw-time sync of a
/// straddling message's prefix, which its packet-mode tail then completes —
/// and completes the message when `bytes == total`.
struct FluidDelivery {
  std::uint64_t conn_id = 0;
  std::uint64_t msg_id = 0;
  std::uint64_t bytes = 0;
  std::uint64_t total = 0;
  std::uint32_t tag = 0;
  EndpointId src = 0;
};
class FluidReceiver {
 public:
  virtual ~FluidReceiver() = default;
  virtual void fluid_deliver(const FluidDelivery& delivery) = 0;
};

/// HybridDriver's record of one registered FluidClient (private to the
/// driver; namespace-scope only so that FluidClient can point at it).
struct FluidClientInfo {
  FluidClient* client = nullptr;
  std::uint64_t seq = 0;  // registration order; breaks due-time ties
  bool in_fluid = false;
  bool dead = false;  // QP error while frozen; never re-frozen
  // While in_fluid: unserved bytes of the queued WRITEs ahead of the
  // first non-WRITE (0 = flow inactive). Set at freeze, raised by posts,
  // lowered by every serve; a non-WRITE post stops the raises until the
  // zoom it triggers (`blocked`).
  std::uint64_t demand = 0;
  bool blocked = false;
  // While in_fluid: the client's fluid_next_completion_bytes(), cached.
  // Taken at freeze, replaced by every serve's FluidServe::next, re-read
  // when a post lands while it is 0 (the post may be the new head).
  std::uint64_t next = 0;
  std::int64_t flow = -1;
  // Lazy service: the flow was served through `anchor` and has accrued
  // rate * (now - anchor) + carry bytes since. `carry` is the fractional
  // byte left over by the last serve (negative after a due-time snap).
  double rate = 0.0;  // bytes/sec it is served at (0 = not yet solved)
  SimTime anchor = SimTime::zero();
  double carry = 0.0;
  std::uint64_t version = 0;  // bumped to invalidate queued due entries
  std::vector<FluidSolver::LinkShare> shares;  // resolved at freeze
};

class HybridDriver {
 public:
  /// Mode-span observation hook, fired when the fabric leaves a mode (and
  /// at driver destruction for the open span). Benches wire this into the
  /// tracer; the sim layer itself stays obs-free.
  using SpanHook =
      InlineFunction<void(RegionMode mode, SimTime begin, SimTime end)>;

  HybridDriver(Simulator& sim, ClosFabric& fabric);
  ~HybridDriver();
  HybridDriver(const HybridDriver&) = delete;
  HybridDriver& operator=(const HybridDriver&) = delete;

  // -- Registration (called by RdmaEngine) ----------------------------------

  void register_client(FluidClient* client);
  void unregister_client(FluidClient* client);
  void register_receiver(EndpointId endpoint, FluidReceiver* receiver);
  void unregister_receiver(EndpointId endpoint);
  FluidReceiver* receiver(EndpointId endpoint) const;

  // -- Mode control ---------------------------------------------------------

  RegionMode mode() const { return mode_; }
  /// 1, and mode() by another name: kept only for perf/driver.cc (ROADMAP
  /// item 9). `region` must be 0.
  std::uint32_t region_count() const { return 1; }
  RegionMode region_mode(std::uint32_t region) const;

  /// Drop the fabric to packet mode now and hold promotion off for at
  /// least `hold`. The FaultInjector calls this for every fabric-touching
  /// event; safe to call redundantly.
  void force_packet(SimTime hold, const char* reason);

  /// Explicit packet-fidelity window [start, end): the fabric zooms at
  /// `start` and may promote only after `end` (measurement / --trace
  /// windows).
  void request_zoom_window(SimTime start, SimTime end);

  // -- Client notifications (called by the transport) -----------------------

  /// A frozen connection queued a WRITE of `bytes`.
  void on_fluid_post(FluidClient* client, std::uint64_t bytes);
  /// A frozen connection queued work fluid cannot serve — zoom the fabric.
  /// Until the zoom the client's demand stops growing: WRITEs queued behind
  /// that work wait for packet mode.
  void on_ineligible_post(FluidClient* client);
  /// A frozen connection entered QP error; its flow leaves the solver.
  void on_client_error(FluidClient* client);

  void set_span_hook(SpanHook hook) { span_hook_ = std::move(hook); }

  // -- Stats ----------------------------------------------------------------

  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t absorbed_packets() const { return absorbed_packets_; }
  /// Bytes served under fluid through now(): the materialized bytes plus
  /// what every active flow has accrued since its anchor (computed, not
  /// served — reading the count changes no state).
  std::uint64_t fluid_bytes_served() const;
  /// Flows retired because they drained (errored flows do not count).
  std::uint64_t fluid_completions() const { return fluid_completions_; }
  /// Simulated time spent in fluid mode (the open span included up to
  /// now()).
  SimTime fluid_time() const;

 private:
  friend struct HybridDriverTestPeer;  // reads demand counters in tests

  using ClientInfo = FluidClientInfo;

  /// The record of a registered client (null once unregistered).
  static ClientInfo* info_of(const FluidClient* client) {
    return client->fluid_info_;
  }

  /// A flow's projected message completion. An entry is live while its
  /// version matches the client's; stale entries are dropped when they
  /// surface.
  struct DueEntry {
    SimTime at;
    std::uint64_t seq = 0;
    ClientInfo* client = nullptr;
    std::uint64_t version = 0;
  };
  /// Heap order: the earliest (at, seq) surfaces first.
  static bool due_later(const DueEntry& a, const DueEntry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// A zoom window requested ahead of time: its timer fires at the
  /// window's start.
  struct ZoomWindow {
    ZoomWindow(HybridDriver* d, SimTime window_end)
        : driver(d),
          end(window_end),
          timer(*d->sim_, [this] { driver->open_zoom_window(end); }) {}
    HybridDriver* driver;
    SimTime end;
    Simulator::Timer timer;
  };

  void enter_fluid();
  void zoom(const char* reason);
  /// Serve the flows due now, retire drained ones, re-solve, schedule the
  /// next completion — the single path every fluid event funnels through.
  void service();
  /// Materialize every active flow (zoom only).
  void advance_to_now();
  /// Freeze `ci`'s connection, resolve its link shares to solver ids and
  /// mark it fluid. Returns true if it has demand (its flow was added).
  bool freeze(ClientInfo* ci);
  void add_flow(ClientInfo* ci);
  void remove_flow(ClientInfo* ci);
  /// Serve the bytes `ci` accrued since its anchor and re-anchor it at
  /// now. At a due event (`due`) the in-service message completes even
  /// when rounding leaves it a byte short. Returns true if a message
  /// completed.
  bool serve(ClientInfo* ci, bool due);
  /// Project `ci`'s next completion from its anchor and queue it.
  void push_due(ClientInfo* ci);
  /// `ci`'s head is a zero-length WRITE: it needs no bytes, so it is due
  /// now, flow or not. Queue it (superseding any queued entry) and make
  /// sure a service pass runs.
  void push_due_now(ClientInfo* ci);
  /// Serve every flow whose due time has come, in (due, registration)
  /// order.
  void serve_due();
  /// Retire drained or errored flows among the touched ones; re-queue the
  /// rest.
  void retire_touched();
  /// Solve, then serve each flow whose rate changed up to now at its old
  /// rate and re-anchor it at the new one.
  void solve();
  void schedule_next();
  void schedule_kick();
  /// Hold promotion off until at least `end` and drop to packet mode.
  void open_zoom_window(SimTime end);
  void emit_span(RegionMode ended);
  /// True if a registered client is not dead: the promotion tick polls
  /// only while one is.
  bool has_live_client() const;
  void arm_tick();
  void tick();

  Simulator* sim_;
  ClosFabric* fabric_;
  // The fabric's fluid state.
  RegionMode mode_ = RegionMode::kFluid;  // the fabric starts fluid
  FluidSolver solver_;
  std::vector<NetLink*> links_;  // deterministic fabric order
  std::unordered_map<const NetLink*, std::uint32_t> link_index_;  // lookup
  std::vector<ClientInfo*> clients_;     // registration order
  std::vector<ClientInfo*> flow_owner_;  // by solver flow id
  std::vector<DueEntry> due_;            // min-heap on (at, seq)
  // Flows served at a due event or errored since the last retire pass:
  // the only ones that can have drained.
  std::vector<ClientInfo*> touched_;
  bool solve_needed_ = false;
  bool pending_zoom_ = false;
  const char* pending_zoom_reason_ = "";
  std::uint32_t quiet_epochs_ = 0;
  SimTime span_start_ = SimTime::zero();
  SimTime fluid_total_ = SimTime::zero();
  std::uint64_t last_ecn_ = 0;
  std::uint64_t last_retx_ = 0;
  // Owns the client records; consulted only to register and unregister
  // (notifications reach a record through FluidClient::fluid_info_).
  std::unordered_map<FluidClient*, std::unique_ptr<ClientInfo>> info_;
  std::vector<FluidReceiver*> receivers_;  // by endpoint id; null = none
  SpanHook span_hook_;
  SimTime hold_until_ = SimTime::zero();
  // The driver's events, each a timer that captures `this`: the next due
  // completion, a service pass at now, the promotion poll, and one per
  // requested zoom window. A timer disarms itself when the driver dies, so
  // a simulator that outlives the driver never calls into it.
  Simulator::Timer advance_timer_;
  Simulator::Timer kick_timer_;
  Simulator::Timer tick_timer_;
  std::vector<std::unique_ptr<ZoomWindow>> zoom_windows_;
  // True while flows are being served (completion callbacks are running).
  // Zooms requested meanwhile are deferred to a kick.
  bool serving_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t absorbed_packets_ = 0;
  std::uint64_t fluid_bytes_served_ = 0;
  std::uint64_t fluid_completions_ = 0;
};

}  // namespace stellar
