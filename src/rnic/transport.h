// Stellar's multipath RDMA transport (§7).
//
// Sender: packetizes posted verbs (WRITE / SEND / READ) into MTU-sized
// packets, sprays each packet on a selector-chosen path, and paces with
// window-based congestion-control contexts indexed by path: one context
// shared by every path (§9), or one per path for the ablation of that
// design choice — the same code with `num_paths` contexts. Loss recovery is
// purely RTO-based (250 us default): timed-out packets are retransmitted on
// a *different* path without a window cut, and a path that times out three
// times in a row is blacklisted until a probe on it is acknowledged
// (failure mitigation).
//
// Receiver: Direct Packet Placement — out-of-order packets are placed as
// they arrive (no reorder buffer), deduplicated by PSN against a
// compacting floor, and each packet is acknowledged individually with the
// ECN mark echoed. SENDs consume posted receive WRs; READ responses flow
// on an auto-created reverse-direction connection.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/ring_queue.h"
#include "common/snapshot.h"
#include "common/status.h"
#include "common/units.h"
#include "net/fabric.h"
#include "rnic/congestion.h"
#include "rnic/multipath.h"
#include "rnic/psn_window.h"
#include "sim/hybrid.h"
#include "sim/simulator.h"

namespace stellar {

/// Consecutive timeouts that blacklist a path.
inline constexpr std::uint32_t kBlacklistThreshold = 3;

struct TransportConfig {
  std::uint16_t num_paths = 128;
  MultipathAlgo algo = MultipathAlgo::kObs;
  SimTime rto = SimTime::micros(250);
  CcAlgo cc_algo = CcAlgo::kWindowEcnRtt;
  /// Stack-dependent overheads (Figure 13's VF+VxLAN baseline): extra
  /// encapsulation bytes on every packet, a fixed per-packet processing
  /// delay (vSwitch rule walk + encap) before the wire, and a sustained
  /// throughput ceiling of the encap engine (zero = uncapped).
  std::uint32_t extra_header_bytes = 0;
  SimTime per_packet_overhead = SimTime::zero();
  Bandwidth stack_rate_cap = Bandwidth::bits_per_sec(0);
  /// A packet retransmitted this many times moves the QP to an error
  /// state (mirrors the verbs retry counter); keeps a dead peer from
  /// spinning the RTO forever.
  std::uint32_t max_retries = 64;
  /// Failure mitigation (§7.2's third parameter): a path that times out
  /// kBlacklistThreshold times in a row is blacklisted, steering the spray
  /// around a dead link without waiting for BGP. It is re-admitted only
  /// once a single-packet probe on it is acknowledged: the first probe goes
  /// out `blacklist_hold` after blacklisting, then one every
  /// `probe_interval` while the connection has work pending.
  SimTime blacklist_hold = SimTime::millis(10);
  SimTime probe_interval = SimTime::millis(1);
  /// Per-path congestion control (§9's alternative design): each path gets
  /// its own context with a window of init_window/num_paths. The paper
  /// rejected this because the silicon budget then caps the fan-out at ~4
  /// paths; the ablation bench exercises exactly that trade.
  bool per_path_cc = false;
  /// Owning tenant of every QP opened with this config — the attribution
  /// key for per-tenant goodput/SLO tracking (docs/TENANCY.md).
  TenantId tenant = kHostTenant;

  template <class Ar, class Self>
  static void fields(Ar& ar, Self& c) {
    ar(c.num_paths, as<std::uint8_t>(c.algo), c.rto, c.cc_algo,
       c.extra_header_bytes, c.per_packet_overhead,
       as<std::int64_t>(c.stack_rate_cap), c.max_retries, c.blacklist_hold,
       c.probe_interval, c.per_path_cc, c.tenant);
  }
};

class RdmaEngine;

/// Sender-side connection state. Created via RdmaEngine::connect().
///
/// Implements FluidClient (sim/hybrid.h): when the connection's fabric
/// is in fluid mode, posted WRITEs are served analytically at the
/// max-min rate instead of being packetized — freeze rewinds unacked wire
/// bytes into unsent demand, thaw seeds the congestion window from the
/// fluid rate and resumes packet transmission. The connection reports each
/// post to the driver, which keeps the flow's demand; a fluid-served
/// message completes through the same path an ACK-completed one does.
///
/// Per-message state lives in rings indexed by message id, the way an
/// RNIC keeps WQEs in per-QP rings: ids are per-connection and monotonic,
/// so the message table is a SendWindow keyed by id (a READ or a sprayed
/// small WRITE that completes early leaves a hole, as does an id consumed
/// by a post to an errored QP) and the unsent queue is a RingQueue of ids.
/// Once both reached their working size, posting and completing a message
/// touches no hash table and, when its completion fits std::function's
/// inline buffer, no heap.
class RdmaConnection : public FluidClient {
 public:
  using Completion = std::function<void()>;
  using ErrorHandler = std::function<void(const Status&)>;

  /// Queue an RDMA WRITE of `bytes`. `on_complete` fires when every packet
  /// of the message has been acknowledged. Returns the message id (unique
  /// per connection), which the receiver-side handler also observes.
  /// `tag` is an opaque application label delivered with the receiver-side
  /// completion (collectives use it as the slice lane).
  std::uint64_t post_write(std::uint64_t bytes, Completion on_complete = {},
                           std::uint32_t tag = 0);

  /// Two-sided SEND: like WRITE on the wire, but the receiver matches it
  /// against a posted receive WR (RdmaEngine::post_recv).
  std::uint64_t post_send(std::uint64_t bytes, Completion on_complete = {},
                          std::uint32_t tag = 0);

  /// RDMA READ of `bytes` from the remote peer. `on_data` fires at *this*
  /// endpoint once the full response has been placed.
  std::uint64_t post_read(std::uint64_t bytes, Completion on_data = {});

  std::uint64_t id() const { return id_; }
  EndpointId local() const { return local_; }
  EndpointId remote() const { return remote_; }
  TenantId tenant() const { return config_.tenant; }

  std::uint64_t inflight_bytes() const { return inflight_bytes_; }
  std::uint64_t completed_messages() const { return completed_messages_; }
  std::uint64_t completed_bytes() const { return completed_bytes_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// Idle = no unacked packets and no unsent data. Checked on the
  /// *outstanding table*, not on inflight_bytes_: a zero-length message in
  /// flight carries zero payload bytes but still owns a PSN slot, and the
  /// connection must not report drained (probes dormant, quiesce "done")
  /// until that packet is acknowledged or the QP errors.
  bool idle() const { return outstanding_.empty() && unsent_queue_.empty(); }
  /// True once a packet exhausted its retry budget (QP in error state).
  bool in_error() const { return error_; }
  /// OK while healthy; the terminal error (kUnavailable) once the QP moved
  /// to the error state. Collectives poll this to distinguish "still
  /// flowing" from "dead peer" without waiting for a wall-clock timeout.
  Status status() const { return error_ ? error_status_ : Status::ok(); }
  /// Fires exactly once when the QP enters the error state (retry budget
  /// exhausted or device reset). Pending completions never fire after an
  /// error; this callback is the failure signal that replaces them. A
  /// handler installed *after* the QP already errored fires immediately —
  /// the exactly-once contract holds regardless of registration order
  /// (e.g. a zero-length message whose QP dies before the application
  /// wires its handler).
  void set_on_error(ErrorHandler handler) {
    on_error_ = std::move(handler);
    if (error_ && on_error_) {
      ErrorHandler h = std::move(on_error_);
      on_error_ = {};
      h(error_status_);
    }
  }
  std::size_t blacklisted_paths() const { return blacklisted_paths_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probes_acked() const { return probes_acked_; }
  /// Paths taken off the blacklist by a successful probe or data ACK.
  std::uint64_t paths_reinstated() const { return paths_reinstated_; }

  /// Sum of the windows of the connection's CC contexts.
  std::uint64_t window() const;

  /// The CC context that admits packets on `path`.
  const CongestionControl& cc(std::uint16_t path = 0) const {
    return *cc_[ctx(path)];
  }
  PathSelector& selector() { return *selector_; }

  // -- FluidClient (hybrid fidelity; called by HybridDriver) ----------------

  bool fluid_eligible() const override;
  bool fluid_errored() const override { return error_; }
  FluidFlowDesc fluid_freeze() override;
  void fluid_thaw(double rate_bytes_per_sec) override;
  FluidServe fluid_serve(std::uint64_t bytes) override;
  std::uint64_t fluid_next_completion_bytes() const override;
  std::uint64_t fluid_retransmit_count() const override {
    return retransmits_;
  }

  ~RdmaConnection() override;

 private:
  friend class RdmaEngine;
  friend class TransportAuditor;    // reads QP state for invariant audits
  friend struct TransportTestPeer;  // corruption injection in audit tests

  RdmaConnection(RdmaEngine& engine, std::uint64_t id, EndpointId local,
                 EndpointId remote, const TransportConfig& config);

  struct Message {
    std::uint64_t id = 0;
    std::uint64_t total = 0;
    std::uint64_t sent = 0;
    std::uint64_t acked = 0;
    std::uint32_t tag = 0;
    PacketKind kind = PacketKind::kWrite;
    SimTime posted_at;  // post time, for the message-lifetime trace span
    Completion on_complete;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& m) {
      ar(m.id, m.total, m.sent, m.acked, m.tag, m.kind, m.posted_at);
    }
  };

  struct Outstanding {
    std::uint32_t bytes = 0;
    std::uint16_t path = 0;
    SimTime sent_at;
    std::uint64_t msg_id = 0;
    std::uint64_t msg_offset = 0;
    std::uint64_t msg_total = 0;
    std::uint32_t msg_tag = 0;
    PacketKind kind = PacketKind::kWrite;
    std::uint32_t retries = 0;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& o) {
      ar(o.bytes, o.path, o.sent_at, o.msg_id, o.msg_offset, o.msg_total,
         o.msg_tag, o.kind, o.retries);
    }
  };

  void send_more();
  void transmit(std::uint64_t psn, const Outstanding& meta);
  void handle_ack(const NetPacket& ack);
  /// Move the RTO to the oldest unacked send + rto (not before now), under
  /// a fresh seq; disarms it when nothing is unacked. Lazy: an armed timer
  /// stays where it is, since the deadline never moves earlier, and
  /// on_rto_fire() moves it when it fires under an older seq.
  void arm_rto();
  /// Arm the disarmed RTO timer at the current deadline under rto_seq_.
  void arm_rto_timer();
  void on_rto_fire();

  /// Terminal transition to the error state: flush all in-flight state,
  /// fail (drop) pending messages, cancel timers/probes, fire on_error.
  void enter_error(Status reason);

  /// Blacklist probing (probe-based reinstatement).
  void schedule_probe(std::uint16_t path, SimTime delay);
  void send_probe(std::uint16_t path);
  void kick_probes();

  std::uint64_t enqueue_message(std::uint64_t bytes, PacketKind kind,
                                std::uint32_t tag, Completion on_complete);

  /// Sender-side completion of a fully acknowledged (or fluid-served)
  /// message: counters, trace span, then its callback. Erases `msg`.
  void complete_message(Message& msg);
  /// Unacked bytes of the queued WRITE at the head of the unsent queue (0
  /// if the queue is empty or headed by a SEND/READ).
  std::uint64_t head_completion_bytes() const;

  /// The hybrid driver attached to the fabric, or nullptr (pure packet).
  HybridDriver* hybrid_driver() const;

  /// Field list of the sender-side QP context after its identity and
  /// config (PSN space, unacked packets, queued messages, CC state,
  /// blacklists). Message completion callbacks are NOT serialized — the
  /// engine harvests and re-attaches them across a hot restart; a cold
  /// restore (migration) starts with empty callbacks and the application
  /// re-registers. Driven by RdmaEngine::fields; a restore fails on a
  /// packet or blacklist entry naming a path outside `num_paths`.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& c);
  /// Re-create CC contexts / path selector from config_ (shared with the
  /// ctor); a restore then overlays the serialized CC state. The spray
  /// selector's learned weights are ephemeral hardware state and restart
  /// fresh — deterministically, from the connection-id seed.
  void rebuild_from_config();
  /// Re-arm timers/probes and resume transmission after a restore.
  void resume_after_restore();
  /// Cancel every pending timer/probe and drop the paced packets not yet
  /// on the wire, without touching logical state — the pre-restore half of
  /// a hot restart, and part of a QP error and of a fluid freeze.
  void cancel_timers();

  /// Path choice honoring the blacklist.
  std::uint16_t pick_path();
  void note_path_timeout(std::uint16_t path);
  void note_path_ack(std::uint16_t path);

  /// Index of the CC context (and its inflight count) `path` belongs to:
  /// 0 for the shared context, the path itself with per-path CC.
  std::size_t ctx(std::uint16_t path) const {
    return cc_.size() == 1 ? 0 : path;
  }
  /// Congestion admission of one more packet on `path`.
  bool admit(std::uint16_t path) const {
    const std::size_t c = ctx(path);
    return cc_[c]->can_send(cc_inflight_[c]);
  }

  RdmaEngine& engine_;
  TransportConfig config_;
  std::uint64_t id_;
  EndpointId local_;
  EndpointId remote_;

  // CC contexts, one shared or one per path, and the unacked payload
  // bytes of each (they sum to inflight_bytes_).
  std::vector<std::unique_ptr<CongestionControl>> cc_;
  std::vector<std::uint64_t> cc_inflight_;
  std::unique_ptr<PathSelector> selector_;

  std::uint64_t next_psn_ = 0;
  std::uint64_t next_msg_id_ = 0;
  std::uint64_t inflight_bytes_ = 0;

  RingQueue<std::uint64_t> unsent_queue_;  // msg ids with unsent data
  SendWindow<Message> messages_;           // by msg id, ascending
  // psn -> in-flight meta: a PSN-indexed ring of indices into a slab of
  // live records (rnic/psn_window.h), iterated in PSN order.
  SendWindow<Outstanding> outstanding_;
  // The seq and the time of the last arm_rto() with packets unacked. A real
  // RTO fires under rto_seq_ at the oldest unacked send + rto, but not
  // before rto_floor_; a timer armed under an older seq fires early and
  // moves there.
  std::uint64_t rto_seq_ = 0;
  SimTime rto_floor_;
  std::uint64_t rto_armed_seq_ = 0;  // the seq rto_timer_ is armed under
  SimTime rto_deadline_;     // when rto_timer_ fires, while it is armed
  SimTime stack_next_free_;  // pacing point of the (optional) encap engine
  // Packets the stack has accepted but not yet put on the wire (per-packet
  // overhead and stack_rate_cap pacing); cancel_timers() drops them.
  OwnedEvents paced_;

  // Failure mitigation: consecutive timeouts per path and the blacklist.
  // The streak is indexed by path id; `seen` marks the paths the streak
  // logic has touched (ACKed or timed out), which are the entries the
  // snapshot carries — a path ACKed but never timed out is saved as 0.
  struct PathStreak {
    std::uint32_t count = 0;
    bool seen = false;
    bool blacklisted = false;
  };
  std::vector<PathStreak> path_timeout_streak_;
  /// The streak entry of `path`, marked seen (sized to the paths on first
  /// use).
  PathStreak& streak(std::uint16_t path);
  std::size_t blacklisted_paths_ = 0;
  // A path's reinstatement probe: created the first time the path is
  // probed, then re-armed in place, one in flight at a time. Probes go
  // dormant while the connection is idle so the simulator can drain.
  struct ProbeTimer {
    ProbeTimer(RdmaConnection* c, std::uint16_t p);
    RdmaConnection* conn;
    std::uint16_t path;
    Simulator::Timer timer;
  };
  // By path id (sized on the first probe); null for a path never probed.
  std::vector<std::unique_ptr<ProbeTimer>> probe_timers_;
  std::uint64_t next_probe_seq_ = 0;

  // Armed exactly while unacked packets exist, and never later than the
  // true deadline (TransportAuditor).
  Simulator::Timer rto_timer_;

  std::uint64_t completed_messages_ = 0;
  std::uint64_t completed_bytes_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_acked_ = 0;
  std::uint64_t paths_reinstated_ = 0;
  bool error_ = false;
  Status error_status_;
  ErrorHandler on_error_;
  /// True while this connection's fabric is in fluid mode (set by
  /// fluid_freeze, cleared by fluid_thaw / enter_error).
  bool fluid_ = false;
};

/// Message observed complete at the receiver (all payload bytes placed).
struct RxMessage {
  std::uint64_t conn_id = 0;
  std::uint64_t msg_id = 0;
  std::uint64_t bytes = 0;
  std::uint32_t tag = 0;
  EndpointId src = kInvalidEndpoint;
  PacketKind kind = PacketKind::kWrite;

  template <class Ar, class Self>
  static void fields(Ar& ar, Self& m) {
    ar(m.conn_id, m.msg_id, m.bytes, m.tag, m.src, m.kind);
  }
};

/// Per-endpoint transport engine: owns sender connections and all
/// receiver-side state, and is registered as the endpoint's packet handler.
///
/// Implements FluidReceiver: a fluid delivery raises a message's reassembly
/// watermark as packet payloads do, and a whole message lands through the
/// same deliver_message() path packet completions use; a completed-message
/// ledger suppresses double delivery across mode boundaries.
class RdmaEngine : public FluidReceiver {
 public:
  using MessageHandler = std::function<void(const RxMessage&)>;
  using RecvHandler = std::function<void(const RxMessage&)>;

  RdmaEngine(Simulator& sim, ClosFabric& fabric, EndpointId self);
  ~RdmaEngine() override;

  RdmaEngine(const RdmaEngine&) = delete;
  RdmaEngine& operator=(const RdmaEngine&) = delete;

  /// Open a connection to `remote`, an endpoint of the same fabric.
  StatusOr<RdmaConnection*> connect(EndpointId remote,
                                    const TransportConfig& config);

  /// Hard device reset (fault injection): every QP of this engine moves to
  /// the error state (firing its on_error handler), and for `down_for` of
  /// simulated time every arriving packet is dropped at the device — the
  /// window a real function-level reset is unresponsive for.
  void reset_device(SimTime down_for);
  std::uint64_t device_resets() const { return device_resets_; }
  /// Packets discarded because they arrived during a reset window.
  std::uint64_t reset_drops() const { return reset_drops_; }

  /// Called whenever a full message lands at this endpoint.
  void set_message_handler(MessageHandler handler) {
    message_handler_ = std::move(handler);
  }

  /// Per-connection receive handler (takes precedence over the global one).
  /// Collectives register the peer's conn id here to drive their state
  /// machines off receiver-side completions.
  void set_conn_message_handler(std::uint64_t conn_id, MessageHandler handler) {
    conn_handlers_[conn_id] = std::move(handler);
  }

  /// Post a receive WR for SENDs arriving on `conn_id`. SENDs completing
  /// with no WR posted are parked and match the next post_recv (eager
  /// buffering). The handler fires when a SEND is matched.
  void post_recv(std::uint64_t conn_id, RecvHandler on_recv);
  std::size_t pending_recvs(std::uint64_t conn_id) const;
  std::uint64_t unexpected_sends() const { return unexpected_sends_; }

  EndpointId self() const { return self_; }
  Simulator& simulator() { return *sim_; }
  ClosFabric& fabric() { return *fabric_; }

  /// Goodput: first-copy payload bytes delivered to this endpoint.
  std::uint64_t rx_goodput_bytes() const { return rx_goodput_bytes_; }
  std::uint64_t rx_duplicate_packets() const { return rx_duplicates_; }
  std::uint64_t rx_out_of_order_packets() const { return rx_out_of_order_; }

  /// Per-path packet counts observed at this receiver — the path-level
  /// observability that RNIC-side spraying preserves and switch-side
  /// adaptive routing destroys (§7.1's monitoring argument). One entry per
  /// path that received at least one packet, ascending by path.
  std::map<std::uint16_t, std::uint64_t> rx_path_histogram() const;

  const std::vector<std::unique_ptr<RdmaConnection>>& connections() const {
    return connections_;
  }

  RdmaConnection* connection(std::uint64_t conn_id) const {
    auto it = by_id_.find(conn_id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  /// Checkpoint the engine's full guest-visible transport state (sender QPs
  /// incl. unacked packets and CC context, receiver PSN floors and partial
  /// messages, counters) into a deterministic byte-stable snapshot.
  /// Application callbacks (message handlers, completions, posted receive
  /// WRs) are never serialized: across a hot restart they stay live in
  /// place, across a migration the application re-registers them.
  /// STELLAR_CHECK-fails if a connection is under fluid service (hybrid
  /// fidelity): fluid progress is not in the snapshot, so the fabric must
  /// zoom to packet mode first.
  std::string save_state() const;

  /// Restore a snapshot produced by save_state(). Works on the engine that
  /// produced it (backend hot-upgrade: state rebuilt in place, pending
  /// timers re-armed) or on a freshly constructed engine for the same
  /// endpoint (live migration: connections are re-created from their
  /// serialized configs). In-flight packets of the old incarnation are
  /// recovered by the normal RTO/retransmit path.
  Status restore_state(const std::string& bytes);

  /// Backend hot-upgrade of this engine: snapshot, tear down the mutable
  /// runtime (timers, probes), reconstruct from the snapshot, verify the
  /// round trip re-serializes byte-identically, and resume. Message
  /// completion callbacks are preserved across the restart. With a hybrid
  /// driver attached it first drops the fabric to packet mode
  /// (HybridDriver::force_packet). Returns the snapshot taken, for
  /// digest/size reporting.
  StatusOr<std::string> hot_restart();
  std::uint64_t hot_restarts() const { return hot_restarts_; }

  /// Backend-restart blackout: for `window` of simulated time every
  /// arriving packet is dropped at the device (the old backend process is
  /// gone, the new one not yet attached). Unlike reset_device this does NOT
  /// error any QP — lost packets are recovered by RTO/retransmit.
  void quiesce(SimTime window);
  std::uint64_t quiesce_drops() const { return quiesce_drops_; }

  // -- FluidReceiver (hybrid fidelity) --------------------------------------

  /// See FluidDelivery. Ignored if the message already completed in packet
  /// mode (its ACKs were mid-flight at freeze); otherwise credits only the
  /// bytes not yet placed as goodput.
  void fluid_deliver(const FluidDelivery& delivery) override;
  /// Fluid deliveries dropped because the destination endpoint has no
  /// registered engine (the fluid analogue of dropped_no_handler).
  std::uint64_t fluid_undeliverable() const { return fluid_undeliverable_; }

 private:
  friend class RdmaConnection;
  friend class TransportAuditor;    // reads receiver PSN state for audits
  friend struct TransportTestPeer;  // corruption injection in audit tests

  // READ responses flow on a reverse connection whose id sets this bit.
  static constexpr std::uint64_t kReverseFlag = 1ull << 63;

  struct RxMessageState {
    std::uint64_t received = 0;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& m) {
      ar(m.received);
    }
  };

  // PSN tracking with a compacting floor: everything below the floor has
  // been received, only the (bounded, ~one window) set above it is stored,
  // as a bitmap (rnic/psn_window.h).
  struct RxState {
    ReceiveWindow psns;
    std::unordered_map<std::uint64_t, RxMessageState> messages;
    std::uint64_t highest_psn = 0;
    bool any = false;

    /// Fails a restore on a stored PSN below the floor.
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& st);
  };

  struct RecvQueue {
    std::deque<RecvHandler> posted;
    std::deque<RxMessage> unexpected;
  };


  /// Route a fluid delivery to the remote endpoint's engine.
  void fluid_deliver_remote(EndpointId remote, const FluidDelivery& delivery);

  void on_packet(NetPacket&& p);
  void handle_data(NetPacket&& p);
  /// Field list of the engine after its tag and endpoint id: counters, RX
  /// state and every sender QP.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& e);
  /// Deserialize engine + connection state from a whole snapshot (shared
  /// by restore_state and hot_restart). Does not touch application
  /// callbacks.
  Status restore_core(const std::string& bytes);
  /// The connection a snapshot's QP record restores into: the live one
  /// with its id (hot restart, rebuilt in place) or a new one (migration).
  /// Null, with `r` failed, if the record is not local to this endpoint.
  RdmaConnection* adopt_connection(SnapshotReader& r, std::uint64_t id,
                                   EndpointId local, EndpointId remote,
                                   const TransportConfig& config);
  void send_ack(const NetPacket& data);
  void deliver_message(const RxMessage& rx);
  void serve_read_request(const NetPacket& p);
  RdmaConnection& reverse_connection(std::uint64_t forward_id,
                                     EndpointId peer);

  Simulator* sim_;
  ClosFabric* fabric_;
  EndpointId self_;
  std::uint64_t next_conn_seq_ = 1;
  /// Config of auto-created READ responder connections. Always the default,
  /// but the engine snapshot writes it, so it stays in the snapshot bytes.
  TransportConfig default_config_;

  std::vector<std::unique_ptr<RdmaConnection>> connections_;
  std::unordered_map<std::uint64_t, RdmaConnection*> by_id_;
  std::unordered_map<std::uint64_t, RxState> rx_;
  // Receiver-side ledger of completed message ids per connection: a
  // compacting floor plus a bitmap (message ids are per-connection
  // monotonic and complete near-in-order, so an in-order completion only
  // moves the floor). READ requests are marked when served. Consulted by
  // fluid_deliver to suppress double delivery of a message that completed
  // in packet mode but whose ACKs were absorbed at freeze — the sender
  // re-serves its unacked bytes in fluid, and without the ledger the
  // receiver completion (and goodput) would fire twice. Maintained only
  // while a hybrid driver is attached.
  std::unordered_map<std::uint64_t, ReceiveWindow> rx_completed_;
  std::uint64_t fluid_undeliverable_ = 0;
  MessageHandler message_handler_;
  std::unordered_map<std::uint64_t, MessageHandler> conn_handlers_;
  std::unordered_map<std::uint64_t, RecvQueue> recv_queues_;

  // Requester-side pending READs: key = reverse conn id, tag = read id.
  struct PendingRead {
    RdmaConnection::Completion on_data;
  };
  std::unordered_map<std::uint64_t, PendingRead> pending_reads_;
  std::uint64_t next_read_id_ = 1;

  std::uint64_t rx_goodput_bytes_ = 0;
  std::uint64_t rx_duplicates_ = 0;
  std::uint64_t rx_out_of_order_ = 0;
  std::uint64_t unexpected_sends_ = 0;
  // Packets received per path, indexed by path id (zero: none yet).
  std::vector<std::uint64_t> rx_path_histogram_;

  // Device-reset fault window: packets arriving before reset_until_ are
  // discarded at the device (the fabric already counted them delivered).
  SimTime reset_until_ = SimTime::zero();
  std::uint64_t device_resets_ = 0;
  std::uint64_t reset_drops_ = 0;

  // Backend-restart blackout window (quiesce): drops without erroring QPs.
  SimTime quiesce_until_ = SimTime::zero();
  std::uint64_t quiesce_drops_ = 0;
  std::uint64_t hot_restarts_ = 0;
};

}  // namespace stellar
