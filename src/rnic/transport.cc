#include "rnic/transport.h"

#include <algorithm>
#include <utility>

#include "check/check.h"
#include "obs/obs.h"

namespace stellar {

// ---------------------------------------------------------------------------
// RdmaConnection (sender side)
// ---------------------------------------------------------------------------

RdmaConnection::RdmaConnection(RdmaEngine& engine, std::uint64_t id,
                               EndpointId local, EndpointId remote,
                               const TransportConfig& config)
    : engine_(engine),
      config_(config),
      id_(id),
      local_(local),
      remote_(remote),
      paced_(engine.simulator()),
      rto_timer_(engine.simulator(), [this] { on_rto_fire(); }) {
  rebuild_from_config();
  // Hybrid fidelity: connections created while a driver is attached are
  // fluid clients from birth — if the fabric is already in fluid mode the
  // driver freezes them immediately (a trivial freeze: nothing in flight).
  if (HybridDriver* driver = hybrid_driver()) {
    driver->register_client(this);
  }
}

RdmaConnection::~RdmaConnection() {
  if (HybridDriver* driver = hybrid_driver()) driver->unregister_client(this);
}

HybridDriver* RdmaConnection::hybrid_driver() const {
  return engine_.fabric_->hybrid_driver();
}

void RdmaConnection::rebuild_from_config() {
  selector_ = PathSelector::create(config_.algo, config_.num_paths,
                                   hash_combine(id_, 0xA11CE));
  // One context shared by every path, or — per-path CC — one per path,
  // splitting the silicon budget: each gets a 1/paths share of the window
  // resources (the §9 trade-off made concrete).
  CcConfig cc;
  std::size_t contexts = 1;
  if (config_.per_path_cc) {
    contexts = config_.num_paths;
    cc.init_window = std::max<std::uint64_t>(kMtu, kInitWindow / contexts);
    cc.max_window = std::max<std::uint64_t>(kMtu, kMaxWindow / contexts);
    cc.min_window = std::min(kMinWindow, cc.init_window);
  }
  cc_.clear();
  for (std::size_t c = 0; c < contexts; ++c) {
    cc_.push_back(make_congestion_control(config_.cc_algo, cc));
  }
  cc_inflight_.assign(contexts, 0);
}

std::uint64_t RdmaConnection::window() const {
  std::uint64_t total = 0;
  for (const auto& cc : cc_) total += cc->window();
  return total;
}

std::uint64_t RdmaConnection::enqueue_message(std::uint64_t bytes,
                                              PacketKind kind,
                                              std::uint32_t tag,
                                              Completion on_complete) {
  const std::uint64_t msg_id = next_msg_id_++;
  // A post to a dead QP is silently discarded (verbs semantics: the WR
  // completes with a flush error; on_error already told the application).
  if (error_) return msg_id;
  Message msg;
  msg.id = msg_id;
  msg.total = bytes;
  msg.tag = tag;
  msg.kind = kind;
  msg.posted_at = engine_.simulator().now();
  msg.on_complete = std::move(on_complete);
  STELLAR_TRACE_ONLY(obs::count("transport/messages_posted");
                     obs::count("transport/bytes_posted", bytes);)
  messages_.insert(msg_id, std::move(msg));
  unsent_queue_.push_back(msg_id);
  if (fluid_) {
    // Under fluid service no packet is built. A WRITE joins the flow's
    // analytic demand; anything else (SEND/READ) zooms the fabric back to
    // packet mode, which thaws this connection and re-runs send_more.
    if (kind == PacketKind::kWrite) {
      hybrid_driver()->on_fluid_post(this, bytes);
    } else {
      hybrid_driver()->on_ineligible_post(this);
    }
    return msg_id;
  }
  send_more();
  return msg_id;
}

std::uint64_t RdmaConnection::post_write(std::uint64_t bytes,
                                         Completion on_complete,
                                         std::uint32_t tag) {
  return enqueue_message(bytes, PacketKind::kWrite, tag,
                         std::move(on_complete));
}

std::uint64_t RdmaConnection::post_send(std::uint64_t bytes,
                                        Completion on_complete,
                                        std::uint32_t tag) {
  return enqueue_message(bytes, PacketKind::kSend, tag,
                         std::move(on_complete));
}

std::uint64_t RdmaConnection::post_read(std::uint64_t bytes,
                                        Completion on_data) {
  // The request is a small reliable control message; the tag carries the
  // read id the requester's engine uses to complete `on_data` when the
  // response lands. The responder reads the wanted length from msg_bytes.
  const std::uint64_t read_id = engine_.next_read_id_++;
  engine_.pending_reads_.emplace(read_id,
                                 RdmaEngine::PendingRead{std::move(on_data)});
  return enqueue_message(bytes, PacketKind::kReadRequest,
                         static_cast<std::uint32_t>(read_id), {});
}

std::uint16_t RdmaConnection::pick_path() {
  STELLAR_TRACE_ONLY(obs::count("multipath/picks");)
  const SimTime now = engine_.simulator().now();
  std::uint16_t path = selector_->pick_at(now);
  if (blacklisted_paths_ == 0) return path;
  // A blacklisted path stays out until a probe ACK (note_path_ack)
  // reinstates it.
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (!path_timeout_streak_[path].blacklisted) return path;
    STELLAR_TRACE_ONLY(obs::count("multipath/blacklist_skips");)
    path = selector_->pick_at(now);
  }
  return path;  // everything looks dead: send anyway, RTO will sort it out
}

RdmaConnection::PathStreak& RdmaConnection::streak(std::uint16_t path) {
  if (path >= path_timeout_streak_.size()) {
    path_timeout_streak_.resize(
        std::max<std::size_t>(path + std::size_t{1}, config_.num_paths));
  }
  PathStreak& s = path_timeout_streak_[path];
  s.seen = true;
  return s;
}

void RdmaConnection::note_path_timeout(std::uint16_t path) {
  selector_->on_timeout(path);
  PathStreak& s = streak(path);
  if (++s.count >= kBlacklistThreshold) {
    if (!s.blacklisted) {
      s.blacklisted = true;
      ++blacklisted_paths_;
    }
    STELLAR_TRACE_ONLY(
        obs::count("multipath/paths_blacklisted");
        obs::instant(obs::TraceCat::kTransport, "path_blacklisted",
                     engine_.simulator().now(),
                     obs::TraceArgs{"conn", static_cast<std::int64_t>(id_),
                                    "path", path});)
    schedule_probe(path, config_.blacklist_hold);
  }
}

void RdmaConnection::note_path_ack(std::uint16_t path) {
  PathStreak& s = streak(path);
  s.count = 0;
  if (!s.blacklisted) return;
  s.blacklisted = false;
  --blacklisted_paths_;
  ++paths_reinstated_;
  if (path < probe_timers_.size() && probe_timers_[path] != nullptr) {
    probe_timers_[path]->timer.disarm();
  }
}

RdmaConnection::ProbeTimer::ProbeTimer(RdmaConnection* c, std::uint16_t p)
    : conn(c),
      path(p),
      timer(c->engine_.simulator(), [this] { conn->send_probe(path); }) {}

void RdmaConnection::schedule_probe(std::uint16_t path, SimTime delay) {
  if (error_) return;
  if (probe_timers_.empty()) probe_timers_.resize(config_.num_paths);
  std::unique_ptr<ProbeTimer>& probe = probe_timers_[path];
  if (probe == nullptr) probe = std::make_unique<ProbeTimer>(this, path);
  if (probe->timer.armed()) return;  // one in flight per path
  probe->timer.arm(engine_.simulator().now() + delay);
}

void RdmaConnection::send_probe(std::uint16_t path) {
  if (error_ || !path_timeout_streak_[path].blacklisted) return;
  // Dormant while idle: no work pending means nothing re-arms the probe, so
  // the simulator can drain. kick_probes() restarts it on the next post.
  if (idle()) return;
  ++probes_sent_;

  NetPacket p;
  p.kind = PacketKind::kWrite;
  p.is_probe = true;
  p.conn_id = id_;
  p.psn = next_probe_seq_++;  // own sequence space; never hits RxState
  p.payload = 0;
  p.header = 64 + config_.extra_header_bytes;
  p.src = local_;
  p.dst = remote_;
  p.path_id = path;
  STELLAR_CHECK_OK(engine_.fabric().send(std::move(p)),
                   "probe transmit rejected by fabric");
  schedule_probe(path, config_.probe_interval);
}

void RdmaConnection::kick_probes() {
  // Ascending path order: probe events take their sequence numbers here.
  for (std::size_t path = 0; path < path_timeout_streak_.size(); ++path) {
    if (path_timeout_streak_[path].blacklisted) {
      schedule_probe(static_cast<std::uint16_t>(path), config_.probe_interval);
    }
  }
}

void RdmaConnection::send_more() {
  while (!unsent_queue_.empty()) {
    Message& msg = messages_.at(unsent_queue_.front());
    const std::uint64_t remaining = msg.total - msg.sent;
    // READ requests ride as one small control packet regardless of the
    // requested length.
    const auto chunk = msg.kind == PacketKind::kReadRequest
                           ? 64u
                           : static_cast<std::uint32_t>(
                                 std::min<std::uint64_t>(kMtu, remaining));
    const std::uint16_t path = pick_path();
    if (!admit(path)) break;

    Outstanding meta;
    meta.bytes = chunk;
    meta.path = path;
    meta.sent_at = engine_.simulator().now();
    meta.msg_id = msg.id;
    meta.msg_offset = msg.sent;
    meta.msg_total = msg.total;
    meta.msg_tag = msg.tag;
    meta.kind = msg.kind;

    const std::uint64_t psn = next_psn_++;
    outstanding_.insert(psn, meta);
    inflight_bytes_ += chunk;
    cc_inflight_[ctx(path)] += chunk;
    msg.sent = msg.kind == PacketKind::kReadRequest ? msg.total
                                                    : msg.sent + chunk;
    if (msg.sent >= msg.total) unsent_queue_.pop_front();

    transmit(psn, meta);
  }
  arm_rto();
  // Work is pending again: wake the dormant blacklist probes.
  if (blacklisted_paths_ != 0 && !idle()) kick_probes();
}

void RdmaConnection::transmit(std::uint64_t psn, const Outstanding& meta) {
  NetPacket p;
  p.kind = meta.kind;
  p.conn_id = id_;
  p.psn = psn;
  p.payload = meta.bytes;
  p.header = 64 + config_.extra_header_bytes;
  p.msg_id = meta.msg_id;
  p.msg_bytes = meta.msg_total;
  p.msg_offset = meta.msg_offset;
  p.msg_tag = meta.msg_tag;
  p.src = local_;
  p.dst = remote_;
  p.path_id = meta.path;
  ++packets_sent_;
  STELLAR_TRACE_ONLY(obs::count("transport/packets_sent");)

  // Stack processing before the wire: a fixed per-packet delay plus the
  // encap engine's sustained-rate pacing (Figure 13's VF+VxLAN tax).
  SimTime depart = engine_.simulator().now() + config_.per_packet_overhead;
  if (config_.stack_rate_cap.bps() > 0) {
    if (stack_next_free_ > depart) depart = stack_next_free_;
    stack_next_free_ =
        depart + config_.stack_rate_cap.transmit_time(p.wire_bytes());
  }
  if (depart > engine_.simulator().now()) {
    paced_.schedule_at(depart, [this, p = std::move(p)]() mutable {
      STELLAR_CHECK_OK(engine_.fabric().send(std::move(p)),
                       "delayed data transmit rejected by fabric");
    });
    return;
  }
  STELLAR_CHECK_OK(engine_.fabric().send(std::move(p)),
                   "data transmit rejected by fabric");
}

void RdmaConnection::handle_ack(const NetPacket& ack) {
  if (error_) return;  // flushed QP: late ACKs are meaningless
  if (ack.is_probe) {
    ++probes_acked_;
    note_path_ack(ack.path_id);
    send_more();  // the reinstated path may unblock stalled work
    return;
  }
  const Outstanding* live = outstanding_.find(ack.ack_psn);
  if (live == nullptr) return;  // ack for a superseded copy
  const Outstanding meta = *live;
  outstanding_.erase(ack.ack_psn);

  const SimTime rtt = engine_.simulator().now() - meta.sent_at;
  STELLAR_TRACE_ONLY(obs::count("transport/acks");
                     obs::record_time("transport/rtt_ps", rtt);)
  const std::size_t c = ctx(meta.path);
  cc_[c]->on_ack(meta.bytes, ack.ecn_echo, rtt);
  selector_->on_ack(meta.path, rtt, ack.ecn_echo);
  note_path_ack(meta.path);
  inflight_bytes_ -= meta.bytes;
  cc_inflight_[c] -= meta.bytes;

  if (Message* msg = messages_.find(meta.msg_id)) {
    msg->acked += meta.kind == PacketKind::kReadRequest ? msg->total
                                                        : meta.bytes;
    if (msg->acked >= msg->total) complete_message(*msg);
  }

  send_more();  // re-arms the RTO once the freed window is refilled
}

void RdmaConnection::complete_message(Message& msg) {
  completed_bytes_ += msg.total;
  ++completed_messages_;
  STELLAR_TRACE_ONLY(
      const SimTime now = engine_.simulator().now();
      obs::count("transport/messages_completed");
      obs::record_time("transport/msg_latency_ps", now - msg.posted_at);
      obs::complete(obs::TraceCat::kTransport, "message", msg.posted_at,
                    now - msg.posted_at,
                    obs::TraceArgs{
                        "conn", static_cast<std::int64_t>(id_), "msg",
                        static_cast<std::int64_t>(msg.id), "bytes",
                        static_cast<std::int64_t>(msg.total)});)
  Completion cb = std::move(msg.on_complete);
  messages_.erase(msg.id);  // msg's slot is free for the callback's posts
  if (cb) cb();
}

void RdmaConnection::arm_rto() {
  if (outstanding_.empty()) {
    rto_timer_.disarm();
    return;
  }
  // A seq per call keeps the RTO where a re-arm on every call would put it
  // in the (time, seq) order. An armed timer is never late (the oldest
  // unacked send only gets younger), so it is left where it is.
  Simulator& sim = engine_.simulator();
  rto_seq_ = sim.reserve_seq();
  rto_floor_ = sim.now();
  if (!rto_timer_.armed()) arm_rto_timer();
}

void RdmaConnection::arm_rto_timer() {
  SimTime oldest = SimTime::max();
  for (const auto& [psn, meta] : outstanding_) {
    oldest = std::min(oldest, meta.sent_at);
  }
  rto_deadline_ = std::max(oldest + config_.rto, rto_floor_);
  rto_armed_seq_ = rto_seq_;
  rto_timer_.arm(rto_deadline_, rto_seq_);
}

void RdmaConnection::on_rto_fire() {
  // Fired early: arm_rto() ran since the timer was armed, so the RTO is due
  // at the current deadline under rto_seq_.
  if (rto_armed_seq_ != rto_seq_) {
    arm_rto_timer();
    return;
  }
  const SimTime now = engine_.simulator().now();
  bool fired = false;
  bool exhausted = false;
  for (auto [psn, meta] : outstanding_) {  // meta refers into the window
    if (now - meta.sent_at < config_.rto) continue;
    if (meta.retries >= config_.max_retries) {
      // Retry budget exhausted: the peer (or every path to it) is gone.
      // Move the QP to error instead of spinning the RTO forever.
      exhausted = true;
      break;
    }
    ++meta.retries;
    // Retransmit on a *different* path: the paper's instant-failover trick —
    // a broken link only costs one RTO before traffic routes around it. The
    // loss is a failure, not congestion: no window is cut.
    note_path_timeout(meta.path);
    cc_inflight_[ctx(meta.path)] -= meta.bytes;
    meta.path = pick_path();
    cc_inflight_[ctx(meta.path)] += meta.bytes;
    meta.sent_at = now;
    ++retransmits_;
    STELLAR_TRACE_ONLY(obs::count("transport/retransmits");)
    fired = true;
    transmit(psn, meta);
  }
  if (exhausted) {
    enter_error(unavailable(
        "RdmaConnection: retry budget exhausted (peer or all paths dead)"));
    return;
  }
  if (fired) {
    ++timeouts_;
    STELLAR_TRACE_ONLY(
        obs::count("transport/rto_fires");
        obs::instant(obs::TraceCat::kTransport, "rto_fire", now,
                     obs::TraceArgs{"conn", static_cast<std::int64_t>(id_)});)
  }
  arm_rto();
}

void RdmaConnection::enter_error(Status reason) {
  if (error_) return;  // terminal: first cause wins
  error_ = true;
  error_status_ = std::move(reason);
  STELLAR_TRACE_ONLY(
      obs::count("transport/qp_errors");
      obs::instant(obs::TraceCat::kTransport, "qp_error",
                   engine_.simulator().now(),
                   obs::TraceArgs{"conn", static_cast<std::int64_t>(id_)});)

  // Flush all state; pending messages never complete (QP error) — the
  // on_error callback is the failure signal that replaces them.
  outstanding_.clear();
  inflight_bytes_ = 0;
  std::fill(cc_inflight_.begin(), cc_inflight_.end(), 0);
  unsent_queue_.clear();
  messages_.clear();
  cancel_timers();

  // A frozen QP dying takes its flow out of the solver; the driver never
  // re-freezes it (dead clients are skipped at every future freeze).
  if (fluid_) {
    fluid_ = false;
    if (HybridDriver* driver = hybrid_driver()) driver->on_client_error(this);
  }

  // Exactly-once: move the handler out before invoking, so a re-entrant
  // enter_error (or a later set_on_error) can never fire it a second time.
  if (on_error_) {
    ErrorHandler h = std::move(on_error_);
    on_error_ = {};
    h(error_status_);
  }
}

// ---------------------------------------------------------------------------
// RdmaConnection: FluidClient (hybrid fidelity)
// ---------------------------------------------------------------------------

bool RdmaConnection::fluid_eligible() const {
  if (error_) return false;
  for (const auto& [id, msg] : messages_) {
    if (msg.kind != PacketKind::kWrite) return false;
  }
  return true;
}

FluidFlowDesc RdmaConnection::fluid_freeze() {
  // No packets exist under fluid service: nothing can time out, so timers
  // and probes go quiet.
  cancel_timers();

  // Rewind unacked wire bytes into unsent demand. The packets the links
  // absorbed carried exactly the bytes in [acked, sent) of each message;
  // those bytes continue as fluid flow state, so the conversion is
  // loss-free and the conservation ledger closes (absorbed is a terminal
  // packet outcome, the payload lives on in the flow).
  outstanding_.clear();
  inflight_bytes_ = 0;
  std::fill(cc_inflight_.begin(), cc_inflight_.end(), 0);
  unsent_queue_.clear();
  FluidFlowDesc desc;
  // Every queued message is an unfinished WRITE (the driver freezes only
  // eligible connections), a zero-length one in flight included.
  for (auto [msg_id, msg] : messages_) {  // ascending id
    msg.sent = msg.acked;
    unsent_queue_.push_back(msg_id);
    desc.remaining += msg.total - msg.acked;
  }
  desc.messages = unsent_queue_.size();
  fluid_ = true;

  // Footprint on the link graph: the selector's long-run path weights
  // mapped over each path's route, links merged in first-encounter order
  // so the share vector is identical run to run (never pointer order).
  std::vector<double> weights;
  selector_->fluid_path_weights(weights);
  engine_.fabric().fluid_footprint(local_, remote_, id_, weights,
                                   desc.shares);
  return desc;
}

void RdmaConnection::fluid_thaw(double rate_bytes_per_sec) {
  fluid_ = false;
  if (error_) return;
  // Sync fluid-served prefixes to the receiver. Bytes served under fluid
  // never travel as packets, so a message that straddles the epoch would
  // otherwise stall at the receiver: its packet-mode tail alone can never
  // reach msg_bytes, and both the completion and the goodput would vanish.
  for (std::size_t i = 0; i < unsent_queue_.size(); ++i) {
    const Message& msg = messages_.at(unsent_queue_[i]);
    if (msg.acked == 0) continue;
    engine_.fluid_deliver_remote(
        remote_,
        FluidDelivery{id_, msg.id, msg.acked, msg.total, msg.tag, local_});
  }
  if (rate_bytes_per_sec > 0.0) {
    // Seed the window at the fluid operating point: rate * base RTT is the
    // BDP of the assigned max-min share; twice that leaves the bottleneck
    // queue (not the window) pacing the first RTTs while CC re-converges.
    const auto seed = static_cast<std::uint64_t>(
        rate_bytes_per_sec * kBaseRtt.sec() * 2.0);
    for (auto& cc : cc_) cc->seed_window(seed / cc_.size());
  }
  send_more();
}

FluidServe RdmaConnection::fluid_serve(std::uint64_t bytes) {
  std::uint64_t served = 0;
  while (!unsent_queue_.empty()) {
    Message& msg = messages_.at(unsent_queue_.front());
    // A non-WRITE at the head means a zoom is already pending for the
    // fabric (on_ineligible_post); stop serving at the boundary.
    if (msg.kind != PacketKind::kWrite) break;
    const std::uint64_t take =
        std::min(msg.total - msg.acked, bytes - served);
    // Out of budget — but a zero-length WRITE the serve reached needs no
    // bytes and completes too, or it would leave the flow with demand and
    // no next completion.
    if (take == 0 && msg.acked < msg.total) break;
    msg.acked += take;
    msg.sent = msg.acked;  // nothing is ever in flight under fluid
    served += take;
    if (msg.acked >= msg.total) {
      unsent_queue_.pop_front();
      // Receiver first, then the sender completion — the order packet
      // mode produces (the final ACK departs after the final payload).
      const std::uint64_t msg_id = msg.id;
      engine_.fluid_deliver_remote(
          remote_,
          FluidDelivery{id_, msg_id, msg.total, msg.total, msg.tag, local_});
      // The receiver's handlers may have posted here (a post can move the
      // table's slab) or errored the QP (which drops the message).
      if (Message* done = messages_.find(msg_id)) complete_message(*done);
    }
  }
  // The head now, after any posts the completion callbacks made.
  return FluidServe{served, head_completion_bytes()};
}

std::uint64_t RdmaConnection::fluid_next_completion_bytes() const {
  return head_completion_bytes();
}

std::uint64_t RdmaConnection::head_completion_bytes() const {
  if (unsent_queue_.empty()) return 0;
  const Message& msg = messages_.at(unsent_queue_.front());
  if (msg.kind != PacketKind::kWrite) return 0;
  return msg.total - msg.acked;
}

// ---------------------------------------------------------------------------
// RdmaEngine
// ---------------------------------------------------------------------------

RdmaEngine::RdmaEngine(Simulator& sim, ClosFabric& fabric, EndpointId self)
    : sim_(&sim), fabric_(&fabric), self_(self) {
  fabric_->set_handler(self_, [this](NetPacket&& p) { on_packet(std::move(p)); });
  if (HybridDriver* driver = fabric_->hybrid_driver()) {
    driver->register_receiver(self_, this);
  }
}

RdmaEngine::~RdmaEngine() {
  // The connections' dtors (members, destroyed after this body) also talk
  // to the driver, so a driver attached at construction must still be
  // attached here — benches create the HybridDriver before any engine and
  // destroy it after them.
  if (HybridDriver* driver = fabric_->hybrid_driver()) {
    driver->unregister_receiver(self_);
  }
}

StatusOr<RdmaConnection*> RdmaEngine::connect(EndpointId remote,
                                              const TransportConfig& config) {
  if (remote == self_) {
    return invalid_argument("RdmaEngine::connect: self-connection");
  }
  if (remote >= fabric_->endpoint_count()) {
    return invalid_argument("RdmaEngine::connect: no such endpoint");
  }
  const std::uint64_t id = (static_cast<std::uint64_t>(self_) << 24) |
                           next_conn_seq_++;
  auto conn = std::unique_ptr<RdmaConnection>(
      new RdmaConnection(*this, id, self_, remote, config));
  RdmaConnection* raw = conn.get();
  connections_.push_back(std::move(conn));
  by_id_.emplace(id, raw);
  return raw;
}

RdmaConnection& RdmaEngine::reverse_connection(std::uint64_t forward_id,
                                               EndpointId peer) {
  const std::uint64_t id = forward_id | kReverseFlag;
  auto it = by_id_.find(id);
  if (it != by_id_.end()) return *it->second;
  auto conn = std::unique_ptr<RdmaConnection>(
      new RdmaConnection(*this, id, self_, peer, default_config_));
  RdmaConnection* raw = conn.get();
  connections_.push_back(std::move(conn));
  by_id_.emplace(id, raw);
  return *raw;
}

void RdmaEngine::reset_device(SimTime down_for) {
  ++device_resets_;
  const SimTime until = sim_->now() + down_for;
  if (until > reset_until_) reset_until_ = until;
  // A function-level reset tears down every QP: each connection moves to
  // the error state and tells its application via on_error.
  for (auto& conn : connections_) {
    conn->enter_error(unavailable("RdmaEngine: device reset"));
  }
}

std::map<std::uint16_t, std::uint64_t> RdmaEngine::rx_path_histogram() const {
  std::map<std::uint16_t, std::uint64_t> out;
  for (std::size_t path = 0; path < rx_path_histogram_.size(); ++path) {
    if (rx_path_histogram_[path] != 0) {
      out.emplace(static_cast<std::uint16_t>(path), rx_path_histogram_[path]);
    }
  }
  return out;
}

void RdmaEngine::post_recv(std::uint64_t conn_id, RecvHandler on_recv) {
  RecvQueue& q = recv_queues_[conn_id];
  if (!q.unexpected.empty()) {
    const RxMessage rx = q.unexpected.front();
    q.unexpected.pop_front();
    if (on_recv) on_recv(rx);
    return;
  }
  q.posted.push_back(std::move(on_recv));
}

std::size_t RdmaEngine::pending_recvs(std::uint64_t conn_id) const {
  auto it = recv_queues_.find(conn_id);
  return it == recv_queues_.end() ? 0 : it->second.posted.size();
}

void RdmaEngine::on_packet(NetPacket&& p) {
  if (sim_->now() < quiesce_until_) {
    // Backend restart blackout: the old backend process is gone and the new
    // one has not attached yet, so the device has nobody to hand packets
    // to. Unlike a reset this does not error any QP — the sender's
    // RTO/retransmit path recovers the loss once the new backend is up.
    ++quiesce_drops_;
    return;
  }
  if (sim_->now() < reset_until_) {
    // Device mid-reset: the function drops everything on the floor. The
    // fabric already counted the packet delivered, so conservation holds.
    ++reset_drops_;
    return;
  }
  if (p.is_ack) {
    auto it = by_id_.find(p.conn_id);
    if (it != by_id_.end()) it->second->handle_ack(p);
    return;
  }
  handle_data(std::move(p));
}

void RdmaEngine::handle_data(NetPacket&& p) {
  if (p.is_probe) {
    // Blacklist-reinstatement probe: ACK it straight back on the same path.
    // Probes ride their own sequence space and must not touch RxState.
    send_ack(p);
    return;
  }
  RxState& state = rx_[p.conn_id];

  const bool fresh = state.psns.record(p.psn);
  if (!fresh) {
    ++rx_duplicates_;
    STELLAR_TRACE_ONLY(obs::count("transport/rx_duplicates");)
    send_ack(p);  // the earlier ACK may have been lost; re-ack
    return;
  }
  if (state.any && p.psn < state.highest_psn) {
    // Direct Packet Placement: the packet is placed at msg_offset without
    // buffering; we only count it as out-of-order for telemetry.
    ++rx_out_of_order_;
    STELLAR_TRACE_ONLY(
        obs::count("transport/rx_out_of_order");
        obs::record("transport/ooo_depth", state.highest_psn - p.psn);)
  }
  state.highest_psn = std::max(state.highest_psn, p.psn);
  state.any = true;
  if (p.path_id >= rx_path_histogram_.size()) {
    rx_path_histogram_.resize(p.path_id + std::size_t{1});
  }
  ++rx_path_histogram_[p.path_id];

  if (p.kind == PacketKind::kReadRequest) {
    send_ack(p);
    // A served request is a completed message: without the mark the
    // ledger's floor would stop at its id for the rest of the run. No fluid
    // delivery asks about it (READs are never fluid-served).
    if (fabric_->hybrid_driver() != nullptr) {
      rx_completed_[p.conn_id].record(p.msg_id);
    }
    serve_read_request(p);
    return;
  }

  if (fabric_->hybrid_driver() != nullptr) {
    auto done = rx_completed_.find(p.conn_id);
    if (done != rx_completed_.end() && done->second.contains(p.msg_id)) {
      // The message already completed via a fluid delivery and the sender
      // re-sent part of it after a thaw: a duplicate at message
      // granularity. ACK it (the sender still needs to retire its copy)
      // without re-crediting goodput or re-creating reassembly state.
      ++rx_duplicates_;
      STELLAR_TRACE_ONLY(obs::count("transport/rx_duplicates");)
      send_ack(p);
      return;
    }
  }

  rx_goodput_bytes_ += p.payload;
  STELLAR_TRACE_ONLY(obs::count("transport/rx_goodput_bytes", p.payload);)
  RxMessageState& msg = state.messages[p.msg_id];
  msg.received += p.payload;
  const bool complete = msg.received >= p.msg_bytes;

  send_ack(p);

  if (complete) {
    state.messages.erase(p.msg_id);
    if (fabric_->hybrid_driver() != nullptr) {
      // Ledger for cross-mode double-delivery suppression: if this
      // message's ACKs are absorbed at a future freeze, the sender's fluid
      // re-serve must not complete it at the receiver a second time.
      rx_completed_[p.conn_id].record(p.msg_id);
    }
    deliver_message(
        RxMessage{p.conn_id, p.msg_id, p.msg_bytes, p.msg_tag, p.src, p.kind});
  }
}

void RdmaEngine::deliver_message(const RxMessage& rx) {
  // READ response landing back at the requester?
  if ((rx.conn_id & kReverseFlag) != 0) {
    auto pending = pending_reads_.find(rx.tag);
    if (pending != pending_reads_.end()) {
      auto cb = std::move(pending->second.on_data);
      pending_reads_.erase(pending);
      if (cb) cb();
      return;
    }
  }

  if (rx.kind == PacketKind::kSend) {
    RecvQueue& q = recv_queues_[rx.conn_id];
    if (!q.posted.empty()) {
      RecvHandler h = std::move(q.posted.front());
      q.posted.pop_front();
      if (h) h(rx);
    } else {
      ++unexpected_sends_;
      q.unexpected.push_back(rx);
    }
    return;
  }

  auto it = conn_handlers_.find(rx.conn_id);
  if (it != conn_handlers_.end()) {
    it->second(rx);
  } else if (message_handler_) {
    message_handler_(rx);
  }
}

void RdmaEngine::fluid_deliver_remote(EndpointId remote,
                                      const FluidDelivery& delivery) {
  HybridDriver* driver = fabric_->hybrid_driver();
  FluidReceiver* rx = driver == nullptr ? nullptr : driver->receiver(remote);
  if (rx == nullptr) {
    // Fluid analogue of the fabric's dropped_no_handler: the destination
    // endpoint never attached an engine.
    ++fluid_undeliverable_;
    return;
  }
  rx->fluid_deliver(delivery);
}

void RdmaEngine::fluid_deliver(const FluidDelivery& delivery) {
  ReceiveWindow& ledger = rx_completed_[delivery.conn_id];
  if (ledger.contains(delivery.msg_id)) {
    // Completed in packet mode before the freeze (its ACKs were absorbed
    // mid-flight); the fluid re-serve is the duplicate, not the original.
    return;
  }
  const bool whole = delivery.bytes >= delivery.total;
  // Reassembly state: a partial delivery keeps (or creates) it for the
  // packet-mode tail; a whole one retires whatever packet mode placed.
  RxMessageState* state = nullptr;
  if (!whole) {
    state = &rx_[delivery.conn_id].messages[delivery.msg_id];
  } else if (auto rx_it = rx_.find(delivery.conn_id); rx_it != rx_.end()) {
    auto partial = rx_it->second.messages.find(delivery.msg_id);
    if (partial != rx_it->second.messages.end()) state = &partial->second;
  }
  const std::uint64_t already = state == nullptr ? 0 : state->received;
  if (!whole && delivery.bytes <= already) return;  // receiver is ahead
  // Goodput compensation: credit only the bytes packet mode had not placed.
  const std::uint64_t fresh =
      delivery.bytes > already ? delivery.bytes - already : 0;
  rx_goodput_bytes_ += fresh;
  STELLAR_TRACE_ONLY(obs::count("transport/rx_goodput_bytes", fresh);)
  if (!whole) {
    state->received = delivery.bytes;
    return;
  }
  if (state != nullptr) rx_[delivery.conn_id].messages.erase(delivery.msg_id);
  ledger.record(delivery.msg_id);
  deliver_message(RxMessage{delivery.conn_id, delivery.msg_id, delivery.bytes,
                            delivery.tag, delivery.src, PacketKind::kWrite});
}

void RdmaEngine::serve_read_request(const NetPacket& p) {
  // Respond with a WRITE-like stream on the reverse connection; the tag
  // routes the data back to the requester's pending read.
  RdmaConnection& reverse = reverse_connection(p.conn_id, p.src);
  reverse.post_write(p.msg_bytes, {}, p.msg_tag);
}

void RdmaEngine::send_ack(const NetPacket& data) {
  NetPacket ack;
  ack.conn_id = data.conn_id;
  ack.is_ack = true;
  ack.ack_psn = data.psn;
  ack.ecn_echo = data.ecn_marked;
  ack.is_probe = data.is_probe;
  ack.payload = 0;
  ack.header = 64;
  ack.src = self_;
  ack.dst = data.src;
  ack.path_id = data.path_id;  // reverse traffic reuses the path index
  STELLAR_CHECK_OK(fabric_->send(std::move(ack)),
                   "ACK transmit rejected by fabric");
}

}  // namespace stellar
