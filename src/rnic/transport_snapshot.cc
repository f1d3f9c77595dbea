// Checkpoint/restore of the transport layer — the RNIC half of the
// vStellar control-plane robustness story.
//
// save_state() walks every sender QP (config, PSN space, unacked packets,
// queued messages, CC context, path blacklists) and the receiver state
// (PSN floors, partial messages) into the deterministic snapshot encoding
// of common/snapshot.h. Unordered containers are emitted in sorted key
// order so the bytes are identical across runs and across a
// serialize -> restore -> serialize round trip.
//
// Two consumers:
//  - hot_restart(): backend hot-upgrade. State is rebuilt *in place* on the
//    same engine object (auditors and fault injectors hold raw pointers to
//    it — the real system keeps guest/hardware state while the backend
//    process is replaced). Message completion callbacks are harvested and
//    re-attached; the round trip is verified byte-identical.
//  - restore_state() on a fresh engine: live migration. Connections are
//    re-created from their serialized configs; application callbacks start
//    empty and the runtime re-registers them.

#include <algorithm>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/ordered.h"
#include "rnic/transport.h"

namespace stellar {

namespace {

constexpr std::uint32_t kEngineTag = snapshot_tag('R', 'E', 'N', 'G');
constexpr std::uint32_t kConnTag = snapshot_tag('C', 'O', 'N', 'N');
constexpr std::uint32_t kRxTag = snapshot_tag('R', 'X', 'S', 'T');

void write_cc_config(SnapshotWriter& w, const CcConfig& cc) {
  w.u32(cc.mtu);
  w.u64(cc.init_window);
  w.u64(cc.min_window);
  w.u64(cc.max_window);
  w.f64(cc.ecn_gain);
  w.time(cc.base_rtt);
  w.f64(cc.rtt_high_factor);
  w.f64(cc.rtt_backoff);
}

CcConfig read_cc_config(SnapshotReader& r) {
  CcConfig cc;
  cc.mtu = r.u32();
  cc.init_window = r.u64();
  cc.min_window = r.u64();
  cc.max_window = r.u64();
  cc.ecn_gain = r.f64();
  cc.base_rtt = r.time();
  cc.rtt_high_factor = r.f64();
  cc.rtt_backoff = r.f64();
  return cc;
}

void write_config(SnapshotWriter& w, const TransportConfig& c) {
  w.u32(c.mtu);
  w.u16(c.num_paths);
  w.u8(static_cast<std::uint8_t>(c.algo));
  w.time(c.rto);
  write_cc_config(w, c.cc);
  w.u8(static_cast<std::uint8_t>(c.cc_algo));
  w.u32(c.extra_header_bytes);
  w.time(c.per_packet_overhead);
  w.i64(c.stack_rate_cap.bps());
  w.u32(c.max_retries);
  w.time(c.blacklist_hold);
  w.time(c.probe_interval);
  w.b(c.per_path_cc);
  w.u32(c.tenant);
}

TransportConfig read_config(SnapshotReader& r) {
  TransportConfig c;
  c.mtu = r.u32();
  c.num_paths = r.u16();
  c.algo = static_cast<MultipathAlgo>(r.u8());
  c.rto = r.time();
  c.cc = read_cc_config(r);
  c.cc_algo = static_cast<CcAlgo>(r.u8());
  c.extra_header_bytes = r.u32();
  c.per_packet_overhead = r.time();
  c.stack_rate_cap = Bandwidth::bits_per_sec(r.i64());
  c.max_retries = r.u32();
  c.blacklist_hold = r.time();
  c.probe_interval = r.time();
  c.per_path_cc = r.b();
  c.tenant = r.u32();
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// RdmaConnection
// ---------------------------------------------------------------------------

void RdmaConnection::save_state(SnapshotWriter& w) const {
  w.section(kConnTag);
  w.u64(id_);
  w.u32(local_);
  w.u32(remote_);
  write_config(w, config_);

  w.u64(next_psn_);
  w.u64(next_msg_id_);
  w.u64(inflight_bytes_);
  w.time(stack_next_free_);
  w.u64(next_probe_seq_);

  w.u64(completed_messages_);
  w.u64(completed_bytes_);
  w.u64(retransmits_);
  w.u64(timeouts_);
  w.u64(packets_sent_);
  w.u64(probes_sent_);
  w.u64(probes_acked_);
  w.u64(paths_reinstated_);

  w.b(error_);
  w.u8(static_cast<std::uint8_t>(error_status_.code()));
  w.str(error_status_.message());

  w.u32(static_cast<std::uint32_t>(unsent_queue_.size()));
  for (std::size_t i = 0; i < unsent_queue_.size(); ++i) {
    w.u64(unsent_queue_[i]);
  }

  // Messages in ascending id order (the table iterates so). Completion
  // callbacks are deliberately absent — see the class comment.
  w.u32(static_cast<std::uint32_t>(messages_.size()));
  for (const auto& [id, m] : messages_) {
    w.u64(m.id);
    w.u64(m.total);
    w.u64(m.sent);
    w.u64(m.acked);
    w.u32(m.tag);
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.time(m.posted_at);
  }

  // outstanding_ iterates in PSN order: already deterministic.
  w.u32(static_cast<std::uint32_t>(outstanding_.size()));
  for (const auto& [psn, o] : outstanding_) {
    w.u64(psn);
    w.u32(o.bytes);
    w.u16(o.path);
    w.time(o.sent_at);
    w.u64(o.msg_id);
    w.u64(o.msg_offset);
    w.u64(o.msg_total);
    w.u32(o.msg_tag);
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.u32(o.retries);
  }

  // Every path the streak logic touched, ascending — including the ones
  // whose streak an ACK reset to zero.
  std::uint32_t n_streak = 0;
  for (const PathStreak& s : path_timeout_streak_) n_streak += s.seen ? 1 : 0;
  w.u32(n_streak);
  for (std::size_t path = 0; path < path_timeout_streak_.size(); ++path) {
    if (!path_timeout_streak_[path].seen) continue;
    w.u16(static_cast<std::uint16_t>(path));
    w.u32(path_timeout_streak_[path].count);
  }
  w.u32(static_cast<std::uint32_t>(blacklisted_paths_));
  for (std::size_t path = 0; path < path_timeout_streak_.size(); ++path) {
    if (path_timeout_streak_[path].blacklisted) {
      w.u16(static_cast<std::uint16_t>(path));
    }
  }

  // The CC contexts; their inflight counts are rebuilt from the unacked
  // packets on restore.
  for (const auto& cc : cc_) cc->save(w);
}

Status RdmaConnection::restore_state(SnapshotReader& r) {
  // Caller (the engine) already consumed the section tag, id, local, remote
  // and the config, and guaranteed this object matches them. A snapshot is
  // never taken under fluid service (save_state traps); a flow's fluid
  // demand lives in the hybrid driver, which takes it from the next freeze.
  STELLAR_DCHECK(!fluid_, "restoring a connection under fluid service");
  const auto bad_path = [this](std::uint16_t path) {
    return invalid_argument("RdmaEngine::restore: connection " +
                            std::to_string(id_) + " names path " +
                            std::to_string(path) + " of " +
                            std::to_string(config_.num_paths));
  };
  next_psn_ = r.u64();
  next_msg_id_ = r.u64();
  inflight_bytes_ = r.u64();
  stack_next_free_ = r.time();
  next_probe_seq_ = r.u64();

  completed_messages_ = r.u64();
  completed_bytes_ = r.u64();
  retransmits_ = r.u64();
  timeouts_ = r.u64();
  packets_sent_ = r.u64();
  probes_sent_ = r.u64();
  probes_acked_ = r.u64();
  paths_reinstated_ = r.u64();

  error_ = r.b();
  const auto code = static_cast<StatusCode>(r.u8());
  std::string msg = r.str();
  error_status_ = error_ ? Status(code, std::move(msg)) : Status::ok();

  unsent_queue_.clear();
  const std::uint32_t unsent = r.u32();
  for (std::uint32_t i = 0; i < unsent; ++i) unsent_queue_.push_back(r.u64());

  messages_.clear();
  const std::uint32_t n_msgs = r.u32();
  for (std::uint32_t i = 0; i < n_msgs; ++i) {
    Message m;
    m.id = r.u64();
    m.total = r.u64();
    m.sent = r.u64();
    m.acked = r.u64();
    m.tag = r.u32();
    m.kind = static_cast<PacketKind>(r.u8());
    m.posted_at = r.time();
    if (!r.ok()) break;  // truncated: restore_core reports it
    messages_.insert(m.id, std::move(m));
  }

  outstanding_.clear();
  const std::uint32_t n_out = r.u32();
  for (std::uint32_t i = 0; i < n_out; ++i) {
    const std::uint64_t psn = r.u64();
    Outstanding o;
    o.bytes = r.u32();
    o.path = r.u16();
    o.sent_at = r.time();
    o.msg_id = r.u64();
    o.msg_offset = r.u64();
    o.msg_total = r.u64();
    o.msg_tag = r.u32();
    o.kind = static_cast<PacketKind>(r.u8());
    o.retries = r.u32();
    if (!r.ok()) break;  // truncated: restore_core reports it
    if (o.path >= config_.num_paths) return bad_path(o.path);
    outstanding_.insert(psn, o);
  }
  // The snapshot holds PSN order; a retransmitted low PSN can be newer than
  // higher ones, so the send FIFO is re-sorted by send time.
  rebuild_send_fifo();

  path_timeout_streak_.clear();
  const std::uint32_t n_streak = r.u32();
  for (std::uint32_t i = 0; i < n_streak; ++i) {
    const std::uint16_t path = r.u16();
    streak(path).count = r.u32();
  }
  blacklisted_paths_ = 0;
  const std::uint32_t n_black = r.u32();
  for (std::uint32_t i = 0; i < n_black; ++i) {
    const std::uint16_t path = r.u16();
    if (!r.ok()) break;  // truncated: restore_core reports it
    if (path >= config_.num_paths) return bad_path(path);
    PathStreak& s = streak(path);
    if (!s.blacklisted) ++blacklisted_paths_;
    s.blacklisted = true;
  }

  for (auto& cc : cc_) cc->restore(r);
  std::fill(cc_inflight_.begin(), cc_inflight_.end(), 0);
  for (const auto& [psn, o] : outstanding_) {
    cc_inflight_[ctx(o.path)] += o.bytes;
  }
  return Status::ok();
}

void RdmaConnection::cancel_timers() {
  Simulator& sim = engine_.simulator();
  if (rto_event_.valid()) {
    sim.cancel(rto_event_);
    rto_event_ = EventHandle{};
  }
  for (EventHandle& probe : probe_events_) sim.cancel(std::exchange(probe, {}));
}

void RdmaConnection::resume_after_restore() {
  if (error_) return;  // dead QPs stay dead across a restart
  arm_rto();
  // Packets the old backend had queued in its stack pacer are gone with the
  // process; the new one starts pacing from now.
  if (stack_next_free_ < engine_.simulator().now()) {
    stack_next_free_ = engine_.simulator().now();
  }
  if (blacklisted_paths_ != 0 && !idle()) kick_probes();
  send_more();
}

// ---------------------------------------------------------------------------
// RdmaEngine
// ---------------------------------------------------------------------------

std::string RdmaEngine::save_state() const {
  // The snapshot carries no fluid state: a connection under fluid service
  // keeps its progress in the hybrid driver (its messages' `acked` lags the
  // served bytes by up to a message). Its region must zoom first, as
  // hot_restart() and the fault injector's restart/migrate events do.
  for (const auto& conn : connections_) {
    STELLAR_CHECK(!conn->fluid_,
                  "RdmaEngine::save_state: connection %llu is under fluid "
                  "service; zoom its region to packet mode first",
                  static_cast<unsigned long long>(conn->id()));
  }
  SnapshotWriter w;
  w.section(kEngineTag);
  w.u32(self_);
  w.u64(next_conn_seq_);
  w.u64(next_read_id_);
  write_config(w, default_config_);

  w.u64(rx_goodput_bytes_);
  w.u64(rx_duplicates_);
  w.u64(rx_out_of_order_);
  w.u64(unexpected_sends_);
  w.u64(device_resets_);
  w.u64(reset_drops_);
  w.u64(quiesce_drops_);
  w.u64(hot_restarts_);
  w.time(reset_until_);
  w.time(quiesce_until_);

  const std::map<std::uint16_t, std::uint64_t> histogram = rx_path_histogram();
  w.u32(static_cast<std::uint32_t>(histogram.size()));
  for (const auto& [path, count] : histogram) {
    w.u16(path);
    w.u64(count);
  }

  // Receiver PSN floors + partial messages, sorted by (remote) conn id.
  w.section(kRxTag);
  w.u32(static_cast<std::uint32_t>(rx_.size()));
  for (std::uint64_t conn : sorted_keys(rx_)) {
    const RxState& st = rx_.at(conn);
    w.u64(conn);
    w.u64(st.psns.floor());
    w.u64(st.highest_psn);
    w.b(st.any);
    w.u32(static_cast<std::uint32_t>(st.psns.above_floor_count()));
    st.psns.for_each_above_floor([&w](std::uint64_t psn) { w.u64(psn); });
    w.u32(static_cast<std::uint32_t>(st.messages.size()));
    for (std::uint64_t msg : sorted_keys(st.messages)) {
      w.u64(msg);
      w.u64(st.messages.at(msg).received);
    }
  }

  // Unexpected (eagerly buffered) SENDs; posted receive WRs are handlers
  // and stay live in place across a hot restart.
  std::vector<std::uint64_t> recv_conns;
  for (const auto& [conn, q] : recv_queues_) {
    if (!q.unexpected.empty()) recv_conns.push_back(conn);
  }
  std::sort(recv_conns.begin(), recv_conns.end());
  w.u32(static_cast<std::uint32_t>(recv_conns.size()));
  for (std::uint64_t conn : recv_conns) {
    const RecvQueue& q = recv_queues_.at(conn);
    w.u64(conn);
    w.u32(static_cast<std::uint32_t>(q.unexpected.size()));
    for (const RxMessage& rx : q.unexpected) {
      w.u64(rx.conn_id);
      w.u64(rx.msg_id);
      w.u64(rx.bytes);
      w.u32(rx.tag);
      w.u32(rx.src);
      w.u8(static_cast<std::uint8_t>(rx.kind));
    }
  }

  // Sender QPs, in creation order (deterministic, and re-creation on a
  // fresh engine preserves it).
  w.u32(static_cast<std::uint32_t>(connections_.size()));
  for (const auto& conn : connections_) conn->save_state(w);
  return w.take();
}

Status RdmaEngine::restore_core(SnapshotReader& r) {
  if (Status s = r.expect_section(kEngineTag); !s.is_ok()) return s;
  const EndpointId self = r.u32();
  if (self != self_) {
    return invalid_argument(
        "RdmaEngine::restore: snapshot is for endpoint " +
        std::to_string(self) + ", engine is endpoint " + std::to_string(self_));
  }
  next_conn_seq_ = r.u64();
  next_read_id_ = r.u64();
  default_config_ = read_config(r);

  rx_goodput_bytes_ = r.u64();
  rx_duplicates_ = r.u64();
  rx_out_of_order_ = r.u64();
  unexpected_sends_ = r.u64();
  device_resets_ = r.u64();
  reset_drops_ = r.u64();
  quiesce_drops_ = r.u64();
  hot_restarts_ = r.u64();
  reset_until_ = r.time();
  quiesce_until_ = r.time();

  rx_path_histogram_.clear();
  const std::uint32_t n_hist = r.u32();
  for (std::uint32_t i = 0; i < n_hist; ++i) {
    const std::uint16_t path = r.u16();
    const std::uint64_t count = r.u64();
    if (!r.ok()) break;
    if (path >= rx_path_histogram_.size()) {
      rx_path_histogram_.resize(path + std::size_t{1});
    }
    rx_path_histogram_[path] = count;
  }

  if (Status s = r.expect_section(kRxTag); !s.is_ok()) return s;
  rx_.clear();
  const std::uint32_t n_rx = r.u32();
  for (std::uint32_t i = 0; i < n_rx; ++i) {
    const std::uint64_t conn = r.u64();
    RxState st;
    st.psns.reset(r.u64());
    st.highest_psn = r.u64();
    st.any = r.b();
    const std::uint32_t n_psn = r.u32();
    for (std::uint32_t j = 0; j < n_psn; ++j) {
      const std::uint64_t psn = r.u64();
      if (!r.ok()) break;
      if (psn < st.psns.floor()) {
        return invalid_argument("RdmaEngine::restore: received PSN " +
                                std::to_string(psn) + " below floor " +
                                std::to_string(st.psns.floor()));
      }
      st.psns.mark(psn);
    }
    const std::uint32_t n_msg = r.u32();
    for (std::uint32_t j = 0; j < n_msg; ++j) {
      const std::uint64_t msg = r.u64();
      st.messages[msg].received = r.u64();
    }
    rx_.emplace(conn, std::move(st));
  }

  const std::uint32_t n_recv = r.u32();
  for (auto& [conn, q] : recv_queues_) q.unexpected.clear();
  for (std::uint32_t i = 0; i < n_recv; ++i) {
    const std::uint64_t conn = r.u64();
    RecvQueue& q = recv_queues_[conn];
    const std::uint32_t n_unexp = r.u32();
    for (std::uint32_t j = 0; j < n_unexp; ++j) {
      RxMessage rx;
      rx.conn_id = r.u64();
      rx.msg_id = r.u64();
      rx.bytes = r.u64();
      rx.tag = r.u32();
      rx.src = r.u32();
      rx.kind = static_cast<PacketKind>(r.u8());
      q.unexpected.push_back(rx);
    }
  }

  const std::uint32_t n_conns = r.u32();
  for (std::uint32_t i = 0; i < n_conns; ++i) {
    if (Status s = r.expect_section(kConnTag); !s.is_ok()) return s;
    const std::uint64_t id = r.u64();
    const EndpointId local = r.u32();
    const EndpointId remote = r.u32();
    if (local != self_) {
      return invalid_argument("RdmaEngine::restore: connection " +
                              std::to_string(id) + " is local to endpoint " +
                              std::to_string(local));
    }
    const TransportConfig config = read_config(r);
    RdmaConnection* conn = nullptr;
    auto it = by_id_.find(id);
    if (it != by_id_.end()) {
      // Hot restart: same object, state rebuilt in place (external holders
      // of the pointer — collectives, auditors — stay valid).
      conn = it->second;
      conn->cancel_timers();
      conn->config_ = config;
      conn->rebuild_from_config();
    } else {
      // Migration onto a fresh engine: re-create the QP with its guest-
      // visible identity (conn id) intact.
      auto created = std::unique_ptr<RdmaConnection>(
          new RdmaConnection(*this, id, self_, remote, config));
      conn = created.get();
      connections_.push_back(std::move(created));
      by_id_.emplace(id, conn);
    }
    if (Status s = conn->restore_state(r); !s.is_ok()) return s;
  }
  if (!r.ok()) return out_of_range("RdmaEngine::restore: snapshot truncated");
  return Status::ok();
}

Status RdmaEngine::restore_state(const std::string& bytes) {
  SnapshotReader r(bytes);
  if (Status s = restore_core(r); !s.is_ok()) return s;
  if (Status s = r.finish(); !s.is_ok()) return s;
  for (auto& conn : connections_) conn->resume_after_restore();
  return Status::ok();
}

StatusOr<std::string> RdmaEngine::hot_restart() {
  // Drop the fabric to packet mode before serializing: the zoom thaws every
  // frozen connection and syncs its served prefix to the receiver, so the
  // snapshot sees real packet-mode state. (Called from inside a fluid
  // completion callback, the zoom is deferred and save_state() traps.)
  if (HybridDriver* driver = fabric_->hybrid_driver()) {
    driver->force_packet(SimTime::zero(), "hot-restart");
  }
  ++hot_restarts_;  // counted in the snapshot: survives the restart
  std::string snapshot = save_state();

  // Harvest the volatile runtime the snapshot cannot carry: message
  // completion callbacks, by (connection, msg id). The new backend
  // re-attaches them after reconstructing the QP tables in place.
  struct Harvested {
    RdmaConnection* conn;
    std::uint64_t msg_id;
    RdmaConnection::Completion on_complete;
  };
  std::vector<Harvested> completions;
  for (auto& conn : connections_) {
    conn->cancel_timers();
    for (auto [msg_id, msg] : conn->messages_) {
      if (msg.on_complete) {
        completions.push_back(
            Harvested{conn.get(), msg_id, std::move(msg.on_complete)});
      }
    }
  }

  SnapshotReader r(snapshot);
  Status restored = restore_core(r);
  if (restored.is_ok()) restored = r.finish();
  if (!restored.is_ok()) return restored;

  // Round-trip proof: the reconstructed state must re-serialize to the
  // exact bytes the old backend produced.
  if (save_state() != snapshot) {
    return internal_error(
        "RdmaEngine::hot_restart: snapshot round trip not byte-identical");
  }

  for (Harvested& h : completions) {
    if (RdmaConnection::Message* msg = h.conn->messages_.find(h.msg_id)) {
      msg->on_complete = std::move(h.on_complete);
    }
  }
  for (auto& conn : connections_) conn->resume_after_restore();
  return snapshot;
}

void RdmaEngine::quiesce(SimTime window) {
  const SimTime until = sim_->now() + window;
  if (until > quiesce_until_) quiesce_until_ = until;
}

}  // namespace stellar
