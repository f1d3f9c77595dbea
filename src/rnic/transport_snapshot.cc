// Checkpoint/restore of the transport layer — the RNIC half of the
// vStellar control-plane robustness story.
//
// One field list per struct serves both directions (common/snapshot.h):
// RdmaEngine::fields walks the engine counters, the receiver state (PSN
// floors, partial messages, unexpected SENDs) and every sender QP, whose
// RdmaConnection::fields carries the PSN space, unacked packets, queued
// messages, CC contexts and path blacklists. Unordered containers are
// emitted in sorted key order so the bytes are identical across runs and
// across a serialize -> restore -> serialize round trip.
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
#include <deque>
#include <map>
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

}  // namespace

// ---------------------------------------------------------------------------
// RdmaConnection
// ---------------------------------------------------------------------------

template <class Ar, class Self>
void RdmaConnection::fields(Ar& ar, Self& c) {
  ar(c.next_psn_, c.next_msg_id_, c.inflight_bytes_, c.stack_next_free_,
     c.next_probe_seq_, c.completed_messages_, c.completed_bytes_,
     c.retransmits_, c.timeouts_, c.packets_sent_, c.probes_sent_,
     c.probes_acked_, c.paths_reinstated_, c.error_);
  StatusCode code = c.error_status_.code();
  std::string message = c.error_status_.message();
  ar(as<std::uint8_t>(code), message, c.unsent_queue_);
  // Messages in ascending id order, keyed by their own id. Completion
  // callbacks are deliberately absent — see the class comment.
  ar.seq(c.messages_, [&](auto& m) {
    ar(m.second);
    if constexpr (Ar::kLoading) m.first = m.second.id;
  });
  // outstanding_ iterates in PSN order: already deterministic.
  ar(c.outstanding_);
  // Every path the streak logic touched, ascending — including the ones
  // whose streak an ACK reset to zero — then the blacklisted path ids.
  std::vector<std::pair<std::uint16_t, std::uint32_t>> streaks;
  std::vector<std::uint16_t> blacklisted;
  for (std::size_t path = 0; path < c.path_timeout_streak_.size(); ++path) {
    const PathStreak& s = c.path_timeout_streak_[path];
    if (s.seen) streaks.emplace_back(path, s.count);
    if (s.blacklisted) blacklisted.push_back(path);
  }
  ar(streaks, blacklisted);
  // The CC contexts; their inflight counts are rebuilt from the unacked
  // packets on restore.
  for (const auto& cc : c.cc_) ar(*cc);

  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    c.error_status_ =
        c.error_ ? Status(code, std::move(message)) : Status::ok();
    const auto bad_path = [&c](std::uint16_t path) {
      return invalid_argument("RdmaEngine::restore: connection " +
                              std::to_string(c.id_) + " names path " +
                              std::to_string(path) + " of " +
                              std::to_string(c.config_.num_paths));
    };
    for (const auto& [psn, o] : c.outstanding_) {
      if (o.path >= c.config_.num_paths) return ar.fail(bad_path(o.path));
    }
    c.path_timeout_streak_.clear();
    for (const auto& [path, count] : streaks) c.streak(path).count = count;
    c.blacklisted_paths_ = 0;
    for (std::uint16_t path : blacklisted) {
      if (path >= c.config_.num_paths) return ar.fail(bad_path(path));
      PathStreak& s = c.streak(path);
      if (!s.blacklisted) ++c.blacklisted_paths_;
      s.blacklisted = true;
    }
    std::fill(c.cc_inflight_.begin(), c.cc_inflight_.end(), 0);
    for (const auto& [psn, o] : c.outstanding_) {
      c.cc_inflight_[c.ctx(o.path)] += o.bytes;
    }
  }
}

void RdmaConnection::cancel_timers() {
  paced_.clear();
  rto_timer_.disarm();
  for (const std::unique_ptr<ProbeTimer>& probe : probe_timers_) {
    if (probe != nullptr) probe->timer.disarm();
  }
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

template <class Ar, class Self>
void RdmaEngine::RxState::fields(Ar& ar, Self& st) {
  std::uint64_t floor = st.psns.floor();
  std::vector<std::uint64_t> above;  // the PSNs stored above the floor
  st.psns.for_each_above_floor(
      [&](std::uint64_t psn) { above.push_back(psn); });
  ar(floor, st.highest_psn, st.any, above, st.messages);
  if constexpr (Ar::kLoading) {
    st.psns.reset(floor);
    for (std::uint64_t psn : above) {
      if (psn < floor) {
        return ar.fail(invalid_argument(
            "RdmaEngine::restore: received PSN " + std::to_string(psn) +
            " below floor " + std::to_string(floor)));
      }
      st.psns.mark(psn);
    }
  }
}

template <class Ar, class Self>
void RdmaEngine::fields(Ar& ar, Self& e) {
  ar(e.next_conn_seq_, e.next_read_id_, e.default_config_, e.rx_goodput_bytes_,
     e.rx_duplicates_, e.rx_out_of_order_, e.unexpected_sends_,
     e.device_resets_, e.reset_drops_, e.quiesce_drops_, e.hot_restarts_,
     e.reset_until_, e.quiesce_until_);
  std::map<std::uint16_t, std::uint64_t> histogram = e.rx_path_histogram();
  ar(histogram);

  // Receiver PSN floors + partial messages, sorted by (remote) conn id.
  ar.section(kRxTag);
  ar(e.rx_);

  // Unexpected (eagerly buffered) SENDs; posted receive WRs are handlers
  // and stay live in place across a hot restart.
  std::map<std::uint64_t, std::deque<RxMessage>> unexpected;
  for (std::uint64_t conn : sorted_keys(e.recv_queues_)) {
    const std::deque<RxMessage>& q = e.recv_queues_.at(conn).unexpected;
    if (!q.empty()) unexpected.emplace(conn, q);
  }
  ar(unexpected);

  if constexpr (Ar::kLoading) {
    e.rx_path_histogram_.clear();
    for (const auto& [path, count] : histogram) {
      if (path >= e.rx_path_histogram_.size()) {
        e.rx_path_histogram_.resize(path + std::size_t{1});
      }
      e.rx_path_histogram_[path] = count;
    }
    for (auto& [conn, q] : unexpected) {
      e.recv_queues_[conn].unexpected = std::move(q);
    }
  }

  // Sender QPs, in creation order (deterministic, and re-creation on a
  // fresh engine preserves it): identity and config, then the QP context.
  std::vector<std::conditional_t<Ar::kLoading, RdmaConnection*,
                                 const RdmaConnection*>>
      conns;
  for (const auto& conn : e.connections_) conns.push_back(conn.get());
  ar.seq(conns, [&](auto& conn) {
    ar.section(kConnTag);
    std::uint64_t id = conn ? conn->id_ : 0;
    EndpointId local = conn ? conn->local_ : 0;
    EndpointId remote = conn ? conn->remote_ : 0;
    TransportConfig config = conn ? conn->config_ : TransportConfig{};
    ar(id, local, remote, config);
    if constexpr (Ar::kLoading) {
      conn = e.adopt_connection(ar, id, local, remote, config);
    }
    if (conn) RdmaConnection::fields(ar, *conn);
  });
}

std::string RdmaEngine::save_state() const {
  // The snapshot carries no fluid state: a connection under fluid service
  // keeps its progress in the hybrid driver (its messages' `acked` lags the
  // served bytes by up to a message). The fabric must zoom first, as
  // hot_restart() and the fault injector's restart/migrate events do.
  for (const auto& conn : connections_) {
    STELLAR_CHECK(!conn->fluid_,
                  "RdmaEngine::save_state: connection %llu is under fluid "
                  "service; zoom the fabric to packet mode first",
                  static_cast<unsigned long long>(conn->id()));
  }
  SnapshotWriter w;
  w.section(kEngineTag);
  w(self_);
  fields(w, *this);
  return w.take();
}

RdmaConnection* RdmaEngine::adopt_connection(SnapshotReader& r,
                                             std::uint64_t id,
                                             EndpointId local,
                                             EndpointId remote,
                                             const TransportConfig& config) {
  if (!r.ok()) return nullptr;
  if (local != self_) {
    r.fail(invalid_argument("RdmaEngine::restore: connection " +
                            std::to_string(id) + " is local to endpoint " +
                            std::to_string(local)));
    return nullptr;
  }
  auto it = by_id_.find(id);
  if (it != by_id_.end()) {
    // Hot restart: same object, state rebuilt in place (external holders
    // of the pointer — collectives, auditors — stay valid). A snapshot is
    // never taken under fluid service (save_state traps); a flow's fluid
    // demand lives in the hybrid driver, which takes it from the next
    // freeze.
    RdmaConnection* conn = it->second;
    STELLAR_DCHECK(!conn->fluid_, "restoring a connection under fluid service");
    conn->cancel_timers();
    conn->config_ = config;
    conn->rebuild_from_config();
    return conn;
  }
  // Migration onto a fresh engine: re-create the QP with its guest-visible
  // identity (conn id) intact.
  connections_.push_back(std::unique_ptr<RdmaConnection>(
      new RdmaConnection(*this, id, self_, remote, config)));
  by_id_.emplace(id, connections_.back().get());
  return connections_.back().get();
}

Status RdmaEngine::restore_core(const std::string& bytes) {
  SnapshotReader r(bytes);
  EndpointId self = 0;
  r.section(kEngineTag);
  r(self);
  if (!r.ok()) return r.status();
  if (self != self_) {
    return invalid_argument(
        "RdmaEngine::restore: snapshot is for endpoint " +
        std::to_string(self) + ", engine is endpoint " + std::to_string(self_));
  }
  for (auto& [conn, q] : recv_queues_) q.unexpected.clear();
  fields(r, *this);
  return r.finish();
}

Status RdmaEngine::restore_state(const std::string& bytes) {
  if (Status s = restore_core(bytes); !s.is_ok()) return s;
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

  if (Status s = restore_core(snapshot); !s.is_ok()) return s;

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
