#include "net/link.h"

#include <utility>

#include "obs/obs.h"

namespace stellar {

void NetLink::account_queue_change(std::uint64_t new_bytes) {
  const SimTime now = sim_->now();
  queue_integral_ +=
      static_cast<double>(queue_bytes_) * (now - last_change_).sec();
  last_change_ = now;
  queue_bytes_ = new_bytes;
  if (queue_bytes_ > max_queue_bytes_) max_queue_bytes_ = queue_bytes_;
  STELLAR_TRACE_ONLY(
      obs::track(obs::TraceCat::kLink, name_, now,
                 static_cast<std::int64_t>(queue_bytes_));)
}

void NetLink::enqueue(NetPacket&& p) {
  const std::uint32_t wire = p.wire_bytes();
  if (!up_) {
    ++down_drops_;
    STELLAR_TRACE_ONLY(obs::count("link/down_drops");)
    STELLAR_AUDIT_ONLY(++audit_ingress_drops_;)
    return;
  }
  if (config_.drop_probability > 0.0 &&
      rng_.chance(config_.drop_probability)) {
    ++random_drops_;
    STELLAR_TRACE_ONLY(obs::count("link/random_drops");)
    STELLAR_AUDIT_ONLY(++audit_ingress_drops_;)
    return;
  }
  if (queue_bytes_ + wire > config_.queue_capacity_bytes) {
    ++tail_drops_;
    STELLAR_TRACE_ONLY(obs::count("link/tail_drops");)
    STELLAR_AUDIT_ONLY(++audit_ingress_drops_;)
    return;
  }
  STELLAR_TRACE_ONLY(obs::count("link/enqueued");)
  STELLAR_AUDIT_ONLY(++audit_accepted_;)
  if (!p.is_ack && queue_bytes_ + wire > config_.ecn_threshold_bytes) {
    p.ecn_marked = true;
    ++ecn_marks_;
    STELLAR_TRACE_ONLY(obs::count("link/ecn_marks");)
  }
  account_queue_change(queue_bytes_ + wire);
  // Strict priority: control packets (ACKs) bypass queued data, as RoCE
  // deployments configure for CNP/ACK traffic classes.
  if (p.is_ack) {
    control_queue_.push_back(p);
  } else {
    queue_.push_back(p);
  }
  if (!busy_) start_transmission();
}

void NetLink::start_transmission() {
  STELLAR_CHECK(!queue_.empty() || !control_queue_.empty(),
                "link %s started transmitting with both queues empty",
                name_.c_str());
  busy_ = true;
  tx_from_control_ = !control_queue_.empty();
  const RingQueue<NetPacket>& q =
      tx_from_control_ ? control_queue_ : queue_;
  tx_wire_bytes_ = q.front().wire_bytes();
  tx_timer_.arm(sim_->now() + config_.bandwidth.transmit_time(tx_wire_bytes_));
}

void NetLink::complete_transmission() {
  // Recompute the source queue from the committed class rather than a
  // pointer captured at arm time; a drain/set_down in between would have
  // disarmed this timer, and if anything else ever empties the queue
  // the checks below trip instead of popping the wrong packet.
  RingQueue<NetPacket>& q = tx_from_control_ ? control_queue_ : queue_;
  STELLAR_CHECK(!q.empty(),
                "link %s finished serializing from an empty %s queue",
                name_.c_str(), tx_from_control_ ? "control" : "data");
  STELLAR_CHECK(q.front().wire_bytes() == tx_wire_bytes_,
                "link %s wire packet changed mid-serialization "
                "(%u bytes committed, %u at head)",
                name_.c_str(), tx_wire_bytes_, q.front().wire_bytes());
  const NetPacket p = q.front();
  q.pop_front();
  const std::uint32_t wire_done = p.wire_bytes();
  account_queue_change(queue_bytes_ - wire_done);
  bytes_sent_ += wire_done;
  ++packets_sent_;
  // Hand off after propagation; the wire is free for the next packet now.
  // Constant per-link propagation keeps the in-flight FIFO arrival-ordered,
  // so the packet joins the FIFO instead of carrying its own closure; a
  // runtime set_propagation() shrink is the one case needing a re-sort.
  const SimTime arrival = sim_->now() + config_.propagation;
  const std::uint64_t seq = sim_->reserve_seq();
  if (!inflight_.empty() && arrival < inflight_.back().arrival) {
    std::size_t at = inflight_.size();
    while (at > 0 && arrival < inflight_[at - 1].arrival) --at;
    inflight_.insert(at, InFlight{p, arrival, seq});
  } else {
    inflight_.push_back(InFlight{p, arrival, seq});
  }
  schedule_delivery();
  if (!queue_.empty() || !control_queue_.empty()) {
    start_transmission();
  } else {
    busy_ = false;
  }
}

void NetLink::schedule_delivery() {
  if (inflight_.empty()) return;
  const InFlight& front = inflight_.front();
  if (delivery_timer_.armed()) {
    if (delivery_at_ <= front.arrival) return;  // already armed early enough
    delivery_timer_.disarm();  // a nearer arrival slid in front
  }
  delivery_at_ = front.arrival;
  // Arm with the front packet's reserved seq: the timer fires with the same
  // (time, seq) its dedicated propagation event would have carried.
  delivery_timer_.arm(front.arrival, front.seq);
}

void NetLink::deliver_due() {
  STELLAR_CHECK(!inflight_.empty() &&
                    inflight_.front().arrival == sim_->now(),
                "link %s delivery fired with no due packet", name_.c_str());
  NetPacket p = inflight_.front().pkt;
  inflight_.pop_front();
  STELLAR_AUDIT_ONLY(deliver_ ? ++audit_released_ : ++audit_sink_drops_;)
  if (deliver_) deliver_(std::move(p));
  schedule_delivery();
}

void NetLink::set_down(LinkDrainMode mode) {
  // A kVoid on an already-down (draining) link still empties the queue.
  up_ = false;
  if (mode != LinkDrainMode::kVoid) return;
  // Abort the packet mid-serialization; it never left the device.
  tx_timer_.disarm();
  busy_ = false;
  const std::uint64_t n = queue_.size() + control_queue_.size();
  voided_packets_ += n;
  STELLAR_AUDIT_ONLY(audit_sink_drops_ += n;)
  queue_.clear();
  control_queue_.clear();
  account_queue_change(0);
}

std::uint64_t NetLink::absorb() {
  tx_timer_.disarm();
  busy_ = false;
  delivery_timer_.disarm();
  const std::uint64_t n =
      queue_.size() + control_queue_.size() + inflight_.size();
  queue_.clear();
  control_queue_.clear();
  inflight_.clear();
  absorbed_packets_ += n;
  STELLAR_AUDIT_ONLY(audit_absorbed_ += n;)
  account_queue_change(0);
  return n;
}

void NetLink::set_up() {
  if (up_) return;
  up_ = true;
  // A kDrain-downed link keeps transmitting while down, so only a link that
  // went fully quiet needs a restart (nothing to do: its queues are empty).
  if (!busy_ && (!queue_.empty() || !control_queue_.empty())) {
    start_transmission();
  }
}

double NetLink::mean_queue_bytes() const {
  const SimTime now = sim_->now();
  const double window = (now - stats_epoch_).sec();
  if (window <= 0.0) return static_cast<double>(queue_bytes_);
  const double integral =
      queue_integral_ +
      static_cast<double>(queue_bytes_) * (now - last_change_).sec();
  return integral / window;
}

void NetLink::reset_stats() {
  max_queue_bytes_ = queue_bytes_;
  bytes_sent_ = 0;
  packets_sent_ = 0;
  tail_drops_ = 0;
  random_drops_ = 0;
  ecn_marks_ = 0;
  down_drops_ = 0;
  voided_packets_ = 0;
  absorbed_packets_ = 0;
  queue_integral_ = 0.0;
  last_change_ = sim_->now();
  stats_epoch_ = sim_->now();
  // Re-baseline the conservation epoch: the packets this link still holds
  // are carried over as the new accepted count, all outcome counters start
  // from zero. held_packets() is unchanged by construction, so a mid-run
  // reset never fakes or leaks packets (ClosFabric::reset_stats() adjusts
  // the fabric-level injected/delivered counters to match).
  STELLAR_AUDIT_ONLY(audit_accepted_ = held_packets(); audit_released_ = 0;
                     audit_sink_drops_ = 0; audit_ingress_drops_ = 0;
                     audit_absorbed_ = 0;)
}

}  // namespace stellar
