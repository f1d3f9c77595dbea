// Unidirectional link with an output FIFO: the unit from which switches are
// composed (each link is one switch/host egress port).
//
// Event-driven: a packet at the queue head occupies the wire for its
// serialization time, then arrives at the far side after the propagation
// delay. Both are Simulator::Timers embedded in the link, re-armed in place
// for each packet, so a hop builds no closure.
// ECN is marked at enqueue when the backlog exceeds the threshold
// (DCTCP-style). Optional random drop models the lossy link of Figure 11.
//
// Two traffic classes, as in production RoCE deployments: ACK/CNP control
// packets ride a strict-priority queue ahead of data, so congestion-control
// feedback is not delayed by a saturated reverse path.
#pragma once

#include <cstdint>
#include <string>

#include "check/check.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/packet.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace stellar {

struct LinkConfig {
  Bandwidth bandwidth = Bandwidth::gbps(200);
  SimTime propagation = SimTime::nanos(600);
  std::uint64_t queue_capacity_bytes = 4u << 20;  // 4 MiB per port
  std::uint64_t ecn_threshold_bytes = 256u << 10; // mark above 256 KiB
  double drop_probability = 0.0;                  // random corruption/loss
};

/// What happens to packets already queued on a link when it goes down.
enum class LinkDrainMode {
  /// Discard everything immediately (optics cut mid-flight); each packet is
  /// accounted as an audited drop so conservation holds.
  kVoid,
  /// Lame-duck: stop accepting new packets but let the queue finish
  /// transmitting (administrative drain before maintenance).
  kDrain,
};

class NetLink {
 public:
  /// Per-packet delivery target. InlineFunction (not std::function): this
  /// fires once per packet per hop, and the capture must stay heap-free.
  using DeliverFn = InlineFunction<void(NetPacket&&)>;

  NetLink(Simulator& sim, std::string name, LinkConfig config,
          std::uint64_t drop_seed = 1)
      : sim_(&sim),
        name_(std::move(name)),
        config_(config),
        rng_(drop_seed),
        tx_timer_(sim, [this] { complete_transmission(); }),
        delivery_timer_(sim, [this] { deliver_due(); }) {}

  NetLink(const NetLink&) = delete;
  NetLink& operator=(const NetLink&) = delete;

  /// Where packets go once they traverse this link (next link or endpoint).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  void set_drop_probability(double p) { config_.drop_probability = p; }

  /// Degrade (or restore) the link rate at runtime — models flapping
  /// optics and asymmetric paths. Takes effect from the next transmission.
  void set_bandwidth(Bandwidth bw) { config_.bandwidth = bw; }

  /// Degrade (or restore) the propagation delay at runtime — models the
  /// latency windows of a congested/rerouted optical path.
  void set_propagation(SimTime propagation) {
    config_.propagation = propagation;
  }

  // -- Hard failure (link down/up) ------------------------------------------
  //
  // A downed link rejects all ingress (each attempt counted as a down-drop
  // and, under audit, an ingress drop). kVoid additionally destroys every
  // queued packet — including the one mid-serialization — accounting each
  // as an audited sink drop so packet conservation holds across the outage.
  // Packets already past serialization (propagating) still arrive: they
  // left the failed device before it died.

  void set_down(LinkDrainMode mode = LinkDrainMode::kVoid);
  void set_up();
  bool is_up() const { return up_; }

  // -- Hybrid fidelity (packet -> fluid conversion) -------------------------

  /// Atomically hand every packet this link currently owns — queued,
  /// mid-serialization, or propagating — to the fluid model. The bytes
  /// live on as fluid flow state (the transport rewinds them into unsent
  /// demand), so unlike a drop they are not lost; the conservation auditor
  /// closes the ledger through the absorbed counter. Disarms the pending
  /// transmission and delivery timers and empties all queues. Returns the
  /// number of packets absorbed.
  std::uint64_t absorb();

  /// Packets handed to the fluid model by absorb() since the last reset.
  std::uint64_t absorbed_packets() const { return absorbed_packets_; }

  /// Offer a packet to the egress queue. May tail-drop or randomly drop.
  void enqueue(NetPacket&& p);

  const std::string& name() const { return name_; }
  const LinkConfig& config() const { return config_; }

  // -- Statistics (reset with reset_stats() at measurement-window start) ----

  std::uint64_t queue_bytes() const { return queue_bytes_; }
  std::uint64_t max_queue_bytes() const { return max_queue_bytes_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t tail_drops() const { return tail_drops_; }
  std::uint64_t random_drops() const { return random_drops_; }
  std::uint64_t ecn_marks() const { return ecn_marks_; }
  /// Ingress rejections while the link was down.
  std::uint64_t down_drops() const { return down_drops_; }
  /// Queued packets destroyed by set_down(kVoid).
  std::uint64_t voided_packets() const { return voided_packets_; }

  /// Time-weighted mean of queue depth since the last reset.
  double mean_queue_bytes() const;

  void reset_stats();

  // -- Conservation accounting (STELLAR_AUDIT only) -------------------------
  //
  // Epoch counters for the packet-conservation auditor: a packet offered
  // to the link is either rejected at ingress (audit_ingress_drops), or
  // accepted and later exactly one of released downstream
  // (audit_released), destroyed — for lack of a sink, or voided by a
  // link-down (audit_sink_drops) — or handed to the fluid model by a
  // hybrid mode switch (audit_absorbed). Packets currently owned by the
  // link (queued, serializing, or propagating) are the difference.
  //
  // reset_stats() re-baselines the epoch without breaking conservation:
  // accepted collapses to the packets still held, the outcome counters go
  // to zero (ClosFabric::reset_stats() re-baselines its injected/delivered
  // counters to match, so the fabric-wide equation holds per epoch).

  std::uint64_t audit_accepted() const { return audit_accepted_; }
  std::uint64_t audit_released() const { return audit_released_; }
  std::uint64_t audit_ingress_drops() const { return audit_ingress_drops_; }
  std::uint64_t audit_sink_drops() const { return audit_sink_drops_; }
  std::uint64_t audit_absorbed() const { return audit_absorbed_; }
  std::uint64_t held_packets() const {
    return audit_accepted_ - audit_released_ - audit_sink_drops_ -
           audit_absorbed_;
  }

 private:
  void start_transmission();
  void complete_transmission();
  void account_queue_change(std::uint64_t new_bytes);
  void deliver_due();
  void schedule_delivery();

  Simulator* sim_;
  std::string name_;
  LinkConfig config_;
  Rng rng_;
  DeliverFn deliver_;

  // Ring buffers, not deques: a queue that cycles packets in steady state
  // never allocates (common/ring_queue.h).
  RingQueue<NetPacket> queue_;          // data class
  RingQueue<NetPacket> control_queue_;  // strict-priority (ACK/CNP) class
  bool busy_ = false;
  bool up_ = true;
  // Serialization-complete of the head packet, armed while busy_ (kVoid
  // and absorb() disarm it).
  Simulator::Timer tx_timer_;
  // The transmission committed to the wire: which class it came from and
  // its wire size. Recomputed pointers at fire time + these checks replace
  // the old captured-queue-pointer closure, so a drain between arm and
  // fire can never act on a stale choice of queue.
  bool tx_from_control_ = false;
  std::uint32_t tx_wire_bytes_ = 0;

  // Pipelined propagation: packets past serialization sit in an in-flight
  // FIFO ordered by arrival time, drained by one self-re-arming delivery
  // timer per link — no per-packet closure, no allocation. Each packet
  // reserves its tie-break seq the moment serialization completes (where a
  // per-packet event would have been scheduled), so the delivery timer
  // fires with exactly the (time, seq) the classic two-events-per-hop
  // engine produced — byte-identical simulation results.
  struct InFlight {
    NetPacket pkt;
    SimTime arrival;
    std::uint64_t seq;  // reserved at serialization end
  };
  RingQueue<InFlight> inflight_;
  Simulator::Timer delivery_timer_;
  SimTime delivery_at_ = SimTime::zero();  // fire time of delivery_timer_

  std::uint64_t queue_bytes_ = 0;
  std::uint64_t max_queue_bytes_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t tail_drops_ = 0;
  std::uint64_t random_drops_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t down_drops_ = 0;
  std::uint64_t voided_packets_ = 0;
  std::uint64_t absorbed_packets_ = 0;

  // Integral of queue_bytes over time, for the time-weighted mean.
  double queue_integral_ = 0.0;     // byte-seconds
  SimTime last_change_ = SimTime::zero();
  SimTime stats_epoch_ = SimTime::zero();

  // Conservation accounting (see accessors above). Only incremented when
  // STELLAR_AUDIT instrumentation is compiled in.
  std::uint64_t audit_accepted_ = 0;
  std::uint64_t audit_released_ = 0;
  std::uint64_t audit_ingress_drops_ = 0;
  std::uint64_t audit_sink_drops_ = 0;
  std::uint64_t audit_absorbed_ = 0;
};

}  // namespace stellar
