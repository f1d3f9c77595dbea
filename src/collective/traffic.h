// Traffic generators for the §7.2 experiments:
//  * PermutationTraffic — every source streams RDMA WRITEs to a fixed,
//    randomly chosen partner (the Figure-9 pattern);
//  * BurstyDriver — wraps any restartable task into an on/off duty cycle
//    (the 5 s-on / 5 s-off background of Figure 10b).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collective/fleet.h"
#include "common/rng.h"
#include "common/units.h"

namespace stellar {

struct PermutationConfig {
  std::uint64_t message_bytes = 1ull << 20;
  TransportConfig transport;
  std::uint64_t seed = 42;
};

class PermutationTraffic {
 public:
  /// Builds a random derangement over `sources` -> `sinks` (both must have
  /// the same size). When `sinks` is empty, the permutation is over
  /// `sources` themselves.
  PermutationTraffic(EngineFleet& fleet, std::vector<EndpointId> sources,
                     std::vector<EndpointId> sinks, PermutationConfig config);

  /// Start continuous streaming: each flow reposts a message as soon as the
  /// previous one completes, until stop() is called.
  void start();
  void stop();

  std::uint64_t completed_bytes() const;
  std::uint64_t total_retransmits() const;
  std::size_t flow_count() const { return conns_.size(); }
  const std::vector<RdmaConnection*>& connections() const { return conns_; }

  /// OK while every flow is healthy; the first QP error otherwise. A dead
  /// flow stops reposting (fail fast) while the others keep streaming.
  Status status() const { return status_; }
  std::size_t failed_flows() const { return failed_flows_; }

 private:
  void repost(std::size_t flow);

  EngineFleet* fleet_;
  PermutationConfig config_;
  std::vector<RdmaConnection*> conns_;
  bool running_ = false;
  Status status_;
  std::size_t failed_flows_ = 0;
};

/// Drives a restartable task (e.g. a RingAllReduce) in on/off cycles.
class BurstyDriver {
 public:
  using StartFn = std::function<void(std::function<void()> on_complete)>;

  BurstyDriver(Simulator& sim, StartFn start, SimTime on_period,
               SimTime off_period)
      : sim_(&sim), start_(std::move(start)), on_(on_period), off_(off_period) {}

  /// Begin cycling immediately; runs until stop().
  void run();
  void stop() { running_ = false; }

  std::uint64_t bursts_completed() const { return bursts_; }

 private:
  void burst_loop();

  Simulator* sim_;
  StartFn start_;
  std::function<void()> restart_;  // held here so completions don't self-own
  SimTime on_;
  SimTime off_;
  bool running_ = false;
  bool task_active_ = false;
  SimTime burst_started_;
  std::uint64_t bursts_ = 0;
  // Ends the off-window: the next burst.
  Simulator::Timer off_window_{*sim_, [this] { burst_loop(); }};
};

}  // namespace stellar
