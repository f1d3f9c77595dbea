// The collective family beyond AllReduce, built on the same sliced ring /
// direct-exchange machinery:
//   RingReduceScatter — N-1 ring steps, each rank ends with one reduced
//                       data/N chunk;
//   AllToAll          — direct exchange, every rank sends data/N to every
//                       other rank (expert-parallel dispatch/combine, §9's
//                       MoE discussion).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collective/fleet.h"
#include "common/units.h"

namespace stellar {

/// Pipelining slices per ring chunk (ring collectives only).
inline constexpr std::uint32_t kRingSlices = 4;

struct CollectiveConfig {
  std::uint64_t data_bytes = 64ull << 20;
  TransportConfig transport;
};

/// Shared implementation of single-phase ring collectives (N-1 steps of a
/// data/N chunk with per-slice pipelining).
class RingCollective {
 public:
  RingCollective(EngineFleet& fleet, std::vector<EndpointId> ranks,
                 CollectiveConfig config, std::uint32_t phases);

  /// `on_complete` fires exactly once per start(): on success, or
  /// immediately when any ring connection enters the error state (fail
  /// fast — check status() to tell the two apart).
  void start(std::function<void()> on_complete = {});

  bool running() const { return running_; }
  /// OK while healthy/finished; the first connection error otherwise.
  Status status() const { return status_; }
  SimTime last_duration() const { return last_duration_; }
  std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  std::uint64_t slice_bytes() const { return slice_bytes_; }
  std::size_t world_size() const { return ranks_.size(); }

  /// NCCL bus bandwidth: phases*(N-1)/N * S / t.
  double bus_bandwidth_gbps() const;

  std::uint64_t total_retransmits() const;

  /// Migration hook: while paused, a rank's state machine keeps consuming
  /// receiver-side completions but defers its own transmissions (the VM is
  /// checkpointed/moved); resume_rank replays everything deferred. Peers
  /// simply see the rank go quiet — no protocol change.
  void pause_rank(std::size_t rank);
  void resume_rank(std::size_t rank);
  bool rank_paused(std::size_t rank) const { return paused_[rank] != 0; }

 private:
  void on_slice_received(std::size_t rank, std::uint32_t lane);
  void send_unit(std::size_t rank, std::uint32_t lane);
  void abort_with(const Status& reason);

  EngineFleet* fleet_;
  std::vector<EndpointId> ranks_;
  CollectiveConfig config_;
  std::uint32_t phases_;
  std::uint64_t chunk_bytes_;
  std::uint64_t slice_bytes_;
  std::uint32_t units_per_lane_;

  std::vector<RdmaConnection*> to_next_;
  std::vector<std::uint32_t> sent_;
  std::vector<std::uint32_t> recv_;
  std::vector<std::uint32_t> rank_received_total_;
  std::vector<char> paused_;
  std::vector<std::vector<std::uint32_t>> deferred_;  // lanes per paused rank

  bool running_ = false;
  std::size_t finished_ranks_ = 0;
  SimTime started_at_;
  SimTime last_duration_;
  Status status_;
  std::function<void()> on_complete_;

  std::uint32_t& sent_at(std::size_t rank, std::uint32_t lane) {
    return sent_[rank * kRingSlices + lane];
  }
  std::uint32_t& recv_at(std::size_t rank, std::uint32_t lane) {
    return recv_[rank * kRingSlices + lane];
  }
};

class RingReduceScatter : public RingCollective {
 public:
  RingReduceScatter(EngineFleet& fleet, std::vector<EndpointId> ranks,
                    CollectiveConfig config)
      : RingCollective(fleet, std::move(ranks), config, /*phases=*/1) {}
};

/// Direct all-to-all exchange: rank i sends data/N to every rank j != i on
/// a dedicated connection. Completion when every rank received N-1 shards.
class AllToAll {
 public:
  AllToAll(EngineFleet& fleet, std::vector<EndpointId> ranks,
           CollectiveConfig config);

  void start(std::function<void()> on_complete = {});

  bool running() const { return running_; }
  /// OK while healthy/finished; the first connection error otherwise.
  Status status() const { return status_; }
  SimTime last_duration() const { return last_duration_; }
  std::uint64_t shard_bytes() const { return shard_bytes_; }

  /// Algorithmic bandwidth per rank: (N-1)/N * S / t.
  double algo_bandwidth_gbps() const;

 private:
  void on_shard_received(std::size_t rank);
  void abort_with(const Status& reason);

  EngineFleet* fleet_;
  std::vector<EndpointId> ranks_;
  CollectiveConfig config_;
  std::uint64_t shard_bytes_;

  // conns_[i * N + j]: connection rank i -> rank j (null on diagonal).
  std::vector<RdmaConnection*> conns_;
  std::vector<std::uint32_t> received_;

  bool running_ = false;
  std::size_t finished_ranks_ = 0;
  SimTime started_at_;
  SimTime last_duration_;
  Status status_;
  std::function<void()> on_complete_;
};

}  // namespace stellar
