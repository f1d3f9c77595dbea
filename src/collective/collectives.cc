#include "collective/collectives.h"

#include <algorithm>
#include <stdexcept>

#include "check/check.h"
#include "obs/obs.h"

namespace stellar {

// ---------------------------------------------------------------------------
// RingCollective
// ---------------------------------------------------------------------------

RingCollective::RingCollective(EngineFleet& fleet,
                               std::vector<EndpointId> ranks,
                               CollectiveConfig config, std::uint32_t phases)
    : fleet_(&fleet),
      ranks_(std::move(ranks)),
      config_(config),
      phases_(phases) {
  const std::size_t n = ranks_.size();
  if (n < 2) throw std::invalid_argument("RingCollective: need >= 2 ranks");
  chunk_bytes_ = (config_.data_bytes + n - 1) / n;
  slice_bytes_ = (chunk_bytes_ + kRingSlices - 1) / kRingSlices;
  units_per_lane_ = static_cast<std::uint32_t>(phases_ * (n - 1));

  to_next_.resize(n);
  sent_.assign(n * kRingSlices, 0);
  recv_.assign(n * kRingSlices, 0);
  rank_received_total_.assign(n, 0);
  paused_.assign(n, 0);
  deferred_.assign(n, {});

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    auto conn = fleet_->connect(ranks_[i], ranks_[next], config_.transport);
    if (!conn.is_ok()) {
      throw std::invalid_argument("RingCollective: " +
                                  conn.status().to_string());
    }
    to_next_[i] = conn.value();
    // Fail fast on a dead QP: without this the ring would silently stall
    // forever once any connection exhausts its retry budget.
    to_next_[i]->set_on_error(
        [this](const Status& reason) { abort_with(reason); });
    fleet_->at(ranks_[next])
        .set_conn_message_handler(
            to_next_[i]->id(), [this, next](const RxMessage& m) {
              on_slice_received(next, m.tag);
            });
  }
}

void RingCollective::start(std::function<void()> on_complete) {
  STELLAR_CHECK(!running_, "collective started while already running");
  running_ = true;
  finished_ranks_ = 0;
  status_ = Status::ok();
  on_complete_ = std::move(on_complete);
  std::fill(sent_.begin(), sent_.end(), 0);
  std::fill(recv_.begin(), recv_.end(), 0);
  std::fill(rank_received_total_.begin(), rank_received_total_.end(), 0);
  std::fill(paused_.begin(), paused_.end(), 0);
  for (auto& lanes : deferred_) lanes.clear();
  started_at_ = fleet_->simulator().now();
  for (std::size_t i = 0; i < ranks_.size(); ++i) {
    for (std::uint32_t lane = 0; lane < kRingSlices; ++lane) {
      send_unit(i, lane);
    }
  }
}

void RingCollective::send_unit(std::size_t rank, std::uint32_t lane) {
  ++sent_at(rank, lane);
  if (paused_[rank] != 0) {
    // Rank is being checkpointed/migrated: account the unit as sent (the
    // flow-control guard in on_slice_received keys off sent_) but hold the
    // actual transmission until resume_rank replays it.
    deferred_[rank].push_back(lane);
    return;
  }
  to_next_[rank]->post_write(slice_bytes_, {}, lane);
}

void RingCollective::pause_rank(std::size_t rank) { paused_[rank] = 1; }

void RingCollective::resume_rank(std::size_t rank) {
  if (paused_[rank] == 0) return;
  paused_[rank] = 0;
  std::vector<std::uint32_t> lanes;
  lanes.swap(deferred_[rank]);
  for (std::uint32_t lane : lanes) {
    to_next_[rank]->post_write(slice_bytes_, {}, lane);
  }
}

void RingCollective::on_slice_received(std::size_t rank, std::uint32_t lane) {
  if (!running_) return;
  ++recv_at(rank, lane);
  ++rank_received_total_[rank];
  if (sent_at(rank, lane) < units_per_lane_ &&
      sent_at(rank, lane) <= recv_at(rank, lane)) {
    send_unit(rank, lane);
  }
  if (rank_received_total_[rank] == units_per_lane_ * kRingSlices) {
    if (++finished_ranks_ < ranks_.size()) return;
    running_ = false;
    last_duration_ = fleet_->simulator().now() - started_at_;
    STELLAR_TRACE_ONLY(
        obs::count("collective/ring_ops");
        obs::complete(obs::TraceCat::kCollective, "ring", started_at_,
                      last_duration_,
                      obs::TraceArgs{"bytes", static_cast<std::int64_t>(
                                                  config_.data_bytes)});)
    if (on_complete_) {
      auto cb = std::move(on_complete_);
      on_complete_ = {};
      cb();
    }
  }
}

void RingCollective::abort_with(const Status& reason) {
  if (!status_.is_ok()) return;  // first failure wins
  status_ = reason;
  if (!running_) return;
  running_ = false;
  last_duration_ = fleet_->simulator().now() - started_at_;
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = {};
    cb();
  }
}

double RingCollective::bus_bandwidth_gbps() const {
  if (last_duration_ <= SimTime::zero()) return 0.0;
  const double n = static_cast<double>(ranks_.size());
  const double factor = phases_ * (n - 1.0) / n;
  return factor * static_cast<double>(config_.data_bytes) * 8.0 /
         last_duration_.sec() / 1e9;
}

std::uint64_t RingCollective::total_retransmits() const {
  std::uint64_t total = 0;
  for (const RdmaConnection* c : to_next_) total += c->retransmits();
  return total;
}

// ---------------------------------------------------------------------------
// AllToAll
// ---------------------------------------------------------------------------

AllToAll::AllToAll(EngineFleet& fleet, std::vector<EndpointId> ranks,
                   CollectiveConfig config)
    : fleet_(&fleet), ranks_(std::move(ranks)), config_(config) {
  const std::size_t n = ranks_.size();
  if (n < 2) throw std::invalid_argument("AllToAll: need >= 2 ranks");
  shard_bytes_ = (config_.data_bytes + n - 1) / n;

  conns_.assign(n * n, nullptr);
  received_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      auto conn = fleet_->connect(ranks_[i], ranks_[j], config_.transport);
      if (!conn.is_ok()) {
        throw std::invalid_argument("AllToAll: " + conn.status().to_string());
      }
      conns_[i * n + j] = conn.value();
      conns_[i * n + j]->set_on_error(
          [this](const Status& reason) { abort_with(reason); });
      fleet_->at(ranks_[j])
          .set_conn_message_handler(conn.value()->id(),
                                    [this, j](const RxMessage&) {
                                      on_shard_received(j);
                                    });
    }
  }
}

void AllToAll::start(std::function<void()> on_complete) {
  STELLAR_CHECK(!running_, "collective started while already running");
  running_ = true;
  finished_ranks_ = 0;
  status_ = Status::ok();
  on_complete_ = std::move(on_complete);
  std::fill(received_.begin(), received_.end(), 0);
  started_at_ = fleet_->simulator().now();
  const std::size_t n = ranks_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) conns_[i * n + j]->post_write(shard_bytes_);
    }
  }
}

void AllToAll::on_shard_received(std::size_t rank) {
  if (!running_) return;
  if (++received_[rank] < ranks_.size() - 1) return;
  if (++finished_ranks_ < ranks_.size()) return;
  running_ = false;
  last_duration_ = fleet_->simulator().now() - started_at_;
  STELLAR_TRACE_ONLY(
      obs::count("collective/alltoall_ops");
      obs::complete(obs::TraceCat::kCollective, "alltoall", started_at_,
                    last_duration_,
                    obs::TraceArgs{"bytes", static_cast<std::int64_t>(
                                                config_.data_bytes)});)
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = {};
    cb();
  }
}

void AllToAll::abort_with(const Status& reason) {
  if (!status_.is_ok()) return;
  status_ = reason;
  if (!running_) return;
  running_ = false;
  last_duration_ = fleet_->simulator().now() - started_at_;
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = {};
    cb();
  }
}

double AllToAll::algo_bandwidth_gbps() const {
  if (last_duration_ <= SimTime::zero()) return 0.0;
  const double n = static_cast<double>(ranks_.size());
  return (n - 1.0) / n * static_cast<double>(config_.data_bytes) * 8.0 /
         last_duration_.sec() / 1e9;
}

}  // namespace stellar
