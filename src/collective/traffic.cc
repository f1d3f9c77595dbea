#include "collective/traffic.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace stellar {

PermutationTraffic::PermutationTraffic(EngineFleet& fleet,
                                       std::vector<EndpointId> sources,
                                       std::vector<EndpointId> sinks,
                                       PermutationConfig config)
    : fleet_(&fleet), config_(config) {
  const bool self_permutation = sinks.empty();
  if (self_permutation) sinks = sources;
  if (sinks.size() != sources.size()) {
    throw std::invalid_argument("PermutationTraffic: size mismatch");
  }

  // Fisher-Yates shuffle; for self-permutations, retry until derangement
  // (no flow to itself). Deterministic under the config seed.
  Rng rng(config_.seed);
  auto shuffle = [&] {
    for (std::size_t i = sinks.size(); i > 1; --i) {
      std::swap(sinks[i - 1], sinks[rng.below(i)]);
    }
  };
  shuffle();
  if (self_permutation) {
    bool ok = false;
    for (int attempt = 0; attempt < 64 && !ok; ++attempt) {
      ok = true;
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        if (sinks[i] == sources[i]) {
          ok = false;
          shuffle();
          break;
        }
      }
    }
    if (!ok) {
      throw std::invalid_argument(
          "PermutationTraffic: could not build a derangement");
    }
  }

  conns_.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto conn = fleet_->connect(sources[i], sinks[i], config_.transport);
    if (!conn.is_ok()) {
      throw std::invalid_argument("PermutationTraffic: " +
                                  conn.status().to_string());
    }
    conns_.push_back(conn.value());
    // A flow whose QP dies stops reposting instead of waiting on a
    // completion that will never fire; the first error is kept for callers.
    conns_.back()->set_on_error([this](const Status& reason) {
      ++failed_flows_;
      if (status_.is_ok()) status_ = reason;
    });
  }
}

void PermutationTraffic::start() {
  running_ = true;
  for (std::size_t i = 0; i < conns_.size(); ++i) repost(i);
}

void PermutationTraffic::stop() { running_ = false; }

void PermutationTraffic::repost(std::size_t flow) {
  if (!running_ || conns_[flow]->in_error()) return;
  conns_[flow]->post_write(config_.message_bytes, [this, flow] {
    STELLAR_TRACE_ONLY(
        obs::count("traffic/messages");
        obs::count("traffic/bytes", config_.message_bytes);)
    repost(flow);
  });
}

std::uint64_t PermutationTraffic::completed_bytes() const {
  std::uint64_t total = 0;
  for (const RdmaConnection* c : conns_) total += c->completed_bytes();
  return total;
}

std::uint64_t PermutationTraffic::total_retransmits() const {
  std::uint64_t total = 0;
  for (const RdmaConnection* c : conns_) total += c->retransmits();
  return total;
}

// ---------------------------------------------------------------------------
// BurstyDriver
// ---------------------------------------------------------------------------

void BurstyDriver::run() {
  running_ = true;
  burst_loop();
}

void BurstyDriver::burst_loop() {
  if (!running_) return;
  burst_started_ = sim_->now();
  task_active_ = true;

  // Run the task back-to-back inside the on-window; then idle for the
  // off-window and repeat. The completion callback re-submits the task, so
  // the driver keeps it alive as a member; start_ receives a copy each time.
  restart_ = [this] {
    ++bursts_;
    if (!running_) {
      task_active_ = false;
      return;
    }
    if (sim_->now() - burst_started_ < on_) {
      start_(restart_);
    } else {
      task_active_ = false;
      const SimTime elapsed = sim_->now() - burst_started_;
      const SimTime idle = elapsed < on_ + off_ ? on_ + off_ - elapsed
                                                : SimTime::zero();
      off_window_.arm(sim_->now() + idle);
    }
  };
  start_(restart_);
}

}  // namespace stellar
