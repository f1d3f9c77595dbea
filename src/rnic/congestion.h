// Congestion control for the Stellar transport.
//
// WindowCc is the production algorithm — a stand-in for the paper's
// in-house "window-based CC that adjusts based on ECN and RTT" (§7.2):
// DCTCP-style ECN-fraction estimation plus an RTT guard, with a single
// congestion-control context shared by all paths of a connection (§9).
// An RTO is a failure, not congestion: no algorithm cuts its window on one
// (the transport retransmits on another path; ECN and RTT own congestion).
//
// SwiftCc is a delay-target alternative (in the spirit of Google's Swift)
// kept for comparison: no ECN dependence, purely RTT-driven.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/snapshot.h"
#include "common/units.h"

namespace stellar {

/// Interface every CC implementation satisfies; the transport only ever
/// talks through it.
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;
  virtual bool can_send(std::uint64_t inflight_bytes) const = 0;
  virtual void on_ack(std::uint32_t bytes, bool ecn_echo, SimTime rtt) = 0;
  virtual std::uint64_t window() const = 0;

  /// Hybrid fidelity thaw: seed the window directly from the fluid rate
  /// (rate * base RTT), clamped to the algorithm's window bounds, so packet
  /// mode resumes near the max-min operating point instead of re-probing
  /// from init_window. Default: no-op (algorithm keeps its current window).
  virtual void seed_window(std::uint64_t bytes) { (void)bytes; }

  /// Checkpoint/restore of the mutable CC context (the config is rebuilt by
  /// the owner, which serializes its TransportConfig separately). restore()
  /// must accept exactly the bytes save() produced for the same algorithm.
  virtual void save(SnapshotWriter& w) const = 0;
  virtual void restore(SnapshotReader& r) = 0;
};

/// Transport MTU: the payload bytes of a full data packet, and the
/// additive-increase step of both algorithms (~1 MTU per RTT).
inline constexpr std::uint32_t kMtu = 4096;
/// Window bounds of the one shared CC context (§7.2).
inline constexpr std::uint64_t kInitWindow = 256 * 1024;  // ~2x BDP
inline constexpr std::uint64_t kMinWindow = 4096;
inline constexpr std::uint64_t kMaxWindow = 1024 * 1024;
/// Base fabric RTT: the RTT guard and Swift's delay target are multiples
/// of it, and a fluid thaw seeds the window at rate * 2 * kBaseRtt.
inline constexpr SimTime kBaseRtt = SimTime::micros(8);

/// Window bounds of one CC context: the kInitWindow/kMinWindow/kMaxWindow
/// trio for the shared context, or the 1/paths share of it each per-path
/// context gets (RdmaConnection::rebuild_from_config).
struct CcConfig {
  std::uint64_t init_window = kInitWindow;
  std::uint64_t min_window = kMinWindow;
  std::uint64_t max_window = kMaxWindow;
  static constexpr double ecn_gain = 0.0625;      // DCTCP g
  static constexpr double rtt_high_factor = 3.0;  // RTT guard threshold
  static constexpr double rtt_backoff = 0.85;  // multiplicative RTT response
};

class WindowCc final : public CongestionControl {
 public:
  explicit WindowCc(CcConfig config = {})
      : config_(config), window_(config.init_window) {}

  std::uint64_t window() const override { return window_; }

  bool can_send(std::uint64_t inflight_bytes) const override {
    return inflight_bytes < window_;
  }

  void on_ack(std::uint32_t bytes, bool ecn_echo, SimTime rtt) override {
    // DCTCP alpha: EWMA of the marked fraction, updated per ACK with the
    // byte-weighted contribution.
    const double frac = ecn_echo ? 1.0 : 0.0;
    const double w =
        std::min(1.0, static_cast<double>(bytes) / static_cast<double>(window_));
    alpha_ = (1.0 - config_.ecn_gain * w) * alpha_ + config_.ecn_gain * w * frac;

    if (ecn_echo) {
      // Proportional per-ACK decrease; integrates to the DCTCP per-window
      // cut of alpha/2.
      const double cut = alpha_ / 2.0 * static_cast<double>(bytes);
      shrink(static_cast<std::uint64_t>(cut));
    } else {
      // Additive increase: ~1 MTU per RTT.
      const double gain = static_cast<double>(kMtu) *
                          static_cast<double>(bytes) /
                          static_cast<double>(window_);
      grow(static_cast<std::uint64_t>(gain) + 1);
    }

    // RTT guard: persistent queueing that ECN misses (e.g. on the reverse
    // path) still triggers a decrease, rate-limited to once per RTT.
    if (rtt > SimTime::picos(static_cast<std::int64_t>(
                  config_.rtt_high_factor *
                  static_cast<double>(kBaseRtt.ps())))) {
      if (acked_since_rtt_cut_ >= window_) {
        window_ = std::max(
            config_.min_window,
            static_cast<std::uint64_t>(static_cast<double>(window_) *
                                       config_.rtt_backoff));
        acked_since_rtt_cut_ = 0;
      }
    }
    acked_since_rtt_cut_ += bytes;
  }

  void seed_window(std::uint64_t bytes) override {
    window_ = std::clamp(bytes, config_.min_window, config_.max_window);
    // A fresh operating point invalidates the marked-fraction history.
    alpha_ = 0.0;
    acked_since_rtt_cut_ = 0;
  }

  void save(SnapshotWriter& w) const override { fields(w, *this); }
  void restore(SnapshotReader& r) override { fields(r, *this); }
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& cc) {
    ar(cc.window_, cc.alpha_, cc.acked_since_rtt_cut_);
  }

  double alpha() const { return alpha_; }
  const CcConfig& config() const { return config_; }

 private:
  void grow(std::uint64_t bytes) {
    window_ = std::min(config_.max_window, window_ + bytes);
  }
  void shrink(std::uint64_t bytes) {
    window_ = window_ > bytes ? window_ - bytes : config_.min_window;
    window_ = std::max(config_.min_window, window_);
  }

  CcConfig config_;
  std::uint64_t window_;
  double alpha_ = 0.0;
  std::uint64_t acked_since_rtt_cut_ = 0;
};

/// Delay-target window CC (Swift-flavoured): additive increase while the
/// RTT sits below the target, multiplicative decrease proportional to the
/// overshoot — ECN marks are ignored entirely.
class SwiftCc final : public CongestionControl {
 public:
  explicit SwiftCc(CcConfig config = {})
      : config_(config), window_(config.init_window) {}

  std::uint64_t window() const override { return window_; }

  bool can_send(std::uint64_t inflight_bytes) const override {
    return inflight_bytes < window_;
  }

  void on_ack(std::uint32_t bytes, bool ecn_echo, SimTime rtt) override {
    (void)ecn_echo;
    // Target: base fabric RTT plus half a window's worth of queueing slack.
    const double target_us = kBaseRtt.us() * 1.5;
    const double rtt_us = rtt.us();
    if (rtt_us <= target_us) {
      const double gain = static_cast<double>(kMtu) *
                          static_cast<double>(bytes) /
                          static_cast<double>(window_);
      window_ = std::min(config_.max_window,
                         window_ + static_cast<std::uint64_t>(gain) + 1);
      acked_since_cut_ += bytes;
      return;
    }
    // Overshoot: cut proportionally, at most once per window of ACKs.
    acked_since_cut_ += bytes;
    if (acked_since_cut_ < window_) return;
    acked_since_cut_ = 0;
    const double overshoot = std::min(0.5, (rtt_us - target_us) / rtt_us);
    window_ = std::max(
        config_.min_window,
        static_cast<std::uint64_t>(static_cast<double>(window_) *
                                   (1.0 - 0.8 * overshoot)));
  }

  void seed_window(std::uint64_t bytes) override {
    window_ = std::clamp(bytes, config_.min_window, config_.max_window);
    acked_since_cut_ = 0;
  }

  void save(SnapshotWriter& w) const override { fields(w, *this); }
  void restore(SnapshotReader& r) override { fields(r, *this); }
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& cc) {
    ar(cc.window_, cc.acked_since_cut_);
  }

 private:
  CcConfig config_;
  std::uint64_t window_;
  std::uint64_t acked_since_cut_ = 0;
};

enum class CcAlgo : std::uint8_t { kWindowEcnRtt, kSwiftDelay };

inline std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, const CcConfig& config) {
  switch (algo) {
    case CcAlgo::kWindowEcnRtt:
      return std::make_unique<WindowCc>(config);
    case CcAlgo::kSwiftDelay:
      return std::make_unique<SwiftCc>(config);
  }
  return nullptr;
}

inline const char* cc_algo_name(CcAlgo algo) {
  switch (algo) {
    case CcAlgo::kWindowEcnRtt:
      return "ECN+RTT window";
    case CcAlgo::kSwiftDelay:
      return "Swift-delay";
  }
  return "?";
}

}  // namespace stellar
