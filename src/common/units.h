// Strong-typed units used throughout the Stellar simulation.
//
// All simulated time is carried as integer picoseconds to keep event
// ordering exact (no floating-point drift when dividing bandwidths).
// Helper literals/constructors are provided for the common magnitudes.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace stellar {

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// One tenant (a VM / RunD container) as the unit of isolation, accounting
/// and QoS. Numerically identical to VmId (rnic/verbs.h) — defined here, at
/// the bottom of the layering DAG, so memory/pcie/net layers can attribute
/// shared-resource usage without depending on the virtualization stack.
using TenantId = std::uint32_t;

/// Usage that predates the tenant layer (or belongs to the host itself) is
/// attributed to tenant 0, mirroring kHostVm.
inline constexpr TenantId kHostTenant = 0;

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// A point in (or duration of) simulated time, in integer picoseconds.
/// Picosecond resolution lets us represent per-byte serialization delays of
/// 400 Gbps links (20 ps/byte) exactly.
class SimTime {
 public:
  constexpr SimTime() = default;
  static constexpr SimTime picos(std::int64_t v) { return SimTime{v}; }
  static constexpr SimTime nanos(std::int64_t v) { return SimTime{v * 1000}; }
  static constexpr SimTime micros(std::int64_t v) {
    return SimTime{v * 1'000'000};
  }
  static constexpr SimTime millis(std::int64_t v) {
    return SimTime{v * 1'000'000'000};
  }
  static constexpr SimTime seconds(double v) {
    return SimTime{static_cast<std::int64_t>(v * 1e12)};
  }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double ns() const { return static_cast<double>(ps_) / 1e3; }
  constexpr double us() const { return static_cast<double>(ps_) / 1e6; }
  constexpr double ms() const { return static_cast<double>(ps_) / 1e9; }
  constexpr double sec() const { return static_cast<double>(ps_) / 1e12; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ps_ + o.ps_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ps_ - o.ps_}; }
  constexpr SimTime& operator+=(SimTime o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ps_ -= o.ps_;
    return *this;
  }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ps_ * k}; }
  constexpr SimTime operator/(std::int64_t k) const { return SimTime{ps_ / k}; }
  constexpr double operator/(SimTime o) const {
    return static_cast<double>(ps_) / static_cast<double>(o.ps_);
  }

  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

// ---------------------------------------------------------------------------
// Data sizes
// ---------------------------------------------------------------------------

constexpr std::uint64_t operator""_B(unsigned long long v) { return v; }
constexpr std::uint64_t operator""_KiB(unsigned long long v) {
  return v * 1024ull;
}
constexpr std::uint64_t operator""_MiB(unsigned long long v) {
  return v * 1024ull * 1024ull;
}
constexpr std::uint64_t operator""_GiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull;
}
constexpr std::uint64_t operator""_TiB(unsigned long long v) {
  return v * 1024ull * 1024ull * 1024ull * 1024ull;
}

/// Pretty "4 KiB" / "1.5 GiB" formatting for logs and bench tables.
std::string format_bytes(std::uint64_t bytes);

// ---------------------------------------------------------------------------
// Bandwidth
// ---------------------------------------------------------------------------

/// Link/bus bandwidth. Stored as bits-per-second; converts byte counts to
/// serialization delays without losing integer exactness for common rates.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bits_per_sec(std::int64_t v) {
    return Bandwidth{v};
  }
  static constexpr Bandwidth gbps(double v) {
    return Bandwidth{static_cast<std::int64_t>(v * 1e9)};
  }

  constexpr std::int64_t bps() const { return bps_; }
  constexpr double as_gbps() const { return static_cast<double>(bps_) / 1e9; }
  constexpr double gigabytes_per_sec() const {
    return static_cast<double>(bps_) / 8e9;
  }

  /// Time to serialize `bytes` at this rate.
  constexpr SimTime transmit_time(std::uint64_t bytes) const {
    // ps = bytes * 8 bits * 1e12 / bps, truncated. 8e12/bps is ps-per-byte
    // and may not be integral, so the product is formed first: in 64 bits
    // for packet-sized counts (no __divti3 call on the packet path), and in
    // i128 above kMaxNarrowTransmitBytes. Both truncate alike.
    if (bytes <= kMaxNarrowTransmitBytes) {
      return SimTime::picos(static_cast<std::int64_t>(bytes) *
                            8'000'000'000'000ll / bps_);
    }
    const __int128 ps =
        static_cast<__int128>(bytes) * 8 * 1'000'000'000'000ll / bps_;
    return SimTime::picos(static_cast<std::int64_t>(ps));
  }

  constexpr auto operator<=>(const Bandwidth&) const = default;

 private:
  /// Largest byte count whose bytes * 8e12 product fits in an int64
  /// (1,152,921).
  static constexpr std::uint64_t kMaxNarrowTransmitBytes =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max() /
                                 8'000'000'000'000ll);

  constexpr explicit Bandwidth(std::int64_t bps) : bps_(bps) {}
  std::int64_t bps_ = 0;
};

}  // namespace stellar
