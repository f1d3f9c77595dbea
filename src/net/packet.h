// Network packet for the fabric simulation.
//
// Carries exactly the header state the Stellar transport needs: connection
// id, PSN (packets may arrive out of order under spraying and are placed
// directly, DPP-style), message bookkeeping for receiver-side completion,
// ECN, and the path id chosen by the multipath selector.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace stellar {

using EndpointId = std::uint32_t;
inline constexpr EndpointId kInvalidEndpoint = 0xFFFFFFFFu;

/// Verbs operation the packet belongs to. READ responses travel as kWrite
/// data on the reverse-direction connection.
enum class PacketKind : std::uint8_t { kWrite, kSend, kReadRequest };

struct NetPacket {
  PacketKind kind = PacketKind::kWrite;
  // -- Transport header -------------------------------------------------------
  std::uint64_t conn_id = 0;
  std::uint64_t psn = 0;        // packet sequence number within connection
  std::uint32_t payload = 0;    // payload bytes (0 for pure ACK)
  std::uint32_t header = 64;    // header+overhead bytes on the wire
  bool is_ack = false;
  bool ecn_marked = false;      // CE mark accumulated along the path
  bool ecn_echo = false;        // ACK: echoes the data packet's CE mark
  /// Blacklist-reinstatement probe (§7.2 failure mitigation): a single
  /// header-only packet on a held-out path. Probes ride their own sequence
  /// space and never touch receiver PSN/message state; the ACK echoes the
  /// flag (and path_id) so the sender can re-admit the path.
  bool is_probe = false;

  // Message bookkeeping: receiver completes a message when it has all
  // payload bytes of msg_id. Total length rides in every packet (simulation
  // convenience standing in for a real first/last-packet protocol).
  std::uint64_t msg_id = 0;
  std::uint64_t msg_bytes = 0;
  std::uint64_t msg_offset = 0;
  std::uint32_t msg_tag = 0;  // application tag (e.g. collective lane)

  // ACK info.
  std::uint64_t ack_psn = 0;    // PSN being acknowledged (per-packet ack)

  // -- Routing ----------------------------------------------------------------
  EndpointId src = kInvalidEndpoint;
  EndpointId dst = kInvalidEndpoint;
  std::uint16_t path_id = 0;
  /// Aggregation switch of a cross-segment route (0 within a segment), set
  /// by ClosFabric::send(). With src, dst and hop it names the next link.
  std::uint16_t agg = 0;
  std::uint16_t hop = 0;  // links crossed so far

  // -- Telemetry ---------------------------------------------------------------
  SimTime sent_at;

  std::uint32_t wire_bytes() const { return payload + header; }
};

// Every link queue and in-flight FIFO holds packets by value.
static_assert(sizeof(NetPacket) <= 104, "NetPacket grew past 104 bytes");

}  // namespace stellar
