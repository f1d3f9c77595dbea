// GDR data-path engine: models sustained GPU Direct RDMA throughput for the
// three translation designs compared in Figures 8 and 14:
//
//   kEmtt      - Stellar: MTT holds the final HPA; TLPs go out pre-
//                translated and P2P-route at the switch. No per-page stall.
//   kAtsAtc    - SR-IOV/VF baseline: MTT holds an IoVa; the RNIC's ATC
//                caches ATS results. ATC misses stall the pipeline; on top,
//                IOMMU IOTLB misses during the ATS walk stall further.
//   kRcRouted  - HyV/MasQ: untranslated TLPs detour through the Root
//                Complex, whose P2P forwarding bandwidth caps throughput.
//
// Pages are 4 KiB, as in the paper's GDR tests. Only kAtsAtc has per-page
// state: one Atc::translate_run per message runs its pages against the
// *real* ATC/IOTLB LRU state, so its throughput cliffs emerge from cache capacities and the access pattern, not from
// hard-coded breakpoints. Each page then costs its wire time plus a stall
// fixed by how its translation was served (ATC hit, IOTLB hit or page
// walk), so the duration is a closed form of the run's counts. kEmtt and
// kRcRouted carry no per-page state: every page costs the same, so their
// duration is pages × per-page time.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "memory/address.h"
#include "pcie/atc.h"
#include "pcie/host_pcie.h"

namespace stellar {

enum class GdrMode { kEmtt, kAtsAtc, kRcRouted };

/// Per-TLP header bytes on the NIC port.
inline constexpr std::uint32_t kGdrWireOverhead = 66;
/// Concurrent ATS requests the NIC sustains; an ATC-miss stall is the ATS
/// round trip divided by this depth (pipelined translation).
inline constexpr std::uint32_t kAtsPipelineDepth = 32;
/// Concurrent page walks the IOMMU sustains during ATS service.
inline constexpr std::uint32_t kIommuWalkDepth = 8;

struct GdrEngineConfig {
  Bandwidth nic_rate = Bandwidth::gbps(400);
  /// The issuing NIC function; used to classify the PCIe route (direct P2P
  /// vs RC detour) with a probe TLP per transfer.
  Bdf requester;
};

/// Result of pushing one message through the engine.
struct GdrTransfer {
  SimTime duration;
  double gbps = 0.0;
  std::uint64_t atc_misses = 0;
  std::uint64_t iotlb_misses = 0;
};

class GdrEngine {
 public:
  /// `atc` may be null for kEmtt / kRcRouted modes.
  GdrEngine(HostPcie& fabric, GdrEngineConfig config, GdrMode mode, Atc* atc)
      : fabric_(&fabric), config_(config), mode_(mode), atc_(atc) {}

  /// Model a GDR WRITE of `len` bytes starting at device address `iova`
  /// (pages are touched sequentially, as perftest does).
  GdrTransfer transfer(IoVa iova, std::uint64_t len);

  GdrMode mode() const { return mode_; }

 private:
  HostPcie* fabric_;
  GdrEngineConfig config_;
  GdrMode mode_;
  Atc* atc_;
};

}  // namespace stellar
