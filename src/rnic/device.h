// RNIC device model: function provisioning (PF / SR-IOV VFs / Scalable
// Functions), doorbell space, and the MTT.
//
// Provisioning reproduces the operational constraints of §3.1:
//  * VFs are static — the enabled count can only toggle between zero and a
//    value; going 2 -> 3 requires destroying all VFs first (Problem 1).
//  * Each enabled VF consumes a fixed memory overhead (63 virtual queues of
//    5000 MTU-sized buffers ≈ 2.4 GB) and burns a BDF + switch LUT slot.
//  * SFs / vStellar devices are dynamic, share the parent BDF, take a 4 KiB
//    doorbell page, and are bounded only by doorbell space (64 k devices).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "pcie/host_pcie.h"
#include "rnic/mtt.h"
#include "rnic/verbs.h"

namespace stellar {

inline constexpr Bandwidth kRnicLineRate = Bandwidth::gbps(400);
// ~2.4 GB per VF.
inline constexpr std::uint64_t kVfMemoryOverhead = 2'400ull << 20;
// Full function reset.
inline constexpr SimTime kVfResetTime = SimTime::seconds(8.0);
// Per VF after reset.
inline constexpr SimTime kVfCreateTime = SimTime::seconds(1.0);
// Matches MasQ/vStellar.
inline constexpr SimTime kSfCreateTime = SimTime::seconds(1.5);

// ATC of a kAtsAtc GDR engine ("tens of thousands of pages", Figure 8).
inline constexpr std::size_t kAtcCapacityPages = 8192;
// SR-IOV VFs the hardware can enable.
inline constexpr std::uint32_t kMaxVfs = 64;
// PF doorbell BAR: one 4 KiB page per SF/vStellar device, 64k pages (§4).
inline constexpr std::uint64_t kDoorbellBarBytes = 64ull * 1024 * kPage4K;

class Rnic {
 public:
  /// Attaches the RNIC's PF under `switch_id` of the host PCIe fabric.
  Rnic(HostPcie& pcie, Bdf pf_bdf, std::size_t switch_id);

  Bdf pf_bdf() const { return pf_bdf_; }
  const Bar& bar() const { return bar_; }
  HostPcie& pcie() { return *pcie_; }

  // -- SR-IOV VFs (baseline path) ---------------------------------------------

  /// Set the enabled VF count. Only 0 -> n or n -> 0 transitions are legal
  /// without a reset; the returned time covers the reset + creation cost.
  StatusOr<SimTime> set_num_vfs(std::uint32_t count);

  std::uint32_t num_vfs() const { return static_cast<std::uint32_t>(vfs_.size()); }
  std::uint64_t vf_memory_bytes() const {
    return vfs_.size() * kVfMemoryOverhead;
  }

  /// Register a VF for GDR: claims a slot in the PCIe switch LUT.
  Status enable_vf_gdr(std::uint32_t index);

  // -- Scalable / vStellar functions ------------------------------------------

  struct VirtualDevice {
    std::uint32_t id = 0;
    Hpa doorbell;          // 4 KiB doorbell page inside the PF BAR
    VmId vm = kHostVm;
  };

  /// Dynamic creation; no BDF, no LUT slot, ~1.5 s. GDR works out of the
  /// box because traffic uses the PF's (already LUT-registered) BDF.
  StatusOr<VirtualDevice> create_virtual_device(VmId vm);
  Status destroy_virtual_device(std::uint32_t id);
  std::uint32_t virtual_device_count() const {
    return static_cast<std::uint32_t>(vdevs_.size());
  }

  /// Enable GDR for the PF itself (one LUT slot for *all* virtual devices).
  Status enable_pf_gdr() { return pcie_->enable_p2p(pf_bdf_); }

  // -- Shared resources ---------------------------------------------------------

  VerbsResources& verbs() { return verbs_; }
  const VerbsResources& verbs() const { return verbs_; }
  Mtt& mtt() { return mtt_; }
  const Mtt& mtt() const { return mtt_; }

 private:
  HostPcie* pcie_;
  Bdf pf_bdf_;
  std::size_t switch_id_;
  Bar bar_;
  VerbsResources verbs_;
  Mtt mtt_;

  struct VfState {
    Bdf bdf;
  };
  std::vector<VfState> vfs_;

  std::unordered_map<std::uint32_t, VirtualDevice> vdevs_;
  std::uint32_t next_vdev_id_ = 1;
  std::uint64_t next_doorbell_offset_ = 0;
  std::vector<std::uint64_t> free_doorbells_;
};

}  // namespace stellar
