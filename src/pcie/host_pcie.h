// Whole-host PCIe fabric: Root Complex (with IOMMU), switches, devices and
// the TLP routing rules of Figures 1(b) and 7.
//
// Routing semantics reproduced:
//  * AT = kTranslated + requester LUT-registered + target BAR on the same
//    switch  -> direct P2P, one switch hop (the eMTT fast path).
//  * AT = kTranslated but ACS/LUT does not allow direct routing -> detour
//    via the Root Complex (the HyV/MasQ GDR path; bandwidth-capped).
//  * AT = kUntranslated -> always via the RC, IOMMU translates (IOTLB
//    hit/miss latency), then on to main memory or back down to a BAR.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "memory/host_memory.h"
#include "memory/iommu.h"
#include "pcie/bdf.h"
#include "pcie/pcie_switch.h"
#include "pcie/tlp.h"

namespace stellar {

class Atc;

struct HostPcieConfig {
  std::uint64_t main_memory_bytes = 2ull << 40;  // 2 TiB
  std::size_t lut_capacity_per_switch = 32;
  IommuConfig iommu;
  /// Peak throughput of P2P traffic detouring through the Root Complex —
  /// the bottleneck that caps HyV/MasQ GDR at ~141 Gbps in Figure 14.
  Bandwidth rc_p2p_bandwidth = Bandwidth::gbps(150);
};

/// Where a DMA ended up and what it cost.
struct DmaOutcome {
  enum class Route {
    kDirectP2P,    // switch-local peer-to-peer (eMTT fast path)
    kP2PViaRc,     // peer-to-peer detoured through the Root Complex
    kMainMemory,   // translated access to DRAM via RC
    kIommuPath,    // untranslated: RC + IOMMU walk, then to destination
  };
  Route route = Route::kMainMemory;
  Hpa resolved;          // final physical address
  SimTime latency;       // fabric + translation latency for this TLP
  bool iotlb_hit = true; // meaningful only for kIommuPath
};

class HostPcie {
 public:
  explicit HostPcie(HostPcieConfig config = {});
  // The IOMMU's flush hook points back here, so a HostPcie stays put.
  HostPcie(const HostPcie&) = delete;
  HostPcie& operator=(const HostPcie&) = delete;

  // -- Topology construction -------------------------------------------------

  /// Add a switch; returns its index.
  std::size_t add_switch(std::string name);

  /// Attach a device under switch `switch_id`, reserving a BAR of `bar_len`
  /// bytes in HPA space. Returns the allocated BAR.
  StatusOr<Bar> attach_device(Bdf bdf, std::size_t switch_id,
                              std::uint64_t bar_len);

  Status detach_device(Bdf bdf);

  /// Register `bdf` in its switch's LUT (GDR enablement). Fails when full.
  Status enable_p2p(Bdf bdf);
  void disable_p2p(Bdf bdf);
  bool p2p_enabled(Bdf bdf) const;

  // -- TLP processing ----------------------------------------------------------

  /// Route a memory read/write TLP from `tlp.requester`; returns route and
  /// latency. The fabric is stateless w.r.t. bandwidth — sustained-rate
  /// modelling lives in the RNIC pipelines, which use `route` + latency.
  StatusOr<DmaOutcome> dma(const Tlp& tlp);

  /// The ATS round trip that fills an ATC miss: device -> switch -> RC
  /// (IOTLB hit or page walk) -> switch -> device. Both are constants of
  /// the fabric and IOMMU latencies, so an ATC reads them once per run.
  struct AtsRoundTrip {
    SimTime iotlb_hit;
    SimTime walk;
  };
  AtsRoundTrip ats_round_trip() const;

  /// Every live ATC built on this host is registered here (Atc's
  /// constructor and destructor do it). Each IOMMU flush — every unmap —
  /// invalidates all of them, as the RC's ATS Invalidate Requests do, so
  /// no ATC serves a translation the IOMMU has dropped.
  void add_atc(Atc* atc);
  void remove_atc(Atc* atc);

  // -- Accessors ---------------------------------------------------------------

  Iommu& iommu() { return iommu_; }
  const Iommu& iommu() const { return iommu_; }
  HostMemory& main_memory() { return memory_; }
  PcieSwitch& pcie_switch(std::size_t id) { return *switches_.at(id); }
  const PcieSwitch& pcie_switch(std::size_t id) const {
    return *switches_.at(id);
  }
  std::size_t switch_count() const { return switches_.size(); }
  const HostPcieConfig& config() const { return config_; }

  bool has_device(Bdf bdf) const { return devices_.count(bdf) != 0; }
  StatusOr<Bar> device_bar(Bdf bdf) const;
  StatusOr<std::size_t> switch_of(Bdf bdf) const;

  // -- Counters ----------------------------------------------------------------

  std::uint64_t direct_p2p_tlps() const { return direct_p2p_; }
  std::uint64_t rc_detour_tlps() const { return rc_detour_; }
  std::uint64_t iommu_path_tlps() const { return iommu_path_; }

 private:
  struct DeviceInfo {
    std::size_t switch_id = 0;
    Bar bar;
  };

  HostPcieConfig config_;
  HostMemory memory_;     // DRAM window: [0, main_memory_bytes)
  HostMemory bar_space_;  // MMIO window above DRAM for device BARs
  Iommu iommu_;
  std::vector<std::unique_ptr<PcieSwitch>> switches_;
  std::unordered_map<Bdf, DeviceInfo> devices_;
  std::vector<Atc*> atcs_;
  Hpa main_memory_base_;
  std::uint64_t main_memory_len_;

  std::uint64_t direct_p2p_ = 0;
  std::uint64_t rc_detour_ = 0;
  std::uint64_t iommu_path_ = 0;

  bool is_main_memory(Hpa addr) const {
    return addr >= main_memory_base_ &&
           addr.value() < main_memory_base_.value() + main_memory_len_;
  }

  /// Find which device's BAR claims `addr`, searching every switch.
  std::optional<std::pair<Bdf, std::size_t>> owner_of(Hpa addr) const;
};

}  // namespace stellar
