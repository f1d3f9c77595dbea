#include "pcie/host_pcie.h"

#include <algorithm>

#include "pcie/atc.h"

namespace stellar {

namespace {
// MMIO/BAR window placed well above any realistic DRAM size.
constexpr std::uint64_t kBarWindowBase = 1ull << 46;
constexpr std::uint64_t kBarWindowLen = 1ull << 40;

// Per-TLP fabric latencies.
constexpr SimTime kSwitchHop = SimTime::nanos(150);
constexpr SimTime kRcForward = SimTime::nanos(250);  // RC internal forwarding
constexpr SimTime kDeviceInternal = SimTime::nanos(50);
// ATS msg processing.
constexpr SimTime kAtsRequestOverhead = SimTime::nanos(300);
}  // namespace

HostPcie::HostPcie(HostPcieConfig config)
    : config_(config),
      memory_(Hpa{0}, config.main_memory_bytes),
      bar_space_(Hpa{kBarWindowBase}, kBarWindowLen),
      iommu_(config.iommu),
      main_memory_base_(Hpa{0}),
      main_memory_len_(config.main_memory_bytes) {
  iommu_.set_flush_hook([this] {
    for (Atc* atc : atcs_) atc->invalidate_all();
  });
}

std::size_t HostPcie::add_switch(std::string name) {
  switches_.push_back(std::make_unique<PcieSwitch>(
      std::move(name), config_.lut_capacity_per_switch));
  return switches_.size() - 1;
}

StatusOr<Bar> HostPcie::attach_device(Bdf bdf, std::size_t switch_id,
                                      std::uint64_t bar_len) {
  if (switch_id >= switches_.size()) {
    return invalid_argument("HostPcie::attach_device: bad switch id");
  }
  if (devices_.count(bdf) != 0) {
    return already_exists("HostPcie::attach_device: BDF in use");
  }
  auto base = bar_space_.allocate(bar_len, kPage4K);
  if (!base.is_ok()) return base.status();
  const Bar bar{base.value(), bar_len};
  Status s = switches_[switch_id]->attach(bdf, bar);
  if (!s.is_ok()) {
    (void)bar_space_.release(base.value());
    return s;
  }
  devices_.emplace(bdf, DeviceInfo{switch_id, bar});
  return bar;
}

Status HostPcie::detach_device(Bdf bdf) {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) {
    return not_found("HostPcie::detach_device: unknown BDF");
  }
  (void)switches_[it->second.switch_id]->detach(bdf);
  (void)bar_space_.release(it->second.bar.base);
  devices_.erase(it);
  return Status::ok();
}

Status HostPcie::enable_p2p(Bdf bdf) {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) {
    return not_found("HostPcie::enable_p2p: unknown BDF");
  }
  return switches_[it->second.switch_id]->lut_register(bdf);
}

void HostPcie::disable_p2p(Bdf bdf) {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) return;
  switches_[it->second.switch_id]->lut_unregister(bdf);
}

bool HostPcie::p2p_enabled(Bdf bdf) const {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) return false;
  return switches_[it->second.switch_id]->lut_contains(bdf);
}

StatusOr<Bar> HostPcie::device_bar(Bdf bdf) const {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) {
    return not_found("HostPcie::device_bar: unknown BDF");
  }
  return it->second.bar;
}

StatusOr<std::size_t> HostPcie::switch_of(Bdf bdf) const {
  auto it = devices_.find(bdf);
  if (it == devices_.end()) {
    return not_found("HostPcie::switch_of: unknown BDF");
  }
  return it->second.switch_id;
}

std::optional<std::pair<Bdf, std::size_t>> HostPcie::owner_of(Hpa addr) const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (auto bdf = switches_[i]->device_claiming(addr)) {
      return std::make_pair(*bdf, i);
    }
  }
  return std::nullopt;
}

StatusOr<DmaOutcome> HostPcie::dma(const Tlp& tlp) {
  auto req = devices_.find(tlp.requester);
  if (req == devices_.end()) {
    return not_found("HostPcie::dma: requester BDF not attached");
  }
  const std::size_t src_switch = req->second.switch_id;

  DmaOutcome out;

  if (tlp.at == AtField::kTranslated) {
    const Hpa hpa{tlp.address};
    out.resolved = hpa;
    if (is_main_memory(hpa)) {
      // Pre-translated write to DRAM still flows through the RC (but skips
      // the IOMMU because the address is final).
      out.route = DmaOutcome::Route::kMainMemory;
      out.latency = kDeviceInternal + kSwitchHop + kRcForward;
      ++iommu_path_;  // counted as RC traffic, no walk
      return out;
    }
    auto owner = owner_of(hpa);
    if (!owner.has_value()) {
      return not_found("HostPcie::dma: translated address unclaimed");
    }
    const bool same_switch = owner->second == src_switch;
    const bool lut_ok = switches_[src_switch]->lut_contains(tlp.requester) &&
                        switches_[owner->second]->lut_contains(owner->first);
    if (same_switch && lut_ok) {
      // The eMTT fast path of Figure 7: switch sees AT=0b10 and routes
      // straight to the peer's BAR.
      out.route = DmaOutcome::Route::kDirectP2P;
      out.latency = kDeviceInternal + kSwitchHop;
      ++direct_p2p_;
    } else {
      // ACS redirect / cross-switch: up to the RC and back down.
      out.route = DmaOutcome::Route::kP2PViaRc;
      out.latency = kDeviceInternal + kSwitchHop + kRcForward + kSwitchHop;
      ++rc_detour_;
    }
    return out;
  }

  // Untranslated: the RC's IOMMU resolves the IoVa first.
  auto tr = iommu_.translate(IoVa{tlp.address});
  if (!tr.is_ok()) return tr.status();
  out.route = DmaOutcome::Route::kIommuPath;
  out.resolved = tr.value().hpa;
  out.iotlb_hit = tr.value().iotlb_hit;
  out.latency = kDeviceInternal + kSwitchHop + kRcForward + tr.value().latency;
  if (!is_main_memory(tr.value().hpa)) {
    // Destination is a peer BAR: back down through (possibly another) switch.
    out.latency += kSwitchHop;
  }
  ++iommu_path_;
  return out;
}

HostPcie::AtsRoundTrip HostPcie::ats_round_trip() const {
  const SimTime fabric = kAtsRequestOverhead + kSwitchHop * 2 + kRcForward;
  return AtsRoundTrip{fabric + kIotlbHitLatency, fabric + kPageWalkLatency};
}

void HostPcie::add_atc(Atc* atc) { atcs_.push_back(atc); }

void HostPcie::remove_atc(Atc* atc) {
  atcs_.erase(std::remove(atcs_.begin(), atcs_.end(), atc), atcs_.end());
}

}  // namespace stellar
