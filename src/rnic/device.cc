#include "rnic/device.h"

#include <stdexcept>

namespace stellar {

namespace {
constexpr std::uint64_t kMttCapacityPages = 64ull << 20;  // 64M pages = 256 GiB
}  // namespace

Rnic::Rnic(HostPcie& pcie, Bdf pf_bdf, std::size_t switch_id)
    : pcie_(&pcie),
      pf_bdf_(pf_bdf),
      switch_id_(switch_id),
      mtt_(kMttCapacityPages) {
  auto bar = pcie_->attach_device(pf_bdf_, switch_id_, kDoorbellBarBytes);
  if (!bar.is_ok()) {
    throw std::runtime_error("Rnic: cannot attach PF: " +
                             bar.status().to_string());
  }
  bar_ = bar.value();
}

StatusOr<SimTime> Rnic::set_num_vfs(std::uint32_t count) {
  if (count > kMaxVfs) {
    return resource_exhausted("Rnic: VF count exceeds hardware maximum");
  }
  if (!vfs_.empty() && count != 0) {
    // The vendor constraint of Problem (1): no incremental reconfiguration.
    return failed_precondition(
        "Rnic: VF count can only change between zero and a value; "
        "destroy all VFs first");
  }
  SimTime cost = SimTime::zero();
  if (count == 0) {
    for (const VfState& vf : vfs_) {
      pcie_->disable_p2p(vf.bdf);
      (void)pcie_->detach_device(vf.bdf);
    }
    vfs_.clear();
    cost = kVfResetTime;
    return cost;
  }
  cost = kVfResetTime;
  for (std::uint32_t i = 0; i < count; ++i) {
    // VFs take function numbers after the PF on the same bus/device.
    const Bdf bdf{pf_bdf_.bus(),
                  static_cast<std::uint8_t>(pf_bdf_.device() + 1 + i / 8),
                  static_cast<std::uint8_t>((i % 8))};
    auto bar = pcie_->attach_device(bdf, switch_id_, kPage4K * 64);
    if (!bar.is_ok()) {
      // Roll back partial creation.
      for (const VfState& vf : vfs_) (void)pcie_->detach_device(vf.bdf);
      vfs_.clear();
      return bar.status();
    }
    vfs_.push_back(VfState{bdf});
    cost += kVfCreateTime;
  }
  return cost;
}

Status Rnic::enable_vf_gdr(std::uint32_t index) {
  if (index >= vfs_.size()) return out_of_range("Rnic: VF index");
  return pcie_->enable_p2p(vfs_[index].bdf);
}

StatusOr<Rnic::VirtualDevice> Rnic::create_virtual_device(VmId vm) {
  std::uint64_t offset = 0;
  if (!free_doorbells_.empty()) {
    offset = free_doorbells_.back();
    free_doorbells_.pop_back();
  } else {
    if (next_doorbell_offset_ + kPage4K > kDoorbellBarBytes) {
      return resource_exhausted("Rnic: doorbell BAR exhausted");
    }
    offset = next_doorbell_offset_;
    next_doorbell_offset_ += kPage4K;
  }
  VirtualDevice dev;
  dev.id = next_vdev_id_++;
  dev.doorbell = bar_.base + offset;
  dev.vm = vm;
  vdevs_.emplace(dev.id, dev);
  return dev;
}

Status Rnic::destroy_virtual_device(std::uint32_t id) {
  auto it = vdevs_.find(id);
  if (it == vdevs_.end()) return not_found("Rnic: unknown virtual device");
  free_doorbells_.push_back(it->second.doorbell - bar_.base);
  vdevs_.erase(it);
  return Status::ok();
}

}  // namespace stellar
