#include "core/stellar.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/tenant.h"

namespace stellar {

namespace {
constexpr std::uint32_t kDevicesTag = snapshot_tag('S', 'H', 'D', 'V');

/// One virtual device as a snapshot carries it: the index of its RNIC, its
/// MRs by key and its QPs by number.
struct DeviceRecord {
  std::uint32_t rnic_index = 0;
  std::map<MrKey, VStellarDevice::MrRecord> mrs;
  std::vector<QueuePair> qps;

  template <class Ar, class Self>
  static void fields(Ar& ar, Self& d) {
    ar(d.rnic_index, d.mrs, d.qps);
  }
};
}  // namespace

StellarHost::StellarHost(StellarHostConfig config)
    : config_(std::move(config)) {
  pcie_ = std::make_unique<HostPcie>(config_.pcie);
  hypervisor_ = std::make_unique<Hypervisor>(*pcie_, config_.hypervisor);

  for (std::uint32_t s = 0; s < kPcieSwitches; ++s) {
    pcie_->add_switch("pcie_sw" + std::to_string(s));
  }

  // One RNIC per switch, GPUs striped across switches.
  for (std::uint32_t i = 0; i < kRnicsPerHost; ++i) {
    const auto bus = static_cast<std::uint8_t>(0x10 + i * 0x10);
    rnics_.push_back(std::make_unique<Rnic>(*pcie_, Bdf{bus, 0, 0},
                                            i % kPcieSwitches));
    Status s = rnics_.back()->enable_pf_gdr();
    if (!s.is_ok()) {
      throw std::runtime_error("StellarHost: PF GDR enable failed: " +
                               s.to_string());
    }
  }

  for (std::uint32_t g = 0; g < kGpusPerHost; ++g) {
    const auto bus = static_cast<std::uint8_t>(0x18 + g * 0x10);
    const Bdf bdf{bus, 1, 0};
    const std::size_t sw = g % kPcieSwitches;
    auto bar = pcie_->attach_device(bdf, sw, kGpuBarBytes);
    if (!bar.is_ok()) {
      throw std::runtime_error("StellarHost: GPU attach failed: " +
                               bar.status().to_string());
    }
    Status s = pcie_->enable_p2p(bdf);
    if (!s.is_ok()) {
      throw std::runtime_error("StellarHost: GPU LUT registration failed: " +
                               s.to_string());
    }
    gpu_bdfs_.push_back(bdf);
    gpu_bars_.push_back(bar.value());
  }

  tenants_ = std::make_unique<TenantManager>(*this);
}

StellarHost::~StellarHost() = default;

TenantManager& StellarHost::tenants() { return *tenants_; }

StatusOr<VStellarDevice*> StellarHost::create_vstellar_device(
    RundContainer& container, std::size_t rnic_index) {
  if (rnic_index >= rnics_.size()) {
    return out_of_range("StellarHost: rnic index");
  }
  if (!container.booted()) {
    return failed_precondition("StellarHost: container not booted");
  }
  if (Status s = tenants_->admit_device(container.id()); !s.is_ok()) return s;
  // The container's PVDMA exists by now — (re)apply its pin budget.
  tenants_->apply(container.id());
  Rnic& rnic = *rnics_[rnic_index];
  auto hw = rnic.create_virtual_device(container.id());
  if (!hw.is_ok()) return hw.status();

  auto vdb = hypervisor_->map_vdb(container, hw.value().doorbell);
  if (!vdb.is_ok()) {
    (void)rnic.destroy_virtual_device(hw.value().id);
    return vdb.status();
  }

  const SimTime create_time =
      kSfCreateTime +
      hypervisor_->control_path(container.id()).execute(ControlCommand::kCreatePd);

  auto dev = std::unique_ptr<VStellarDevice>(new VStellarDevice(
      *this, container, rnic, hw.value(), vdb.value(), create_time));
  VStellarDevice* raw = dev.get();
  devices_.push_back(std::move(dev));
  return raw;
}

Status StellarHost::destroy_vstellar_device(VStellarDevice* device) {
  for (auto it = devices_.begin(); it != devices_.end(); ++it) {
    if (it->get() != device) continue;
    (void)hypervisor_->unmap_vdb(*device->container_, device->vdb_);
    (void)device->rnic_->destroy_virtual_device(device->hw_.id);
    devices_.erase(it);
    return Status::ok();
  }
  return not_found("StellarHost: unknown vStellar device");
}

std::vector<VStellarDevice*> StellarHost::devices_for_vm(VmId vm) {
  std::vector<VStellarDevice*> out;
  for (const auto& dev : devices_) {
    if (dev->vm() == vm) out.push_back(dev.get());
  }
  return out;
}

std::size_t StellarHost::device_count(VmId vm) const {
  std::size_t n = 0;
  for (const auto& dev : devices_) {
    if (dev->vm() == vm) ++n;
  }
  return n;
}

StatusOr<StellarHost::TenantKillReport> StellarHost::kill_tenant(
    RundContainer& container) {
  const VmId vm = container.id();
  TenantKillReport report;
  const std::uint64_t pinned_before = pcie_->iommu().pinned_bytes(vm);

  // Tear down every device: MRs first (releasing the PVDMA pins), then the
  // QPs, then the device itself. Deterministic order via sorted MR keys.
  for (VStellarDevice* dev : devices_for_vm(vm)) {
    for (MrKey key : dev->memory_keys()) {
      if (Status s = dev->deregister_memory(key); !s.is_ok()) return s;
      ++report.mrs;
    }
    for (const QueuePair& qp : dev->rnic().verbs().qps_in_pd(dev->pd())) {
      if (Status s = dev->rnic().verbs().destroy_qp(qp.num); !s.is_ok()) {
        return s;
      }
      ++report.qps;
    }
    if (Status s = destroy_vstellar_device(dev); !s.is_ok()) return s;
    ++report.devices;
  }

  report.rules_removed = vswitch_.remove_tenant_rules(vm);
  vswitch_.clear_qos(vm);

  if (container.booted()) {
    if (Status s = hypervisor_->shutdown_container(container); !s.is_ok()) {
      return s;
    }
  }

  report.unpinned_bytes = pinned_before - pcie_->iommu().pinned_bytes(vm);
  std::uint64_t residue = pcie_->iommu().pinned_bytes(vm);
  residue += device_count(vm);
  for (const auto& rnic : rnics_) {
    residue += rnic->mtt().tenant_pages(vm);
    residue += rnic->verbs().mr_count(vm);
    residue += rnic->verbs().qp_count(vm);
  }
  report.fully_reclaimed = residue == 0;
  return report;
}

StatusOr<std::string> StellarHost::serialize_vm_devices(VmId vm) const {
  std::vector<DeviceRecord> devs;
  for (const auto& dev : devices_) {
    if (dev->vm() != vm) continue;
    const auto rnic =
        std::find_if(rnics_.begin(), rnics_.end(),
                     [&](const auto& r) { return r.get() == dev->rnic_; });
    if (rnic == rnics_.end()) {
      return internal_error("serialize_vm_devices: device RNIC not owned");
    }
    devs.push_back({static_cast<std::uint32_t>(rnic - rnics_.begin()),
                    {dev->mr_records_.begin(), dev->mr_records_.end()},
                    dev->rnic_->verbs().qps_in_pd(dev->pd_)});
  }
  SnapshotWriter w;
  w.section(kDevicesTag);
  w(vm, devs);
  return w.take();
}

StatusOr<StellarHost::DeviceRestoreReport> StellarHost::restore_vm_devices(
    RundContainer& container, const std::string& bytes) {
  SnapshotReader r(bytes);
  VmId vm = 0;
  std::vector<DeviceRecord> devs;
  r.section(kDevicesTag);
  r(vm);
  if (r.ok() && vm != container.id()) {
    return invalid_argument("restore_vm_devices: VM id mismatch");
  }
  r(devs);
  if (Status s = r.finish(); !s.is_ok()) return s;

  DeviceRestoreReport report;
  Hypervisor& hyp = *hypervisor_;
  for (const DeviceRecord& record : devs) {
    auto dev_or = create_vstellar_device(container, record.rnic_index);
    if (!dev_or.is_ok()) return dev_or.status();
    VStellarDevice* dev = dev_or.value();
    ++report.devices;
    report.provision_time += dev->creation_time();

    for (const auto& [key, rec] : record.mrs) {
      report.control_time +=
          hyp.control_path(dev->vm_).execute(ControlCommand::kRegisterMr);
      std::uint64_t final_hpa = 0;
      if (rec.owner == MemoryOwner::kHostDram) {
        // The destination pin table starts empty: this is the Map Cache
        // cold path re-pinning the guest's working set on demand.
        auto pin = hyp.pvdma(dev->vm_).prepare_dma(Gpa{rec.guest_addr},
                                                   rec.len);
        if (!pin.is_ok()) return pin.status();
        report.control_time += pin.value().cost;
        report.repinned_bytes += pin.value().pinned_bytes;
        auto hpa = hyp.ept(dev->vm_).translate(Gpa{rec.guest_addr});
        if (!hpa.is_ok()) return hpa.status();
        final_hpa = hpa.value().value();
      } else {
        if (rec.gpu_index >= gpu_count()) {
          return out_of_range("restore_vm_devices: gpu index");
        }
        final_hpa = gpu_bars_.at(rec.gpu_index).base.value() + rec.guest_addr;
      }

      MemoryRegion mr{key, dev->pd_, rec.va, rec.len, rec.owner};
      if (Status s = dev->rnic_->verbs().adopt_mr(mr); !s.is_ok()) return s;
      if (Status s = dev->rnic_->mtt().register_region(
              key, rec.va, rec.len, final_hpa, rec.owner, /*translated=*/true,
              dev->vm_);
          !s.is_ok()) {
        return s;
      }
      dev->mr_records_.emplace(key, rec);
      ++report.mrs;
    }

    for (QueuePair qp : record.qps) {
      qp.pd = dev->pd_;
      auto& control = hyp.control_path(dev->vm_);
      report.control_time += control.execute(ControlCommand::kCreateQp);
      // Re-walk the verbs ladder for however far the QP had progressed.
      const int steps = qp.state == QpState::kInit   ? 1
                        : qp.state == QpState::kRtr  ? 2
                        : qp.state == QpState::kRts  ? 3
                                                     : 0;
      for (int i = 0; i < steps; ++i) {
        report.control_time += control.execute(ControlCommand::kModifyQp);
      }
      if (Status s = dev->rnic_->verbs().adopt_qp(qp); !s.is_ok()) return s;
      ++report.qps;
    }
  }
  return report;
}

GdrEngine StellarHost::make_gdr_engine(GdrMode mode, std::size_t rnic_index) {
  Rnic& rnic = *rnics_.at(rnic_index);
  GdrEngineConfig cfg;
  cfg.nic_rate = kRnicLineRate;
  cfg.requester = rnic.pf_bdf();
  Atc* atc = nullptr;
  if (mode == GdrMode::kAtsAtc) {
    atcs_.push_back(
        std::make_unique<Atc>(*pcie_, rnic.pf_bdf(), kAtcCapacityPages));
    atc = atcs_.back().get();
  }
  return GdrEngine(*pcie_, cfg, mode, atc);
}

// ---------------------------------------------------------------------------
// VStellarDevice
// ---------------------------------------------------------------------------

VStellarDevice::VStellarDevice(StellarHost& host, RundContainer& container,
                               Rnic& rnic, Rnic::VirtualDevice hw,
                               Hypervisor::VdbMapping vdb,
                               SimTime creation_time)
    : host_(&host),
      container_(&container),
      rnic_(&rnic),
      hw_(hw),
      vdb_(vdb),
      creation_time_(creation_time),
      vm_(container.id()),
      pd_(rnic.verbs().create_pd(container.id())) {}

StatusOr<VStellarDevice::RegisterResult> VStellarDevice::register_memory(
    Gva va, std::uint64_t len, MemoryOwner owner, std::uint64_t guest_addr,
    std::size_t gpu_index) {
  Hypervisor& hyp = host_->hypervisor();
  if (Status s = host_->tenants().admit_mr(vm_); !s.is_ok()) return s;
  RegisterResult out;
  out.latency = hyp.control_path(vm_).execute(ControlCommand::kRegisterMr);

  std::uint64_t final_hpa = 0;
  if (owner == MemoryOwner::kHostDram) {
    const Gpa gpa{guest_addr};
    // Translate before pinning, so a GPA outside the guest pins nothing.
    auto hpa = hyp.ept(vm_).translate(gpa);
    if (!hpa.is_ok()) return hpa.status();
    final_hpa = hpa.value().value();
    // PVDMA: pin the covering blocks on demand (Figure 4 stages 1-2).
    auto pin = hyp.pvdma(vm_).prepare_dma(gpa, len);
    if (!pin.is_ok()) return pin.status();
    out.latency += pin.value().cost;
    out.pinned_now = !pin.value().cache_hit;
  } else {
    if (gpu_index >= host_->gpu_count()) {
      return out_of_range("register_memory: gpu index");
    }
    const Bar bar = host_->gpu_bar(gpu_index);
    if (guest_addr + len > bar.len) {
      return out_of_range("register_memory: beyond GPU BAR");
    }
    final_hpa = bar.base.value() + guest_addr;
  }

  // A failure from here on records no MR, so nothing would ever release
  // the pins taken above: give them back before returning.
  const auto unpin = [&] {
    if (owner == MemoryOwner::kHostDram) {
      hyp.pvdma(vm_).release_dma(Gpa{guest_addr}, len);
    }
  };
  auto mr = rnic_->verbs().register_mr(pd_, va, len, owner);
  if (!mr.is_ok()) {
    unpin();
    return mr.status();
  }

  // The Stellar twist: the MTT entry stores the *final* HPA and the memory
  // owner — an eMTT entry (§6).
  Status s = rnic_->mtt().register_region(mr.value(), va, len, final_hpa,
                                          owner, /*translated=*/true, vm_);
  if (!s.is_ok()) {
    (void)rnic_->verbs().deregister_mr(mr.value());
    unpin();
    return s;
  }
  out.key = mr.value();
  mr_records_.emplace(
      out.key,
      MrRecord{va, len, owner, guest_addr,
               static_cast<std::uint32_t>(gpu_index)});
  return out;
}

std::vector<MrKey> VStellarDevice::memory_keys() const {
  std::vector<MrKey> keys;
  keys.reserve(mr_records_.size());
  for (const auto& [key, rec] : mr_records_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status VStellarDevice::deregister_memory(MrKey key) {
  auto mr = rnic_->verbs().mr(key);
  if (!mr.is_ok()) return mr.status();
  if (auto it = mr_records_.find(key); it != mr_records_.end()) {
    if (it->second.owner == MemoryOwner::kHostDram) {
      host_->hypervisor().pvdma(vm_).release_dma(Gpa{it->second.guest_addr},
                                                 it->second.len);
    }
    mr_records_.erase(it);
  }
  (void)rnic_->mtt().deregister(key);
  return rnic_->verbs().deregister_mr(key);
}

StatusOr<QpNum> VStellarDevice::create_qp() {
  if (Status s = host_->tenants().admit_qp(vm_); !s.is_ok()) return s;
  host_->hypervisor().control_path(vm_).execute(ControlCommand::kCreateQp);
  return rnic_->verbs().create_qp(pd_);
}

Status VStellarDevice::connect_qp(QpNum qp, QpNum remote_qp) {
  auto& control = host_->hypervisor().control_path(vm_);
  control.execute(ControlCommand::kModifyQp);
  Status s = rnic_->verbs().modify_qp(qp, QpState::kInit);
  if (!s.is_ok()) return s;
  control.execute(ControlCommand::kModifyQp);
  s = rnic_->verbs().modify_qp(qp, QpState::kRtr, remote_qp);
  if (!s.is_ok()) return s;
  control.execute(ControlCommand::kModifyQp);
  return rnic_->verbs().modify_qp(qp, QpState::kRts, remote_qp);
}

Status VStellarDevice::check_access(QpNum qp, MrKey mr) const {
  return rnic_->verbs().check_access(qp, mr);
}

StatusOr<GdrTransfer> VStellarDevice::gdr_write(MrKey mr, Gva va,
                                                std::uint64_t len) {
  auto entry = rnic_->mtt().lookup(mr, va);
  if (!entry.is_ok()) return entry.status();
  if (!entry.value().translated) {
    return failed_precondition("gdr_write: MR lacks an eMTT translation");
  }
  GdrEngineConfig cfg;
  cfg.nic_rate = kRnicLineRate;
  cfg.requester = rnic_->pf_bdf();
  GdrEngine engine(host_->pcie(), cfg, GdrMode::kEmtt, nullptr);
  return engine.transfer(IoVa{entry.value().target}, len);
}

}  // namespace stellar
