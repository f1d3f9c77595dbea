#include "virt/hypervisor.h"

#include <algorithm>

#include "check/check.h"
#include "common/rng.h"

namespace stellar {

namespace {
constexpr std::uint32_t kVmTag = snapshot_tag('H', 'V', 'V', 'M');

constexpr SimTime kMicrovmBaseBoot = SimTime::seconds(8.0);
/// Per-GiB hypervisor overhead independent of pinning (page-table setup,
/// balloon negotiation, ...): the +11 s between 160 GB and 1.6 TB pods.
constexpr SimTime kPerGibOverhead = SimTime::millis(8);

// prepare_dma_with_retry's backoff envelope and jitter.
constexpr SimTime kPinRetryInitialBackoff = SimTime::micros(50);
constexpr SimTime kPinRetryMaxBackoff = SimTime::millis(5);
constexpr double kPinRetryJitter = 0.5;
constexpr std::uint64_t kPinRetryJitterSeed = 0x57E11A5ull;

// kPerGibOverhead for a guest of `bytes`.
SimTime per_gib_time(std::uint64_t bytes) {
  const double gib = static_cast<double>(bytes) / (1024.0 * 1024 * 1024);
  return SimTime::picos(static_cast<std::int64_t>(
      gib * static_cast<double>(kPerGibOverhead.ps())));
}

// Jittered retry delay within the deterministic exponential envelope.
SimTime jittered_delay(VmId vm, Gpa gpa, std::uint32_t attempt,
                       SimTime backoff) {
  // Stateless draw: a hash of (seed, vm, gpa, attempt) is deterministic
  // across runs yet decorrelated across guests and attempts.
  const std::uint64_t h = hash_combine(
      hash_combine(kPinRetryJitterSeed, vm),
      hash_combine(gpa.value(), attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double scale = 1.0 - kPinRetryJitter * u;  // (1 - jitter, 1]
  SimTime delay = SimTime::picos(static_cast<std::int64_t>(
      static_cast<double>(backoff.ps()) * scale));
  if (delay < SimTime::picos(1)) delay = SimTime::picos(1);
  return delay;
}
}  // namespace

StatusOr<Hypervisor::BootReport> Hypervisor::boot_container(
    RundContainer& container) {
  if (state_.count(container.id()) != 0) {
    return already_exists("Hypervisor: container already booted");
  }
  auto backing = pcie_->main_memory().allocate(container.memory_bytes(),
                                               kPage2M);
  if (!backing.is_ok()) return backing.status();

  auto vm = std::make_unique<VmState>();
  vm->backing_base = backing.value();
  vm->backing_len = container.memory_bytes();
  Status s = vm->ept.map(Gpa{0}, vm->backing_base, vm->backing_len);
  if (!s.is_ok()) {
    (void)pcie_->main_memory().release(backing.value());
    return s;
  }
  // The VM's backing base is globally unique in HPA space, so it doubles as
  // a collision-free IoVa window base for this guest's pins.
  vm->pvdma = std::make_unique<Pvdma>(pcie_->iommu(), vm->ept, PvdmaConfig{},
                                      vm->backing_base.value());
  vm->pvdma->set_tenant(container.id());

  BootReport report;
  report.hypervisor_time =
      kMicrovmBaseBoot + per_gib_time(container.memory_bytes());

  if (!config_.use_pvdma) {
    // VFIO-era behaviour: every guest page is IOMMU-mapped and pinned up
    // front, because any of it may become an RDMA buffer or BAR target.
    report.pin_time = pcie_->iommu().pin_cost(container.memory_bytes());
    Status pin = pcie_->iommu().map(IoVa{vm->backing_base.value()},
                                    vm->backing_base, vm->backing_len);
    if (!pin.is_ok()) {
      (void)pcie_->main_memory().release(backing.value());
      return pin;
    }
    pcie_->iommu().note_pinned(vm->backing_len, container.id());
  }

  report.total = report.hypervisor_time + report.pin_time;
  state_.emplace(container.id(), std::move(vm));
  container.set_booted(true);
  return report;
}

Status Hypervisor::shutdown_container(RundContainer& container) {
  auto it = state_.find(container.id());
  if (it == state_.end()) return not_found("Hypervisor: container not booted");
  VmState& vm = *it->second;
  if (config_.use_pvdma) {
    // Reclaim every demand-pinned block, including raw prepare_dma pins no
    // MR teardown covers — a dead tenant must not hold host pin capacity.
    (void)vm.pvdma->release_all();
  } else {
    pcie_->iommu().unmap_range(IoVa{vm.backing_base.value()}, vm.backing_len);
    pcie_->iommu().note_unpinned(vm.backing_len, container.id());
  }
  (void)pcie_->main_memory().release(vm.backing_base);
  state_.erase(it);
  container.set_booted(false);
  return Status::ok();
}

void Hypervisor::prepare_dma_with_retry(Simulator& sim, VmId vm, Gpa gpa,
                                        std::uint64_t len, PinCallback done) {
  if (!retries_) retries_.emplace(sim);
  STELLAR_CHECK(&retries_->simulator() == &sim,
                "Hypervisor: pin retries on a second Simulator");
  retry_pin(sim, vm, gpa, len, /*attempt=*/1,
            kPinRetryInitialBackoff, std::move(done));
}

void Hypervisor::retry_pin(Simulator& sim, VmId vm, Gpa gpa,
                           std::uint64_t len, std::uint32_t attempt,
                           SimTime backoff, PinCallback done) {
  auto it = state_.find(vm);
  if (it == state_.end()) {
    if (done) done(not_found("Hypervisor: container not booted"));
    return;
  }
  auto result = it->second->pvdma->prepare_dma(gpa, len);
  // Only resource pressure is transient; everything else (and the attempt
  // budget running out) is reported to the caller as-is.
  if (result.is_ok() ||
      result.status().code() != StatusCode::kResourceExhausted ||
      attempt >= kPinRetryMaxAttempts) {
    if (done) done(std::move(result));
    return;
  }
  ++pin_retries_;
  ++pin_retries_by_vm_[vm];
  const SimTime next_backoff =
      std::min(backoff + backoff, kPinRetryMaxBackoff);
  // Jitter the actual sleep so guests that hit the same pressure window
  // don't retry in lock-step and stampede the pin path when it lifts.
  const SimTime delay = jittered_delay(vm, gpa, attempt, backoff);
  retries_->schedule_after(delay, [this, &sim, vm, gpa, len, attempt,
                                   next_backoff,
                                   done = std::move(done)]() mutable {
    retry_pin(sim, vm, gpa, len, attempt + 1, next_backoff, std::move(done));
  });
}

StatusOr<Hypervisor::VdbMapping> Hypervisor::map_vdb(RundContainer& container,
                                                     Hpa doorbell_hpa) {
  auto it = state_.find(container.id());
  if (it == state_.end()) return not_found("Hypervisor: container not booted");
  VmState& vm = *it->second;

  VdbMapping mapping;
  if (config_.vdb_in_shm) {
    auto shm = vm.shm.map(doorbell_hpa, kPage4K);
    if (!shm.is_ok()) return shm.status();
    mapping.in_shm = true;
    mapping.shm = shm.value();
    return mapping;
  }

  // Pre-fix layout: carve a 4 KiB hole out of guest RAM and EPT-map it to
  // the doorbell register. This is what can later be swallowed by a 2 MiB
  // PVDMA block (Figure 5, step 3).
  auto gpa = container.alloc(kPage4K, kPage4K);
  if (!gpa.is_ok()) return gpa.status();
  Status s = vm.ept.map_register_hole(gpa.value(), doorbell_hpa, kPage4K);
  if (!s.is_ok()) return s;
  mapping.in_shm = false;
  mapping.gpa = gpa.value();
  return mapping;
}

std::vector<VmId> Hypervisor::booted_vms() const {
  std::vector<VmId> vms;
  vms.reserve(state_.size());
  for (const auto& [id, st] : state_) vms.push_back(id);
  std::sort(vms.begin(), vms.end());
  return vms;
}

StatusOr<std::string> Hypervisor::serialize_vm(VmId vm) const {
  auto it = state_.find(vm);
  if (it == state_.end()) return not_found("Hypervisor: container not booted");
  const VmState& st = *it->second;
  SnapshotWriter w;
  w.section(kVmTag);
  w(vm, st.backing_base, st.backing_len, st);
  return w.take();
}

Status Hypervisor::restore_vm_hot(VmId vm, const std::string& bytes) {
  auto it = state_.find(vm);
  if (it == state_.end()) return not_found("Hypervisor: container not booted");
  VmState& st = *it->second;
  SnapshotReader r(bytes);
  VmId id = 0;
  Hpa old_base;
  std::uint64_t old_len = 0;
  r.section(kVmTag);
  r(id, old_base, old_len);
  if (!r.ok()) return r.status();
  if (id != vm) {
    return invalid_argument("Hypervisor::restore_vm_hot: snapshot is for VM " +
                            std::to_string(id));
  }
  if (old_base != st.backing_base || old_len != st.backing_len) {
    return invalid_argument(
        "Hypervisor::restore_vm_hot: backing window changed — hot restore "
        "requires the guest to keep its physical frames");
  }
  // Same host, same frames: the EPT is exact, register windows are kept
  // and pins adopted.
  r(st);
  return r.finish();
}

StatusOr<Hypervisor::HotUpgradeReport> Hypervisor::hot_upgrade() {
  HotUpgradeReport report;
  for (VmId vm : booted_vms()) {
    VmState& st = *state_.at(vm);
    st.control.quiesce();
    auto snap = serialize_vm(vm);
    if (!snap.is_ok()) {
      st.control.resume();
      return snap.status();
    }
    // The new backend process reconstructs its view purely from the
    // snapshot — restoring in place models "attach to existing guest and
    // hardware state".
    if (Status s = restore_vm_hot(vm, snap.value()); !s.is_ok()) {
      st.control.resume();
      return s;
    }
    auto again = serialize_vm(vm);
    if (!again.is_ok()) {
      st.control.resume();
      return again.status();
    }
    if (again.value() != snap.value()) report.roundtrip_identical = false;
    report.snapshot_bytes += snap.value().size();
    ++report.vms;
    report.stalled_commands += st.control.stalled_commands();
    st.control.resume();
  }
  return report;
}

StatusOr<Hypervisor::BootReport> Hypervisor::restore_container(
    RundContainer& container, const std::string& bytes) {
  if (state_.count(container.id()) != 0) {
    return already_exists("Hypervisor: container already booted");
  }
  SnapshotReader r(bytes);
  VmId id = 0;
  Hpa old_base;
  std::uint64_t old_len = 0;
  r.section(kVmTag);
  r(id, old_base, old_len);
  if (!r.ok()) return r.status();
  if (id != container.id()) {
    return invalid_argument(
        "Hypervisor::restore_container: snapshot is for VM " +
        std::to_string(id) + ", container is " +
        std::to_string(container.id()));
  }
  if (old_len != container.memory_bytes()) {
    return invalid_argument(
        "Hypervisor::restore_container: memory size mismatch");
  }

  auto backing = pcie_->main_memory().allocate(old_len, kPage2M);
  if (!backing.is_ok()) return backing.status();

  auto vm = std::make_unique<VmState>();
  vm->backing_base = backing.value();
  vm->backing_len = old_len;
  vm->pvdma = std::make_unique<Pvdma>(pcie_->iommu(), vm->ept, PvdmaConfig{},
                                      vm->backing_base.value());
  vm->pvdma->set_tenant(container.id());
  r(*vm);
  if (Status s = r.finish(); !s.is_ok()) {
    (void)pcie_->main_memory().release(vm->backing_base);
    return s;
  }
  // Rebase guest RAM onto this host's backing window and drop the source
  // host's device-register windows (re-created with the devices), its pin
  // table (nothing is pinned here yet) and its shm doorbell windows (they
  // point at the source host's MMIO; this host maps its own when devices
  // are re-created).
  vm->ept.rebase(static_cast<std::int64_t>(vm->backing_base.value()) -
                     static_cast<std::int64_t>(old_base.value()),
                 old_base, old_len);
  vm->pvdma->drop_pin_table();
  vm->shm = ShmRegion{};

  BootReport report;
  // Resume on a pre-warmed microvm shell: the per-GiB table rebuild is
  // paid, the base boot is not (that is the point of migrating).
  report.hypervisor_time = per_gib_time(old_len);
  if (!config_.use_pvdma) {
    report.pin_time = pcie_->iommu().pin_cost(old_len);
    Status pin = pcie_->iommu().map(IoVa{vm->backing_base.value()},
                                    vm->backing_base, vm->backing_len);
    if (!pin.is_ok()) {
      (void)pcie_->main_memory().release(vm->backing_base);
      return pin;
    }
    pcie_->iommu().note_pinned(vm->backing_len, container.id());
  }
  report.total = report.hypervisor_time + report.pin_time;
  state_.emplace(container.id(), std::move(vm));
  container.set_booted(true);
  return report;
}

Status Hypervisor::unmap_vdb(RundContainer& container,
                             const VdbMapping& mapping) {
  auto it = state_.find(container.id());
  if (it == state_.end()) return not_found("Hypervisor: container not booted");
  VmState& vm = *it->second;
  if (mapping.in_shm) return vm.shm.unmap(mapping.shm);
  // Figure 5 step 4: the register mapping is torn down and the GPA goes
  // back to plain RAM, free for the guest OS to reuse.
  return vm.ept.restore_ram(mapping.gpa,
                            vm.backing_base + mapping.gpa.value(), kPage4K);
}

}  // namespace stellar
