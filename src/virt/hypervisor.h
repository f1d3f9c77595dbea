// Hypervisor model: boots RunD containers, owns per-container EPT and
// PVDMA state, and maps virtual doorbells either into guest RAM (the
// pre-fix layout that can collide with PVDMA blocks) or into the virtio
// shm I/O space (the production fix).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include <functional>

#include "common/snapshot.h"
#include "common/status.h"
#include "common/units.h"
#include "memory/ept.h"
#include "pcie/host_pcie.h"
#include "sim/simulator.h"
#include "virt/container.h"
#include "virt/pvdma.h"
#include "virt/virtio.h"

namespace stellar {

/// Pin attempts prepare_dma_with_retry makes before it reports pressure.
inline constexpr std::uint32_t kPinRetryMaxAttempts = 8;

struct HypervisorConfig {
  bool use_pvdma = true;
  bool vdb_in_shm = true;   // Figure-5 fix: doorbells live in shm I/O space
};

class Hypervisor {
 public:
  explicit Hypervisor(HostPcie& pcie, HypervisorConfig config = {})
      : pcie_(&pcie), config_(config) {}

  struct BootReport {
    SimTime total;
    SimTime pin_time;         // zero under PVDMA
    SimTime hypervisor_time;  // base + per-GiB overhead
  };

  /// Allocate backing memory, build the EPT, and (without PVDMA) pin the
  /// whole guest in the IOMMU — the Figure-6 cost model.
  StatusOr<BootReport> boot_container(RundContainer& container);

  Status shutdown_container(RundContainer& container);

  // -- Per-container state ------------------------------------------------------

  Ept& ept(VmId vm) { return state_.at(vm)->ept; }
  Pvdma& pvdma(VmId vm) { return *state_.at(vm)->pvdma; }
  ShmRegion& shm(VmId vm) { return state_.at(vm)->shm; }
  VirtioControlPath& control_path(VmId vm) { return state_.at(vm)->control; }

  /// Map a device doorbell page for the guest. Returns the guest-visible
  /// address: a GPA (RAM hole) without the shm fix, a ShmAddr with it.
  struct VdbMapping {
    bool in_shm = false;
    Gpa gpa;        // valid when !in_shm
    ShmAddr shm;    // valid when in_shm
  };
  StatusOr<VdbMapping> map_vdb(RundContainer& container, Hpa doorbell_hpa);
  Status unmap_vdb(RundContainer& container, const VdbMapping& mapping);

  /// prepare_dma with retry-on-pressure: attempts the pin immediately; on
  /// kResourceExhausted schedules retries in simulated time: after
  /// kPinRetryInitialBackoff, doubling up to kPinRetryMaxBackoff (both in
  /// hypervisor.cc), at most kPinRetryMaxAttempts tries total.
  ///
  /// Each scheduled delay is *jittered*: a deterministic hash of
  /// (kPinRetryJitterSeed, vm, gpa, attempt) scales the exponential
  /// envelope into ((1 - kPinRetryJitter) * backoff, backoff]. Without
  /// this, every guest that hit the same pressure window retries on the
  /// same synchronized schedule and stampedes the IOMMU pin path the
  /// instant pressure lifts.
  ///
  /// `done` fires exactly once — with the successful MapResult, the
  /// terminal kResourceExhausted after the attempt budget, or any other
  /// error immediately (only pressure is considered transient) — unless
  /// this Hypervisor is destroyed while a retry is pending: that retry is
  /// dropped with it, and `done` is never called. Every call must pass the
  /// same Simulator (STELLAR_CHECK).
  using PinCallback = std::function<void(StatusOr<Pvdma::MapResult>)>;
  void prepare_dma_with_retry(Simulator& sim, VmId vm, Gpa gpa,
                              std::uint64_t len, PinCallback done);
  /// Pin attempts that hit pressure and were re-scheduled.
  std::uint64_t pin_retries() const { return pin_retries_; }
  /// Same, attributed to the requesting tenant — lets attack telemetry
  /// separate the attacker's own retry storm from victim collateral.
  std::uint64_t pin_retries(VmId vm) const {
    auto it = pin_retries_by_vm_.find(vm);
    return it == pin_retries_by_vm_.end() ? 0 : it->second;
  }
  const std::map<VmId, std::uint64_t>& pin_retries_by_vm() const {
    return pin_retries_by_vm_;
  }

  const HypervisorConfig& config() const { return config_; }

  bool booted(VmId vm) const { return state_.count(vm) != 0; }
  /// Booted VM ids in sorted order (deterministic iteration).
  std::vector<VmId> booted_vms() const;

  // -- Control-plane robustness -------------------------------------------------

  /// Serialize the full guest-visible hypervisor state of one VM (EPT,
  /// PVDMA pin table + Map Cache, shm windows, virtio counters) into a
  /// deterministic byte-stable snapshot.
  StatusOr<std::string> serialize_vm(VmId vm) const;

  /// Restore a serialize_vm() snapshot onto the *same* VM in place — the
  /// backend half of a hot upgrade. The IOMMU, backing memory, and every
  /// external pointer into the VmState stay valid; pins are adopted.
  Status restore_vm_hot(VmId vm, const std::string& bytes);

  struct HotUpgradeReport {
    std::size_t vms = 0;
    std::uint64_t snapshot_bytes = 0;
    /// Every VM's state re-serialized byte-identically after the restore.
    bool roundtrip_identical = true;
    /// Control commands that stalled in parked virtqueues mid-upgrade.
    std::uint64_t stalled_commands = 0;
  };

  /// Backend hot-upgrade: quiesce every VM's virtio control queues, drop
  /// and reconstruct the backend's per-VM state from snapshots, verify the
  /// round trip is byte-identical, and resume. Guest pages stay pinned in
  /// the IOMMU throughout (hardware state survives the process swap).
  StatusOr<HotUpgradeReport> hot_upgrade();

  /// Live-migration destination: boot `container` directly from a source
  /// snapshot. Fresh backing memory is allocated and the EPT rebased onto
  /// it; nothing is pinned yet — PVDMA re-pins dirty blocks on demand (the
  /// Map Cache cold path). Device-register windows and shm doorbells are
  /// NOT restored: the caller re-creates virtual devices on this host.
  StatusOr<BootReport> restore_container(RundContainer& container,
                                         const std::string& bytes);

  Hpa backing_base(VmId vm) const { return state_.at(vm)->backing_base; }
  std::uint64_t backing_len(VmId vm) const {
    return state_.at(vm)->backing_len;
  }

 private:
  struct VmState {
    Ept ept;
    std::unique_ptr<Pvdma> pvdma;
    ShmRegion shm;
    VirtioControlPath control;
    Hpa backing_base;
    std::uint64_t backing_len = 0;

    /// Everything after the snapshot header (tag, VM id, backing window).
    template <class Ar, class Self>
    static void fields(Ar& ar, Self& vm) {
      ar(vm.ept, *vm.pvdma, vm.shm, vm.control);
    }
  };

  void retry_pin(Simulator& sim, VmId vm, Gpa gpa, std::uint64_t len,
                 std::uint32_t attempt, SimTime backoff, PinCallback done);

  HostPcie* pcie_;
  HypervisorConfig config_;
  std::unordered_map<VmId, std::unique_ptr<VmState>> state_;
  std::uint64_t pin_retries_ = 0;
  std::map<VmId, std::uint64_t> pin_retries_by_vm_;
  /// Pending retries, bound to the Simulator of the first retry; they
  /// die with this Hypervisor.
  std::optional<OwnedEvents> retries_;
};

}  // namespace stellar
