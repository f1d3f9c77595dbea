// Public Stellar API — the host-side view (§4, Figure 3).
//
// A StellarHost models one GPU server: a PCIe fabric with per-switch
// RNIC+GPU pairs, a hypervisor running RunD secure containers, and RNICs
// that expose dynamic vStellar virtual devices instead of SR-IOV VFs.
//
// A VStellarDevice is the tenant-facing RDMA device:
//  * control path (QP/MR verbs) rides the virtio control queue, where the
//    host applies policy — each VM gets a dedicated protection domain;
//  * data path is direct: the doorbell page is mapped into the guest (via
//    the virtio shm region) and MRs are written into the RNIC's eMTT with
//    their *final* HPA and memory owner, enabling switch-P2P GDR;
//  * registration of host memory pins on demand through PVDMA.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/snapshot.h"
#include "common/status.h"
#include "common/units.h"
#include "pcie/atc.h"
#include "pcie/host_pcie.h"
#include "rnic/device.h"
#include "rnic/gdr.h"
#include "rnic/vswitch.h"
#include "virt/container.h"
#include "virt/hypervisor.h"

namespace stellar {

// The host shape: the 4-switch, 4-RNIC, 8-GPU server of §3.1(3).
inline constexpr std::uint32_t kPcieSwitches = 4;
inline constexpr std::uint32_t kRnicsPerHost = 4;  // one per switch
inline constexpr std::uint32_t kGpusPerHost = 8;   // two per switch
inline constexpr std::uint64_t kGpuBarBytes = 32ull << 30;

struct StellarHostConfig {
  HostPcieConfig pcie;
  HypervisorConfig hypervisor;
};

class VStellarDevice;
class TenantManager;

class StellarHost {
 public:
  explicit StellarHost(StellarHostConfig config = {});
  ~StellarHost();

  StellarHost(const StellarHost&) = delete;
  StellarHost& operator=(const StellarHost&) = delete;

  // -- Hardware access ---------------------------------------------------------

  HostPcie& pcie() { return *pcie_; }
  Hypervisor& hypervisor() { return *hypervisor_; }
  Rnic& rnic(std::size_t i) { return *rnics_.at(i); }
  const Rnic& rnic(std::size_t i) const { return *rnics_.at(i); }
  std::size_t rnic_count() const { return rnics_.size(); }
  /// ATCs created for kAtsAtc GDR engines.
  Atc& atc(std::size_t i) { return *atcs_.at(i); }
  std::size_t atc_count() const { return atcs_.size(); }
  /// Host-level flow-steering table shared by every tenant's kernel stack.
  VSwitch& vswitch() { return vswitch_; }
  const VSwitch& vswitch() const { return vswitch_; }
  Bdf gpu_bdf(std::size_t i) const { return gpu_bdfs_.at(i); }
  Bar gpu_bar(std::size_t i) const { return gpu_bars_.at(i); }
  std::size_t gpu_count() const { return gpu_bdfs_.size(); }

  // -- Container lifecycle -------------------------------------------------------

  StatusOr<Hypervisor::BootReport> boot(RundContainer& container) {
    return hypervisor_->boot_container(container);
  }
  Status shutdown(RundContainer& container) {
    return hypervisor_->shutdown_container(container);
  }

  // -- vStellar devices -----------------------------------------------------------

  /// Create a vStellar device on `rnic_index` for `container`. Seconds, not
  /// minutes: no VF reset, no new BDF, no LUT slot. The returned pointer is
  /// owned by the host.
  StatusOr<VStellarDevice*> create_vstellar_device(RundContainer& container,
                                                   std::size_t rnic_index);
  Status destroy_vstellar_device(VStellarDevice* device);
  std::size_t vstellar_device_count() const { return devices_.size(); }

  /// Build a GDR engine for benchmarking a given translation design against
  /// GPU `gpu_index`'s memory through `rnic_index`.
  GdrEngine make_gdr_engine(GdrMode mode, std::size_t rnic_index);

  /// All vStellar devices owned by `vm`, in creation order.
  std::vector<VStellarDevice*> devices_for_vm(VmId vm);
  std::size_t device_count(VmId vm) const;

  // -- Multi-tenant isolation ------------------------------------------------------

  /// Budget/admission/degradation policy layer (docs/TENANCY.md).
  TenantManager& tenants();

  struct TenantKillReport {
    std::size_t devices = 0;
    std::size_t mrs = 0;
    std::size_t qps = 0;
    std::size_t rules_removed = 0;
    std::uint64_t unpinned_bytes = 0;
    /// Every per-tenant ledger (pins, MTT pages, verbs objects, IOTLB
    /// occupancy after shootdown) reads zero after the reclaim.
    bool fully_reclaimed = false;
  };

  /// Forcibly evict a tenant — the attacker-killed-mid-flood path. Tears
  /// down every vStellar device (deregistering MRs, releasing PVDMA pins,
  /// destroying QPs), drops the tenant's vSwitch rules and QoS state, and
  /// shuts the container down. All shared-resource accounting for the
  /// tenant must return to zero (auditors stay green), with zero effect on
  /// other tenants' resources.
  StatusOr<TenantKillReport> kill_tenant(RundContainer& container);

  // -- Live migration ------------------------------------------------------------

  /// Serialize the guest-visible verbs state of every vStellar device owned
  /// by `vm`: per device the RNIC index, every MR (key, GVA, length, owner,
  /// guest address, GPU index) and every QP (number, state, remote QP).
  /// Byte-stable for a given state; restore_vm_devices() rebuilds the
  /// devices on another host with identical guest-visible keys.
  StatusOr<std::string> serialize_vm_devices(VmId vm) const;

  struct DeviceRestoreReport {
    std::size_t devices = 0;
    std::size_t mrs = 0;
    std::size_t qps = 0;
    /// Host-DRAM bytes re-pinned through the PVDMA cold path.
    std::uint64_t repinned_bytes = 0;
    /// vStellar device provisioning (kSfCreateTime + PD setup). Depends
    /// only on placement, not guest state — a migration orchestrator
    /// overlaps it with pre-copy, so it is reported separately from the
    /// downtime-critical control_time.
    SimTime provision_time;
    /// Downtime-critical control work: per-MR registration (incl. PVDMA
    /// re-pin cost) + per-QP re-establishment.
    SimTime control_time;
  };

  /// Migration destination: re-create `vm`'s devices from a
  /// serialize_vm_devices() snapshot. The container must already be
  /// restored (restore_container): MR registration re-pins guest DRAM
  /// through PVDMA on demand and rebuilds eMTT entries with the *new* final
  /// HPAs; MR keys and QP numbers are adopted verbatim.
  StatusOr<DeviceRestoreReport> restore_vm_devices(RundContainer& container,
                                                   const std::string& bytes);

  const StellarHostConfig& config() const { return config_; }

 private:
  friend class VStellarDevice;
  friend class EmttCoherenceAuditor;  // walks devices for eMTT audits

  StellarHostConfig config_;
  std::unique_ptr<HostPcie> pcie_;
  std::unique_ptr<Hypervisor> hypervisor_;
  std::vector<std::unique_ptr<Rnic>> rnics_;
  std::vector<Bdf> gpu_bdfs_;
  std::vector<Bar> gpu_bars_;
  std::vector<std::unique_ptr<VStellarDevice>> devices_;
  std::vector<std::unique_ptr<Atc>> atcs_;  // for baseline GDR engines
  VSwitch vswitch_;
  std::unique_ptr<TenantManager> tenants_;
};

class VStellarDevice {
 public:
  VmId vm() const { return vm_; }
  PdId pd() const { return pd_; }
  std::uint32_t id() const { return hw_.id; }
  Hpa doorbell_hpa() const { return hw_.doorbell; }
  const Hypervisor::VdbMapping& doorbell_mapping() const { return vdb_; }
  SimTime creation_time() const { return creation_time_; }
  Rnic& rnic() { return *rnic_; }

  // -- Control path (virtio-mediated verbs) -------------------------------------

  /// Register guest memory for RDMA. For host DRAM, `guest_addr` is the GPA
  /// of the buffer: PVDMA pins the covering blocks and the eMTT entry
  /// stores the final HPA. For GPU HBM, `guest_addr` is the offset into the
  /// assigned GPU's BAR. Returns the MR key plus the modelled latency.
  struct RegisterResult {
    MrKey key = 0;
    SimTime latency;       // virtio control RTT + (host) PVDMA pin time
    bool pinned_now = false;
  };
  StatusOr<RegisterResult> register_memory(Gva va, std::uint64_t len,
                                           MemoryOwner owner,
                                           std::uint64_t guest_addr,
                                           std::size_t gpu_index = 0);
  Status deregister_memory(MrKey key);

  /// Everything needed to re-register an MR on another host (the verbs-side
  /// MemoryRegion lacks the guest address and GPU index).
  struct MrRecord {
    Gva va;
    std::uint64_t len = 0;
    MemoryOwner owner = MemoryOwner::kHostDram;
    std::uint64_t guest_addr = 0;
    std::uint32_t gpu_index = 0;

    template <class Ar, class Self>
    static void fields(Ar& ar, Self& mr) {
      ar(mr.va, mr.len, mr.owner, mr.guest_addr, mr.gpu_index);
    }
  };
  const std::unordered_map<MrKey, MrRecord>& memory_records() const {
    return mr_records_;
  }
  /// Registered MR keys in sorted order (deterministic iteration).
  std::vector<MrKey> memory_keys() const;

  StatusOr<QpNum> create_qp();
  Status connect_qp(QpNum qp, QpNum remote_qp);

  /// The hardware PD check, as the RNIC would apply it on a data access.
  Status check_access(QpNum qp, MrKey mr) const;

  /// GDR write through the eMTT fast path: looks up the MR's eMTT entry,
  /// emits pre-translated TLPs, and returns the modelled transfer.
  StatusOr<GdrTransfer> gdr_write(MrKey mr, Gva va, std::uint64_t len);

 private:
  friend class StellarHost;
  friend class EmttCoherenceAuditor;  // reads MR records for eMTT audits
  VStellarDevice(StellarHost& host, RundContainer& container, Rnic& rnic,
                 Rnic::VirtualDevice hw, Hypervisor::VdbMapping vdb,
                 SimTime creation_time);

  StellarHost* host_;
  RundContainer* container_;
  Rnic* rnic_;
  Rnic::VirtualDevice hw_;
  Hypervisor::VdbMapping vdb_;
  SimTime creation_time_;
  VmId vm_;
  PdId pd_;
  /// Full registration arguments per MR, for migration re-registration
  /// and, for host-DRAM MRs, the guest-physical range PVDMA pinned (the
  /// verbs MR records only the GVA).
  std::unordered_map<MrKey, MrRecord> mr_records_;
};

}  // namespace stellar
