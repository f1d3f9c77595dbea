// Virtio plumbing used by vStellar (§4, §5):
//  * the control path — verbs control commands (QP create/modify, MR
//    registration) travel guest driver -> host driver through a virtqueue,
//    where the host applies security and virtualization policy;
//  * the shared-memory (shm) region — an I/O address space *distinct from
//    guest RAM* into which the virtual Doorbell is mapped, eliminating the
//    PVDMA 2 MiB / EPT 4 KiB overlap of Figure 5 by construction.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"
#include "memory/address.h"
#include "memory/iommu.h"
#include "memory/range_map.h"

namespace stellar {

/// Address in the virtio shm I/O space (never overlaps GPA RAM).
using ShmAddr = Addr<struct ShmTag>;

enum class ControlCommand : std::uint8_t {
  kCreateQp,
  kModifyQp,
  kQueryQp,
  kDestroyQp,
  kRegisterMr,
  kDeregisterMr,
  kCreatePd,
};

inline constexpr SimTime kVirtqueueRtt = SimTime::micros(8);  // kick + response
// Policy + HW programming.
inline constexpr SimTime kVirtioHostProcessing = SimTime::micros(22);
/// Extra latency a command eats while the backend is quiesced for a
/// hot-upgrade: the virtqueue kick is parked until the new backend
/// process attaches and drains the queue.
inline constexpr SimTime kVirtioQuiesceStall = SimTime::micros(40);

class VirtioControlPath {
 public:
  /// Latency of one control command (data-path ops never pass through
  /// here — that is the hybrid-virtualization point of vStellar).
  SimTime execute(ControlCommand cmd) {
    ++commands_;
    (void)cmd;
    SimTime latency = kVirtqueueRtt + kVirtioHostProcessing;
    if (quiesced_) {
      // Backend mid-upgrade: the command sits in the virtqueue until the
      // new process takes over. The guest never sees a failure — only the
      // stall (the operational win over SR-IOV teardown).
      ++stalled_commands_;
      latency = latency + kVirtioQuiesceStall;
    }
    return latency;
  }

  /// Hot-upgrade fencing: while quiesced, control commands stall instead of
  /// executing at full speed; the data path is untouched.
  void quiesce() { quiesced_ = true; }
  void resume() { quiesced_ = false; }
  bool quiesced() const { return quiesced_; }

  std::uint64_t commands_executed() const { return commands_; }
  std::uint64_t stalled_commands() const { return stalled_commands_; }

  /// Checkpoint/restore of the virtqueue statistics (guest-visible via
  /// driver counters, so they must survive a backend swap).
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& v) {
    ar(v.commands_, v.stalled_commands_);
  }

 private:
  std::uint64_t commands_ = 0;
  std::uint64_t stalled_commands_ = 0;
  bool quiesced_ = false;
};

/// The shm region: windows of host MMIO (e.g. RNIC doorbell pages) exposed
/// to the guest at shm offsets. Because this space is disjoint from guest
/// RAM, PVDMA block registration can never cover a doorbell.
class ShmRegion {
 public:
  explicit ShmRegion(std::uint64_t size = 1ull << 30) : size_(size) {}

  /// Expose `len` bytes of host MMIO starting at `target` to the guest.
  StatusOr<ShmAddr> map(Hpa target, std::uint64_t len) {
    const std::uint64_t at = next_;
    if (at + len > size_) return resource_exhausted("ShmRegion: full");
    Status s = table_.map(ShmAddr{at}, target, len);
    if (!s.is_ok()) return s;
    next_ = at + ((len + kPage4K - 1) & ~(kPage4K - 1));
    return ShmAddr{at};
  }

  Status unmap(ShmAddr addr) { return table_.unmap(addr); }

  StatusOr<Hpa> translate(ShmAddr addr) const { return table_.translate(addr); }

  /// GPUDirect Async support (§5): explicitly register a doorbell window in
  /// the IOMMU so a GPU can ring it via DMA. This is the deliberate,
  /// hypervisor-mediated counterpart of the accidental coverage PVDMA used
  /// to create.
  Status register_for_device_dma(ShmAddr addr, std::uint64_t len,
                                 Iommu& iommu, IoVa device_va) {
    auto hpa = table_.translate(addr);
    if (!hpa.is_ok()) return hpa.status();
    return iommu.map(device_va, hpa.value(), len);
  }

  std::size_t window_count() const { return table_.range_count(); }

  /// Checkpoint/restore. Only meaningful for a same-host backend swap: the
  /// windows point at host MMIO, so a migrated guest gets a *fresh* shm
  /// region and the destination re-maps its own doorbells.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& s) {
    ar(s.size_, s.next_, s.table_);
  }

 private:
  std::uint64_t size_;
  std::uint64_t next_ = 0;
  RangeMap<ShmAddr, Hpa> table_;
};

}  // namespace stellar
