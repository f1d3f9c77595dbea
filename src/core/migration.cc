#include "core/migration.h"

#include <algorithm>

#include "common/snapshot.h"

namespace stellar {

namespace {
/// Pre-copy granularity; matches the PVDMA/EPT 2 MiB block size.
constexpr std::uint64_t kChunkBytes = 2ull << 20;
/// Migration-stream rate (one NIC's worth).
constexpr Bandwidth kCopyRate =
    Bandwidth::bits_per_sec(100ll * 1000 * 1000 * 1000);
/// Fraction of the chunks copied in round N that the guest dirties
/// before round N+1 finishes.
constexpr double kDirtyFraction = 0.05;
/// Stop-and-copy once the dirty set shrinks to this many chunks.
constexpr std::uint64_t kMinDirtyChunks = 4;
constexpr std::uint32_t kMaxPrecopyRounds = 16;
}  // namespace

StatusOr<MigrationReport> migrate_vm(StellarHost& source,
                                     StellarHost& destination,
                                     RundContainer& src_container,
                                     RundContainer& dst_container) {
  if (src_container.id() != dst_container.id()) {
    return invalid_argument("migrate_vm: containers disagree on VM id");
  }
  if (src_container.memory_bytes() != dst_container.memory_bytes()) {
    return invalid_argument("migrate_vm: containers disagree on memory size");
  }
  if (!src_container.booted()) {
    return failed_precondition("migrate_vm: source container not booted");
  }
  if (dst_container.booted()) {
    return failed_precondition("migrate_vm: destination already booted");
  }
  const VmId vm = src_container.id();
  if (!source.hypervisor().booted(vm)) {
    return failed_precondition("migrate_vm: VM unknown to source hypervisor");
  }

  MigrationReport report;

  // -- 1. Pre-copy rounds (guest running) ----------------------------------
  report.chunks_total =
      (src_container.memory_bytes() + kChunkBytes - 1) / kChunkBytes;
  std::uint64_t dirty = report.chunks_total;
  while (dirty > kMinDirtyChunks &&
         report.precopy_rounds < kMaxPrecopyRounds) {
    report.precopy_time += kCopyRate.transmit_time(dirty * kChunkBytes);
    ++report.precopy_rounds;
    // The guest dirties a fixed fraction of what the round just shipped.
    dirty = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(dirty) * kDirtyFraction));
  }
  report.chunks_final = dirty;

  // -- 2. Stop-and-copy: pause, ship the residue, serialize ---------------
  SimTime downtime =
      kCopyRate.transmit_time(report.chunks_final * kChunkBytes);

  auto vm_blob = source.hypervisor().serialize_vm(vm);
  if (!vm_blob.is_ok()) return vm_blob.status();
  auto dev_blob = source.serialize_vm_devices(vm);
  if (!dev_blob.is_ok()) return dev_blob.status();
  report.snapshot_bytes = vm_blob.value().size() + dev_blob.value().size();
  report.digest =
      snapshot_digest(vm_blob.value() + dev_blob.value());
  downtime += kCopyRate.transmit_time(report.snapshot_bytes);

  // Carry the guest allocator cursor: the destination container must hand
  // out the same GPAs the guest already holds.
  dst_container.set_alloc_cursor(src_container.alloc_cursor());

  // -- 3. Source teardown: drain pins, drop devices, shut down ------------
  for (VStellarDevice* dev : source.devices_for_vm(vm)) {
    for (MrKey key : dev->memory_keys()) {
      if (Status s = dev->deregister_memory(key); !s.is_ok()) return s;
    }
    if (Status s = source.destroy_vstellar_device(dev); !s.is_ok()) return s;
  }
  if (Status s = source.shutdown(src_container); !s.is_ok()) return s;

  // -- 4. Destination resume ----------------------------------------------
  // The destination shell (backing memory, EPT page tables) and the
  // vStellar devices depend only on the guest's *placement*, which is known
  // from migration start — a real orchestrator provisions them while
  // pre-copy streams. Their cost therefore lands in precopy_time; only the
  // state adoption (MR re-registration + re-pin, QP ladder) is downtime.
  auto boot = destination.hypervisor().restore_container(dst_container,
                                                         vm_blob.value());
  if (!boot.is_ok()) return boot.status();
  report.precopy_time += boot.value().total;

  auto devs = destination.restore_vm_devices(dst_container, dev_blob.value());
  if (!devs.is_ok()) return devs.status();
  report.precopy_time += devs.value().provision_time;
  downtime += devs.value().control_time;

  report.devices = devs.value().devices;
  report.mrs = devs.value().mrs;
  report.qps = devs.value().qps;
  report.repinned_bytes = devs.value().repinned_bytes;
  report.downtime = downtime;
  return report;
}

}  // namespace stellar
