// VM live migration for vStellar guests (control-plane robustness).
//
// Orchestrates pause → copy → resume of one RunD container from a source
// StellarHost onto a destination StellarHost:
//
//  1. Pre-copy: guest RAM is shipped in 2 MiB chunks while the guest keeps
//     running; each round re-copies the chunks dirtied during the previous
//     round (a fixed dirty fraction — deterministic by design).
//  2. Stop-and-copy (downtime starts): the guest pauses, the final dirty
//     chunks are copied, the hypervisor state (EPT, PVDMA, shm, virtio) and
//     the vStellar device state (MR keys, QP numbers) are serialized.
//  3. Source teardown: every MR is deregistered (releasing its PVDMA pins —
//     the IOMMU pin accounting must drain to zero), the vStellar devices
//     are destroyed, and the container shuts down.
//  4. Destination resume: the container restores onto fresh backing memory
//     (EPT rebased, pin table empty), devices are re-created with identical
//     guest-visible keys, and host-DRAM MRs re-pin on demand through the
//     Map Cache cold path. Downtime ends.
//
// Everything is arithmetic over modelled costs, so the same inputs always
// produce the same MigrationReport — byte-deterministic bench output.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "core/stellar.h"

namespace stellar {

struct MigrationReport {
  /// Guest-visible pause (stop-and-copy through destination resume).
  SimTime downtime;
  /// Pre-copy wall time (guest keeps running).
  SimTime precopy_time;
  std::uint32_t precopy_rounds = 0;
  std::uint64_t chunks_total = 0;
  /// Dirty chunks shipped during stop-and-copy.
  std::uint64_t chunks_final = 0;
  std::uint64_t snapshot_bytes = 0;
  std::size_t devices = 0;
  std::size_t mrs = 0;
  std::size_t qps = 0;
  /// Host-DRAM bytes re-pinned at the destination (Map Cache cold path).
  std::uint64_t repinned_bytes = 0;
  /// FNV-1a digest of the serialized state (hypervisor + devices), for
  /// byte-determinism checks across runs.
  std::string digest;
};

/// Migrate `vm` from `source` to `destination`. `src_container` must be
/// booted on `source` with its devices created; `dst_container` must be a
/// not-yet-booted container with the same VM id and memory size. On
/// success the guest runs on `destination` (same MR keys, same QP numbers)
/// and the source holds no trace of it — devices gone, pins drained,
/// container shut down.
StatusOr<MigrationReport> migrate_vm(StellarHost& source,
                                     StellarHost& destination,
                                     RundContainer& src_container,
                                     RundContainer& dst_container);

}  // namespace stellar
