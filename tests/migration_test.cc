// VM live migration: pause/copy/resume of a RunD container onto a second
// StellarHost. Guest-visible keys survive verbatim, the source drains to
// zero pins, the destination re-pins through the Map Cache cold path, and
// the whole thing is deterministic (same inputs -> same digest, downtime).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/auditors.h"
#include "core/migration.h"
#include "core/stellar.h"

namespace stellar {
namespace {

struct Guest {
  RundContainer container;
  VStellarDevice* device = nullptr;
  std::vector<MrKey> dram_mrs;
  MrKey hbm_mr = 0;
  std::vector<QpNum> qps;
};

// Boot a container on `host` with one device, two DRAM MRs, one HBM MR and
// two RTS QPs — the state a training rank would hold.
Guest make_guest(StellarHost& host, VmId vm) {
  Guest g{RundContainer(vm, "guest" + std::to_string(vm), 8ull << 30),
          nullptr, {}, 0, {}};
  EXPECT_TRUE(host.boot(g.container).is_ok());
  auto dev = host.create_vstellar_device(g.container, 0);
  EXPECT_TRUE(dev.is_ok());
  g.device = dev.value();

  for (int i = 0; i < 2; ++i) {
    auto gpa = g.container.alloc(8_MiB, kPage2M);
    EXPECT_TRUE(gpa.is_ok());
    auto mr = g.device->register_memory(Gva{0x10000000ull + (i << 26)}, 8_MiB,
                                        MemoryOwner::kHostDram,
                                        gpa.value().value());
    EXPECT_TRUE(mr.is_ok());
    g.dram_mrs.push_back(mr.value().key);
  }
  auto hbm = g.device->register_memory(Gva{0x700000000ull}, 32_MiB,
                                       MemoryOwner::kGpuHbm, 0, 1);
  EXPECT_TRUE(hbm.is_ok());
  g.hbm_mr = hbm.value().key;

  for (int q = 0; q < 2; ++q) {
    auto qp = g.device->create_qp();
    EXPECT_TRUE(qp.is_ok());
    EXPECT_TRUE(g.device->connect_qp(qp.value(), 200 + q).is_ok());
    g.qps.push_back(qp.value());
  }
  return g;
}

TEST(MigrationTest, GuestMovesWithKeysIntact) {
  StellarHost source;
  StellarHost destination;
  Guest g = make_guest(source, 7);
  RundContainer dst(7, "guest7-dst", 8ull << 30);

  const std::uint64_t pinned_at_source =
      source.hypervisor().pvdma(7).pinned_bytes();
  ASSERT_GT(pinned_at_source, 0u);

  auto report = migrate_vm(source, destination, g.container, dst);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();

  // Source: no trace left. Devices destroyed, VM unknown, pins drained.
  EXPECT_EQ(source.devices_for_vm(7).size(), 0u);
  EXPECT_FALSE(source.hypervisor().booted(7));
  EXPECT_FALSE(g.container.booted());
  EXPECT_EQ(source.pcie().iommu().pinned_bytes(), 0u);

  // Destination: one device, same MR keys, same QP numbers, RTS preserved.
  ASSERT_TRUE(dst.booted());
  auto moved = destination.devices_for_vm(7);
  ASSERT_EQ(moved.size(), 1u);
  VStellarDevice* dev = moved[0];
  for (MrKey key : g.dram_mrs) {
    EXPECT_EQ(dev->memory_records().count(key), 1u);
  }
  EXPECT_EQ(dev->memory_records().count(g.hbm_mr), 1u);
  for (QpNum qp : g.qps) {
    auto q = dev->rnic().verbs().qp(qp);
    ASSERT_TRUE(q.is_ok());
    EXPECT_EQ(q.value()->state, QpState::kRts);
    // The hardware PD check passes for the adopted pair.
    EXPECT_TRUE(dev->check_access(qp, g.dram_mrs[0]).is_ok());
  }
  EXPECT_EQ(report.value().devices, 1u);
  EXPECT_EQ(report.value().mrs, 3u);
  EXPECT_EQ(report.value().qps, 2u);

  // The eMTT was rebuilt against the destination EPT: GDR works.
  auto transfer = dev->gdr_write(g.dram_mrs[0], Gva{0x10000000}, 1_MiB);
  EXPECT_TRUE(transfer.is_ok()) << transfer.status().to_string();

  // Host-DRAM working set re-pinned cold (block-rounded >= 16 MiB), and the
  // pin accounting at the destination is coherent.
  EXPECT_GE(report.value().repinned_bytes, 16_MiB);
  EXPECT_EQ(destination.hypervisor().pvdma(7).pinned_bytes(),
            report.value().repinned_bytes);
  AuditRegistry audits;
  audits.add(std::make_unique<PinAccountingAuditor>(
      destination.hypervisor().pvdma(7), destination.pcie().iommu(),
      destination.hypervisor().ept(7)));
  audits.add(std::make_unique<EmttCoherenceAuditor>(destination));
  const AuditReport audit = audits.run_all();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(MigrationTest, SubSecondDowntimeAndDeterministicReport) {
  auto run_once = [](MigrationReport* out) {
    StellarHost source;
    StellarHost destination;
    Guest g = make_guest(source, 9);
    RundContainer dst(9, "guest9-dst", 8ull << 30);
    auto report = migrate_vm(source, destination, g.container, dst);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    *out = report.value();
  };
  MigrationReport a, b;
  run_once(&a);
  run_once(&b);

  EXPECT_LT(a.downtime, SimTime::seconds(1.0));
  EXPECT_GT(a.downtime, SimTime::zero());
  EXPECT_GT(a.precopy_time, a.downtime);
  EXPECT_GT(a.precopy_rounds, 0u);

  // Byte-determinism: identical inputs, identical snapshot digest + times.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.precopy_time, b.precopy_time);
  EXPECT_EQ(a.snapshot_bytes, b.snapshot_bytes);
  EXPECT_EQ(a.repinned_bytes, b.repinned_bytes);
}

TEST(MigrationTest, GuestKeepsAllocatingAfterMove) {
  StellarHost source;
  StellarHost destination;
  Guest g = make_guest(source, 3);
  RundContainer dst(3, "guest3-dst", 8ull << 30);
  const std::uint64_t cursor_before = g.container.alloc_cursor();

  ASSERT_TRUE(migrate_vm(source, destination, g.container, dst).is_ok());

  // The allocator cursor moved with the guest: new allocations at the
  // destination never collide with GPAs handed out before the move.
  EXPECT_EQ(dst.alloc_cursor(), cursor_before);
  auto dev = destination.devices_for_vm(3).at(0);
  auto gpa = dst.alloc(4_MiB, kPage2M);
  ASSERT_TRUE(gpa.is_ok());
  EXPECT_GE(gpa.value().value(), cursor_before);
  auto mr = dev->register_memory(Gva{0x50000000}, 4_MiB,
                                 MemoryOwner::kHostDram, gpa.value().value());
  EXPECT_TRUE(mr.is_ok()) << mr.status().to_string();
}

TEST(MigrationTest, RejectsMismatchedContainers) {
  StellarHost source;
  StellarHost destination;
  Guest g = make_guest(source, 5);

  RundContainer wrong_id(6, "wrong-id", 8ull << 30);
  EXPECT_EQ(migrate_vm(source, destination, g.container, wrong_id)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  RundContainer wrong_size(5, "wrong-size", 4ull << 30);
  EXPECT_EQ(migrate_vm(source, destination, g.container, wrong_size)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  RundContainer booted_dst(5, "already-booted", 8ull << 30);
  ASSERT_TRUE(destination.boot(booted_dst).is_ok());
  EXPECT_EQ(migrate_vm(source, destination, g.container, booted_dst)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // The failed attempts left the source untouched.
  EXPECT_TRUE(g.container.booted());
  EXPECT_EQ(source.devices_for_vm(5).size(), 1u);
}

TEST(MigrationTest, RestoreContainerRejectsBadSnapshots) {
  StellarHost source;
  StellarHost destination;
  Guest g = make_guest(source, 4);

  auto snap = source.hypervisor().serialize_vm(4);
  ASSERT_TRUE(snap.is_ok());

  RundContainer dst(4, "dst", 8ull << 30);
  std::string truncated = snap.value().substr(0, snap.value().size() / 3);
  EXPECT_FALSE(
      destination.hypervisor().restore_container(dst, truncated).is_ok());
  EXPECT_FALSE(dst.booted());

  // A count no snapshot of this size can hold — the EPT range count after
  // the header (tag, VM id, backing base and length) — is refused before
  // its loop starts.
  std::string huge = snap.value();
  huge.replace(24, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(
      destination.hypervisor().restore_container(dst, huge).status().code(),
      StatusCode::kOutOfRange);
  EXPECT_FALSE(dst.booted());

  // An intact snapshot still restores after the failed attempt.
  EXPECT_TRUE(
      destination.hypervisor().restore_container(dst, snap.value()).is_ok());
  EXPECT_TRUE(dst.booted());

  // The same for the device snapshot's device count (after the tag and VM
  // id): no device is created for it.
  auto devices = source.serialize_vm_devices(4);
  ASSERT_TRUE(devices.is_ok());
  std::string bad_devices = devices.value();
  bad_devices.replace(8, 4, "\xff\xff\xff\xff");
  EXPECT_EQ(destination.restore_vm_devices(dst, bad_devices).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(destination.device_count(4), 0u);
}

}  // namespace
}  // namespace stellar
