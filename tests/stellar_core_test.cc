#include "core/stellar.h"

#include <gtest/gtest.h>

namespace stellar {
namespace {

StellarHostConfig small_host() {
  StellarHostConfig cfg;
  cfg.pcie.main_memory_bytes = 64_GiB;
  cfg.pcie.lut_capacity_per_switch = 32;
  return cfg;
}

class StellarHostTest : public ::testing::Test {
 protected:
  StellarHostTest() : host_(small_host()) {
    container_ = std::make_unique<RundContainer>(1, "tenant-a", 8_GiB);
    EXPECT_TRUE(host_.boot(*container_).is_ok());
  }
  StellarHost host_;
  std::unique_ptr<RundContainer> container_;
};

TEST_F(StellarHostTest, TopologyWiredUp) {
  EXPECT_EQ(host_.rnic_count(), 4u);
  EXPECT_EQ(host_.gpu_count(), 8u);
  // PF and GPUs are LUT-registered once; capacity nowhere near exhausted.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(host_.pcie().p2p_enabled(host_.rnic(i).pf_bdf()));
  }
  for (std::size_t g = 0; g < 8; ++g) {
    EXPECT_TRUE(host_.pcie().p2p_enabled(host_.gpu_bdf(g)));
  }
}

TEST_F(StellarHostTest, DeviceCreationIsSecondsScale) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  EXPECT_NEAR(dev.value()->creation_time().sec(), 1.5, 0.1);
  EXPECT_EQ(dev.value()->vm(), container_->id());
  EXPECT_EQ(host_.vstellar_device_count(), 1u);
}

TEST_F(StellarHostTest, UnbootedContainerRejected) {
  RundContainer cold(9, "cold", 1_GiB);
  EXPECT_EQ(host_.create_vstellar_device(cold, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StellarHostTest, DenseDeploymentBeyondLutCapacity) {
  // >100 devices per server (the LLM-inference density of §3.1(3)) — all
  // GDR-capable because none needs a LUT slot.
  std::vector<std::unique_ptr<RundContainer>> tenants;
  for (int i = 0; i < 128; ++i) {
    tenants.push_back(
        std::make_unique<RundContainer>(100 + i, "t", 128_MiB));
    ASSERT_TRUE(host_.boot(*tenants.back()).is_ok());
    auto dev = host_.create_vstellar_device(*tenants.back(), i % 4);
    ASSERT_TRUE(dev.is_ok()) << dev.status().to_string();
  }
  EXPECT_EQ(host_.vstellar_device_count(), 128u);
  // The LUT still only holds the PFs + GPUs (the static topology).
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(host_.pcie().pcie_switch(s).lut_size(), 3u);
  }
}

TEST_F(StellarHostTest, RegisterHostMemoryPinsOnDemand) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  auto buf = container_->alloc(8_MiB, kPage2M);
  ASSERT_TRUE(buf.is_ok());
  auto mr = dev.value()->register_memory(Gva{0x7f0000000000}, 8_MiB,
                                         MemoryOwner::kHostDram,
                                         buf.value().value());
  ASSERT_TRUE(mr.is_ok());
  EXPECT_TRUE(mr.value().pinned_now);
  EXPECT_EQ(host_.hypervisor().pvdma(1).pinned_bytes(), 8_MiB);
  // Re-registering the same block is a map-cache hit.
  auto mr2 = dev.value()->register_memory(Gva{0x7f0000800000}, 4096,
                                          MemoryOwner::kHostDram,
                                          buf.value().value());
  ASSERT_TRUE(mr2.is_ok());
  EXPECT_FALSE(mr2.value().pinned_now);
  // Deregistering both releases the pin.
  ASSERT_TRUE(dev.value()->deregister_memory(mr.value().key).is_ok());
  ASSERT_TRUE(dev.value()->deregister_memory(mr2.value().key).is_ok());
  EXPECT_EQ(host_.hypervisor().pvdma(1).pinned_bytes(), 0u);
}

TEST_F(StellarHostTest, FailedHostRegistrationLeavesNoPins) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  Pvdma& pvdma = host_.hypervisor().pvdma(1);
  auto buf = container_->alloc(4_MiB, kPage2M);
  ASSERT_TRUE(buf.is_ok());
  auto held = dev.value()->register_memory(Gva{0x7f0000000000}, 4_MiB,
                                           MemoryOwner::kHostDram,
                                           buf.value().value());
  ASSERT_TRUE(held.is_ok());
  const std::uint64_t pinned = pvdma.pinned_bytes();
  const std::size_t blocks = pvdma.map_cache().block_count();

  // 16 GiB lies past the end of the 8 GiB guest: the EPT has no mapping.
  auto bad = dev.value()->register_memory(Gva{0x7f1000000000}, 4_MiB,
                                          MemoryOwner::kHostDram, 16_GiB);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(pvdma.pinned_bytes(), pinned);
  EXPECT_EQ(pvdma.map_cache().block_count(), blocks);
  EXPECT_EQ(host_.pcie().iommu().pinned_bytes(1), pinned);

  // Nothing half-registered is left for a teardown to trip over.
  ASSERT_TRUE(dev.value()->deregister_memory(held.value().key).is_ok());
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_EQ(pvdma.release_all(), 0u);
  EXPECT_EQ(pvdma.double_unpins(), 0u);
}

TEST_F(StellarHostTest, RegisterGpuMemoryAndGdrWrite) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  auto mr = dev.value()->register_memory(Gva{0x10000}, 64_MiB,
                                         MemoryOwner::kGpuHbm,
                                         /*gpu offset=*/0, /*gpu=*/0);
  ASSERT_TRUE(mr.is_ok());
  auto transfer = dev.value()->gdr_write(mr.value().key, Gva{0x10000}, 16_MiB);
  ASSERT_TRUE(transfer.is_ok());
  // eMTT fast path: 400G line-rate-ish, no translation misses.
  EXPECT_GT(transfer.value().gbps, 380.0);
  EXPECT_EQ(transfer.value().atc_misses, 0u);
  // All TLPs went switch-direct (GPU 0 shares switch 0 with RNIC 0).
  EXPECT_GT(host_.pcie().direct_p2p_tlps(), 0u);
  EXPECT_EQ(host_.pcie().rc_detour_tlps(), 0u);
}

TEST_F(StellarHostTest, GpuRegistrationBoundsChecked) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  EXPECT_FALSE(dev.value()
                   ->register_memory(Gva{0}, 2 * kPage4K, MemoryOwner::kGpuHbm,
                                     kGpuBarBytes - kPage4K, 0)
                   .is_ok());  // runs past the end of the BAR
  EXPECT_FALSE(dev.value()
                   ->register_memory(Gva{0}, 4096, MemoryOwner::kGpuHbm, 0, 99)
                   .is_ok());  // no such GPU
}

TEST_F(StellarHostTest, CrossTenantAccessDenied) {
  RundContainer other(2, "tenant-b", 1_GiB);
  ASSERT_TRUE(host_.boot(other).is_ok());
  auto dev_a = host_.create_vstellar_device(*container_, 0);
  auto dev_b = host_.create_vstellar_device(other, 0);
  ASSERT_TRUE(dev_a.is_ok() && dev_b.is_ok());

  auto qp_a = dev_a.value()->create_qp();
  ASSERT_TRUE(qp_a.is_ok());
  ASSERT_TRUE(dev_a.value()->connect_qp(qp_a.value(), 1).is_ok());

  auto mr_b = dev_b.value()->register_memory(Gva{0}, 4096,
                                             MemoryOwner::kGpuHbm, 0, 0);
  ASSERT_TRUE(mr_b.is_ok());
  // §9: QP of tenant A cannot touch MR of tenant B — different PDs.
  EXPECT_EQ(dev_a.value()->check_access(qp_a.value(), mr_b.value().key).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StellarHostTest, QpLifecycleThroughControlPath) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  const std::uint64_t cmds_before =
      host_.hypervisor().control_path(1).commands_executed();
  auto qp = dev.value()->create_qp();
  ASSERT_TRUE(qp.is_ok());
  ASSERT_TRUE(dev.value()->connect_qp(qp.value(), 42).is_ok());
  // Control ops really did go through virtio (1 create + 3 modify).
  EXPECT_EQ(host_.hypervisor().control_path(1).commands_executed(),
            cmds_before + 4);
}

TEST_F(StellarHostTest, DestroyDeviceReleasesDoorbell) {
  auto dev = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(dev.is_ok());
  const Hpa doorbell = dev.value()->doorbell_hpa();
  ASSERT_TRUE(host_.destroy_vstellar_device(dev.value()).is_ok());
  EXPECT_EQ(host_.vstellar_device_count(), 0u);
  // The next device reuses the doorbell page.
  auto again = host_.create_vstellar_device(*container_, 0);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->doorbell_hpa(), doorbell);
}

TEST_F(StellarHostTest, GdrEngineFactoryModes) {
  auto emtt = host_.make_gdr_engine(GdrMode::kEmtt, 0);
  auto atc = host_.make_gdr_engine(GdrMode::kAtsAtc, 0);
  auto rc = host_.make_gdr_engine(GdrMode::kRcRouted, 0);
  EXPECT_EQ(emtt.mode(), GdrMode::kEmtt);
  EXPECT_EQ(atc.mode(), GdrMode::kAtsAtc);
  EXPECT_EQ(rc.mode(), GdrMode::kRcRouted);
}

}  // namespace
}  // namespace stellar
