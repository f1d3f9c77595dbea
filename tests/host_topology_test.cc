// StellarHost topology behaviours: cross-switch GDR falls back to the RC
// path, and per-RNIC resource independence.
#include <gtest/gtest.h>

#include "core/stellar.h"

namespace stellar {
namespace {

StellarHostConfig small_host() {
  StellarHostConfig cfg;
  cfg.pcie.main_memory_bytes = 64_GiB;
  return cfg;
}

TEST(HostTopologyTest, GpuStripingAcrossSwitches) {
  StellarHost host(small_host());
  // 8 GPUs over 4 switches: GPU g sits under switch g % 4, next to RNIC
  // g % 4 — the paper's server layout.
  for (std::size_t g = 0; g < host.gpu_count(); ++g) {
    auto sw = host.pcie().switch_of(host.gpu_bdf(g));
    ASSERT_TRUE(sw.is_ok());
    EXPECT_EQ(sw.value(), g % 4);
  }
}

TEST(HostTopologyTest, SameSwitchGdrIsDirect) {
  StellarHost host(small_host());
  RundContainer c(1, "t", 4_GiB);
  ASSERT_TRUE(host.boot(c).is_ok());
  // RNIC 2 and GPU 2 share switch 2.
  auto dev = host.create_vstellar_device(c, 2);
  ASSERT_TRUE(dev.is_ok());
  auto mr = dev.value()->register_memory(Gva{0}, 64_MiB,
                                         MemoryOwner::kGpuHbm, 0, /*gpu=*/2);
  ASSERT_TRUE(mr.is_ok());
  auto t = dev.value()->gdr_write(mr.value().key, Gva{0}, 16_MiB);
  ASSERT_TRUE(t.is_ok());
  EXPECT_GT(t.value().gbps, 380.0);
  EXPECT_GT(host.pcie().direct_p2p_tlps(), 0u);
}

TEST(HostTopologyTest, CrossSwitchGdrDetoursAndSlows) {
  StellarHostConfig cfg = small_host();
  cfg.pcie.rc_p2p_bandwidth = Bandwidth::gbps(145);
  StellarHost host(cfg);
  RundContainer c(1, "t", 4_GiB);
  ASSERT_TRUE(host.boot(c).is_ok());
  // RNIC 0 (switch 0) writing to GPU 1 (switch 1): must cross the RC.
  auto dev = host.create_vstellar_device(c, 0);
  ASSERT_TRUE(dev.is_ok());
  auto mr = dev.value()->register_memory(Gva{0}, 64_MiB,
                                         MemoryOwner::kGpuHbm, 0, /*gpu=*/1);
  ASSERT_TRUE(mr.is_ok());
  auto t = dev.value()->gdr_write(mr.value().key, Gva{0}, 16_MiB);
  ASSERT_TRUE(t.is_ok());
  EXPECT_LT(t.value().gbps, 150.0);  // RC forwarding cap
  EXPECT_GT(host.pcie().rc_detour_tlps(), 0u);
}

TEST(HostTopologyTest, DevicesOnDifferentRnicsAreIndependent) {
  StellarHost host(small_host());
  RundContainer c(1, "t", 4_GiB);
  ASSERT_TRUE(host.boot(c).is_ok());
  auto d0 = host.create_vstellar_device(c, 0);
  auto d3 = host.create_vstellar_device(c, 3);
  ASSERT_TRUE(d0.is_ok() && d3.is_ok());
  // MR keys live per-RNIC: registering on one NIC never consumes the
  // other's MTT capacity.
  const std::uint64_t before = host.rnic(3).mtt().used_pages();
  auto mr = d0.value()->register_memory(Gva{0}, 64_MiB,
                                        MemoryOwner::kGpuHbm, 0, 0);
  ASSERT_TRUE(mr.is_ok());
  EXPECT_EQ(host.rnic(3).mtt().used_pages(), before);
  EXPECT_GT(host.rnic(0).mtt().used_pages(), 0u);
}

TEST(HostTopologyTest, RnicIndexValidated) {
  StellarHost host(small_host());
  RundContainer c(1, "t", 1_GiB);
  ASSERT_TRUE(host.boot(c).is_ok());
  EXPECT_EQ(host.create_vstellar_device(c, 99).status().code(),
            StatusCode::kOutOfRange);
}

TEST(HostTopologyTest, DestroyUnknownDeviceFails) {
  StellarHost host(small_host());
  EXPECT_EQ(host.destroy_vstellar_device(nullptr).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace stellar
