#include <gtest/gtest.h>

#include "rnic/device.h"
#include "rnic/vswitch.h"

namespace stellar {
namespace {

class RnicDeviceTest : public ::testing::Test {
 protected:
  RnicDeviceTest() {
    HostPcieConfig cfg;
    cfg.lut_capacity_per_switch = 8;  // scaled-down Problem-3 switch
    pcie_ = std::make_unique<HostPcie>(cfg);
    sw_ = pcie_->add_switch("sw0");
  }
  std::unique_ptr<HostPcie> pcie_;
  std::size_t sw_;
};

TEST_F(RnicDeviceTest, VfCountOnlyTogglesViaZero) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  ASSERT_TRUE(rnic.set_num_vfs(2).is_ok());
  EXPECT_EQ(rnic.num_vfs(), 2u);
  // Problem (1): 2 -> 3 directly is impossible.
  EXPECT_EQ(rnic.set_num_vfs(3).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(rnic.set_num_vfs(0).is_ok());
  ASSERT_TRUE(rnic.set_num_vfs(3).is_ok());
  EXPECT_EQ(rnic.num_vfs(), 3u);
}

TEST_F(RnicDeviceTest, VfProvisioningIsSlow) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  auto t = rnic.set_num_vfs(4);
  ASSERT_TRUE(t.is_ok());
  // Reset plus per-VF creation: tens of seconds, not seconds.
  EXPECT_GT(t.value().sec(), 10.0);
}

TEST_F(RnicDeviceTest, VirtualDeviceCreationMatchesMasqAndBeatsVfReset) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  // vStellar device provisioning matches MasQ (~1.5 s, §4)...
  const SimTime vdev = kSfCreateTime;
  EXPECT_NEAR(vdev.sec(), 1.5, 0.01);
  // ...and is far below even one VF's function reset plus creation.
  auto vf = rnic.set_num_vfs(1);
  ASSERT_TRUE(vf.is_ok());
  EXPECT_LT(vdev.sec(), vf.value().sec() / 3);
}

TEST_F(RnicDeviceTest, VfMemoryOverheadAccumulates) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  ASSERT_TRUE(rnic.set_num_vfs(8).is_ok());
  // ~2.4 GB per VF (§3.1(1)): naive overprovisioning is prohibitive.
  EXPECT_GT(rnic.vf_memory_bytes(), 18ull << 30);
}

TEST_F(RnicDeviceTest, VfCountCapped) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  EXPECT_EQ(rnic.set_num_vfs(kMaxVfs + 1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rnic.num_vfs(), 0u);
}

TEST_F(RnicDeviceTest, VfGdrLimitedByLut) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  ASSERT_TRUE(rnic.set_num_vfs(10).is_ok());
  // The PF already holds no slot here; 8 LUT slots -> only 8 VFs get GDR.
  int enabled = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (rnic.enable_vf_gdr(i).is_ok()) ++enabled;
  }
  EXPECT_EQ(enabled, 8);
}

TEST_F(RnicDeviceTest, VirtualDevicesAreDynamicAndCheap) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  auto a = rnic.create_virtual_device(/*vm=*/1);
  auto b = rnic.create_virtual_device(/*vm=*/2);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(a.value().id, b.value().id);
  EXPECT_NE(a.value().doorbell, b.value().doorbell);
  EXPECT_EQ(rnic.virtual_device_count(), 2u);
  // Dynamic deletion and id/doorbell recycling.
  ASSERT_TRUE(rnic.destroy_virtual_device(a.value().id).is_ok());
  EXPECT_EQ(rnic.virtual_device_count(), 1u);
  auto c = rnic.create_virtual_device(3);
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value().doorbell, a.value().doorbell);  // page reused
}

TEST_F(RnicDeviceTest, VirtualDeviceLimit) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  // The only cap on virtual devices is one doorbell page each: 64 Ki.
  static_assert(kDoorbellBarBytes / kPage4K == 64 * 1024);
  for (int i = 0; i < 64 * 1024; ++i) {
    ASSERT_TRUE(rnic.create_virtual_device(1).is_ok());
  }
  // The 65,537th create fails and leaves the count where it was.
  EXPECT_EQ(rnic.create_virtual_device(1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rnic.virtual_device_count(), 64u * 1024);
}

TEST_F(RnicDeviceTest, DoorbellBarExhaustion) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  Rnic::VirtualDevice first;
  for (int i = 0; i < 64 * 1024; ++i) {
    auto dev = rnic.create_virtual_device(1);
    ASSERT_TRUE(dev.is_ok());
    if (i == 0) first = dev.value();
  }
  EXPECT_EQ(rnic.create_virtual_device(1).status().code(),
            StatusCode::kResourceExhausted);
  // Destroying a device frees its doorbell page for exactly one more.
  ASSERT_TRUE(rnic.destroy_virtual_device(first.id).is_ok());
  auto again = rnic.create_virtual_device(1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().doorbell, first.doorbell);
  EXPECT_EQ(rnic.create_virtual_device(1).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(RnicDeviceTest, SixtyFourThousandVirtualDevices) {
  Rnic rnic(*pcie_, Bdf{0x10, 0, 0}, sw_);
  // The §4 scalability claim: 64k devices on one PF, zero extra BDFs.
  for (int i = 0; i < 64 * 1024; ++i) {
    ASSERT_TRUE(rnic.create_virtual_device(i % 100).is_ok());
  }
  EXPECT_EQ(rnic.virtual_device_count(), 64u * 1024);
  EXPECT_EQ(rnic.create_virtual_device(0).status().code(),
            StatusCode::kResourceExhausted);
  // The switch LUT is untouched: only the PF's own slot matters.
  EXPECT_LE(pcie_->pcie_switch(sw_).lut_size(), 1u);
}

TEST(VSwitchTest, OrderedLookupLatency) {
  VSwitch vsw;
  // 100 TCP rules land ahead of the RDMA rule — the production incident.
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(vsw.add_rule({i, TrafficClass::kTcp, 0, false, 1, 1}).is_ok());
  }
  ASSERT_TRUE(
      vsw.add_rule({100, TrafficClass::kRdma, 0, false, 1, 1}).is_ok());

  auto rdma = vsw.lookup(TrafficClass::kRdma, 0);
  auto tcp = vsw.lookup(TrafficClass::kTcp, 0);
  ASSERT_TRUE(rdma.is_ok() && tcp.is_ok());
  EXPECT_EQ(rdma.value().rules_walked, 101u);
  EXPECT_EQ(tcp.value().rules_walked, 1u);
  EXPECT_GT(rdma.value().latency, tcp.value().latency * 4);
}

TEST(VSwitchTest, TenantInterference) {
  VSwitch vsw;
  ASSERT_TRUE(vsw.add_rule({1, TrafficClass::kRdma, /*tenant=*/7, false, 1, 1})
                  .is_ok());
  const SimTime before = vsw.lookup(TrafficClass::kRdma, 7).value().latency;
  // Another tenant churns TCP rules... but they land *after* the existing
  // RDMA rule, so install order decides who suffers. Re-add the RDMA rule
  // to model a rule refresh landing behind 50 foreign TCP entries.
  ASSERT_TRUE(vsw.remove_rule(1).is_ok());
  for (std::uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        vsw.add_rule({100 + i, TrafficClass::kTcp, 3, false, 1, 1}).is_ok());
  }
  ASSERT_TRUE(vsw.add_rule({1, TrafficClass::kRdma, 7, false, 1, 1}).is_ok());
  const SimTime after = vsw.lookup(TrafficClass::kRdma, 7).value().latency;
  EXPECT_GT(after, before);  // one tenant's TCP churn hurt another's RDMA
}

TEST(VSwitchTest, CapacityAndRemoval) {
  VSwitch vsw(/*capacity=*/2);
  ASSERT_TRUE(vsw.add_rule({1, TrafficClass::kTcp, 0, false, 1, 1}).is_ok());
  ASSERT_TRUE(vsw.add_rule({2, TrafficClass::kTcp, 0, false, 1, 1}).is_ok());
  EXPECT_EQ(vsw.add_rule({3, TrafficClass::kTcp, 0, false, 1, 1}).code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(vsw.remove_rule(1).is_ok());
  EXPECT_FALSE(vsw.remove_rule(1).is_ok());
  EXPECT_TRUE(vsw.add_rule({3, TrafficClass::kTcp, 0, false, 1, 1}).is_ok());
}

TEST(VSwitchTest, ZeroMacVxlanRuleIsRepresentable) {
  // The cross-RNIC same-host bug: driver fills zero MACs from a local
  // route; the ToR would discard such frames. The model keeps the rule
  // data so integration code can assert on it.
  VSwitch vsw;
  ASSERT_TRUE(vsw.add_rule({1, TrafficClass::kRdma, 0, /*vxlan=*/true,
                            /*src_mac=*/0, /*dst_mac=*/0})
                  .is_ok());
  auto hit = vsw.lookup(TrafficClass::kRdma, 0);
  ASSERT_TRUE(hit.is_ok());
  EXPECT_TRUE(hit.value().rule->vxlan_encap);
  EXPECT_EQ(hit.value().rule->outer_dst_mac, 0u);  // would be dropped by ToR
}

}  // namespace
}  // namespace stellar
