#include <gtest/gtest.h>

#include "pcie/atc.h"
#include "pcie/host_pcie.h"

namespace stellar {
namespace {

class HostPcieTest : public ::testing::Test {
 protected:
  HostPcieTest() {
    HostPcieConfig cfg;
    cfg.lut_capacity_per_switch = 4;
    pcie_ = std::make_unique<HostPcie>(cfg);
    sw0_ = pcie_->add_switch("sw0");
    sw1_ = pcie_->add_switch("sw1");
  }

  std::unique_ptr<HostPcie> pcie_;
  std::size_t sw0_, sw1_;
  const Bdf rnic_{0x10, 0, 0};
  const Bdf gpu_{0x18, 1, 0};
  const Bdf far_gpu_{0x28, 1, 0};
};

TEST_F(HostPcieTest, BdfBasics) {
  Bdf b{0x1A, 0x05, 0x3};
  EXPECT_EQ(b.bus(), 0x1A);
  EXPECT_EQ(b.device(), 0x05);
  EXPECT_EQ(b.function(), 0x3);
}

TEST_F(HostPcieTest, AttachAllocatesDisjointBars) {
  auto a = pcie_->attach_device(rnic_, sw0_, 1_MiB);
  auto b = pcie_->attach_device(gpu_, sw0_, 1_MiB);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(a.value().base, b.value().base);
  // BARs live in the MMIO window, above any DRAM address.
  EXPECT_GE(a.value().base.value(), 1ull << 46);
  // Duplicate BDF rejected.
  EXPECT_EQ(pcie_->attach_device(rnic_, sw0_, 1_MiB).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(HostPcieTest, LutCapacityEnforced) {
  // Fill the 4-slot LUT of sw0 (the §3.1(3) limitation, scaled down).
  for (int i = 0; i < 4; ++i) {
    const Bdf bdf{0x30, 0, static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(pcie_->attach_device(bdf, sw0_, 4096).is_ok());
    ASSERT_TRUE(pcie_->enable_p2p(bdf).is_ok());
  }
  const Bdf extra{0x30, 0, 5};
  ASSERT_TRUE(pcie_->attach_device(extra, sw0_, 4096).is_ok());
  EXPECT_EQ(pcie_->enable_p2p(extra).code(), StatusCode::kResourceExhausted);
  // Idempotent re-registration is fine.
  EXPECT_TRUE(pcie_->enable_p2p(Bdf{0x30, 0, 0}).is_ok());
  // Freeing a slot lets the extra device in.
  pcie_->disable_p2p(Bdf{0x30, 0, 1});
  EXPECT_TRUE(pcie_->enable_p2p(extra).is_ok());
}

TEST_F(HostPcieTest, TranslatedSameSwitchGoesDirectP2P) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  auto gpu_bar = pcie_->attach_device(gpu_, sw0_, 1_MiB);
  ASSERT_TRUE(gpu_bar.is_ok());
  ASSERT_TRUE(pcie_->enable_p2p(rnic_).is_ok());
  ASSERT_TRUE(pcie_->enable_p2p(gpu_).is_ok());

  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kTranslated;
  tlp.address = gpu_bar.value().base.value() + 0x1000;
  auto out = pcie_->dma(tlp);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().route, DmaOutcome::Route::kDirectP2P);
  EXPECT_EQ(pcie_->direct_p2p_tlps(), 1u);
  // One switch hop only: strictly cheaper than any RC route.
  EXPECT_LT(out.value().latency, SimTime::nanos(250));
}

TEST_F(HostPcieTest, TranslatedWithoutLutDetoursThroughRc) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  auto gpu_bar = pcie_->attach_device(gpu_, sw0_, 1_MiB);
  ASSERT_TRUE(gpu_bar.is_ok());
  // No LUT registration: ACS redirects upstream.
  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kTranslated;
  tlp.address = gpu_bar.value().base.value();
  auto out = pcie_->dma(tlp);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().route, DmaOutcome::Route::kP2PViaRc);
  EXPECT_EQ(pcie_->rc_detour_tlps(), 1u);
}

TEST_F(HostPcieTest, CrossSwitchP2PDetoursEvenWithLut) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  auto far = pcie_->attach_device(far_gpu_, sw1_, 1_MiB);
  ASSERT_TRUE(far.is_ok());
  ASSERT_TRUE(pcie_->enable_p2p(rnic_).is_ok());
  ASSERT_TRUE(pcie_->enable_p2p(far_gpu_).is_ok());
  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kTranslated;
  tlp.address = far.value().base.value();
  auto out = pcie_->dma(tlp);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().route, DmaOutcome::Route::kP2PViaRc);
}

TEST_F(HostPcieTest, UntranslatedGoesThroughIommu) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  ASSERT_TRUE(pcie_->iommu().map(IoVa{0x5000}, Hpa{0x90000}, 0x1000).is_ok());
  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kUntranslated;
  tlp.address = 0x5800;
  auto first = pcie_->dma(tlp);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().route, DmaOutcome::Route::kIommuPath);
  EXPECT_EQ(first.value().resolved, Hpa{0x90800});
  EXPECT_FALSE(first.value().iotlb_hit);
  auto second = pcie_->dma(tlp);
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second.value().iotlb_hit);
  EXPECT_LT(second.value().latency, first.value().latency);
}

TEST_F(HostPcieTest, UntranslatedUnmappedFaults) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kUntranslated;
  tlp.address = 0xDEAD000;
  EXPECT_FALSE(pcie_->dma(tlp).is_ok());
}

TEST_F(HostPcieTest, UnknownRequesterRejected) {
  Tlp tlp;
  tlp.requester = Bdf{0x77, 0, 0};
  tlp.at = AtField::kTranslated;
  tlp.address = 0;
  EXPECT_EQ(pcie_->dma(tlp).status().code(), StatusCode::kNotFound);
}

TEST_F(HostPcieTest, TranslatedMainMemorySkipsIommu) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  Tlp tlp;
  tlp.requester = rnic_;
  tlp.at = AtField::kTranslated;
  tlp.address = 0x123000;  // DRAM range
  auto out = pcie_->dma(tlp);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().route, DmaOutcome::Route::kMainMemory);
  EXPECT_EQ(out.value().resolved, Hpa{0x123000});
}

TEST_F(HostPcieTest, DetachReleasesResources) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  ASSERT_TRUE(pcie_->enable_p2p(rnic_).is_ok());
  ASSERT_TRUE(pcie_->detach_device(rnic_).is_ok());
  EXPECT_FALSE(pcie_->p2p_enabled(rnic_));
  EXPECT_FALSE(pcie_->device_bar(rnic_).is_ok());
  // BDF reusable after detach.
  EXPECT_TRUE(pcie_->attach_device(rnic_, sw1_, 4096).is_ok());
}

TEST_F(HostPcieTest, AtcCachesAtsTranslations) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  ASSERT_TRUE(pcie_->iommu().map(IoVa{0}, Hpa{0x400000}, 1_MiB).is_ok());
  Atc atc(*pcie_, rnic_, 16);

  auto miss = atc.translate(IoVa{0x3000});
  ASSERT_TRUE(miss.is_ok());
  EXPECT_FALSE(miss.value().hit);
  EXPECT_EQ(miss.value().hpa, Hpa{0x403000});
  EXPECT_GT(miss.value().latency, SimTime::nanos(500));  // full ATS RTT

  auto hit = atc.translate(IoVa{0x3800});
  ASSERT_TRUE(hit.is_ok());
  EXPECT_TRUE(hit.value().hit);
  EXPECT_LT(hit.value().latency, SimTime::nanos(50));

  atc.invalidate_all();
  auto after = atc.translate(IoVa{0x3800});
  ASSERT_TRUE(after.is_ok());
  EXPECT_FALSE(after.value().hit);
}

TEST_F(HostPcieTest, IommuUnmapInvalidatesAtc) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  ASSERT_TRUE(pcie_->iommu().map(IoVa{0}, Hpa{0x40000000}, 1_MiB).is_ok());
  ASSERT_TRUE(pcie_->iommu().map(IoVa{1_MiB}, Hpa{0x50000000}, 1_MiB).is_ok());
  Atc atc(*pcie_, rnic_, 16);
  Atc other(*pcie_, rnic_, 16);
  const TenantId tenant{7};

  ASSERT_TRUE(atc.translate(IoVa{0x3000}, tenant).is_ok());
  ASSERT_TRUE(other.translate(IoVa{1_MiB}).is_ok());
  ASSERT_TRUE(atc.translate(IoVa{0x3000}, tenant).value().hit);
  EXPECT_EQ(atc.cache().occupancy(tenant), 1u);

  // The unmap drops the translation: no ATC built on this host may keep
  // serving it, and both read empty.
  ASSERT_TRUE(pcie_->iommu().unmap(IoVa{0}).is_ok());
  EXPECT_EQ(atc.cache().size(), 0u);
  EXPECT_TRUE(atc.cache().occupancy_by_tenant().empty());
  EXPECT_EQ(other.cache().size(), 0u);
  auto stale = atc.translate(IoVa{0x3000}, tenant);
  ASSERT_FALSE(stale.is_ok()) << "ATC hit on an unmapped page, hpa "
                              << stale.value().hpa.value();
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);

  // unmap_range (PVDMA block teardown) flushes them the same way.
  ASSERT_FALSE(other.translate(IoVa{1_MiB}).value().hit);  // refill
  ASSERT_TRUE(other.translate(IoVa{1_MiB}).value().hit);
  EXPECT_EQ(pcie_->iommu().unmap_range(IoVa{1_MiB}, 1_MiB), 1u);
  EXPECT_EQ(other.cache().size(), 0u);
  EXPECT_EQ(other.translate(IoVa{1_MiB}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(HostPcieTest, AtcCapacityEviction) {
  ASSERT_TRUE(pcie_->attach_device(rnic_, sw0_, 4096).is_ok());
  ASSERT_TRUE(pcie_->iommu().map(IoVa{0}, Hpa{0x400000}, 1_MiB).is_ok());
  Atc atc(*pcie_, rnic_, 4);
  for (std::uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(atc.translate(IoVa{p * kPage4K}).is_ok());
  }
  // Sweep again: all missing (sequential LRU worst case).
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto r = atc.translate(IoVa{p * kPage4K});
    ASSERT_TRUE(r.is_ok());
    EXPECT_FALSE(r.value().hit);
  }
}

}  // namespace
}  // namespace stellar
