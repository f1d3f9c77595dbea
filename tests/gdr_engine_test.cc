#include "rnic/gdr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pcie/atc.h"

namespace stellar {
namespace {

class GdrEngineTest : public ::testing::Test {
 protected:
  GdrEngineTest() : pcie_(make_config()) {
    sw_ = pcie_.add_switch("sw0");
    auto bar = pcie_.attach_device(rnic_, sw_, 4096);
    EXPECT_TRUE(bar.is_ok());
    auto gbar = pcie_.attach_device(gpu_, sw_, 1_GiB);
    EXPECT_TRUE(gbar.is_ok());
    gpu_bar_ = gbar.value();
    EXPECT_TRUE(pcie_.enable_p2p(rnic_).is_ok());
    EXPECT_TRUE(pcie_.enable_p2p(gpu_).is_ok());
    // IOMMU window for untranslated GDR (device VA -> GPU BAR).
    EXPECT_TRUE(pcie_.iommu().map(window_, gpu_bar_.base, 512_MiB).is_ok());
  }

  static HostPcieConfig make_config() {
    HostPcieConfig cfg;
    cfg.main_memory_bytes = 16_GiB;
    cfg.rc_p2p_bandwidth = Bandwidth::gbps(145);
    return cfg;
  }

  GdrEngineConfig engine_config(double gbps) const {
    GdrEngineConfig cfg;
    cfg.nic_rate = Bandwidth::gbps(gbps);
    cfg.requester = rnic_;
    return cfg;
  }

  HostPcie pcie_;
  std::size_t sw_ = 0;
  const Bdf rnic_{0x10, 0, 0};
  const Bdf gpu_{0x18, 1, 0};
  Bar gpu_bar_;
  const IoVa window_{1ull << 40};
};

TEST_F(GdrEngineTest, EmttRunsAtLineRate) {
  GdrEngine engine(pcie_, engine_config(400), GdrMode::kEmtt, nullptr);
  const GdrTransfer t = engine.transfer(IoVa{gpu_bar_.base.value()}, 64_MiB);
  EXPECT_NEAR(t.gbps, 393.7, 2.0);
  EXPECT_EQ(t.atc_misses, 0u);
  EXPECT_EQ(t.iotlb_misses, 0u);
  EXPECT_GT(pcie_.direct_p2p_tlps(), 0u);
}

TEST_F(GdrEngineTest, RcRoutedCappedByRootComplex) {
  GdrEngine engine(pcie_, engine_config(400), GdrMode::kRcRouted, nullptr);
  const GdrTransfer t = engine.transfer(window_, 64_MiB);
  EXPECT_LT(t.gbps, 150.0);
  EXPECT_GT(t.gbps, 130.0);
}

TEST_F(GdrEngineTest, EmttWithoutLutFallsBackToRcPath) {
  pcie_.disable_p2p(rnic_);  // ACS now redirects upstream
  GdrEngine engine(pcie_, engine_config(400), GdrMode::kEmtt, nullptr);
  const GdrTransfer t = engine.transfer(IoVa{gpu_bar_.base.value()}, 16_MiB);
  EXPECT_LT(t.gbps, 150.0);
  EXPECT_GT(pcie_.rc_detour_tlps(), 0u);
}

TEST_F(GdrEngineTest, AtcModeDroopsWhenWorkingSetExceedsCapacity) {
  Atc atc(pcie_, rnic_, /*capacity_pages=*/1024);  // covers 4 MiB
  GdrEngine engine(pcie_, engine_config(200), GdrMode::kAtsAtc, &atc);

  // Warm phase: working set of 2 MiB fits; second pass is all hits.
  (void)engine.transfer(window_, 2_MiB);
  const GdrTransfer fit = engine.transfer(window_, 2_MiB);
  EXPECT_EQ(fit.atc_misses, 0u);

  // Thrash phase: 16 MiB >> 4 MiB capacity; sequential LRU sweep misses on
  // (almost) every page and throughput droops.
  (void)engine.transfer(window_, 16_MiB);
  const GdrTransfer thrash = engine.transfer(window_, 16_MiB);
  EXPECT_GT(thrash.atc_misses, 3000u);
  EXPECT_LT(thrash.gbps, fit.gbps - 10.0);
}

TEST_F(GdrEngineTest, EmttAndRcDurationsEqualPerPageSum) {
  // The per-page reference: walk every page the message touches, from the
  // page holding its first byte, and add that page's cost.
  auto per_page_sum = [](IoVa iova, std::uint64_t len, std::uint32_t page,
                         std::int64_t page_ps) {
    std::int64_t total = 0;
    for (std::uint64_t addr = iova.align_down(page).value();
         addr < iova.value() + len; addr += page) {
      total += page_ps;
    }
    return total;
  };
  const std::uint64_t offsets[] = {0, 1, 4095, 4097, 123457};
  const std::uint64_t lengths[] = {1, 4095, 4096, 4097, 1_MiB + 3, 16_MiB - 1};
  for (const double gbps : {100.0, 400.0}) {
    const GdrEngineConfig cfg = engine_config(gbps);
    const std::uint64_t tlp = kPage4K + kGdrWireOverhead;
    const std::int64_t wire_ps = cfg.nic_rate.transmit_time(tlp).ps();
    const std::int64_t rc_ps = std::max(
        wire_ps, pcie_.config().rc_p2p_bandwidth.transmit_time(tlp).ps());
    for (const bool direct : {true, false}) {
      if (direct) {
        if (!pcie_.p2p_enabled(rnic_)) {
          ASSERT_TRUE(pcie_.enable_p2p(rnic_).is_ok());
        }
      } else {
        pcie_.disable_p2p(rnic_);  // ACS detours eMTT TLPs via the RC
      }
      GdrEngine emtt(pcie_, cfg, GdrMode::kEmtt, nullptr);
      GdrEngine rc(pcie_, cfg, GdrMode::kRcRouted, nullptr);
      for (const std::uint64_t off : offsets) {
        for (const std::uint64_t len : lengths) {
          SCOPED_TRACE(std::to_string(gbps) + " Gb/s, direct=" +
                       std::to_string(direct) + ", off=" +
                       std::to_string(off) + ", len=" + std::to_string(len));
          const IoVa bar{gpu_bar_.base.value() + off};
          const std::uint64_t p2p_before = pcie_.direct_p2p_tlps();
          EXPECT_EQ(emtt.transfer(bar, len).duration.ps(),
                    per_page_sum(bar, len, kPage4K,
                                 direct ? wire_ps : rc_ps));
          EXPECT_EQ(pcie_.direct_p2p_tlps() > p2p_before, direct);
          const IoVa untranslated{window_.value() + off};
          EXPECT_EQ(rc.transfer(untranslated, len).duration.ps(),
                    per_page_sum(untranslated, len, kPage4K, rc_ps));
        }
      }
    }
  }
}

TEST_F(GdrEngineTest, ZeroLengthIsNoop) {
  GdrEngine engine(pcie_, engine_config(400), GdrMode::kEmtt, nullptr);
  const GdrTransfer t = engine.transfer(window_, 0);
  EXPECT_EQ(t.duration, SimTime::zero());
  EXPECT_EQ(t.gbps, 0.0);
}

}  // namespace
}  // namespace stellar
