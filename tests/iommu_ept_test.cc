#include <gtest/gtest.h>

#include "memory/ept.h"
#include "memory/iommu.h"
#include "memory/map_cache.h"

namespace stellar {
namespace {

TEST(IommuTest, MapTranslateUnmap) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(IoVa{0x10000}, Hpa{0x900000}, 0x4000).is_ok());
  auto t = iommu.translate(IoVa{0x11234});
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value().hpa, Hpa{0x901234});
  ASSERT_TRUE(iommu.unmap(IoVa{0x10000}).is_ok());
  EXPECT_FALSE(iommu.translate(IoVa{0x11234}).is_ok());
}

TEST(IommuTest, FirstTranslationWalksThenCaches) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(IoVa{0}, Hpa{0x100000}, 0x10000).is_ok());
  auto miss = iommu.translate(IoVa{0x2000});
  ASSERT_TRUE(miss.is_ok());
  EXPECT_FALSE(miss.value().iotlb_hit);
  EXPECT_EQ(miss.value().latency, kPageWalkLatency);

  auto hit = iommu.translate(IoVa{0x2800});  // same 4 KiB page
  ASSERT_TRUE(hit.is_ok());
  EXPECT_TRUE(hit.value().iotlb_hit);
  EXPECT_EQ(hit.value().latency, kIotlbHitLatency);
  EXPECT_EQ(hit.value().hpa, Hpa{0x102800});
}

TEST(IommuTest, IotlbCapacityCausesThrash) {
  IommuConfig cfg;
  cfg.iotlb_capacity = 4;
  Iommu iommu(cfg);
  ASSERT_TRUE(iommu.map(IoVa{0}, Hpa{0}, 1_MiB).is_ok());
  // Touch 8 distinct pages twice; with capacity 4 and LRU, the second
  // round misses every time (sequential sweep is the LRU worst case).
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t p = 0; p < 8; ++p) {
      auto t = iommu.translate(IoVa{p * kPage4K});
      ASSERT_TRUE(t.is_ok());
      EXPECT_FALSE(t.value().iotlb_hit);
    }
  }
  EXPECT_EQ(iommu.page_walks(), 16u);
}

TEST(IommuTest, PinCostMatchesPaperScale) {
  Iommu iommu;  // defaults: 900 ns/page
  // 1.6 TB at ~0.9 us per 4 KiB page ~ 386 s: the minute-level start-up
  // delay of §3.1(2).
  const SimTime t = iommu.pin_cost(1600ull * 1_GiB);
  EXPECT_GT(t.sec(), 300.0);
  EXPECT_LT(t.sec(), 450.0);
  // 16 GB is proportionally ~100x cheaper.
  EXPECT_NEAR(iommu.pin_cost(16_GiB).sec() * 100, iommu.pin_cost(1600ull * 1_GiB).sec(),
              iommu.pin_cost(1600ull * 1_GiB).sec() * 0.05);
}

TEST(IommuTest, PinnedAccounting) {
  Iommu iommu;
  iommu.note_pinned(4_MiB);
  iommu.note_pinned(2_MiB);
  EXPECT_EQ(iommu.pinned_bytes(), 6_MiB);
  iommu.note_unpinned(4_MiB);
  EXPECT_EQ(iommu.pinned_bytes(), 2_MiB);
}

TEST(IommuTest, UnmapRangeRemovesContainedRuns) {
  Iommu iommu;
  ASSERT_TRUE(iommu.map(IoVa{0x200000}, Hpa{0xA00000}, 0x1000).is_ok());
  ASSERT_TRUE(iommu.map(IoVa{0x201000}, Hpa{0xB00000}, 0x1000).is_ok());
  iommu.unmap_range(IoVa{0x200000}, kPage2M);
  EXPECT_FALSE(iommu.translate(IoVa{0x200000}).is_ok());
  EXPECT_FALSE(iommu.translate(IoVa{0x201000}).is_ok());
}

TEST(EptTest, DeviceRegisterTracking) {
  Ept ept;
  ASSERT_TRUE(ept.map(Gpa{0}, Hpa{0x100000}, 16_MiB).is_ok());
  EXPECT_FALSE(ept.overlaps_device_register(Gpa{0}, 16_MiB));
  ASSERT_TRUE(ept.map_register_hole(Gpa{0x400000}, Hpa{1ull << 46}, kPage4K)
                  .is_ok());
  EXPECT_TRUE(ept.overlaps_device_register(Gpa{0x3FF000}, 0x2000));
  EXPECT_FALSE(ept.overlaps_device_register(Gpa{0x500000}, 0x1000));
  // The register hole translates to the device HPA...
  EXPECT_EQ(ept.translate(Gpa{0x400000}).value(), Hpa{1ull << 46});
  // ...while neighbours keep the RAM mapping.
  EXPECT_EQ(ept.translate(Gpa{0x3FF000}).value(), Hpa{0x4FF000});
  EXPECT_EQ(ept.translate(Gpa{0x401000}).value(), Hpa{0x501000});
}

TEST(EptTest, RestoreRamAfterRegisterTeardown) {
  Ept ept;
  ASSERT_TRUE(ept.map(Gpa{0}, Hpa{0x100000}, 16_MiB).is_ok());
  ASSERT_TRUE(ept.map_register_hole(Gpa{0x400000}, Hpa{1ull << 46}, kPage4K)
                  .is_ok());
  ASSERT_TRUE(ept.restore_ram(Gpa{0x400000}, Hpa{0x500000}, kPage4K).is_ok());
  EXPECT_EQ(ept.translate(Gpa{0x400000}).value(), Hpa{0x500000});
  EXPECT_FALSE(ept.overlaps_device_register(Gpa{0x400000}, kPage4K));
}

TEST(MapCacheTest, BlockGranularity) {
  MapCache cache;  // 2 MiB blocks
  EXPECT_EQ(cache.block_of(Gpa{kPage2M + 5}), Gpa{kPage2M});
  EXPECT_FALSE(cache.lookup(Gpa{kPage2M}));
  cache.insert(Gpa{kPage2M + 100});  // any address in the block
  EXPECT_TRUE(cache.lookup(Gpa{2 * kPage2M - 1}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(MapCacheTest, UserCounting) {
  MapCache cache;
  cache.insert(Gpa{0});
  cache.add_user(Gpa{100});
  EXPECT_EQ(cache.users(Gpa{0}), 2u);
  EXPECT_FALSE(cache.release_user(Gpa{0}));  // still one user
  EXPECT_TRUE(cache.release_user(Gpa{0}));   // now free
  cache.erase(Gpa{0});
  EXPECT_FALSE(cache.contains(Gpa{0}));
}

TEST(MapCacheTest, RegisteredBytes) {
  MapCache cache;
  cache.insert(Gpa{0});
  cache.insert(Gpa{10 * kPage2M});
  EXPECT_EQ(cache.registered_bytes(), 2 * kPage2M);
  EXPECT_EQ(cache.block_count(), 2u);
}

}  // namespace
}  // namespace stellar
