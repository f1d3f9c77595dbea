#include "virt/pvdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace stellar {
namespace {

class PvdmaTest : public ::testing::Test {
 protected:
  PvdmaTest() {
    // 1 GiB of guest RAM backed at HPA 16 GiB.
    (void)ept_.map(Gpa{0}, Hpa{16_GiB}, 1_GiB);
  }
  Iommu iommu_;
  Ept ept_;
};

TEST_F(PvdmaTest, FirstTouchRegistersAndPins) {
  Pvdma pvdma(iommu_, ept_);
  auto r = pvdma.prepare_dma(Gpa{10 * kPage2M + 123}, 4096);
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().cache_hit);
  EXPECT_EQ(r.value().pinned_bytes, kPage2M);
  EXPECT_GT(r.value().cost, iommu_.pin_cost(kPage2M) - SimTime::micros(1));
  EXPECT_EQ(pvdma.pinned_bytes(), kPage2M);
  EXPECT_EQ(pvdma.blocks_registered(), 1u);
  // The IOMMU can now translate the whole block.
  EXPECT_TRUE(iommu_.translate(IoVa{10 * kPage2M}).is_ok());
  EXPECT_TRUE(iommu_.translate(IoVa{11 * kPage2M - 1}).is_ok());
  EXPECT_FALSE(iommu_.translate(IoVa{11 * kPage2M}).is_ok());
}

TEST_F(PvdmaTest, SecondTouchHitsMapCache) {
  Pvdma pvdma(iommu_, ept_);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{0}, 4096).is_ok());
  auto r = pvdma.prepare_dma(Gpa{4096}, 4096);  // same 2 MiB block
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().cache_hit);
  EXPECT_EQ(r.value().pinned_bytes, 0u);
  // Map-cache lookup only: orders of magnitude below a pin.
  EXPECT_LT(r.value().cost, SimTime::micros(1));
}

TEST_F(PvdmaTest, SpanningRequestPinsAllBlocks) {
  Pvdma pvdma(iommu_, ept_);
  auto r = pvdma.prepare_dma(Gpa{kPage2M - 4096}, 3 * kPage2M);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().pinned_bytes, 4 * kPage2M);  // partial + 3 full
  EXPECT_EQ(pvdma.blocks_registered(), 4u);
}

TEST_F(PvdmaTest, ReleaseUnpinsWhenLastUserLeaves) {
  Pvdma pvdma(iommu_, ept_);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{0}, 4096).is_ok());
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{8192}, 4096).is_ok());  // 2nd user
  pvdma.release_dma(Gpa{0}, 4096);
  EXPECT_EQ(pvdma.pinned_bytes(), kPage2M);  // still held by user 2
  EXPECT_TRUE(iommu_.translate(IoVa{0}).is_ok());
  pvdma.release_dma(Gpa{8192}, 4096);
  EXPECT_EQ(pvdma.pinned_bytes(), 0u);
  EXPECT_FALSE(iommu_.translate(IoVa{0}).is_ok());
}

TEST_F(PvdmaTest, TranslateForDeviceRamIsClean) {
  Pvdma pvdma(iommu_, ept_);
  ASSERT_TRUE(pvdma.prepare_dma(Gpa{4 * kPage2M}, 4096).is_ok());
  auto access = pvdma.translate_for_device(Gpa{4 * kPage2M + 100});
  EXPECT_EQ(access.kind, Pvdma::AccessKind::kRam);
  EXPECT_EQ(access.hpa, Hpa{16_GiB + 4 * kPage2M + 100});
}

TEST_F(PvdmaTest, TranslateUnmappedFaults) {
  Pvdma pvdma(iommu_, ept_);
  auto access = pvdma.translate_for_device(Gpa{64 * kPage2M});
  EXPECT_EQ(access.kind, Pvdma::AccessKind::kFault);
}

TEST_F(PvdmaTest, PinCostScalesWithBlockSize) {
  PvdmaConfig small;
  small.block_size = kPage2M;
  PvdmaConfig large;
  large.block_size = 8 * kPage2M;
  Pvdma pv_small(iommu_, ept_, small);
  Iommu iommu2;
  Ept ept2;
  ASSERT_TRUE(ept2.map(Gpa{0}, Hpa{16_GiB}, 1_GiB).is_ok());
  Pvdma pv_large(iommu2, ept2, large);
  auto a = pv_small.prepare_dma(Gpa{0}, 4096);
  auto b = pv_large.prepare_dma(Gpa{0}, 4096);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  // Bigger blocks pin ~8x more memory per miss: the 2 MiB choice balances
  // map-cache size against pin overhead (§5).
  EXPECT_GT(b.value().cost.us(), a.value().cost.us() * 4);
}

TEST_F(PvdmaTest, ZeroLengthRejected) {
  Pvdma pvdma(iommu_, ept_);
  EXPECT_FALSE(pvdma.prepare_dma(Gpa{0}, 0).is_ok());
}

// -- register_block vs a 4 KiB page-by-page reference walk ------------------

using IommuRange = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kLayoutBlocks = 8;
constexpr std::uint64_t kBarBase = 1ull << 46;

// What one block's registration must program: translate the first byte of
// every 4 KiB page, skip unmapped pages, and merge a page into the previous
// range iff it continues that range's HPA.
std::vector<IommuRange> page_walk(const Ept& ept, Gpa block,
                                  std::uint64_t iova_base) {
  std::vector<IommuRange> out;
  bool open = false;
  for (std::uint64_t off = 0; off < kPage2M; off += kPage4K) {
    auto hpa = ept.translate(block + off);
    if (!hpa.is_ok()) {
      open = false;
      continue;
    }
    const std::uint64_t page_hpa = hpa.value().value();
    if (open &&
        std::get<1>(out.back()) + std::get<2>(out.back()) == page_hpa) {
      std::get<2>(out.back()) += kPage4K;
      continue;
    }
    out.emplace_back(iova_base + block.value() + off, page_hpa, kPage4K);
    open = true;
  }
  return out;
}

std::vector<IommuRange> iommu_ranges(const Iommu& iommu) {
  std::vector<IommuRange> out;
  for (const auto& [start, e] : iommu.table()) {
    out.emplace_back(start, e.dst.value(), e.len);
  }
  return out;
}

struct LayoutFeatures {
  int gaps = 0;
  int hpa_contiguous_neighbours = 0;
  int hpa_contiguous_across_gap = 0;
  int remaps = 0;
  int register_holes = 0;
};

// A seeded EPT layout over kLayoutBlocks blocks: mapped segments and gaps
// with 2 KiB-granular boundaries (so ranges start and end mid-block and
// sometimes mid-page); segments that continue the last mapped segment's
// HPA, both right next to it (their pages must merge into one IOMMU range)
// and across a gap (they must not); remap_ram HPA breaks; and vDB register
// holes carved out of RAM.
LayoutFeatures build_layout(Ept& ept, std::uint64_t seed) {
  Rng rng(seed);
  LayoutFeatures f;
  const std::uint64_t span = kLayoutBlocks * kPage2M;
  std::uint64_t hpa = 16_GiB;  // end of the last mapped segment's HPA
  bool prev_mapped = false;
  for (std::uint64_t gpa = 0; gpa < span;) {
    const std::uint64_t len =
        std::min(span - gpa, (1 + rng.below(640)) * 2_KiB);
    const std::uint64_t kind = rng.below(4);
    if (kind == 0) {
      ++f.gaps;
      prev_mapped = false;
    } else {
      if (kind == 1) {
        ++(prev_mapped ? f.hpa_contiguous_neighbours
                       : f.hpa_contiguous_across_gap);
      } else {
        hpa = 16_GiB + rng.below(1ull << 20) * 2_KiB;
      }
      EXPECT_TRUE(ept.map(Gpa{gpa}, Hpa{hpa}, len).is_ok());
      hpa += len;
      prev_mapped = true;
    }
    gpa += len;
  }
  for (int i = 0; i < 24; ++i) {
    const Gpa page{rng.below(span / kPage4K) * kPage4K};
    if (ept.remap_ram(page, Hpa{64_GiB + rng.below(1ull << 20) * kPage4K},
                      kPage4K)
            .is_ok()) {
      ++f.remaps;
    }
  }
  for (int i = 0; i < 8; ++i) {
    const Gpa page{rng.below(span / kPage4K) * kPage4K};
    if (ept.map_register_hole(page, Hpa{kBarBase + i * kPage4K}, kPage4K)
            .is_ok()) {
      ++f.register_holes;
    }
  }
  return f;
}

TEST(PvdmaRegisterTest, RegisterBlockMatchesPageWalk) {
  LayoutFeatures seen;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Iommu iommu;
    Ept ept;
    const LayoutFeatures f = build_layout(ept, seed);
    seen.gaps += f.gaps;
    seen.hpa_contiguous_neighbours += f.hpa_contiguous_neighbours;
    seen.hpa_contiguous_across_gap += f.hpa_contiguous_across_gap;
    seen.remaps += f.remaps;
    seen.register_holes += f.register_holes;

    const std::uint64_t iova_base = 1ull << 40;
    Pvdma pvdma(iommu, ept, PvdmaConfig{}, iova_base);
    // Register the blocks in a seeded order, one at a time; after each,
    // the whole IOMMU table must equal the reference walks of every block
    // registered so far.
    std::vector<std::uint64_t> order(kLayoutBlocks);
    for (std::uint64_t b = 0; b < kLayoutBlocks; ++b) order[b] = b;
    Rng shuffle(hash_combine(seed, 0x5eed));
    for (std::uint64_t i = kLayoutBlocks; i > 1; --i) {
      std::swap(order[i - 1], order[shuffle.below(i)]);
    }
    std::vector<bool> registered(kLayoutBlocks, false);
    for (const std::uint64_t b : order) {
      ASSERT_TRUE(pvdma.prepare_dma(Gpa{b * kPage2M + 512}, 4096).is_ok());
      registered[b] = true;
      std::vector<IommuRange> expected;
      for (std::uint64_t r = 0; r < kLayoutBlocks; ++r) {
        if (!registered[r]) continue;
        for (const IommuRange& range :
             page_walk(ept, Gpa{r * kPage2M}, iova_base)) {
          expected.push_back(range);
        }
      }
      ASSERT_EQ(iommu_ranges(iommu), expected) << "after block " << b;
    }
  }
  // The layouts exercised every shape the run walk has to get right.
  EXPECT_GT(seen.gaps, 0);
  EXPECT_GT(seen.hpa_contiguous_neighbours, 0);
  EXPECT_GT(seen.hpa_contiguous_across_gap, 0);
  EXPECT_GT(seen.remaps, 0);
  EXPECT_GT(seen.register_holes, 0);
}

TEST(PvdmaRegisterTest, RunsRoundRangesToWholePages) {
  // A range ending mid-page still owns that page (its first byte
  // translates); a range starting mid-page does not own the page it starts
  // in, and a range holding no page start yields no run at all.
  Ept ept;
  ASSERT_TRUE(ept.map(Gpa{0}, Hpa{16_GiB}, kPage4K + 2_KiB).is_ok());
  ASSERT_TRUE(ept.map(Gpa{3 * kPage4K + 1_KiB}, Hpa{20_GiB}, 1_KiB).is_ok());
  ASSERT_TRUE(
      ept.map(Gpa{5 * kPage4K + 2_KiB}, Hpa{24_GiB}, 2 * kPage4K).is_ok());
  std::vector<IommuRange> runs;
  ept.for_each_run(Gpa{0}, kPage2M, [&](Gpa gpa, Hpa hpa, std::uint64_t len) {
    runs.emplace_back(gpa.value(), hpa.value(), len);
    return true;
  });
  const std::vector<IommuRange> expected = {
      {0, 16_GiB, 2 * kPage4K},
      {6 * kPage4K, 24_GiB + 2_KiB, 2 * kPage4K},
  };
  EXPECT_EQ(runs, expected);
  EXPECT_EQ(page_walk(ept, Gpa{0}, 0), expected);
}

}  // namespace
}  // namespace stellar
