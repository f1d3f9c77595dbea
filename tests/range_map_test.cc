#include "memory/range_map.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stellar {
namespace {

using GpaMap = RangeMap<Gpa, Hpa>;

TEST(RangeMapTest, MapAndTranslate) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x80000}, 0x2000).is_ok());
  auto t = map.translate(Gpa{0x1800});
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(t.value(), Hpa{0x80800});
}

TEST(RangeMapTest, TranslateOutsideFails) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x80000}, 0x1000).is_ok());
  EXPECT_FALSE(map.translate(Gpa{0x0FFF}).is_ok());
  EXPECT_FALSE(map.translate(Gpa{0x2000}).is_ok());  // one past end
  EXPECT_TRUE(map.translate(Gpa{0x1FFF}).is_ok());   // last byte
}

TEST(RangeMapTest, ZeroLengthRejected) {
  GpaMap map;
  EXPECT_EQ(map.map(Gpa{0}, Hpa{0}, 0).code(), StatusCode::kInvalidArgument);
}

TEST(RangeMapTest, OverlapRejected) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0}, 0x1000).is_ok());
  EXPECT_EQ(map.map(Gpa{0x1800}, Hpa{0}, 0x1000).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(map.map(Gpa{0x800}, Hpa{0}, 0x1000).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(map.map(Gpa{0x800}, Hpa{0}, 0x10000).code(),
            StatusCode::kAlreadyExists);  // fully covering
  // Adjacent is fine.
  EXPECT_TRUE(map.map(Gpa{0x2000}, Hpa{0}, 0x1000).is_ok());
  EXPECT_TRUE(map.map(Gpa{0x0}, Hpa{0}, 0x1000).is_ok());
}

TEST(RangeMapTest, UnmapExactStart) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0}, 0x1000).is_ok());
  EXPECT_EQ(map.unmap(Gpa{0x1001}).code(), StatusCode::kNotFound);
  EXPECT_TRUE(map.unmap(Gpa{0x1000}).is_ok());
  EXPECT_FALSE(map.contains(Gpa{0x1000}));
}

TEST(RangeMapTest, UnmapContained) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0}, 0x1000).is_ok());
  ASSERT_TRUE(map.map(Gpa{0x2000}, Hpa{0}, 0x1000).is_ok());
  ASSERT_TRUE(map.map(Gpa{0x3000}, Hpa{0}, 0x2000).is_ok());
  // Window covers the first two fully and the third partially.
  map.unmap_contained(Gpa{0x1000}, 0x3000);
  EXPECT_FALSE(map.contains(Gpa{0x1000}));
  EXPECT_FALSE(map.contains(Gpa{0x2000}));
  EXPECT_TRUE(map.contains(Gpa{0x3000}));  // not fully contained: survives
}

TEST(RangeMapTest, CoversStitchedRanges) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x0}, Hpa{0}, 0x1000).is_ok());
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x9000}, 0x1000).is_ok());
  EXPECT_TRUE(map.covers(Gpa{0x0}, 0x2000));
  EXPECT_FALSE(map.covers(Gpa{0x0}, 0x2001));
  EXPECT_TRUE(map.covers(Gpa{0x800}, 0x1000));
}

TEST(RangeMapTest, CarveMiddleSplitsRange) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x0}, Hpa{0x100000}, 0x10000).is_ok());
  ASSERT_TRUE(map.carve(Gpa{0x4000}, 0x1000).is_ok());
  EXPECT_FALSE(map.contains(Gpa{0x4000}));
  EXPECT_FALSE(map.contains(Gpa{0x4FFF}));
  // Left part intact with original mapping.
  EXPECT_EQ(map.translate(Gpa{0x3FFF}).value(), Hpa{0x103FFF});
  // Right part keeps its linear offset.
  EXPECT_EQ(map.translate(Gpa{0x5000}).value(), Hpa{0x105000});
  EXPECT_EQ(map.range_count(), 2u);
}

TEST(RangeMapTest, CarveAtEdges) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x0}, 0x3000).is_ok());
  ASSERT_TRUE(map.carve(Gpa{0x1000}, 0x1000).is_ok());  // front
  EXPECT_FALSE(map.contains(Gpa{0x1000}));
  EXPECT_TRUE(map.contains(Gpa{0x2000}));
  ASSERT_TRUE(map.carve(Gpa{0x3000}, 0x1000).is_ok());  // back
  EXPECT_TRUE(map.contains(Gpa{0x2000}));
  EXPECT_EQ(map.translate(Gpa{0x2000}).value(), Hpa{0x1000});
}

TEST(RangeMapTest, CarveErrors) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x0}, 0x2000).is_ok());
  EXPECT_EQ(map.carve(Gpa{0x0}, 0x100).code(), StatusCode::kNotFound);
  EXPECT_EQ(map.carve(Gpa{0x2800}, 0x1000).code(), StatusCode::kOutOfRange);
}

TEST(RangeMapTest, RangeAtOrAfter) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x1000}, Hpa{0x80000}, 0x2000).is_ok());
  ASSERT_TRUE(map.map(Gpa{0x5000}, Hpa{0x90000}, 0x1000).is_ok());
  auto containing = map.range_at_or_after(Gpa{0x2FFF});  // last byte
  ASSERT_TRUE(containing.has_value());
  EXPECT_EQ(containing->start, Gpa{0x1000});
  EXPECT_EQ(containing->len, 0x2000u);
  EXPECT_EQ(containing->dst, Hpa{0x80000});
  auto below = map.range_at_or_after(Gpa{0x0});
  ASSERT_TRUE(below.has_value());
  EXPECT_EQ(below->start, Gpa{0x1000});
  auto in_gap = map.range_at_or_after(Gpa{0x3000});  // one past the end
  ASSERT_TRUE(in_gap.has_value());
  EXPECT_EQ(in_gap->start, Gpa{0x5000});
  EXPECT_EQ(in_gap->dst, Hpa{0x90000});
  EXPECT_FALSE(map.range_at_or_after(Gpa{0x6000}).has_value());
}

TEST(RangeMapTest, MappedBytesAccounting) {
  GpaMap map;
  ASSERT_TRUE(map.map(Gpa{0x0}, Hpa{0}, 0x1000).is_ok());
  ASSERT_TRUE(map.map(Gpa{0x10000}, Hpa{0}, 0x5000).is_ok());
  EXPECT_EQ(map.mapped_bytes(), 0x6000u);
}

// Property test: random carve/map/translate against a page-level reference
// model.
TEST(RangeMapPropertyTest, MatchesPageLevelReference) {
  GpaMap map;
  constexpr std::uint64_t kPages = 256;
  std::vector<std::int64_t> reference(kPages, -1);  // page -> hpa page or -1
  Rng rng(2024);

  ASSERT_TRUE(map.map(Gpa{0}, Hpa{1ull << 30}, kPages * kPage4K).is_ok());
  for (std::uint64_t p = 0; p < kPages; ++p) {
    reference[p] = static_cast<std::int64_t>((1ull << 30) / kPage4K + p);
  }

  for (int step = 0; step < 200; ++step) {
    const std::uint64_t page = rng.below(kPages);
    if (reference[page] >= 0) {
      ASSERT_TRUE(map.carve(Gpa{page * kPage4K}, kPage4K).is_ok());
      reference[page] = -1;
    }
    // Verify a random sample of pages after each mutation.
    for (int check = 0; check < 8; ++check) {
      const std::uint64_t q = rng.below(kPages);
      auto t = map.translate(Gpa{q * kPage4K + 12});
      if (reference[q] < 0) {
        EXPECT_FALSE(t.is_ok());
      } else {
        ASSERT_TRUE(t.is_ok());
        EXPECT_EQ(t.value().value() / kPage4K,
                  static_cast<std::uint64_t>(reference[q]));
      }
    }
  }
}

}  // namespace
}  // namespace stellar
