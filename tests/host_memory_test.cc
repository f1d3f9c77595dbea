#include "memory/host_memory.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace stellar {
namespace {

TEST(HostMemoryTest, AllocateAndRelease) {
  HostMemory mem(Hpa{0}, 1_MiB);
  auto a = mem.allocate(4096);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(mem.used_bytes(), 4096u);
  ASSERT_TRUE(mem.release(a.value()).is_ok());
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(HostMemoryTest, AlignmentHonored) {
  HostMemory mem(Hpa{0x100}, 16_MiB);
  auto a = mem.allocate(100, 1);  // misalign the cursor
  ASSERT_TRUE(a.is_ok());
  auto b = mem.allocate(4096, kPage2M);
  ASSERT_TRUE(b.is_ok());
  EXPECT_TRUE(b.value().is_aligned(kPage2M));
}

TEST(HostMemoryTest, ExhaustionFails) {
  HostMemory mem(Hpa{0}, 8192);
  ASSERT_TRUE(mem.allocate(8192).is_ok());
  EXPECT_EQ(mem.allocate(1).status().code(), StatusCode::kResourceExhausted);
}

TEST(HostMemoryTest, ZeroLengthRejected) {
  HostMemory mem(Hpa{0}, 8192);
  EXPECT_EQ(mem.allocate(0).status().code(), StatusCode::kInvalidArgument);
}

TEST(HostMemoryTest, ReleaseCoalescesNeighbors) {
  HostMemory mem(Hpa{0}, 64_KiB);
  auto a = mem.allocate(16_KiB);
  auto b = mem.allocate(16_KiB);
  auto c = mem.allocate(32_KiB);
  ASSERT_TRUE(a.is_ok() && b.is_ok() && c.is_ok());
  EXPECT_EQ(mem.free_bytes(), 0u);
  ASSERT_TRUE(mem.release(a.value()).is_ok());
  ASSERT_TRUE(mem.release(c.value()).is_ok());
  ASSERT_TRUE(mem.release(b.value()).is_ok());
  // After coalescing, the full window is one block again.
  auto big = mem.allocate(64_KiB);
  EXPECT_TRUE(big.is_ok());
}

TEST(HostMemoryTest, ReleaseUnknownFails) {
  HostMemory mem(Hpa{0}, 64_KiB);
  EXPECT_EQ(mem.release(Hpa{0x1234}).code(), StatusCode::kNotFound);
}

TEST(HostMemoryTest, FirstFitReusesFreedHole) {
  HostMemory mem(Hpa{0}, 64_KiB);
  auto a = mem.allocate(16_KiB);
  auto b = mem.allocate(16_KiB);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  ASSERT_TRUE(mem.release(a.value()).is_ok());
  auto c = mem.allocate(8_KiB);
  ASSERT_TRUE(c.is_ok());
  EXPECT_EQ(c.value(), a.value());  // hole reused
}

}  // namespace
}  // namespace stellar
