// MapCache (memory/map_cache.h), the PVDMA Map Cache's flat open-addressing
// table, held to a std::map reference: seeded runs of lookup, insert,
// add_user, release_user and erase over keys that share one probe run,
// through table growth and backward-shift deletion, plus the checkpoint
// bytes of a populated cache against the reference encoding.
#include "memory/map_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"

namespace stellar {
namespace {

/// Block starts whose Fibonacci hash agrees in its top 8 bits: they share
/// a home slot in every table of 16 to 256 slots, so they form one probe
/// run that each erase has to close up.
std::vector<std::uint64_t> colliding_blocks(std::uint64_t block_size,
                                            std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < n; ++k) {
    const std::uint64_t block = k * block_size;
    if ((block * 0x9E3779B97F4A7C15ull) >> 56 == 0x5A) out.push_back(block);
  }
  return out;
}

struct Reference {
  std::map<std::uint64_t, std::uint32_t> blocks;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

std::string bytes_of(const MapCache& cache) {
  SnapshotWriter w;
  w(cache);
  return w.take();
}

/// The encoding the cache must keep: block size, hits, misses, then a u32
/// count and ascending (u64 block start, u32 users) pairs.
std::string reference_bytes(std::uint64_t block_size, const Reference& ref) {
  SnapshotWriter w;
  w(block_size, ref.hits, ref.misses,
    static_cast<std::uint32_t>(ref.blocks.size()));
  for (const auto& [block, users] : ref.blocks) w(block, users);
  return w.take();
}

void expect_same_blocks(const MapCache& cache, const Reference& ref) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  cache.for_each_block([&](Gpa block, std::uint32_t users) {
    seen.emplace_back(block.value(), users);
  });
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> want(
      ref.blocks.begin(), ref.blocks.end());
  EXPECT_EQ(seen, want);
  EXPECT_EQ(bytes_of(cache), reference_bytes(cache.block_size(), ref));
}

void run_differential(std::uint64_t block_size, std::uint64_t seed) {
  SCOPED_TRACE("block size " + std::to_string(block_size) + ", seed " +
               std::to_string(seed));
  std::vector<std::uint64_t> keys = colliding_blocks(block_size, 12);
  for (std::uint64_t k = 0; k < 48; ++k) keys.push_back(k * block_size);

  MapCache cache(block_size);
  Reference ref;
  Rng rng(seed);
  constexpr int kSteps = 20000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t block = keys[rng.below(keys.size())];
    const Gpa gpa{block + rng.below(block_size)};  // any byte of the block
    auto it = ref.blocks.find(block);
    const bool present = it != ref.blocks.end();
    switch (rng.below(9)) {
      case 0:
      case 1:
        ASSERT_EQ(cache.lookup(gpa), present) << "step " << step;
        present ? ++ref.hits : ++ref.misses;
        break;
      case 2:
      case 3:
        cache.insert(gpa);
        ref.blocks[block] = 1;
        break;
      case 4:
      case 5:
        cache.add_user(gpa);
        if (present) ++it->second;
        break;
      case 6:
      case 7: {
        bool freed = false;
        if (present) {
          if (it->second > 0) --it->second;
          freed = it->second == 0;
        }
        ASSERT_EQ(cache.release_user(gpa), freed) << "step " << step;
        break;
      }
      default:
        cache.erase(gpa);
        ref.blocks.erase(block);
        break;
    }
    ASSERT_EQ(cache.block_count(), ref.blocks.size()) << "step " << step;
    ASSERT_EQ(cache.registered_bytes(), ref.blocks.size() * block_size);
    const auto now = ref.blocks.find(block);
    ASSERT_EQ(cache.contains(gpa), now != ref.blocks.end()) << "step " << step;
    ASSERT_EQ(cache.users(gpa), now == ref.blocks.end() ? 0u : now->second)
        << "step " << step;
    if (step % 997 == 0) expect_same_blocks(cache, ref);
  }
  EXPECT_EQ(cache.hits(), ref.hits);
  EXPECT_EQ(cache.misses(), ref.misses);
  expect_same_blocks(cache, ref);

  // Every key still findable after deleting all the others one by one.
  for (const std::uint64_t block : keys) {
    cache.erase(Gpa{block});
    ref.blocks.erase(block);
    for (const auto& [left, users] : ref.blocks) {
      ASSERT_EQ(cache.users(Gpa{left}), users);
    }
  }
  EXPECT_EQ(cache.block_count(), 0u);
  expect_same_blocks(cache, ref);
}

TEST(MapCacheTest, DifferentialAgainstOrderedMap) {
  run_differential(kPage2M, 1);
  run_differential(kPage2M, 2);
  run_differential(kPage4K, 3);
}

TEST(MapCacheTest, CheckpointBytesMatchReferenceEncoding) {
  MapCache cache;
  Reference ref;
  // Inserted out of order and across two table growths.
  for (std::uint64_t k = 40; k > 0; --k) {
    const std::uint64_t block = (k * 7919 % 64) * kPage2M;
    if (ref.blocks.count(block) != 0) continue;
    cache.insert(Gpa{block});
    ref.blocks[block] = 1;
    for (std::uint64_t u = 0; u < k % 3; ++u) cache.add_user(Gpa{block});
    ref.blocks[block] += static_cast<std::uint32_t>(k % 3);
  }
  EXPECT_FALSE(cache.lookup(Gpa{100 * kPage2M}));
  EXPECT_TRUE(cache.lookup(Gpa{7919 % 64 * kPage2M}));
  ref.misses = 1;
  ref.hits = 1;
  const std::string bytes = bytes_of(cache);
  EXPECT_EQ(bytes, reference_bytes(kPage2M, ref));

  // A restore rebuilds the same table and re-encodes to the same bytes.
  MapCache restored;
  SnapshotReader r(bytes);
  r(restored);
  ASSERT_TRUE(r.finish().is_ok());
  EXPECT_EQ(bytes_of(restored), bytes);
  EXPECT_EQ(restored.block_count(), ref.blocks.size());
  for (const auto& [block, users] : ref.blocks) {
    EXPECT_EQ(restored.users(Gpa{block}), users);
  }

  // A block-size mismatch fails the restore.
  MapCache other(kPage4K);
  SnapshotReader bad(bytes);
  bad(other);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace stellar
