// TranslationCache (memory/translation_cache.h), the extent cache behind the
// IOTLB and every ATC, held to ReferenceTranslationCache, an independent
// per-page model (tests/reference_translation_cache.h). The LruCacheTest
// cases pin the per-page LRU semantics the extent cache must keep; the
// differential test drives both caches through seeded runs, lookups, share
// caps and clears. Labelled `tenant` — ctest -L tenant.
#include "memory/translation_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "check/audit.h"
#include "check/auditors.h"
#include "core/stellar.h"
#include "memory/range_map.h"
#include "reference_translation_cache.h"
#include "rnic/gdr.h"

namespace stellar {
namespace {

IoVa page_at(std::uint64_t n) { return IoVa{n * kPage4K}; }
Hpa frame_at(std::uint64_t n) { return Hpa{n * kPage4K}; }

/// One page looked up through a run of one: its HPA on a hit.
std::optional<Hpa> lookup(TranslationCache& cache, IoVa page) {
  std::optional<Hpa> out;
  cache.walk(
      page, 1, [&](IoVa, Hpa hpa, std::uint64_t) { out = hpa; },
      [](IoVa, std::uint64_t) {});
  return out;
}

void install(TranslationCache& cache, IoVa page, Hpa hpa,
             TenantId tenant = kHostTenant) {
  cache.install(page, hpa, 1, tenant);
}

std::size_t ledger_sum(const TranslationCache& cache) {
  std::size_t sum = 0;
  for (const auto& [tenant, n] : cache.occupancy_by_tenant()) sum += n;
  return sum;
}

// -- Per-page LRU semantics -------------------------------------------------

TEST(LruCacheTest, HitAndMissCounters) {
  TranslationCache cache(2);
  EXPECT_EQ(lookup(cache, page_at(1)), std::nullopt);
  install(cache, page_at(1), frame_at(10));
  ASSERT_NE(lookup(cache, page_at(1)), std::nullopt);
  EXPECT_EQ(*lookup(cache, page_at(1)), frame_at(10));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  TranslationCache cache(2);
  install(cache, page_at(1), frame_at(10));
  install(cache, page_at(2), frame_at(20));
  lookup(cache, page_at(1));                  // 1 becomes MRU
  install(cache, page_at(3), frame_at(30));   // evicts 2
  EXPECT_EQ(lookup(cache, page_at(2)), std::nullopt);
  EXPECT_NE(lookup(cache, page_at(1)), std::nullopt);
  EXPECT_NE(lookup(cache, page_at(3)), std::nullopt);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, PutRefreshesRecency) {
  // Pages 1 and 2 are contiguous with contiguous HPAs: one extent, whose
  // higher page is the more recent. A run over page 1 alone refreshes it.
  TranslationCache cache(2);
  cache.install(page_at(1), frame_at(10), 2, kHostTenant);
  cache.walk(
      page_at(1), 1, [](IoVa, Hpa, std::uint64_t) {},
      [](IoVa, std::uint64_t) { FAIL() << "page 1 is cached"; });
  install(cache, page_at(3), frame_at(30));  // evicts 2, not 1
  EXPECT_EQ(lookup(cache, page_at(2)), std::nullopt);
  EXPECT_EQ(*lookup(cache, page_at(1)), frame_at(10));
  // A page's translation changes only through clear() and a new install.
  cache.clear();
  install(cache, page_at(1), frame_at(11));
  EXPECT_EQ(*lookup(cache, page_at(1)), frame_at(11));
}

TEST(LruCacheTest, PeekDoesNotTouch) {
  TranslationCache cache(2);
  install(cache, page_at(1), frame_at(10));
  install(cache, page_at(2), frame_at(20));
  // Reading the ledger and the size refreshes nothing and counts nothing.
  EXPECT_EQ(cache.occupancy(kHostTenant), 2u);
  EXPECT_EQ(cache.occupancy_by_tenant().size(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  install(cache, page_at(3), frame_at(30));  // evicts 1
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(lookup(cache, page_at(1)), std::nullopt);
}

TEST(LruCacheTest, EraseAndClear) {
  TranslationCache cache(4);
  install(cache, page_at(1), frame_at(1), 1);
  install(cache, page_at(2), frame_at(2), 2);
  // Tenant 1 at a share of one: its next install removes exactly its own
  // page 1 and leaves tenant 2's page alone.
  cache.set_share(1, 1);
  install(cache, page_at(3), frame_at(3), 1);
  EXPECT_EQ(cache.self_evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(lookup(cache, page_at(1)), std::nullopt);
  EXPECT_NE(lookup(cache, page_at(2)), std::nullopt);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.occupancy_by_tenant().empty());
  EXPECT_EQ(lookup(cache, page_at(3)), std::nullopt);
}

TEST(LruCacheTest, ZeroCapacityNeverStores) {
  TranslationCache cache(0);
  EXPECT_EQ(lookup(cache, page_at(1)), std::nullopt);
  install(cache, page_at(1), frame_at(1));
  cache.install(page_at(2), frame_at(2), 3, 7);
  EXPECT_EQ(lookup(cache, page_at(1)), std::nullopt);
  EXPECT_EQ(cache.size(), 0u);
  // Nothing stored, nothing credited: the ledger still sums to size().
  EXPECT_TRUE(cache.occupancy_by_tenant().empty());
  cache.set_share(7, 1);
  for (std::uint64_t p = 0; p < 3; ++p) {
    cache.install(page_at(10 + p), frame_at(10 + p), 1, 7);
  }
  EXPECT_EQ(ledger_sum(cache), 0u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, HitRate) {
  TranslationCache cache(8);
  install(cache, page_at(1), frame_at(1));
  lookup(cache, page_at(1));
  lookup(cache, page_at(1));
  lookup(cache, page_at(2));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, CapacityStress) {
  // Page by page with scattered HPAs (one extent each), and as one run
  // with contiguous HPAs (one extent): the last 128 pages stay either way.
  TranslationCache scattered(128);
  TranslationCache run(128);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    install(scattered, page_at(i), frame_at(3 * i));
  }
  run.install(page_at(0), frame_at(0), 10'000, kHostTenant);
  for (TranslationCache* cache : {&scattered, &run}) {
    EXPECT_EQ(cache->size(), 128u);
    EXPECT_EQ(cache->evictions(), 10'000u - 128u);
    EXPECT_EQ(lookup(*cache, page_at(0)), std::nullopt);
    for (std::uint64_t i = 10'000 - 128; i < 10'000; ++i) {
      EXPECT_NE(lookup(*cache, page_at(i)), std::nullopt);
    }
  }
  EXPECT_EQ(*lookup(scattered, page_at(9'999)), frame_at(3 * 9'999));
  EXPECT_EQ(*lookup(run, page_at(9'999)), frame_at(9'999));
}

// -- Differential test against the per-page reference ------------------------

/// What one page of a run got: a hit, a translation installed after a
/// miss, or nothing (a miss left uninstalled, or an unmapped page).
struct PageResult {
  bool hit = false;
  std::optional<Hpa> hpa;
  bool operator==(const PageResult&) const = default;
};

/// A window of mapped ranges and unmapped gaps. Half the ranges follow the
/// previous one with no gap, and half of those continue its HPAs too, so
/// extents can and cannot merge across a range boundary.
RangeMap<IoVa, Hpa> make_table(std::mt19937_64& rng, std::uint64_t pages) {
  RangeMap<IoVa, Hpa> table;
  std::uint64_t page = 0;
  std::uint64_t next_frame = 1 << 20;
  while (page < pages) {
    const std::uint64_t len = 1 + rng() % (pages / 4 + 1);
    if (rng() % 2 == 0) next_frame += 1 + rng() % 1000;
    EXPECT_TRUE(
        table.map(page_at(page), frame_at(next_frame), len * kPage4K).is_ok());
    next_frame += len;
    page += len;
    if (rng() % 2 == 0) page += 1 + rng() % 8;
  }
  return table;
}

/// Both caches and the operations the test drives them through.
struct Differential {
  Differential(std::size_t capacity, const RangeMap<IoVa, Hpa>& table)
      : cache(capacity), ref(capacity), table(table) {}

  /// `pages` pages from `first`, `stride` pages apart, for `tenant`;
  /// misses of mapped pages are installed when `fill` is set.
  void run(std::uint64_t first, std::uint64_t pages, std::uint64_t stride,
           TenantId tenant, bool fill) {
    std::vector<PageResult> got;
    std::vector<PageResult> want;
    const auto on_hit = [&](IoVa, Hpa hpa, std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        got.push_back({true, hpa + i * kPage4K});
      }
    };
    const auto on_miss = [&](IoVa page, std::uint64_t n) {
      // Resolve the chunk one mapped range (or gap) at a time.
      while (n != 0) {
        const auto range = table.range_at_or_after(page);
        const bool mapped = range && range->start <= page;
        std::uint64_t m = n;
        if (range) {
          const IoVa limit =
              mapped ? range->start + range->len : range->start;
          m = std::min(n, (limit - page) / kPage4K);
        }
        std::optional<Hpa> hpa;
        if (mapped && fill) {
          hpa = range->dst + (page - range->start);
          cache.install(page, *hpa, m, tenant);
        }
        for (std::uint64_t i = 0; i < m; ++i) {
          got.push_back({false, hpa ? std::optional<Hpa>(*hpa + i * kPage4K)
                                    : std::nullopt});
        }
        page = page + m * kPage4K;
        n -= m;
      }
    };
    if (stride == 1) {
      cache.walk(page_at(first), pages, on_hit, on_miss);
    } else {
      for (std::uint64_t i = 0; i < pages; ++i) {
        cache.walk(page_at(first + i * stride), 1, on_hit, on_miss);
      }
    }
    for (std::uint64_t i = 0; i < pages; ++i) {
      const IoVa page = page_at(first + i * stride);
      if (const Hpa* hit = ref.lookup(page)) {
        want.push_back({true, *hit});
        continue;
      }
      const std::optional<Hpa> hpa = table.lookup(page);
      if (hpa && fill) {
        ref.install(page, *hpa, tenant);
        want.push_back({false, hpa});
      } else {
        want.push_back({false, std::nullopt});
      }
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "page " << i << " of the run";
    }
  }

  void set_share(TenantId tenant, std::size_t cap) {
    cache.set_share(tenant, cap);
    ref.set_share(tenant, cap);
  }

  void clear() {
    cache.clear();
    ref.clear();
  }

  void expect_same() const {
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_EQ(cache.hits(), ref.hits());
    ASSERT_EQ(cache.misses(), ref.misses());
    ASSERT_EQ(cache.evictions(), ref.evictions());
    ASSERT_EQ(cache.self_evictions(), ref.self_evictions());
    ASSERT_EQ(cache.occupancy_by_tenant(), ref.occupancy_by_tenant());
  }

  TranslationCache cache;
  ReferenceTranslationCache ref;
  const RangeMap<IoVa, Hpa>& table;
};

// Seeded runs (random starts and lengths, 4 KiB and 8 KiB strides, over
// mapped ranges and unmapped gaps), single-page lookups that install
// nothing, share caps set and cleared, and clear(), on the extent cache and
// the per-page reference side by side. Every page's outcome, the counters,
// the ledger and the self-evictions must agree after every operation.
TEST(LruCacheTest, MatchesReferenceLruUnderRandomOps) {
  for (const std::size_t capacity : {0, 1, 2, 3, 7, 64, 500, 8192}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << ", seed " << seed);
      std::mt19937_64 rng(seed * 1000 + capacity);
      // Three times the capacity in pages (plus a few): runs both hit and
      // miss, and long runs overflow the cache.
      const std::uint64_t window = 3 * capacity + 64;
      const RangeMap<IoVa, Hpa> table = make_table(rng, window);
      Differential d(capacity, table);
      const auto draw = [&](std::uint64_t n) { return rng() % n; };
      // The large cache gets fewer operations: its long runs each walk
      // thousands of pages.
      const int ops = capacity >= 1000 ? 300 : 40'000;
      for (int op = 0; op < ops; ++op) {
        SCOPED_TRACE(::testing::Message() << "op " << op);
        const std::uint64_t kind = draw(1000);
        const auto tenant = static_cast<TenantId>(draw(4));
        if (kind < 700) {
          const std::uint64_t pages =
              1 + (draw(10) == 0 ? draw(2 * capacity + 16) : draw(64));
          const std::uint64_t stride = draw(5) == 0 ? 2 : 1;
          d.run(draw(window), pages, stride, tenant, /*fill=*/true);
        } else if (kind < 900) {
          d.run(draw(window), 1, 1, tenant, /*fill=*/draw(2) == 0);
        } else if (kind < 990) {
          d.set_share(tenant, draw(3) == 0 ? 0 : 1 + draw(capacity / 2 + 2));
        } else {
          d.clear();
        }
        if (HasFatalFailure()) return;
        d.expect_same();
        if (HasFatalFailure()) return;
      }
      if (capacity > 0) {
        EXPECT_GT(d.cache.evictions(), 0u);
        EXPECT_GT(d.cache.self_evictions(), 0u);
      }
    }
  }
}

// A miss chunk ends where the next cached page starts; installing the chunk
// can evict that page before the run reaches it, and then it misses too.
TEST(TranslationCacheTest, MissChunkEvictsTheCachedPageAhead) {
  RangeMap<IoVa, Hpa> table;
  ASSERT_TRUE(table.map(page_at(0), frame_at(100), 64 * kPage4K).is_ok());
  Differential d(4, table);
  d.run(10, 1, 1, kHostTenant, true);
  d.run(6, 5, 1, kHostTenant, true);  // 6-9 miss, fill, evict 10; 10 misses
  d.expect_same();
  EXPECT_EQ(d.cache.misses(), 6u);
  EXPECT_EQ(d.cache.hits(), 0u);
  EXPECT_EQ(d.cache.evictions(), 2u);  // 10, then 6 to make room for 10
}

// -- Host level: zero-capacity caches and the work counters ------------------

constexpr IoVa kBufferA{1ull << 32};
constexpr IoVa kBufferB{2ull << 32};

/// An ATS/ATC GDR engine on RNIC 0 of `host`, as make_gdr_engine builds
/// one, but translating through `atc` (of any capacity).
GdrEngine ats_engine(StellarHost& host, Atc& atc) {
  GdrEngineConfig cfg;
  cfg.nic_rate = kRnicLineRate;
  cfg.requester = host.rnic(0).pf_bdf();
  return GdrEngine(host.pcie(), cfg, GdrMode::kAtsAtc, &atc);
}

TEST(TranslationCacheTest, ZeroCapacityAtcAndIotlbKeepTheLedgerBalanced) {
  StellarHostConfig cfg;
  cfg.pcie.iommu.iotlb_capacity = 0;
  StellarHost host(cfg);
  Atc atc(host.pcie(), host.rnic(0).pf_bdf(), /*capacity_pages=*/0);
  GdrEngine engine = ats_engine(host, atc);
  Iommu& iommu = host.pcie().iommu();
  ASSERT_TRUE(iommu.map(kBufferA, Hpa{1_GiB}, 1_MiB).is_ok());
  iommu.set_iotlb_share(3, 1);

  const GdrTransfer t = engine.transfer(kBufferA, 64_KiB);
  EXPECT_EQ(t.atc_misses, 16u);
  EXPECT_EQ(t.iotlb_misses, 16u);
  for (std::uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(iommu.translate(kBufferA + p * kPage4K, 3).is_ok());
  }
  EXPECT_EQ(atc.cache().size(), 0u);
  EXPECT_TRUE(atc.cache().occupancy_by_tenant().empty());
  EXPECT_EQ(iommu.iotlb().size(), 0u);
  EXPECT_TRUE(iommu.iotlb().occupancy_by_tenant().empty());
  // Nothing is cached, so every lookup still counts as a miss.
  EXPECT_EQ(atc.misses(), 16u);
  EXPECT_EQ(atc.hits(), 0u);
  EXPECT_EQ(iommu.iotlb_misses(), 19u);
  EXPECT_EQ(iommu.page_walks(), 19u);

  // Trapping: an IOTLB ledger that drifted from size() would abort here.
  // (The auditor walks the host's own ATCs; `atc`'s ledger is the one
  // checked empty above.)
  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  EXPECT_TRUE(registry.run_all().clean());
}

/// Two 1 MiB buffers (256 pages each) through a 128-page ATC and a
/// 384-page IOTLB, transferred in turn at 64 KiB, 512 KiB and 1 MiB.
struct TwoBufferSweep {
  TwoBufferSweep()
      : host(config()), atc(host.pcie(), host.rnic(0).pf_bdf(), 128) {
    engine = std::make_unique<GdrEngine>(ats_engine(host, atc));
    Iommu& iommu = host.pcie().iommu();
    EXPECT_TRUE(iommu.map(kBufferA, Hpa{1_GiB}, 1_MiB).is_ok());
    EXPECT_TRUE(iommu.map(kBufferB, Hpa{2_GiB}, 1_MiB).is_ok());
    for (const std::uint64_t len : {64_KiB, 512_KiB, 1_MiB}) {
      for (const IoVa buf : {kBufferA, kBufferB}) {
        engine->transfer(buf, len);
      }
    }
  }
  static StellarHostConfig config() {
    StellarHostConfig cfg;
    cfg.pcie.iommu.iotlb_capacity = 384;
    return cfg;
  }
  StellarHost host;
  Atc atc;
  std::unique_ptr<GdrEngine> engine;
};

TEST(TranslationCacheTest, TwoBufferSweepOutcomes) {
  TwoBufferSweep s;
  const TranslationCache& atc = s.atc.cache();
  const TranslationCache& iotlb = s.host.pcie().iommu().iotlb();
  // ATC: 64 KiB, both buffers miss their 16 pages. 512 KiB: A hits its 16
  // and misses 112 (evicting B's 16), B misses all 128 (evicting A's).
  // 1 MiB: every page of both misses the 128-page ATC.
  EXPECT_EQ(atc.hits(), 16u);
  EXPECT_EQ(atc.misses(), 16u + 16u + 112u + 128u + 256u + 256u);
  EXPECT_EQ(atc.size(), 128u);
  EXPECT_EQ(atc.evictions(), 784u - 128u);
  // IOTLB: it sees the 784 ATC misses. At 512 KiB B's first 16 pages hit;
  // at 1 MiB each buffer's first 128 pages hit and its upper 128 walk,
  // B's walks evicting A's lower 128.
  EXPECT_EQ(iotlb.hits(), 16u + 128u + 128u);
  EXPECT_EQ(iotlb.misses(), 784u - 272u);
  EXPECT_EQ(s.host.pcie().iommu().page_walks(), iotlb.misses());
  EXPECT_EQ(iotlb.size(), 384u);
  EXPECT_EQ(iotlb.evictions(), 128u);
}

TEST(TranslationCacheTest, TwoBufferSweepWorkCounters) {
  if (!STELLAR_TRACE_ENABLED) {
    GTEST_SKIP() << "work counters are compiled out (STELLAR_TRACE=OFF)";
  }
  TwoBufferSweep s;
  const TranslationCache::WorkCounts atc = s.atc.cache().work();
  const TranslationCache::WorkCounts iotlb =
      s.host.pcie().iommu().iotlb().work();
  // ATC: one run per transfer, each a single miss chunk except A at
  // 512 KiB, whose cached 16 pages are a hit chunk of one whole extent (no
  // split). The IOMMU hands each ATC miss chunk back as one chunk per
  // IOTLB chunk (A 512 KiB: 1; B 512 KiB: 2; A 1 MiB: 3; B 1 MiB: 2), and
  // each joins the ATC's head extent unless it is a different buffer's:
  // A 512 KiB joins twice (once into free room, once over B's pages),
  // B 512 KiB, A 1 MiB and B 1 MiB once after their first chunk, and A
  // 1 MiB's second chunk too. Each buffer's extent is evicted whole by the
  // other's install at 512 KiB and at 1 MiB.
  EXPECT_EQ(atc.runs, 6u);
  EXPECT_EQ(atc.hit_chunks, 1u);
  EXPECT_EQ(atc.miss_chunks, 6u);
  EXPECT_EQ(atc.extents_split, 0u);
  EXPECT_EQ(atc.extents_merged, 6u);
  EXPECT_EQ(atc.extents_evicted, 4u);
  // IOTLB: one run per ATC miss chunk. Hit chunks: B's first 16 pages at
  // 512 KiB, A's two extents ([0, 16) and [16, 128), which then merge) and
  // B's one at 1 MiB. Every run ends in one miss chunk, and the walked
  // chunks join the head extent at B 512 KiB, A 1 MiB and B 1 MiB. B's
  // walks at 1 MiB trim A's extent without emptying it.
  EXPECT_EQ(iotlb.runs, 6u);
  EXPECT_EQ(iotlb.hit_chunks, 4u);
  EXPECT_EQ(iotlb.miss_chunks, 6u);
  EXPECT_EQ(iotlb.extents_split, 0u);
  EXPECT_EQ(iotlb.extents_merged, 4u);
  EXPECT_EQ(iotlb.extents_evicted, 0u);
}

}  // namespace
}  // namespace stellar
