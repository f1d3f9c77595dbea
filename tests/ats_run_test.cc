// Run-granular ATS translation: GdrEngine's kAtsAtc mode translates a
// message's pages with one Atc::translate_run and prices them in closed
// form, and the ATC and IOTLB walk the run a chunk at a time. These tests
// hold it to a per-page reference loop (one ATC lookup per page, and on a
// miss the IOTLB lookup or page walk and both installs, summing each
// page's integer stall) run on ReferenceTranslationCache, an independent
// per-page model of both caches, and check that an ATS walk credits the
// IOTLB entry it installs to the lookup's tenant. Labelled `tenant` —
// ctest -L tenant.
#include "pcie/atc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "check/audit.h"
#include "check/auditors.h"
#include "core/stellar.h"
#include "memory/address.h"
#include "memory/range_map.h"
#include "pcie/host_pcie.h"
#include "reference_translation_cache.h"
#include "rnic/gdr.h"

namespace stellar {
namespace {

constexpr Bdf kRnic{0x10, 0, 0};
constexpr IoVa kBuffer{1ull << 32};
// The buffer's IOMMU mapping: 64 pages, a 16-page hole, then 176 pages.
constexpr std::uint64_t kFrontPages = 64;
constexpr std::uint64_t kHolePages = 16;
constexpr std::uint64_t kBackPages = 176;
constexpr IoVa kBackStart{kBuffer.value() + (kFrontPages + kHolePages) *
                                                kPage4K};
constexpr std::size_t kAtcPages = 32;
constexpr std::size_t kIotlbPages = 64;

/// One host with a small ATC and IOTLB, so a short sweep evicts from both.
struct Rig {
  explicit Rig(bool attach_requester = true)
      : pcie(pcie_config()), atc(pcie, kRnic, kAtcPages) {
    const std::size_t sw = pcie.add_switch("sw0");
    if (attach_requester) {
      EXPECT_TRUE(pcie.attach_device(kRnic, sw, 1_MiB).is_ok());
    }
    EXPECT_TRUE(
        pcie.iommu().map(kBuffer, Hpa{256_MiB}, kFrontPages * kPage4K).is_ok());
    EXPECT_TRUE(pcie.iommu()
                    .map(kBackStart, Hpa{512_MiB}, kBackPages * kPage4K)
                    .is_ok());
    config.requester = kRnic;
  }

  static HostPcieConfig pcie_config() {
    HostPcieConfig cfg;
    cfg.main_memory_bytes = 1_GiB;
    cfg.iommu.iotlb_capacity = kIotlbPages;
    return cfg;
  }

  HostPcie pcie;
  Atc atc;
  GdrEngineConfig config;
};

/// The per-page ATS path of a Rig, on reference caches and a copy of its
/// page table: for each page the ATC lookup and, on a miss, the IOTLB
/// lookup or page walk and the two installs.
struct ReferenceAts {
  explicit ReferenceAts(const Rig& rig, bool requester_known = true)
      : table(rig.pcie.iommu().table()),
        requester_known(requester_known),
        rtt(rig.pcie.ats_round_trip()),
        config(rig.config) {}

  StatusOr<Atc::Lookup> translate(IoVa iova, TenantId tenant = kHostTenant) {
    const IoVa page = iova.align_down(kPage4K);
    if (const Hpa* hit = atc.lookup(page)) {
      return Atc::Lookup{*hit + iova.page_offset(kPage4K), SimTime::nanos(5),
                         true, true};
    }
    if (!requester_known) return not_found("unknown requester");
    Atc::Lookup out{Hpa{}, rtt.iotlb_hit, false, true};
    if (const Hpa* hit = iotlb.lookup(page)) {
      out.hpa = *hit;
    } else {
      const std::optional<Hpa> hpa = table.lookup(page);
      if (!hpa) return not_found("unmapped");
      ++page_walks;
      iotlb.install(page, hpa->align_down(kPage4K), tenant);
      out = Atc::Lookup{*hpa, rtt.walk, false, false};
    }
    atc.install(page, out.hpa.align_down(kPage4K), tenant);
    out.hpa = out.hpa + iova.page_offset(kPage4K);
    return out;
  }

  /// Iommu::unmap: the table loses the range and both caches are flushed.
  void unmap(IoVa iova) {
    EXPECT_TRUE(table.unmap(iova).is_ok());
    iotlb.clear();
    atc.clear();
  }

  RangeMap<IoVa, Hpa> table;
  bool requester_known;
  HostPcie::AtsRoundTrip rtt;
  GdrEngineConfig config;
  ReferenceTranslationCache atc{kAtcPages};
  ReferenceTranslationCache iotlb{kIotlbPages};
  std::uint64_t page_walks = 0;
};

/// The per-page loop GdrEngine::transfer ran before translate_run: one
/// translation per page, each page's stall added as it is translated.
GdrTransfer reference_transfer(ReferenceAts& ref, IoVa iova,
                               std::uint64_t len) {
  GdrTransfer out;
  const GdrEngineConfig& cfg = ref.config;
  constexpr std::uint64_t page = kPage4K;
  const std::uint64_t pages = pages_covering(iova, len, page);
  const SimTime page_wire = cfg.nic_rate.transmit_time(page + kGdrWireOverhead);
  std::int64_t total_ps = 0;
  for (std::uint64_t i = 0; i < pages; ++i) {
    std::int64_t stall_ps = 0;
    auto lookup = ref.translate(iova.align_down(page) + i * page);
    if (lookup.is_ok() && !lookup.value().hit) {
      ++out.atc_misses;
      stall_ps = lookup.value().latency.ps() /
                 static_cast<std::int64_t>(kAtsPipelineDepth);
      if (!lookup.value().iotlb_hit) {
        ++out.iotlb_misses;
        stall_ps += kPageWalkLatency.ps() /
                    static_cast<std::int64_t>(kIommuWalkDepth);
      }
    }
    total_ps += page_wire.ps() + stall_ps;
  }
  out.duration = SimTime::picos(total_ps);
  return out;
}

void expect_same_cache(const TranslationCache& run,
                       const ReferenceTranslationCache& ref,
                       const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(run.hits(), ref.hits());
  EXPECT_EQ(run.misses(), ref.misses());
  EXPECT_EQ(run.evictions(), ref.evictions());
  EXPECT_EQ(run.self_evictions(), ref.self_evictions());
  EXPECT_EQ(run.size(), ref.size());
  EXPECT_EQ(run.occupancy_by_tenant(), ref.occupancy_by_tenant());
}

void expect_same_caches(Rig& run, ReferenceAts& ref) {
  expect_same_cache(run.atc.cache(), ref.atc, "ATC");
  expect_same_cache(run.pcie.iommu().iotlb(), ref.iotlb, "IOTLB");
  EXPECT_EQ(run.pcie.iommu().page_walks(), ref.page_walks);
}

/// Transfer [iova, iova+len) on `run` through GdrEngine and on `ref`
/// through the reference loop; every result and both caches must agree.
void expect_same_transfer(Rig& run, ReferenceAts& ref, IoVa iova,
                          std::uint64_t len) {
  SCOPED_TRACE(testing::Message() << "transfer of " << len << " bytes at "
                                  << iova.value());
  GdrEngine engine(run.pcie, run.config, GdrMode::kAtsAtc, &run.atc);
  const GdrTransfer got = engine.transfer(iova, len);
  const GdrTransfer want = reference_transfer(ref, iova, len);
  EXPECT_EQ(got.duration, want.duration);
  EXPECT_EQ(got.atc_misses, want.atc_misses);
  EXPECT_EQ(got.iotlb_misses, want.iotlb_misses);
  expect_same_caches(run, ref);
}

/// A probe lookup after the runs: same outcome on both sides.
void expect_same_probe(Rig& run, ReferenceAts& ref, IoVa probe) {
  SCOPED_TRACE(testing::Message() << "probe at " << probe.value());
  const StatusOr<Atc::Lookup> got = run.atc.translate(probe);
  const StatusOr<Atc::Lookup> want = ref.translate(probe);
  ASSERT_EQ(got.status().code(), want.status().code());
  if (want.is_ok()) {
    EXPECT_EQ(got.value().hpa, want.value().hpa);
    EXPECT_EQ(got.value().latency, want.value().latency);
    EXPECT_EQ(got.value().hit, want.value().hit);
    EXPECT_EQ(got.value().iotlb_hit, want.value().iotlb_hit);
  }
  expect_same_caches(run, ref);
}

/// Warm a small window twice (misses, then hits), sweep the whole buffer
/// so both caches evict, re-read pages the IOTLB still holds but the ATC
/// does not, then re-read the evicted front.
void warm_and_sweep(Rig& run, ReferenceAts& ref) {
  expect_same_transfer(run, ref, kBuffer, 64_KiB);
  expect_same_transfer(run, ref, kBuffer, 64_KiB);
  expect_same_transfer(run, ref, kBuffer + 0x800, 1_MiB);
  expect_same_transfer(run, ref, kBuffer + 192 * kPage4K, 128_KiB);
  expect_same_transfer(run, ref, kBuffer + 8 * kPage4K, 96_KiB);
}

TEST(AtsRunReferenceTest, RunOverAnUnmappedHoleMatchesPerPageLoop) {
  Rig run;
  ReferenceAts ref(run);
  warm_and_sweep(run, ref);
  // A transfer that straddles the hole: the hole's pages fail and cost
  // only their wire time.
  const IoVa straddle{kBuffer.value() + (kFrontPages - 4) * kPage4K};
  expect_same_transfer(run, ref, straddle, 32 * kPage4K);
  expect_same_probe(run, ref, IoVa{kBuffer.value() + kFrontPages * kPage4K});
  expect_same_probe(run, ref, kBackStart + 0x123);
  EXPECT_GT(run.atc.cache().evictions(), 0u);
  EXPECT_GT(run.pcie.iommu().iotlb().hits(), 0u);
  EXPECT_GT(run.pcie.iommu().iotlb().evictions(), 0u);
}

TEST(AtsRunReferenceTest, UnknownRequesterMatchesPerPageLoop) {
  Rig run(/*attach_requester=*/false);
  ReferenceAts ref(run, /*requester_known=*/false);
  warm_and_sweep(run, ref);
  EXPECT_EQ(run.atc.cache().size(), 0u);
  EXPECT_EQ(run.pcie.iommu().iotlb().size(), 0u);
  expect_same_probe(run, ref, kBuffer);
}

TEST(AtsRunReferenceTest, ShareCappedTenantMatchesPerPageLoop) {
  Rig run;
  ReferenceAts ref(run);
  // GdrEngine translates as kHostTenant: cap it in the IOTLB, behind a
  // neighbor's warm entries, so its installs recycle its own slots. The
  // ATC sets no share, so there the neighbor's entries age out by LRU.
  run.pcie.iommu().set_iotlb_share(kHostTenant, 16);
  ref.iotlb.set_share(kHostTenant, 16);
  for (std::uint64_t p = 0; p < 12; ++p) {
    ASSERT_TRUE(run.atc.translate(kBackStart + p * kPage4K, 8).is_ok());
    ASSERT_TRUE(ref.translate(kBackStart + p * kPage4K, 8).is_ok());
  }
  warm_and_sweep(run, ref);
  EXPECT_EQ(run.atc.cache().self_evictions(), 0u);
  EXPECT_GT(run.pcie.iommu().iotlb().self_evictions(), 0u);
  EXPECT_EQ(run.pcie.iommu().iotlb().occupancy(8), 12u);
  expect_same_probe(run, ref, kBackStart + 2 * kPage4K);
}

TEST(AtsRunReferenceTest, IommuUnmapBetweenRunsMatchesPerPageLoop) {
  Rig run;
  ReferenceAts ref(run);
  expect_same_transfer(run, ref, kBuffer, 128_KiB);
  ASSERT_TRUE(run.pcie.iommu().unmap(kBuffer).is_ok());
  ref.unmap(kBuffer);
  EXPECT_EQ(run.atc.cache().size(), 0u);
  // The unmapped front now fails page by page; the back still translates.
  expect_same_transfer(run, ref, kBuffer, 1_MiB);
  expect_same_transfer(run, ref, kBackStart, 64_KiB);
  expect_same_probe(run, ref, kBuffer);
  expect_same_probe(run, ref, kBackStart);
}

TEST(AtsRunReferenceTest, RunCountsEveryPageOnce) {
  Rig rig;
  const std::uint64_t pages = kFrontPages + kHolePages + 8;
  const Atc::RunCounts first = rig.atc.translate_run(kBuffer, pages);
  EXPECT_EQ(first.atc_hits, 0u);
  EXPECT_EQ(first.iotlb_hits, 0u);
  EXPECT_EQ(first.walks, kFrontPages + 8);
  EXPECT_EQ(first.failed, kHolePages);
  // The ATC keeps the last 32 pages installed (front pages 40-63 and the
  // 8 back pages), the IOTLB the last 64 (front pages 8-63 and the back 8).
  const Atc::RunCounts again = rig.atc.translate_run(kBackStart, 8);
  EXPECT_EQ(again.atc_hits, 8u);
  const Atc::RunCounts older =
      rig.atc.translate_run(kBuffer + 16 * kPage4K, 8);
  EXPECT_EQ(older.iotlb_hits, 8u);
  EXPECT_EQ(older.walks, 0u);
}

TEST(AtsRunTenantTest, AtsWalksCreditTheLookupsTenant) {
  StellarHost host;
  GdrEngine engine = host.make_gdr_engine(GdrMode::kAtsAtc, 0);
  (void)engine;
  Atc& atc = host.atc(0);
  Iommu& iommu = host.pcie().iommu();
  ASSERT_TRUE(iommu.map(IoVa{1_GiB}, Hpa{1_GiB}, 64 * kPage4K).is_ok());
  ASSERT_TRUE(iommu.map(IoVa{2_GiB}, Hpa{2_GiB}, 8 * kPage4K).is_ok());

  // A neighbor's IOTLB entries, installed by untranslated DMA.
  for (std::uint64_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(iommu.translate(IoVa{2_GiB + p * kPage4K}, 4).is_ok());
  }
  iommu.set_iotlb_share(3, 8);

  // Tenant 3's ATC misses walk the table: each walk's IOTLB entry is
  // tenant 3's, so its cap holds and it recycles its own slots.
  const Atc::RunCounts n = atc.translate_run(IoVa{1_GiB}, 8, 3);
  EXPECT_EQ(n.walks, 8u);
  EXPECT_EQ(iommu.iotlb().occupancy(3), n.walks);
  EXPECT_EQ(iommu.iotlb().occupancy(kHostTenant), 0u);
  EXPECT_EQ(atc.cache().occupancy(3), 8u);

  const Atc::RunCounts more =
      atc.translate_run(IoVa{1_GiB + 8 * kPage4K}, 24, 3);
  EXPECT_EQ(more.walks, 24u);
  EXPECT_EQ(iommu.iotlb().occupancy(3), 8u);
  EXPECT_EQ(iommu.iotlb().self_evictions(), 24u);
  EXPECT_EQ(iommu.iotlb().occupancy(4), 8u);

  // The one-page path credits the tenant the same way.
  ASSERT_TRUE(atc.translate(IoVa{1_GiB + 40 * kPage4K}, 3).is_ok());
  EXPECT_EQ(iommu.iotlb().occupancy(3), 8u);
  EXPECT_EQ(iommu.iotlb().self_evictions(), 25u);

  AuditRegistry registry;
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  registry.set_trap_on_finding(false);
  const AuditReport report = registry.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

}  // namespace
}  // namespace stellar
