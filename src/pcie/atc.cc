#include "pcie/atc.h"

#include "obs/obs.h"

namespace stellar {

StatusOr<Atc::Lookup> Atc::translate(IoVa iova, TenantId tenant) {
  Hpa hpa;
  const RunCounts n = run(iova, 1, tenant, &hpa);
  hpa = hpa + iova.page_offset(kPage4K);
  if (n.atc_hits != 0) return Lookup{hpa, SimTime::nanos(5), true, true};
  const HostPcie::AtsRoundTrip rtt = fabric_->ats_round_trip();
  if (n.iotlb_hits != 0) return Lookup{hpa, rtt.iotlb_hit, false, true};
  if (n.walks != 0) return Lookup{hpa, rtt.walk, false, false};
  return not_found(fabric_->has_device(owner_)
                       ? "Atc::translate: unmapped IoVa"
                       : "Atc::translate: unknown requester BDF");
}

Atc::RunCounts Atc::run(IoVa first, std::uint64_t pages, TenantId tenant,
                        Hpa* last_hpa) {
  RunCounts n;
  const bool requester_known = fabric_->has_device(owner_);
  Iommu& iommu = fabric_->iommu();
  STELLAR_TRACE_ONLY(const HostPcie::AtsRoundTrip rtt =
                         fabric_->ats_round_trip();
                     const std::uint64_t evictions_before =
                         cache_.evictions();)
  const auto on_hit = [&](IoVa, Hpa hpa, std::uint64_t k) {
    n.atc_hits += k;
    if (last_hpa != nullptr) *last_hpa = hpa + (k - 1) * kPage4K;
  };
  // An ATC miss chunk goes to the IOMMU as one run of ATS requests; each
  // chunk it translates is installed here as one extent.
  const auto on_miss = [&](IoVa page, std::uint64_t k) {
    if (!requester_known) {
      n.failed += k;
      return;
    }
    const Iommu::RunCounts ats = iommu.resolve_run(
        page, k, tenant,
        [&](IoVa at, Hpa hpa, std::uint64_t m,
            [[maybe_unused]] bool iotlb_hit) {
          cache_.install(at, hpa.align_down(kPage4K), m, tenant);
          if (last_hpa != nullptr) *last_hpa = hpa + (m - 1) * kPage4K;
          STELLAR_TRACE_ONLY(
              const SimTime latency = iotlb_hit ? rtt.iotlb_hit : rtt.walk;
              for (std::uint64_t i = 0; i < m; ++i) {
                obs::record_time("atc/miss_latency_ps", latency);
                obs::complete_here(obs::TraceCat::kAtc, "ats_translate",
                                   latency,
                                   obs::TraceArgs{"iotlb_hit",
                                                  iotlb_hit ? 1 : 0});
              })
        });
    n.iotlb_hits += ats.iotlb_hits;
    n.walks += ats.walks;
    n.failed += ats.failed;
  };
  cache_.walk(first.align_down(kPage4K), pages, on_hit, on_miss);
  // One by-name count per run. A name is created only once its event has
  // happened: a run with no miss adds no `atc/misses` to the snapshot.
  STELLAR_TRACE_ONLY(
      if (n.atc_hits != 0) obs::count("atc/hits", n.atc_hits);
      if (const std::uint64_t misses = n.iotlb_hits + n.walks; misses != 0) {
        obs::count("atc/misses", misses);
        obs::count("atc/evictions", cache_.evictions() - evictions_before);
      })
  return n;
}

}  // namespace stellar
