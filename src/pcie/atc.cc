#include "pcie/atc.h"

#include <optional>

#include "obs/obs.h"

namespace stellar {

StatusOr<Atc::Lookup> Atc::translate(IoVa iova, TenantId tenant) {
  Hpa hpa;
  const RunCounts n = run(iova, 0, 1, tenant, &hpa);
  hpa = hpa + iova.page_offset(kPage4K);
  if (n.atc_hits != 0) return Lookup{hpa, SimTime::nanos(5), true, true};
  const HostPcie::AtsRoundTrip rtt = fabric_->ats_round_trip();
  if (n.iotlb_hits != 0) return Lookup{hpa, rtt.iotlb_hit, false, true};
  if (n.walks != 0) return Lookup{hpa, rtt.walk, false, false};
  return not_found(fabric_->has_device(owner_)
                       ? "Atc::translate: unmapped IoVa"
                       : "Atc::translate: unknown requester BDF");
}

Atc::RunCounts Atc::run(IoVa first, std::uint64_t stride,
                        std::uint64_t pages, TenantId tenant, Hpa* last_hpa) {
  RunCounts n;
  const bool requester_known = fabric_->has_device(owner_);
  Iommu& iommu = fabric_->iommu();
  STELLAR_TRACE_ONLY(const HostPcie::AtsRoundTrip rtt =
                         fabric_->ats_round_trip();
                     const std::uint64_t evictions_before =
                         cache_.evictions();)
  for (std::uint64_t i = 0; i < pages; ++i) {
    const IoVa page = (first + i * stride).align_down(kPage4K);
    if (const Hpa* hit = cache_.lookup(page)) {
      ++n.atc_hits;
      if (last_hpa != nullptr) *last_hpa = *hit;
      continue;
    }
    const std::optional<Iommu::Translation> ats =
        requester_known ? iommu.resolve(page, tenant) : std::nullopt;
    if (!ats) {
      ++n.failed;
      continue;
    }
    cache_.install(page, ats->hpa.align_down(kPage4K), tenant);
    if (last_hpa != nullptr) *last_hpa = ats->hpa;
    ++(ats->iotlb_hit ? n.iotlb_hits : n.walks);
    STELLAR_TRACE_ONLY(
        const SimTime latency = ats->iotlb_hit ? rtt.iotlb_hit : rtt.walk;
        obs::record_time("atc/miss_latency_ps", latency);
        obs::complete_here(obs::TraceCat::kAtc, "ats_translate", latency,
                           obs::TraceArgs{"iotlb_hit",
                                          ats->iotlb_hit ? 1 : 0});)
  }
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
