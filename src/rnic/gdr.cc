#include "rnic/gdr.h"

#include <algorithm>

#include "obs/obs.h"

namespace stellar {

GdrTransfer GdrEngine::transfer(IoVa iova, std::uint64_t len) {
  GdrTransfer out;
  if (len == 0) return out;

  constexpr std::uint64_t page = kPage4K;
  const std::uint64_t pages = pages_covering(iova, len, page);

  // Per-page serialization time on the NIC port, including TLP overhead.
  const SimTime page_wire =
      config_.nic_rate.transmit_time(page + kGdrWireOverhead);

  // RC-routed P2P (HyV/MasQ): the Root Complex forwarding rate is the
  // bottleneck; translation latency hides entirely behind it.
  const Bandwidth rc_cap = fabric_->config().rc_p2p_bandwidth;
  const SimTime rc_page_wire = rc_cap.transmit_time(page + kGdrWireOverhead);

  // Classify the PCIe route once per transfer with a probe TLP — the
  // remaining TLPs of the message follow the identical path. eMTT emits
  // pre-translated TLPs; RC-routed (HyV/MasQ) emits untranslated ones.
  bool emtt_via_rc = false;
  if (mode_ == GdrMode::kEmtt || mode_ == GdrMode::kRcRouted) {
    Tlp probe;
    probe.requester = config_.requester;
    probe.at = mode_ == GdrMode::kEmtt ? AtField::kTranslated
                                       : AtField::kUntranslated;
    probe.address = iova.value();
    probe.length = page;
    auto outcome = fabric_->dma(probe);
    emtt_via_rc = outcome.is_ok() &&
                  outcome.value().route != DmaOutcome::Route::kDirectP2P;
  }

  std::int64_t total_ps = 0;
  if (mode_ == GdrMode::kAtsAtc) {
    // Every page goes through the real ATC (and, on a miss, the IOTLB), in
    // one run. A page's stall depends only on how its ATS round trip was
    // served, so the duration is a closed form of the run's counts: the
    // same integer sum as adding up the pages one by one.
    const Atc::RunCounts run =
        atc_->translate_run(iova.align_down(page), pages);
    const HostPcie::AtsRoundTrip rtt = fabric_->ats_round_trip();
    const auto ats_depth = static_cast<std::int64_t>(kAtsPipelineDepth);
    // ATS round trip amortized over the NIC's translation pipeline.
    const std::int64_t iotlb_hit_stall_ps = rtt.iotlb_hit.ps() / ats_depth;
    // The IOMMU serializes page walks much harder than the NIC pipelines
    // ATS requests — this is the second Figure-8 cliff.
    const std::int64_t walk_stall_ps =
        rtt.walk.ps() / ats_depth +
        kPageWalkLatency.ps() / static_cast<std::int64_t>(kIommuWalkDepth);
    out.atc_misses = run.iotlb_hits + run.walks;
    out.iotlb_misses = run.walks;
    total_ps = page_wire.ps() * static_cast<std::int64_t>(pages) +
               iotlb_hit_stall_ps * static_cast<std::int64_t>(run.iotlb_hits) +
               walk_stall_ps * static_cast<std::int64_t>(run.walks);
  } else {
    // eMTT: the final HPA comes from the eMTT at line rate and the switch
    // routes P2P; an ACS/LUT-forced RC detour (and RC-routed mode always)
    // is capped by the RC forwarding rate. No per-page state: every page
    // costs the same.
    const std::int64_t per_page_ps =
        mode_ == GdrMode::kEmtt && !emtt_via_rc
            ? page_wire.ps()
            : std::max(page_wire.ps(), rc_page_wire.ps());
    total_ps = per_page_ps * static_cast<std::int64_t>(pages);
  }

  out.duration = SimTime::picos(total_ps);
  out.gbps = static_cast<double>(len) * 8.0 / out.duration.sec() / 1e9;
  STELLAR_TRACE_ONLY(
      obs::count("gdr/transfers");
      obs::count("gdr/bytes", len);
      obs::record_time("gdr/transfer_ps", out.duration);
      obs::complete_here(
          obs::TraceCat::kGdr, "transfer", out.duration,
          obs::TraceArgs{"bytes", static_cast<std::int64_t>(len),
                         "atc_misses",
                         static_cast<std::int64_t>(out.atc_misses),
                         "iotlb_misses",
                         static_cast<std::int64_t>(out.iotlb_misses)});)
  return out;
}

}  // namespace stellar
