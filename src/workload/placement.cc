#include "workload/placement.h"

#include <stdexcept>

namespace stellar {

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kReranked:
      return "reranked";
    case PlacementPolicy::kRandomRanking:
      return "random";
  }
  return "?";
}

std::vector<EndpointId> place_job(const ClosFabric& fabric,
                                  std::uint32_t world,
                                  std::uint32_t job_index,
                                  PlacementPolicy policy,
                                  std::uint64_t seed) {
  const FabricConfig& cfg = fabric.config();
  const std::uint32_t segments = cfg.segments;
  const std::uint32_t hosts = cfg.hosts_per_segment;
  const std::uint32_t per_segment = (world + segments - 1) / segments;
  if (per_segment > hosts) {
    throw std::invalid_argument("place_job: world too large for the fabric");
  }
  // Jobs occupy disjoint host windows.
  const std::uint32_t base = (job_index * per_segment) % hosts;

  std::vector<EndpointId> out;
  out.reserve(world);
  switch (policy) {
    case PlacementPolicy::kReranked:
      // Fill segment 0 with the first ranks, then segment 1, ...
      for (std::uint32_t r = 0; r < world; ++r) {
        const std::uint32_t seg = r / per_segment;
        const std::uint32_t host = (base + r % per_segment) % hosts;
        out.push_back(fabric.endpoint(seg, host));
      }
      break;
    case PlacementPolicy::kRandomRanking: {
      // Deterministic scatter: alternate segments, permute the host order.
      std::vector<std::uint32_t> host_order(per_segment);
      for (std::uint32_t i = 0; i < per_segment; ++i) {
        host_order[i] = (base + i) % hosts;
      }
      Rng rng(hash_combine(seed, job_index));
      for (std::size_t i = host_order.size(); i > 1; --i) {
        std::swap(host_order[i - 1], host_order[rng.below(i)]);
      }
      for (std::uint32_t r = 0; r < world; ++r) {
        const std::uint32_t seg = r % segments;
        const std::uint32_t host = host_order[(r / segments) % per_segment];
        out.push_back(fabric.endpoint(seg, host));
      }
      break;
    }
  }
  return out;
}

double cross_segment_hop_fraction(const ClosFabric& fabric,
                                  const std::vector<EndpointId>& ranks) {
  if (ranks.size() < 2) return 0.0;
  std::size_t crossing = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto a = fabric.coords(ranks[i]);
    const auto b = fabric.coords(ranks[(i + 1) % ranks.size()]);
    if (a.segment != b.segment) ++crossing;
  }
  return static_cast<double>(crossing) / static_cast<double>(ranks.size());
}

}  // namespace stellar
