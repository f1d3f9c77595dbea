// Cluster-scheduler placement strategies (§8.2): reranking co-locates
// communicating ranks inside a network segment; random ranking scatters
// them, maximizing cross-segment traffic — the knob the paper turns to
// control congestion in the Figure-16 experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/fabric.h"

namespace stellar {

enum class PlacementPolicy : std::uint8_t { kReranked, kRandomRanking };

const char* placement_policy_name(PlacementPolicy policy);

/// Build a `world`-rank communication group over the fabric's endpoints,
/// `job_index` selecting a disjoint host set so that several jobs can
/// coexist.
///
///  * kReranked: consecutive ranks fill one segment before spilling into
///    the next — only the segment-boundary ring hops cross the aggregation
///    layer.
///  * kRandomRanking: ranks are drawn from alternating segments in a
///    deterministic shuffle — (nearly) every ring hop crosses segments.
std::vector<EndpointId> place_job(const ClosFabric& fabric,
                                  std::uint32_t world,
                                  std::uint32_t job_index,
                                  PlacementPolicy policy,
                                  std::uint64_t seed = 1);

/// Fraction of ring hops (i -> i+1 mod world) that cross segments — the
/// congestion exposure of a placement.
double cross_segment_hop_fraction(const ClosFabric& fabric,
                                  const std::vector<EndpointId>& ranks);

}  // namespace stellar
