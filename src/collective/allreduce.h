// Ring AllReduce over the Stellar multipath transport: the two-phase
// (reduce-scatter + all-gather) specialization of RingCollective — the
// algorithm NCCL runs for the AllReduce tasks of Figures 10, 11, 15, 16.
#pragma once

#include "collective/collectives.h"

namespace stellar {

using AllReduceConfig = CollectiveConfig;

class RingAllReduce : public RingCollective {
 public:
  RingAllReduce(EngineFleet& fleet, std::vector<EndpointId> ranks,
                AllReduceConfig config)
      : RingCollective(fleet, std::move(ranks), config, /*phases=*/2) {}
};

}  // namespace stellar
