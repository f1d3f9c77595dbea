// StellarCluster: convenience wrapper bundling the simulator, the Clos
// fabric and an RdmaEngine fleet — the five-line on-ramp for examples and
// quick experiments:
//
//   stellar::StellarCluster cluster{cfg};
//   auto* conn = cluster.connect(a, b).value();
//   conn->post_write(64_MiB, [&]{ ... });
//   cluster.run();
#pragma once

#include "collective/fleet.h"
#include "net/fabric.h"
#include "rnic/transport.h"
#include "sim/simulator.h"

namespace stellar {

struct ClusterConfig {
  FabricConfig fabric;
  TransportConfig transport;  // defaults: 128-path OBS, 250 us RTO
};

class StellarCluster {
 public:
  explicit StellarCluster(ClusterConfig config = {})
      : config_(config),
        fabric_(sim_, config.fabric),
        fleet_(sim_, fabric_) {}

  Simulator& simulator() { return sim_; }
  ClosFabric& fabric() { return fabric_; }
  EngineFleet& fleet() { return fleet_; }
  const ClusterConfig& config() const { return config_; }

  EndpointId endpoint(std::uint32_t segment, std::uint32_t host) const {
    return fabric_.endpoint(segment, host);
  }

  /// Open a connection with the cluster's default transport settings.
  /// Instantiates both endpoint engines.
  StatusOr<RdmaConnection*> connect(EndpointId from, EndpointId to) {
    return fleet_.connect(from, to, config_.transport);
  }
  StatusOr<RdmaConnection*> connect(EndpointId from, EndpointId to,
                                    const TransportConfig& transport) {
    return fleet_.connect(from, to, transport);
  }

  /// Run the simulation until every queued event has executed.
  std::uint64_t run() { return sim_.run(); }
  std::uint64_t run_for(SimTime duration) {
    return sim_.run_until(sim_.now() + duration);
  }

 private:
  ClusterConfig config_;
  Simulator sim_;
  ClosFabric fabric_;
  EngineFleet fleet_;
};

}  // namespace stellar
