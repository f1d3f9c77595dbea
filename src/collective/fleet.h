// EngineFleet: lazily creates one RdmaEngine per fabric endpoint so that
// collectives and traffic generators can share endpoints without fighting
// over the fabric's single per-endpoint packet handler.
#pragma once

#include <memory>
#include <vector>

#include "net/fabric.h"
#include "rnic/transport.h"

namespace stellar {

class EngineFleet {
 public:
  EngineFleet(Simulator& sim, ClosFabric& fabric)
      : sim_(&sim), fabric_(&fabric), engines_(fabric.endpoint_count()) {}

  RdmaEngine& at(EndpointId id) {
    std::unique_ptr<RdmaEngine>& engine = engines_.at(id);
    if (engine == nullptr) {
      engine = std::make_unique<RdmaEngine>(*sim_, *fabric_, id);
    }
    return *engine;
  }

  /// Open a connection, instantiating BOTH endpoint engines. Prefer this
  /// over `at(from).connect(to)`: an endpoint without an engine has no
  /// packet handler, and traffic sent to it would silently black-hole.
  /// An endpoint outside the fabric is rejected before any engine exists.
  StatusOr<RdmaConnection*> connect(EndpointId from, EndpointId to,
                                    const TransportConfig& config) {
    if (from >= engines_.size() || to >= engines_.size()) {
      return invalid_argument("EngineFleet::connect: no such endpoint");
    }
    at(to);  // ensure the receiver side exists before traffic flows
    return at(from).connect(to, config);
  }

  Simulator& simulator() { return *sim_; }
  ClosFabric& fabric() { return *fabric_; }

  /// Visit every instantiated engine in ascending endpoint id — audit
  /// sweeps attach one transport auditor per engine this way, and benches
  /// hot-restart engines in this order.
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    for (const auto& engine : engines_) {
      if (engine != nullptr) fn(*engine);
    }
  }

 private:
  Simulator* sim_;
  ClosFabric* fabric_;
  // Indexed by endpoint id; null until that endpoint's engine is created.
  std::vector<std::unique_ptr<RdmaEngine>> engines_;
};

}  // namespace stellar
