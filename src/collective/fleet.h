// EngineFleet: lazily creates one RdmaEngine per fabric endpoint so that
// collectives and traffic generators can share endpoints without fighting
// over the fabric's single per-endpoint packet handler.
#pragma once

#include <memory>
#include <unordered_map>

#include "common/ordered.h"
#include "net/fabric.h"
#include "rnic/transport.h"

namespace stellar {

class EngineFleet {
 public:
  EngineFleet(Simulator& sim, ClosFabric& fabric)
      : sim_(&sim), fabric_(&fabric) {}

  RdmaEngine& at(EndpointId id) {
    auto it = engines_.find(id);
    if (it == engines_.end()) {
      it = engines_
               .emplace(id, std::make_unique<RdmaEngine>(*sim_, *fabric_, id))
               .first;
    }
    return *it->second;
  }

  /// Open a connection, instantiating BOTH endpoint engines. Prefer this
  /// over `at(from).connect(to)`: an endpoint without an engine has no
  /// packet handler, and traffic sent to it would silently black-hole.
  StatusOr<RdmaConnection*> connect(EndpointId from, EndpointId to,
                                    const TransportConfig& config) {
    at(to);  // ensure the receiver side exists before traffic flows
    return at(from).connect(to, config);
  }

  Simulator& simulator() { return *sim_; }
  ClosFabric& fabric() { return *fabric_; }

  /// Visit every instantiated engine in ascending endpoint id — audit
  /// sweeps attach one transport auditor per engine this way, and benches
  /// hot-restart engines in this order, so it must not be hash order.
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    for (EndpointId id : sorted_keys(engines_)) fn(*engines_.at(id));
  }
  std::size_t engine_count() const { return engines_.size(); }

 private:
  Simulator* sim_;
  ClosFabric* fabric_;
  std::unordered_map<EndpointId, std::unique_ptr<RdmaEngine>> engines_;
};

}  // namespace stellar
