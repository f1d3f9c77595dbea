// Chaos-soak plan generation: seeded random FaultPlans composing the ten
// data-plane and control-plane fault kinds — link down/up/flap, switch
// down/up, degradation, RNIC reset, pin pressure, backend restart and live
// migration — against a live workload. The adversarial-tenant storms are
// not drawn here; fig_tenants schedules them in its own soak phase. The
// same seed always produces the same plan, so a soak failure replays
// byte-for-byte.
//
// The generator is deliberately survivable-by-construction: hard outages
// (link/switch down) are kept short and serialized in time, so the
// RTO/retransmit + blacklist machinery can always recover and a collective
// running under the plan is expected to *complete* — the soak asserts
// invariants, not crashes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.h"
#include "fault/fault.h"
#include "net/fabric.h"

namespace stellar {

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Number of fault events to generate (paired down/up count as two).
  std::size_t events = 100;
  /// Faults start no earlier than `start` and are injected across
  /// `horizon` of simulated time.
  SimTime start = SimTime::millis(1);
  SimTime horizon = SimTime::millis(40);
  /// Registered target counts on the injector (0 disables that kind).
  std::size_t engines = 0;
  std::size_t pvdmas = 0;
  std::size_t controls = 0;
};

/// Build a random, seed-deterministic plan valid for `fabric`.
FaultPlan make_chaos_plan(const FabricConfig& fabric, const ChaosConfig& cfg);

}  // namespace stellar
