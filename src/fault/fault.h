// Cross-layer fault injection (§7.2 failure mitigation, exercised end to
// end): a FaultInjector executes a seeded, time-ordered FaultPlan against a
// live simulation —
//
//   * hard link failures (down / up / flapping), with the queued packets
//     either voided or drained under exact conservation accounting;
//   * whole-switch failures via the fabric's switch port groups (every
//     cable touching the switch dies at once);
//   * transient degradation windows (loss probability and/or added
//     propagation latency on one link, restored afterwards);
//   * RNIC device resets (all QPs to error, an ingress-black window);
//   * control-path resource pressure (PVDMA pins fail with
//     kResourceExhausted for a window; the hypervisor retry path backs off);
//   * adversarial-tenant storms (QP/MR churn, IOTLB-thrash scans, pin
//     floods) and a mid-attack tenant kill, executed through decoupled
//     TenantTarget hooks so the isolation layer's throttle/shed defenses
//     are what the storm actually hits.
//
// Plans are plain data, so tests and benches script scenarios declaratively
// and replay them byte-for-byte: the same plan and seed produce identical
// fault telemetry on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "fault/telemetry.h"
#include "net/fabric.h"
#include "rnic/transport.h"
#include "sim/simulator.h"
#include "virt/pvdma.h"

namespace stellar {

enum class FaultKind : std::uint8_t {
  kLinkDown,        // hard-fail one link (stays down until kLinkUp)
  kLinkUp,          // restore one link
  kLinkFlap,        // `flaps` down/up cycles on one link
  kSwitchDown,      // hard-fail every port of one switch
  kSwitchUp,        // restore every port of one switch
  kDegrade,         // loss/latency window on one link, auto-restored
  kRnicReset,       // device reset on one registered engine
  kPinPressure,     // PVDMA pin pressure window on one registered Pvdma
  kBackendRestart,  // vStellar backend hot-upgrade on one control target
  kLiveMigrate,     // live-migrate one control target's VM
  // Adversarial-tenant storms, executed via TenantTarget hooks. `intensity`
  // scales each burst; sustained attacks schedule repeated events.
  kQpChurn,           // create+destroy QP cycles against one tenant's quota
  kMrChurn,           // register+deregister MR cycles (MTT/quota pressure)
  kIotlbThrash,       // wide scan of translations to thrash IOTLB/ATC shares
  kPinFlood,          // PVDMA pin pressure against the host pin capacity
  kTenantKill,        // kill the tenant mid-attack; all resources reclaimed
};

const char* fault_kind_name(FaultKind kind);

/// Which per-port link array a LinkRef addresses.
enum class LinkLayer : std::uint8_t { kHostUp, kTorDown, kTorUp, kAggDown };

/// Coordinates of one fabric egress port. Field meaning depends on layer:
///   kHostUp / kTorDown: {segment, host, rail, plane}
///   kTorUp:             {segment, rail, plane, agg}
///   kAggDown:           {agg, segment, rail, plane}
/// rail and plane must be 0 (the fabric is one island); they stay because
/// perf/driver.cc spells the four fields (ROADMAP item 9).
struct LinkRef {
  LinkLayer layer = LinkLayer::kTorUp;
  std::uint32_t a = 0, b = 0, c = 0, d = 0;
};

/// One whole switch: an aggregation switch (by index) or a segment's ToR.
struct SwitchRef {
  bool is_tor = false;
  std::uint32_t agg = 0;      // !is_tor
  std::uint32_t segment = 0;  // is_tor
  // Must be 0, as in LinkRef; kept with it for perf/driver.cc (ROADMAP
  // item 9).
  std::uint32_t rail = 0, plane = 0;
};

struct FaultEvent {
  SimTime at;
  FaultKind kind = FaultKind::kLinkDown;
  /// Telemetry tag; pairs a down with its up and a window with its clear.
  std::string label;

  LinkRef link;    // kLinkDown/kLinkUp/kLinkFlap/kDegrade
  SwitchRef sw;    // kSwitchDown/kSwitchUp
  LinkDrainMode drain = LinkDrainMode::kVoid;

  /// kLinkFlap: down time per cycle. kDegrade/kRnicReset/kPinPressure:
  /// window length.
  SimTime duration;
  std::uint32_t flaps = 1;   // kLinkFlap: number of down/up cycles
  SimTime flap_period;       // kLinkFlap: cycle start-to-start (>= duration)

  double degrade_loss = 0.0;     // kDegrade: drop probability in the window
  SimTime degrade_latency;       // kDegrade: extra propagation in the window

  std::uint32_t engine = 0;  // kRnicReset: index into registered engines
  std::uint32_t pvdma = 0;   // kPinPressure: index into registered Pvdmas
  /// kBackendRestart/kLiveMigrate: index into registered control targets.
  std::uint32_t control = 0;
  /// Adversarial-tenant kinds: index into registered tenant targets.
  std::uint32_t tenant = 0;
  /// Burst size for the storm kinds — churn rounds (kQpChurn/kMrChurn),
  /// pages scanned (kIotlbThrash) or bytes pinned (kPinFlood). Ignored by
  /// kTenantKill.
  std::uint64_t intensity = 1;
};

struct FaultPlan {
  /// Recorded into the telemetry; reserved as the jitter source for
  /// randomized plans. Two runs with the same plan and seed are identical.
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;
};

// Shard-safety contract: a FaultInjector manipulates its shard's live
// fabric/engine state from scheduled events, so it is SingleOwner — owned
// by the thread driving the simulator, never locked.
class FaultInjector {
 public:
  FaultInjector(Simulator& sim, ClosFabric& fabric,
                FaultTelemetry* telemetry = nullptr)
      : sim_(&sim), fabric_(&fabric), telemetry_(telemetry), events_(sim) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Targets for kRnicReset / kPinPressure, addressed by registration index.
  void register_engine(RdmaEngine* engine) {
    owner_.assert_held();
    engines_.push_back(engine);
  }
  void register_pvdma(Pvdma* pvdma) {
    owner_.assert_held();
    pvdmas_.push_back(pvdma);
  }

  /// Target for the control-plane fault kinds. Callbacks keep this library
  /// decoupled from the host/runtime layers that actually implement a
  /// backend hot-upgrade or a live migration:
  ///  - backend_restart(window): quiesce + snapshot + restore the backend;
  ///    `window` is the ingress blackout the restart imposes.
  ///  - live_migrate(budget): run the migration; returns the realized
  ///    downtime (used to time the telemetry "cleared" mark).
  struct ControlTarget {
    std::function<Status(SimTime window)> backend_restart;
    std::function<StatusOr<SimTime>(SimTime budget)> live_migrate;
  };
  void register_control(ControlTarget target) {
    owner_.assert_held();
    controls_.push_back(std::move(target));
  }

  /// Target for the adversarial-tenant fault kinds. Like ControlTarget,
  /// callbacks keep this library decoupled from the host layer that owns
  /// verbs/MTT/PVDMA state. Each hook performs one burst of the attack
  /// synchronously at the event's simulated time and returns ok when the
  /// burst ran to completion — a quota shed or throttle hitting the attacker
  /// is the DEFENSE WORKING, not an injector failure, so hooks must absorb
  /// kFailedPrecondition/kResourceExhausted from the attacked layer and
  /// count them on their own side. Only infrastructure breakage (a hook
  /// precondition violated, an unexpected status) should surface as error.
  ///  - qp_churn(rounds) / mr_churn(rounds): create+destroy cycles.
  ///  - iotlb_thrash(pages): touch `pages` distinct translations.
  ///  - pin_flood(bytes): demand-pin `bytes` of fresh guest memory.
  ///  - kill(): tear the tenant down mid-attack; returns bytes reclaimed.
  struct TenantTarget {
    TenantId tenant = kHostTenant;  // telemetry attribution only
    std::function<Status(std::uint64_t rounds)> qp_churn;
    std::function<Status(std::uint64_t rounds)> mr_churn;
    std::function<Status(std::uint64_t pages)> iotlb_thrash;
    std::function<Status(std::uint64_t bytes)> pin_flood;
    std::function<StatusOr<std::uint64_t>()> kill;
  };
  void register_tenant_target(TenantTarget target) {
    owner_.assert_held();
    tenants_.push_back(std::move(target));
  }

  /// Validate every event and schedule the whole plan. Events at equal
  /// timestamps execute in plan order (the simulator's FIFO tie-break).
  /// The plan and its follow-ups (window clears, flap cycles) are this
  /// injector's own events: destroying it drops whatever is still pending.
  Status arm(const FaultPlan& plan);

  std::uint64_t events_executed() const {
    owner_.assert_held();
    return executed_;
  }

 private:
  Status validate(const FaultEvent& e) const STELLAR_REQUIRES(owner_);
  // Entry points of scheduled events (owning thread); they assert ownership
  // themselves rather than REQUIRES so the scheduling lambdas stay plain.
  void execute(const FaultEvent& e);
  void flap_cycle(FaultEvent e, std::uint32_t remaining);
  NetLink& resolve(const LinkRef& ref) const STELLAR_REQUIRES(owner_);
  std::vector<NetLink*> switch_ports(const SwitchRef& ref) const
      STELLAR_REQUIRES(owner_);

  void note_fault(const FaultEvent& e) STELLAR_REQUIRES(owner_);
  void note_cleared(const std::string& label) STELLAR_REQUIRES(owner_);

  SingleOwner owner_;
  Simulator* sim_;
  ClosFabric* fabric_;
  FaultTelemetry* telemetry_;
  std::vector<RdmaEngine*> engines_ STELLAR_GUARDED_BY(owner_);
  std::vector<Pvdma*> pvdmas_ STELLAR_GUARDED_BY(owner_);
  std::vector<ControlTarget> controls_ STELLAR_GUARDED_BY(owner_);
  std::vector<TenantTarget> tenants_ STELLAR_GUARDED_BY(owner_);
  std::uint64_t executed_ STELLAR_GUARDED_BY(owner_) = 0;
  OwnedEvents events_;  // the armed plan and its follow-ups
};

}  // namespace stellar
