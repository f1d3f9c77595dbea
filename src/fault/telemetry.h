// FaultTelemetry: the measurement side of the fault-injection framework.
//
// A periodic sampler snapshots transport health (goodput, timeouts,
// retransmits, errored QPs, blacklisted paths) across a set of watched
// RdmaEngines, and the FaultInjector reports every fault start/clear into
// the same timeline. analyze() then derives, per fault event, the
// time-to-detect (first post-injection sample showing new timeouts or QP
// errors), the time-to-recover (goodput back to >= 90% of the pre-fault
// baseline), and the goodput dip (worst fault-window interval throughput
// relative to that baseline) — the §7.2 recovery metrics.
//
// Everything is deterministic: samples fire on the simulator clock, all
// times serialize as integer picoseconds, and to_json() is byte-identical
// across runs of the same plan and seed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/units.h"
#include "rnic/transport.h"
#include "sim/simulator.h"
#include "virt/hypervisor.h"

namespace stellar {

// Shard-safety contract: SingleOwner, like the FaultInjector feeding it —
// samples and fault marks are appended from simulator events on the owning
// shard's thread, and analyze()/to_json() run there after the drain.
class FaultTelemetry {
 public:
  struct FaultRecord {
    std::string label;
    std::string kind;
    SimTime injected_at;
    SimTime cleared_at;
    bool cleared = false;
  };

  /// Cumulative transport counters across all watched engines, plus pin
  /// retries across all watched hypervisors.
  struct Sample {
    SimTime at;
    std::uint64_t goodput_bytes = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t errored_qps = 0;
    std::uint64_t blacklisted_paths = 0;
    std::uint64_t pin_retries = 0;
  };

  struct EventAnalysis {
    std::string label;
    std::string kind;
    SimTime injected_at;
    bool detected = false;
    bool recovered = false;
    SimTime detect_latency;   // injection -> first sample with new distress
    SimTime recover_latency;  // injection -> goodput back at baseline
    double goodput_dip = 1.0; // worst fault-window interval / baseline
  };

  /// Engines whose counters feed the sampler. Register before attach().
  void watch_engine(const RdmaEngine* engine) {
    owner_.assert_held();
    engines_.push_back(engine);
  }

  /// Hypervisors whose pin-retry counters feed the sampler and the
  /// per-tenant retry attribution in to_json() — this is what separates an
  /// attacker's own retry storm from collateral retries on victims.
  void watch_hypervisor(const Hypervisor* hypervisor) {
    owner_.assert_held();
    hypervisors_.push_back(hypervisor);
  }

  /// Total pin retries per tenant across all watched hypervisors (ordered,
  /// so emitters iterating it are deterministic).
  std::map<VmId, std::uint64_t> pin_retries_by_tenant() const;

  /// Sample every `period` of simulated time. The recurring event re-arms
  /// only while the simulator has other pending work (the AuditRegistry
  /// pattern), so the final sample sees the drained end state and run()
  /// still terminates.
  void attach(Simulator& sim, SimTime period);
  void detach();
  bool attached() const {
    owner_.assert_held();
    return sim_ != nullptr;
  }

  /// Injector-facing timeline hooks.
  void set_seed(std::uint64_t seed) {
    owner_.assert_held();
    seed_ = seed;
  }
  void on_fault(std::string label, std::string kind, SimTime at);
  void on_fault_cleared(const std::string& label, SimTime at);

  const std::vector<FaultRecord>& faults() const {
    owner_.assert_held();
    return faults_;
  }
  const std::vector<Sample>& samples() const {
    owner_.assert_held();
    return samples_;
  }

  std::vector<EventAnalysis> analyze() const;

  /// Deterministic machine-readable dump (seed, faults, samples, analysis).
  std::string to_json() const;

 private:
  // Runs as a simulator event (owning thread); asserts ownership itself.
  void fire();
  Sample snapshot() const STELLAR_REQUIRES(owner_);

  SingleOwner owner_;
  Simulator* sim_ STELLAR_GUARDED_BY(owner_) = nullptr;
  SimTime period_ STELLAR_GUARDED_BY(owner_);
  // The periodic firing, held from attach to detach.
  std::optional<Simulator::Timer> timer_ STELLAR_GUARDED_BY(owner_);
  std::uint64_t seed_ STELLAR_GUARDED_BY(owner_) = 0;
  std::vector<const RdmaEngine*> engines_ STELLAR_GUARDED_BY(owner_);
  std::vector<const Hypervisor*> hypervisors_ STELLAR_GUARDED_BY(owner_);
  std::vector<FaultRecord> faults_ STELLAR_GUARDED_BY(owner_);
  std::vector<Sample> samples_ STELLAR_GUARDED_BY(owner_);
};

}  // namespace stellar
