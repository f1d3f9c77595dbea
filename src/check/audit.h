// Cross-layer invariant auditing.
//
// An InvariantAuditor walks one subsystem's state and reports anything that
// violates a protocol invariant (packet conservation, pin accounting, eMTT
// coherence, ...). The AuditRegistry runs a set of auditors either on
// demand (run_all) or periodically on a Simulator: attach() re-arms itself
// only while other events are pending, so the final firing audits the
// drained end state and the simulation still terminates.
//
// Findings are collected into an AuditReport. By default a non-clean report
// trips a STELLAR_CHECK (routing through the configurable fail handler);
// tests that deliberately corrupt state switch the registry to collect-only
// with set_trap_on_finding(false) and inspect the report.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/simulator.h"

namespace stellar {

class AuditReport {
 public:
  struct Finding {
    std::string auditor;
    std::string detail;
  };

  /// Record one invariant violation.
  void fail(std::string auditor, std::string detail) {
    findings_.push_back({std::move(auditor), std::move(detail)});
  }

  /// Count one invariant comparison performed, violated or not. Lets tests
  /// assert an auditor actually inspected state rather than returning early.
  void note_check() { ++checks_performed_; }

  bool clean() const { return findings_.empty(); }
  const std::vector<Finding>& findings() const { return findings_; }
  std::uint64_t checks_performed() const { return checks_performed_; }

  /// One line per finding, newline-separated; "" when clean.
  std::string to_string() const;

 private:
  std::vector<Finding> findings_;
  std::uint64_t checks_performed_ = 0;
};

class InvariantAuditor {
 public:
  virtual ~InvariantAuditor() = default;
  virtual const char* name() const = 0;
  /// Inspect the audited subsystem and append any violations to `report`.
  virtual void audit(AuditReport& report) const = 0;
};

// Shard-safety contract: an AuditRegistry belongs to the thread driving its
// Simulator (auditors walk that shard's live data structures mid-run, so a
// lock could not make cross-thread use safe anyway). SingleOwner documents
// and — in audit builds — enforces that, exactly like the Simulator itself.
class AuditRegistry {
 public:
  AuditRegistry() = default;
  AuditRegistry(const AuditRegistry&) = delete;
  AuditRegistry& operator=(const AuditRegistry&) = delete;

  void add(std::unique_ptr<InvariantAuditor> auditor) {
    owner_.assert_held();
    auditors_.push_back(std::move(auditor));
  }
  std::size_t auditor_count() const {
    owner_.assert_held();
    return auditors_.size();
  }

  /// Run every auditor once. With trap_on_finding (the default), a dirty
  /// report fails a STELLAR_CHECK; otherwise the report is returned for the
  /// caller to inspect.
  AuditReport run_all();

  /// Audit every `period` of simulated time. The recurring event re-arms
  /// only while the simulator has other pending work, so the last firing
  /// audits the drained state and run() still terminates.
  void attach_periodic(Simulator& sim, SimTime period);
  void detach();
  bool attached() const {
    owner_.assert_held();
    return sim_ != nullptr;
  }

  void set_trap_on_finding(bool trap) {
    owner_.assert_held();
    trap_on_finding_ = trap;
  }

  std::uint64_t runs() const {
    owner_.assert_held();
    return runs_;
  }
  /// Total findings across all runs (0 on a healthy simulation).
  std::uint64_t total_findings() const {
    owner_.assert_held();
    return total_findings_;
  }

 private:
  // Runs as a simulator event (owning thread); asserts ownership itself.
  void fire();

  SingleOwner owner_;
  std::vector<std::unique_ptr<InvariantAuditor>> auditors_
      STELLAR_GUARDED_BY(owner_);
  Simulator* sim_ STELLAR_GUARDED_BY(owner_) = nullptr;
  SimTime period_ STELLAR_GUARDED_BY(owner_) = SimTime::zero();
  // The periodic firing, held from attach to detach.
  std::optional<Simulator::Timer> timer_ STELLAR_GUARDED_BY(owner_);
  bool trap_on_finding_ STELLAR_GUARDED_BY(owner_) = true;
  std::uint64_t runs_ STELLAR_GUARDED_BY(owner_) = 0;
  std::uint64_t total_findings_ STELLAR_GUARDED_BY(owner_) = 0;
};

}  // namespace stellar
