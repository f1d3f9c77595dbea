#include "check/audit.h"

namespace stellar {

std::string AuditReport::to_string() const {
  std::string out;
  for (const Finding& f : findings_) {
    if (!out.empty()) out += "\n";
    out += "[" + f.auditor + "] " + f.detail;
  }
  return out;
}

AuditReport AuditRegistry::run_all() {
  owner_.assert_held();
  AuditReport report;
  for (const auto& auditor : auditors_) {
    auditor->audit(report);
  }
  ++runs_;
  total_findings_ += report.findings().size();
  if (trap_on_finding_ && !report.clean()) {
    STELLAR_CHECK(report.clean(), "invariant audit found %zu violation(s):\n%s",
                  report.findings().size(), report.to_string().c_str());
  }
  return report;
}

void AuditRegistry::attach_periodic(Simulator& sim, SimTime period) {
  owner_.assert_held();
  detach();
  sim_ = &sim;
  period_ = period;
  timer_.emplace(sim, [this] { fire(); });
  timer_->arm(sim.now() + period_);
}

void AuditRegistry::detach() {
  owner_.assert_held();
  timer_.reset();  // disarms a pending firing
  sim_ = nullptr;
}

void AuditRegistry::fire() {
  owner_.assert_held();
  (void)run_all();
  // Re-arm only while other work is queued: the firing that observes an
  // empty queue was the drain-time audit, and the simulation may end.
  if (!sim_->empty()) timer_->arm(sim_->now() + period_);
}

}  // namespace stellar
