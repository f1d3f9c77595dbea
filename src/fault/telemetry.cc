#include "fault/telemetry.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace stellar {

namespace {

// Recovery is declared when an interval's goodput reaches this fraction of
// the pre-fault baseline rate.
constexpr double kRecoveredFraction = 0.9;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void FaultTelemetry::attach(Simulator& sim, SimTime period) {
  owner_.assert_held();
  detach();
  sim_ = &sim;
  period_ = period;
  // Take the t=attach baseline sample immediately, then sample every period.
  samples_.push_back(snapshot());
  timer_.emplace(sim, [this] { fire(); });
  timer_->arm(sim.now() + period_);
}

void FaultTelemetry::detach() {
  owner_.assert_held();
  timer_.reset();  // disarms a pending firing
  sim_ = nullptr;
}

void FaultTelemetry::fire() {
  owner_.assert_held();
  samples_.push_back(snapshot());
  // Mirror the sample onto the shared registry/trace so fault telemetry
  // shows up next to every other layer's series.
  STELLAR_TRACE_ONLY(
      const Sample& s = samples_.back();
      obs::gauge_set("fault/errored_qps",
                     static_cast<std::int64_t>(s.errored_qps));
      obs::gauge_set("fault/blacklisted_paths",
                     static_cast<std::int64_t>(s.blacklisted_paths));
      obs::track(obs::TraceCat::kFault, "goodput_bytes", s.at,
                 static_cast<std::int64_t>(s.goodput_bytes));
      obs::track(obs::TraceCat::kFault, "retransmits", s.at,
                 static_cast<std::int64_t>(s.retransmits));)
  // Re-arm only while other work is queued: the firing that observes an
  // empty queue recorded the drained end state, and the simulation may end.
  if (!sim_->empty()) timer_->arm(sim_->now() + period_);
}

FaultTelemetry::Sample FaultTelemetry::snapshot() const {
  Sample s;
  s.at = sim_ != nullptr ? sim_->now() : SimTime::zero();
  for (const RdmaEngine* engine : engines_) {
    s.goodput_bytes += engine->rx_goodput_bytes();
    for (const auto& conn : engine->connections()) {
      s.timeouts += conn->timeouts();
      s.retransmits += conn->retransmits();
      s.errored_qps += conn->in_error() ? 1 : 0;
      s.blacklisted_paths += conn->blacklisted_paths();
    }
  }
  for (const Hypervisor* hv : hypervisors_) {
    s.pin_retries += hv->pin_retries();
  }
  return s;
}

std::map<VmId, std::uint64_t> FaultTelemetry::pin_retries_by_tenant() const {
  owner_.assert_held();
  std::map<VmId, std::uint64_t> out;
  for (const Hypervisor* hv : hypervisors_) {
    for (const auto& [vm, retries] : hv->pin_retries_by_vm()) {
      out[vm] += retries;
    }
  }
  return out;
}

void FaultTelemetry::on_fault(std::string label, std::string kind,
                              SimTime at) {
  owner_.assert_held();
  FaultRecord rec;
  rec.label = std::move(label);
  rec.kind = std::move(kind);
  rec.injected_at = at;
  STELLAR_TRACE_ONLY(obs::count("fault/injected");
                     obs::instant(obs::TraceCat::kFault, rec.label, at);)
  faults_.push_back(std::move(rec));
}

void FaultTelemetry::on_fault_cleared(const std::string& label, SimTime at) {
  owner_.assert_held();
  // Clear the most recent un-cleared record with this label (flap cycles
  // reuse one record: only the final up marks it cleared).
  for (auto it = faults_.rbegin(); it != faults_.rend(); ++it) {
    if (it->label == label && !it->cleared) {
      it->cleared = true;
      it->cleared_at = at;
      STELLAR_TRACE_ONLY(
          obs::count("fault/cleared");
          obs::instant(obs::TraceCat::kFault, label + "/cleared", at);)
      return;
    }
  }
}

std::vector<FaultTelemetry::EventAnalysis> FaultTelemetry::analyze() const {
  owner_.assert_held();
  std::vector<EventAnalysis> out;
  out.reserve(faults_.size());
  for (const FaultRecord& fault : faults_) {
    EventAnalysis ea;
    ea.label = fault.label;
    ea.kind = fault.kind;
    ea.injected_at = fault.injected_at;

    // Pre-fault baseline: mean per-second goodput over the non-idle
    // intervals that completed before the injection.
    double baseline = 0.0;
    std::uint64_t pre_intervals = 0;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      const Sample& prev = samples_[i - 1];
      const Sample& cur = samples_[i];
      if (cur.at > fault.injected_at) break;
      const double secs = (cur.at - prev.at).sec();
      if (secs <= 0.0 || cur.goodput_bytes == prev.goodput_bytes) continue;
      baseline += static_cast<double>(cur.goodput_bytes - prev.goodput_bytes) /
                  secs;
      ++pre_intervals;
    }
    if (pre_intervals > 0) baseline /= static_cast<double>(pre_intervals);

    double worst_rate = baseline;
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      const Sample& prev = samples_[i - 1];
      const Sample& cur = samples_[i];
      if (cur.at <= fault.injected_at) continue;

      // Detection: the first post-injection sample showing new transport
      // distress (timeouts, retransmits, or QPs moving to error).
      if (!ea.detected && (cur.timeouts > prev.timeouts ||
                           cur.retransmits > prev.retransmits ||
                           cur.errored_qps > prev.errored_qps)) {
        ea.detected = true;
        ea.detect_latency = cur.at - fault.injected_at;
      }

      const double secs = (cur.at - prev.at).sec();
      if (secs <= 0.0) continue;
      const double rate =
          static_cast<double>(cur.goodput_bytes - prev.goodput_bytes) / secs;
      if (!ea.recovered) worst_rate = std::min(worst_rate, rate);
      if (!ea.recovered && baseline > 0.0 &&
          rate >= kRecoveredFraction * baseline) {
        ea.recovered = true;
        ea.recover_latency = cur.at - fault.injected_at;
      }
    }
    ea.goodput_dip = baseline > 0.0 ? worst_rate / baseline : 1.0;
    if (ea.goodput_dip < 0.0) ea.goodput_dip = 0.0;
    out.push_back(std::move(ea));
  }
  return out;
}

std::string FaultTelemetry::to_json() const {
  owner_.assert_held();
  std::string out = "{\n  \"seed\": " + std::to_string(seed_) + ",\n";

  out += "  \"faults\": [";
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const FaultRecord& f = faults_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": \"" + json_escape(f.label) + "\", \"kind\": \"" +
           json_escape(f.kind) +
           "\", \"injected_ps\": " + std::to_string(f.injected_at.ps()) +
           ", \"cleared\": " + (f.cleared ? "true" : "false") +
           ", \"cleared_ps\": " + std::to_string(f.cleared_at.ps()) + "}";
  }
  out += faults_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"samples\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"at_ps\": " + std::to_string(s.at.ps()) +
           ", \"goodput_bytes\": " + std::to_string(s.goodput_bytes) +
           ", \"timeouts\": " + std::to_string(s.timeouts) +
           ", \"retransmits\": " + std::to_string(s.retransmits) +
           ", \"errored_qps\": " + std::to_string(s.errored_qps) +
           ", \"blacklisted_paths\": " + std::to_string(s.blacklisted_paths) +
           ", \"pin_retries\": " + std::to_string(s.pin_retries) + "}";
  }
  out += samples_.empty() ? "],\n" : "\n  ],\n";

  // Attacker-vs-victim retry attribution (std::map iteration is ordered, so
  // this emitter is deterministic by construction).
  const auto by_tenant = pin_retries_by_tenant();
  out += "  \"pin_retries_by_tenant\": {";
  bool first_tenant = true;
  for (const auto& [vm, retries] : by_tenant) {
    out += first_tenant ? "\n" : ",\n";
    first_tenant = false;
    out += "    \"" + std::to_string(vm) + "\": " + std::to_string(retries);
  }
  out += by_tenant.empty() ? "},\n" : "\n  },\n";

  const auto analysis = analyze();
  out += "  \"analysis\": [";
  for (std::size_t i = 0; i < analysis.size(); ++i) {
    const EventAnalysis& a = analysis[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": \"" + json_escape(a.label) + "\", \"kind\": \"" +
           json_escape(a.kind) +
           "\", \"injected_ps\": " + std::to_string(a.injected_at.ps()) +
           ", \"detected\": " + (a.detected ? "true" : "false") +
           ", \"detect_latency_ps\": " +
           std::to_string(a.detect_latency.ps()) +
           ", \"recovered\": " + (a.recovered ? "true" : "false") +
           ", \"recover_latency_ps\": " +
           std::to_string(a.recover_latency.ps()) +
           // Serialized as integer parts-per-million: "%f"-style float
           // formatting is banned in deterministic emitters (stellar-lint
           // rule float-format); the analysis struct keeps the double.
           ", \"goodput_dip_ppm\": " +
           std::to_string(static_cast<long long>(
               std::llround(a.goodput_dip * 1e6))) +
           "}";
  }
  out += analysis.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace stellar
