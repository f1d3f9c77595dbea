#include "fault/fault.h"

#include <algorithm>

#include "check/check.h"

namespace stellar {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kSwitchDown: return "switch_down";
    case FaultKind::kSwitchUp: return "switch_up";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kRnicReset: return "rnic_reset";
    case FaultKind::kPinPressure: return "pin_pressure";
    case FaultKind::kBackendRestart: return "backend_restart";
    case FaultKind::kLiveMigrate: return "live_migrate";
    case FaultKind::kQpChurn: return "qp_churn";
    case FaultKind::kMrChurn: return "mr_churn";
    case FaultKind::kIotlbThrash: return "iotlb_thrash";
    case FaultKind::kPinFlood: return "pin_flood";
    case FaultKind::kTenantKill: return "tenant_kill";
  }
  return "unknown";
}

Status FaultInjector::arm(const FaultPlan& plan) {
  owner_.assert_held();
  for (const FaultEvent& e : plan.events) {
    Status s = validate(e);
    if (!s.is_ok()) return s;
  }
  if (telemetry_ != nullptr) telemetry_->set_seed(plan.seed);
  for (const FaultEvent& e : plan.events) {
    events_.schedule_at(e.at, [this, e] { execute(e); });
  }
  return Status::ok();
}

Status FaultInjector::validate(const FaultEvent& e) const {
  const FabricConfig& c = fabric_->config();
  // A rail or plane coordinate must be 0: the fabric is one island.
  auto link_ok = [&](const LinkRef& l) {
    switch (l.layer) {
      case LinkLayer::kHostUp:
      case LinkLayer::kTorDown:
        return l.a < c.segments && l.b < c.hosts_per_segment && l.c == 0 &&
               l.d == 0;
      case LinkLayer::kTorUp:
        return l.a < c.segments && l.b == 0 && l.c == 0 &&
               l.d < c.aggs_per_plane;
      case LinkLayer::kAggDown:
        return l.a < c.aggs_per_plane && l.b < c.segments && l.c == 0 &&
               l.d == 0;
    }
    return false;
  };
  auto switch_ok = [&](const SwitchRef& s) {
    return s.is_tor ? (s.segment < c.segments && s.rail == 0 && s.plane == 0)
                    : s.agg < c.aggs_per_plane;
  };
  const std::string tag = "FaultPlan[" + e.label + "]: ";
  switch (e.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      if (!link_ok(e.link)) return invalid_argument(tag + "bad link ref");
      break;
    case FaultKind::kLinkFlap:
      if (!link_ok(e.link)) return invalid_argument(tag + "bad link ref");
      if (e.flaps == 0) return invalid_argument(tag + "flaps must be >= 1");
      if (e.duration <= SimTime::zero()) {
        return invalid_argument(tag + "flap duration must be > 0");
      }
      break;
    case FaultKind::kSwitchDown:
    case FaultKind::kSwitchUp:
      if (!switch_ok(e.sw)) return invalid_argument(tag + "bad switch ref");
      break;
    case FaultKind::kDegrade:
      if (!link_ok(e.link)) return invalid_argument(tag + "bad link ref");
      if (e.duration <= SimTime::zero()) {
        return invalid_argument(tag + "degrade window must be > 0");
      }
      if (e.degrade_loss < 0.0 || e.degrade_loss > 1.0) {
        return invalid_argument(tag + "degrade_loss must be in [0, 1]");
      }
      break;
    case FaultKind::kRnicReset:
      if (e.engine >= engines_.size()) {
        return invalid_argument(tag + "engine index out of range");
      }
      if (e.duration <= SimTime::zero()) {
        return invalid_argument(tag + "reset window must be > 0");
      }
      break;
    case FaultKind::kPinPressure:
      if (e.pvdma >= pvdmas_.size()) {
        return invalid_argument(tag + "pvdma index out of range");
      }
      if (e.duration <= SimTime::zero()) {
        return invalid_argument(tag + "pressure window must be > 0");
      }
      break;
    case FaultKind::kBackendRestart:
      if (e.control >= controls_.size()) {
        return invalid_argument(tag + "control index out of range");
      }
      if (!controls_[e.control].backend_restart) {
        return invalid_argument(tag + "target has no backend_restart hook");
      }
      if (e.duration <= SimTime::zero()) {
        return invalid_argument(tag + "restart window must be > 0");
      }
      break;
    case FaultKind::kLiveMigrate:
      if (e.control >= controls_.size()) {
        return invalid_argument(tag + "control index out of range");
      }
      if (!controls_[e.control].live_migrate) {
        return invalid_argument(tag + "target has no live_migrate hook");
      }
      break;
    case FaultKind::kQpChurn:
    case FaultKind::kMrChurn:
    case FaultKind::kIotlbThrash:
    case FaultKind::kPinFlood: {
      if (e.tenant >= tenants_.size()) {
        return invalid_argument(tag + "tenant target index out of range");
      }
      if (e.intensity == 0) {
        return invalid_argument(tag + "storm intensity must be >= 1");
      }
      const TenantTarget& t = tenants_[e.tenant];
      const bool hooked =
          (e.kind == FaultKind::kQpChurn && t.qp_churn) ||
          (e.kind == FaultKind::kMrChurn && t.mr_churn) ||
          (e.kind == FaultKind::kIotlbThrash && t.iotlb_thrash) ||
          (e.kind == FaultKind::kPinFlood && t.pin_flood);
      if (!hooked) {
        return invalid_argument(tag + "target has no hook for this storm");
      }
      break;
    }
    case FaultKind::kTenantKill:
      if (e.tenant >= tenants_.size()) {
        return invalid_argument(tag + "tenant target index out of range");
      }
      if (!tenants_[e.tenant].kill) {
        return invalid_argument(tag + "target has no kill hook");
      }
      break;
  }
  return Status::ok();
}

NetLink& FaultInjector::resolve(const LinkRef& ref) const {
  switch (ref.layer) {
    case LinkLayer::kHostUp:
      return fabric_->host_uplink(ref.a, ref.b);
    case LinkLayer::kTorDown:
      return fabric_->tor_downlink(ref.a, ref.b);
    case LinkLayer::kTorUp:
      return fabric_->tor_uplink(ref.a, ref.d);
    case LinkLayer::kAggDown:
      return fabric_->agg_downlink(ref.a, ref.b);
  }
  STELLAR_CHECK(false, "unreachable LinkLayer");
  return fabric_->tor_uplink(0, 0);
}

std::vector<NetLink*> FaultInjector::switch_ports(const SwitchRef& ref) const {
  return ref.is_tor
             ? fabric_->tor_switch_ports(ref.segment)
             : fabric_->agg_switch_ports(ref.agg);
}

void FaultInjector::note_fault(const FaultEvent& e) {
  if (telemetry_ != nullptr) {
    telemetry_->on_fault(e.label, fault_kind_name(e.kind), sim_->now());
  }
}

void FaultInjector::note_cleared(const std::string& label) {
  if (telemetry_ != nullptr) telemetry_->on_fault_cleared(label, sim_->now());
}

void FaultInjector::execute(const FaultEvent& e) {
  owner_.assert_held();
  ++executed_;
  // Hybrid fidelity: a fabric-touching fault forces packet-level zoom
  // before it executes — fluid models stable epochs only, and the outage
  // must hit real queues/QPs, not an analytic flow. The hold keeps the
  // promotion logic off for at least the fault's own window. Tenant-storm
  // and pin-pressure kinds exercise the control/tenant plane, not the
  // fabric, and stay fluid-compatible.
  if (HybridDriver* driver = fabric_->hybrid_driver()) {
    switch (e.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
      case FaultKind::kLinkFlap:
      case FaultKind::kSwitchDown:
      case FaultKind::kSwitchUp:
      case FaultKind::kDegrade:
      case FaultKind::kRnicReset:
      case FaultKind::kBackendRestart:
      case FaultKind::kLiveMigrate:
        driver->force_packet(std::max(e.duration, SimTime::micros(100)),
                             fault_kind_name(e.kind));
        break;
      default:
        break;
    }
  }
  switch (e.kind) {
    case FaultKind::kLinkDown:
      resolve(e.link).set_down(e.drain);
      note_fault(e);
      break;

    case FaultKind::kLinkUp:
      resolve(e.link).set_up();
      note_cleared(e.label);
      break;

    case FaultKind::kLinkFlap:
      note_fault(e);
      flap_cycle(e, e.flaps);
      break;

    case FaultKind::kSwitchDown:
      for (NetLink* port : switch_ports(e.sw)) port->set_down(e.drain);
      note_fault(e);
      break;

    case FaultKind::kSwitchUp:
      for (NetLink* port : switch_ports(e.sw)) port->set_up();
      note_cleared(e.label);
      break;

    case FaultKind::kDegrade: {
      NetLink& link = resolve(e.link);
      const double orig_loss = link.config().drop_probability;
      const SimTime orig_prop = link.config().propagation;
      link.set_drop_probability(e.degrade_loss);
      link.set_propagation(orig_prop + e.degrade_latency);
      note_fault(e);
      events_.schedule_after(
          e.duration, [this, &link, orig_loss, orig_prop, label = e.label] {
            link.set_drop_probability(orig_loss);
            link.set_propagation(orig_prop);
            note_cleared(label);
          });
      break;
    }

    case FaultKind::kRnicReset:
      engines_[e.engine]->reset_device(e.duration);
      note_fault(e);
      events_.schedule_after(e.duration,
                             [this, label = e.label] { note_cleared(label); });
      break;

    case FaultKind::kPinPressure:
      pvdmas_[e.pvdma]->set_resource_pressure(true);
      note_fault(e);
      events_.schedule_after(e.duration,
                             [this, pvdma = e.pvdma, label = e.label] {
                               pvdmas_[pvdma]->set_resource_pressure(false);
                               note_cleared(label);
                             });
      break;

    case FaultKind::kBackendRestart: {
      note_fault(e);
      STELLAR_CHECK_OK(controls_[e.control].backend_restart(e.duration),
                       "backend restart hook failed");
      events_.schedule_after(e.duration,
                             [this, label = e.label] { note_cleared(label); });
      break;
    }

    case FaultKind::kLiveMigrate: {
      note_fault(e);
      auto downtime = controls_[e.control].live_migrate(e.duration);
      STELLAR_CHECK_OK(downtime.status(), "live migrate hook failed");
      events_.schedule_after(downtime.value(),
                             [this, label = e.label] { note_cleared(label); });
      break;
    }

    // Adversarial-tenant bursts run synchronously at the event time; the
    // cleared mark lands as soon as the burst returns. Sustained storms are
    // plans with many events, each its own fault/cleared pair.
    case FaultKind::kQpChurn:
    case FaultKind::kMrChurn:
    case FaultKind::kIotlbThrash:
    case FaultKind::kPinFlood: {
      const TenantTarget& t = tenants_[e.tenant];
      note_fault(e);
      Status burst = Status::ok();
      switch (e.kind) {
        case FaultKind::kQpChurn: burst = t.qp_churn(e.intensity); break;
        case FaultKind::kMrChurn: burst = t.mr_churn(e.intensity); break;
        case FaultKind::kIotlbThrash:
          burst = t.iotlb_thrash(e.intensity);
          break;
        default: burst = t.pin_flood(e.intensity); break;
      }
      STELLAR_CHECK_OK(burst, "tenant storm hook failed");
      note_cleared(e.label);
      break;
    }

    case FaultKind::kTenantKill: {
      note_fault(e);
      auto reclaimed = tenants_[e.tenant].kill();
      STELLAR_CHECK_OK(reclaimed.status(), "tenant kill hook failed");
      note_cleared(e.label);
      break;
    }
  }
}

void FaultInjector::flap_cycle(FaultEvent e, std::uint32_t remaining) {
  owner_.assert_held();
  NetLink& link = resolve(e.link);
  link.set_down(e.drain);
  events_.schedule_after(e.duration, [this, e, remaining, &link] {
    link.set_up();
    if (remaining <= 1) {
      note_cleared(e.label);
      return;
    }
    const SimTime period = std::max(e.flap_period, e.duration);
    const SimTime next_down = period - e.duration;  // time to stay up
    events_.schedule_after(next_down, [this, e, remaining] {
      flap_cycle(e, remaining - 1);
    });
  });
}

}  // namespace stellar
