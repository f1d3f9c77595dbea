// Fixture: one-shots an owner holds die with it — an OwnedEvents member or
// a member Simulator::Timer. Reading the Simulator's clock is fine.
namespace stellar {

void Injector::arm_plan(const Plan& plan) {
  for (const Event& e : plan.events) {
    events_.schedule_at(e.at, [this, e] { execute(e); });
  }
}

void Driver::idle_for(SimTime idle) {
  off_window_.arm(sim_->now() + idle);
}

void Connection::transmit(Packet p, SimTime depart) {
  paced_.schedule_at(depart, [this, p] { send(p); });
  last_ = engine_.simulator().now();
}

// Suppression with a justification.
void Harness::kick(Simulator& sim) {
  // stellar-lint: allow(owned-events) fixture: the closure owns its state
  sim.schedule_after(SimTime::zero(), [] {});
}

}  // namespace stellar
