// Fixture: a one-shot scheduled on the Simulator itself outlives the object
// that scheduled it, so src/ may not do it.
namespace stellar {

void Injector::arm_plan(const Plan& plan) {
  for (const Event& e : plan.events) {
    sim_->schedule_at(e.at, [this, e] { execute(e); });  // expect: owned-events
  }
}

void Retry::again(Simulator& sim, SimTime delay) {
  sim.schedule_after(delay, [this] { retry(); });  // expect: owned-events
}

void Connection::transmit(Packet p, SimTime depart) {
  engine_.simulator().schedule_at(  // expect: owned-events
      depart, [this, p] { send(p); });
}

}  // namespace stellar
