#include "fault/chaos.h"

#include <algorithm>
#include <string>

#include "common/rng.h"

namespace stellar {

namespace {

/// Longest hard outage (link/switch down, reset window). Kept well under
/// the retry budget (max_retries * rto) so no QP is ever starved to death
/// by the plan itself.
constexpr SimTime kMaxOutage = SimTime::micros(120);

SimTime random_in(Rng& rng, SimTime lo, SimTime hi) {
  if (hi <= lo) return lo;
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi.ps()) - static_cast<std::uint64_t>(lo.ps());
  return lo + SimTime::picos(static_cast<std::int64_t>(rng.below(span)));
}

// The rail and plane draws always yield 0 (the fabric is one island); they
// stay so that every seeded plan keeps its draw sequence.
LinkRef random_link(Rng& rng, const FabricConfig& c) {
  LinkRef l;
  switch (rng.below(4)) {
    case 0:
      l.layer = LinkLayer::kHostUp;
      l.a = static_cast<std::uint32_t>(rng.below(c.segments));
      l.b = static_cast<std::uint32_t>(rng.below(c.hosts_per_segment));
      l.c = static_cast<std::uint32_t>(rng.below(c.rails));
      l.d = static_cast<std::uint32_t>(rng.below(c.planes));
      break;
    case 1:
      l.layer = LinkLayer::kTorDown;
      l.a = static_cast<std::uint32_t>(rng.below(c.segments));
      l.b = static_cast<std::uint32_t>(rng.below(c.hosts_per_segment));
      l.c = static_cast<std::uint32_t>(rng.below(c.rails));
      l.d = static_cast<std::uint32_t>(rng.below(c.planes));
      break;
    case 2:
      l.layer = LinkLayer::kTorUp;
      l.a = static_cast<std::uint32_t>(rng.below(c.segments));
      l.b = static_cast<std::uint32_t>(rng.below(c.rails));
      l.c = static_cast<std::uint32_t>(rng.below(c.planes));
      l.d = static_cast<std::uint32_t>(rng.below(c.aggs_per_plane));
      break;
    default:
      l.layer = LinkLayer::kAggDown;
      l.a = static_cast<std::uint32_t>(rng.below(c.aggs_per_plane));
      l.b = static_cast<std::uint32_t>(rng.below(c.segments));
      l.c = static_cast<std::uint32_t>(rng.below(c.rails));
      l.d = static_cast<std::uint32_t>(rng.below(c.planes));
      break;
  }
  return l;
}

SwitchRef random_switch(Rng& rng, const FabricConfig& c) {
  SwitchRef s;
  s.is_tor = rng.chance(0.5);
  if (s.is_tor) {
    s.segment = static_cast<std::uint32_t>(rng.below(c.segments));
    s.rail = static_cast<std::uint32_t>(rng.below(c.rails));
    s.plane = static_cast<std::uint32_t>(rng.below(c.planes));
  } else {
    s.agg = static_cast<std::uint32_t>(rng.below(c.aggs_per_plane));
  }
  return s;
}

}  // namespace

FaultPlan make_chaos_plan(const FabricConfig& fabric, const ChaosConfig& cfg) {
  FaultPlan plan;
  plan.seed = cfg.seed;
  Rng rng(hash_combine(cfg.seed, 0xC4A05));

  // Hard outages (anything that blacks out a whole path set) are serialized
  // on this cursor so two of them never overlap: any single outage is
  // survivable by design, a random conjunction might not be.
  SimTime hard_free = cfg.start;
  const SimTime end = cfg.start + cfg.horizon;
  std::size_t seq = 0;

  auto label = [&](const char* kind) {
    return std::string(kind) + "#" + std::to_string(seq++);
  };

  while (plan.events.size() < cfg.events) {
    const std::uint64_t pick = rng.below(10);
    const SimTime at = random_in(rng, cfg.start, end);
    const SimTime outage =
        random_in(rng, SimTime::micros(10), kMaxOutage);

    if (pick <= 1) {
      // Paired hard link down/up, serialized with other hard outages.
      const SimTime down_at = std::max(at, hard_free);
      FaultEvent down;
      down.at = down_at;
      down.kind = FaultKind::kLinkDown;
      down.label = label("link");
      down.link = random_link(rng, fabric);
      down.drain = rng.chance(0.5) ? LinkDrainMode::kVoid
                                   : LinkDrainMode::kDrain;
      FaultEvent up = down;
      up.at = down_at + outage;
      up.kind = FaultKind::kLinkUp;
      hard_free = up.at + SimTime::micros(20);
      plan.events.push_back(down);
      plan.events.push_back(up);
    } else if (pick == 2) {
      // Paired whole-switch death.
      const SimTime down_at = std::max(at, hard_free);
      FaultEvent down;
      down.at = down_at;
      down.kind = FaultKind::kSwitchDown;
      down.label = label("switch");
      down.sw = random_switch(rng, fabric);
      down.drain = LinkDrainMode::kVoid;
      FaultEvent up = down;
      up.at = down_at + outage;
      up.kind = FaultKind::kSwitchUp;
      hard_free = up.at + SimTime::micros(20);
      plan.events.push_back(down);
      plan.events.push_back(up);
    } else if (pick == 3) {
      FaultEvent e;
      e.at = std::max(at, hard_free);
      e.kind = FaultKind::kLinkFlap;
      e.label = label("flap");
      e.link = random_link(rng, fabric);
      e.duration = random_in(rng, SimTime::micros(5), SimTime::micros(30));
      e.flaps = static_cast<std::uint32_t>(1 + rng.below(3));
      e.flap_period = e.duration + e.duration;
      hard_free = e.at +
                  SimTime::picos(static_cast<std::int64_t>(e.flaps) *
                                 e.flap_period.ps()) +
                  SimTime::micros(20);
      plan.events.push_back(e);
    } else if (pick <= 5) {
      // Soft degradation: free to overlap anything.
      FaultEvent e;
      e.at = at;
      e.kind = FaultKind::kDegrade;
      e.label = label("degrade");
      e.link = random_link(rng, fabric);
      e.duration = random_in(rng, SimTime::micros(50), SimTime::micros(500));
      e.degrade_loss = 0.3 * rng.uniform();
      e.degrade_latency =
          random_in(rng, SimTime::zero(), SimTime::micros(2));
      plan.events.push_back(e);
    } else if (pick == 6 && cfg.engines > 0) {
      const SimTime reset_at = std::max(at, hard_free);
      FaultEvent e;
      e.at = reset_at;
      e.kind = FaultKind::kRnicReset;
      e.label = label("reset");
      e.engine = static_cast<std::uint32_t>(rng.below(cfg.engines));
      e.duration = outage;
      hard_free = reset_at + outage + SimTime::micros(20);
      plan.events.push_back(e);
    } else if (pick == 7 && cfg.pvdmas > 0) {
      FaultEvent e;
      e.at = at;
      e.kind = FaultKind::kPinPressure;
      e.label = label("pressure");
      e.pvdma = static_cast<std::uint32_t>(rng.below(cfg.pvdmas));
      e.duration = random_in(rng, SimTime::micros(20), SimTime::micros(200));
      plan.events.push_back(e);
    } else if (pick == 8 && cfg.controls > 0) {
      FaultEvent e;
      e.at = std::max(at, hard_free);
      e.kind = FaultKind::kBackendRestart;
      e.label = label("restart");
      e.control = static_cast<std::uint32_t>(rng.below(cfg.controls));
      e.duration = outage;
      hard_free = e.at + outage + SimTime::micros(20);
      plan.events.push_back(e);
    } else if (pick == 9 && cfg.controls > 0) {
      FaultEvent e;
      e.at = std::max(at, hard_free);
      e.kind = FaultKind::kLiveMigrate;
      e.label = label("migrate");
      e.control = static_cast<std::uint32_t>(rng.below(cfg.controls));
      e.duration = outage;
      hard_free = e.at + outage + SimTime::micros(20);
      plan.events.push_back(e);
    } else {
      // Target class unavailable: fall back to a soft degrade so the draw
      // still advances deterministically.
      FaultEvent e;
      e.at = at;
      e.kind = FaultKind::kDegrade;
      e.label = label("degrade");
      e.link = random_link(rng, fabric);
      e.duration = random_in(rng, SimTime::micros(50), SimTime::micros(300));
      e.degrade_loss = 0.2 * rng.uniform();
      e.degrade_latency = random_in(rng, SimTime::zero(), SimTime::micros(1));
      plan.events.push_back(e);
    }
  }

  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

}  // namespace stellar
