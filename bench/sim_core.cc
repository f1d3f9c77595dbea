// Event-engine core microbenchmark.
//
// Exercises the Simulator hot path directly — no network model in the way —
// against a faithful in-bench copy of the pre-wheel scheduler (binary-heap
// priority_queue + tombstone/pending unordered_sets + std::function
// actions), so the wheel-vs-heap speedup is measured inside one binary on
// identical workloads:
//
//   schedule_fire   self-rescheduling hold model, short deltas (the mix the
//                   >=3x acceptance bar is measured on)
//   cancel_heavy    2 of every 3 scheduled events cancelled before firing
//   far_future      ~5% of deltas beyond the wheel horizon (overflow heap)
//   spray_3tier     real 3-tier Clos permutation run (wheel engine only)
//
// Emits BENCH_sim_core.json with events, wall seconds, and events/sec per
// (mix, scheduler) row plus the wheel/heap speedup. An optional argv[1]
// scales iteration counts (tools/ci_checks.sh passes 0.05 as a smoke run);
// the >=3x bar is only enforced at full scale.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "check/check.h"
#include "collective/fleet.h"
#include "sim/simulator.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

// -- Legacy scheduler (reference) ---------------------------------------------
//
// Byte-for-byte the algorithm the Simulator used before the timing wheel:
// one heap entry per event carrying a std::function, O(log n) push/pop,
// and two hash sets (pending ids, cancel tombstones) touched per event.

class LegacyScheduler {
 public:
  using Action = std::function<void()>;
  struct Handle {
    std::uint64_t id = 0;
  };

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime at, Action action) {
    const std::uint64_t id = next_id_++;
    queue_.push(Event{at, next_seq_++, id, std::move(action)});
    pending_ids_.insert(id);
    ++live_events_;
    return Handle{id};
  }
  Handle schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(Handle handle) {
    auto it = pending_ids_.find(handle.id);
    if (it == pending_ids_.end()) return false;
    pending_ids_.erase(it);
    cancelled_.insert(handle.id);
    --live_events_;
    return true;
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (!queue_.empty()) {
      Event& top = const_cast<Event&>(queue_.top());
      if (auto it = cancelled_.find(top.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        queue_.pop();
        continue;
      }
      Event ev = std::move(top);
      queue_.pop();
      pending_ids_.erase(ev.id);
      now_ = ev.at;
      --live_events_;
      ++executed_;
      ++n;
      ev.action();
    }
    return n;
  }

  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    Action action;
    bool operator>(const Event& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::unordered_set<std::uint64_t> pending_ids_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t live_events_ = 0;
  std::uint64_t executed_ = 0;
};

// -- Synthetic mixes ----------------------------------------------------------

constexpr std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

enum class Mix { kScheduleFire, kCancelHeavy, kFarFuture };

/// Per-mix delta distribution. schedule_fire/cancel_heavy stay within the
/// level-0 wheel (1 ns .. ~32 us, the link/transport event scale);
/// far_future sends ~15% of deltas to the outer wheel and ~5% beyond the
/// ~137 ms horizon into the overflow heap.
SimTime delta_for(Mix mix, std::uint64_t r) {
  if (mix == Mix::kFarFuture) {
    const std::uint64_t pick = (r >> 32) % 100;
    if (pick >= 95) return SimTime::millis(200 + (r >> 40) % 800);  // heap
    if (pick >= 80) return SimTime::micros(100 + (r >> 40) % 900);  // L1
  }
  return SimTime::nanos(1 + (r >> 33) % 32000);  // L0
}

/// One self-rescheduling actor: fires `rounds` times, each firing drawing
/// the next delta from a private LCG stream. cancel_heavy additionally
/// schedules two victim events per firing and cancels both immediately
/// (2/3 of all scheduled events die before running). The 8-byte capture
/// keeps the hot closure inside InlineAction's buffer.
template <class Engine>
struct Actor {
  Engine* eng = nullptr;
  std::uint64_t rng = 0;
  std::uint32_t rounds_left = 0;
  Mix mix = Mix::kScheduleFire;
  std::uint64_t victims_fired = 0;  // stays 0: victims die before firing

  void fire() {
    if (rounds_left == 0) return;
    --rounds_left;
    rng = lcg(rng);
    if (mix == Mix::kCancelHeavy) {
      Actor* self = this;
      auto v1 = eng->schedule_after(delta_for(mix, lcg(rng ^ 1)),
                                    [self] { ++self->victims_fired; });
      auto v2 = eng->schedule_after(delta_for(mix, lcg(rng ^ 2)),
                                    [self] { ++self->victims_fired; });
      eng->cancel(v1);
      eng->cancel(v2);
    }
    Actor* self = this;
    eng->schedule_after(delta_for(mix, rng), [self] { self->fire(); });
  }
};

struct MixResult {
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::int64_t final_ps = 0;  // cross-engine determinism check
};

template <class Engine>
MixResult run_mix(Mix mix, std::size_t actors, std::uint32_t rounds) {
  Engine eng;
  std::vector<Actor<Engine>> pool(actors);
  // stellar-lint: allow(wall-clock) host-side wall timing of the run
  // itself (events/sec); never feeds simulation state.
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < actors; ++i) {
    pool[i] = {&eng, lcg(i + 1), rounds, mix, 0};
    Actor<Engine>* self = &pool[i];
    eng.schedule_after(delta_for(mix, pool[i].rng), [self] { self->fire(); });
  }
  eng.run();
  // stellar-lint: allow(wall-clock) host-side wall timing (see t0).
  const auto t1 = std::chrono::steady_clock::now();
  MixResult out;
  out.events = eng.executed_events();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events_per_sec =
      out.wall_s > 0 ? static_cast<double>(out.events) / out.wall_s : 0;
  out.final_ps = eng.now().ps();
  if constexpr (std::is_same_v<Engine, Simulator>) engine_meter().add(eng);
  for (const auto& a : pool) {
    STELLAR_CHECK(a.victims_fired == 0 && a.rounds_left == 0,
                  "sim_core actor finished dirty (victims=%llu rounds=%u)",
                  static_cast<unsigned long long>(a.victims_fired),
                  a.rounds_left);
  }
  return out;
}

/// Real-workload leg: permutation traffic across a small 3-tier Clos
/// (ToR -> agg -> plane), 16 spray paths per connection — the event
/// pattern of the fig09/fig15 benches, measured as raw engine throughput.
MixResult run_spray_3tier(double scale) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 4;
  fc.hosts_per_segment = 2;
  fc.rails = 1;
  fc.planes = 2;
  fc.aggs_per_plane = 4;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 16;

  // stellar-lint: allow(wall-clock) host-side wall timing of the run
  // itself (events/sec); never feeds simulation state.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RdmaConnection*> conns;
  for (std::uint16_t s = 0; s < fc.segments; ++s) {
    for (std::uint16_t h = 0; h < fc.hosts_per_segment; ++h) {
      const EndpointId src = fabric.endpoint(s, h, 0, 0);
      const EndpointId dst =
          fabric.endpoint((s + 1) % fc.segments, h, 0, 0);
      conns.push_back(fleet.connect(src, dst, t).value());
    }
  }
  for (auto* c : conns) {
    auto repost = std::make_shared<std::function<void()>>();
    *repost = [c, repost] { c->post_write(256_KiB, *repost); };
    c->post_write(256_KiB, *repost);
  }
  sim.run_until(SimTime::micros(
      static_cast<std::int64_t>(2000 * scale < 50 ? 50 : 2000 * scale)));
  // stellar-lint: allow(wall-clock) host-side wall timing (see t0).
  const auto t1 = std::chrono::steady_clock::now();

  MixResult out;
  out.events = sim.executed_events();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events_per_sec =
      out.wall_s > 0 ? static_cast<double>(out.events) / out.wall_s : 0;
  out.final_ps = sim.now().ps();
  engine_meter().add(sim);
  return out;
}

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kScheduleFire: return "schedule_fire";
    case Mix::kCancelHeavy: return "cancel_heavy";
    case Mix::kFarFuture: return "far_future";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  engine_meter();
  print_header(
      "sim_core - event-engine hot path: timing wheel vs legacy binary heap\n"
      "mixes: self-rescheduling hold model; >50% cancels; overflow deltas;\n"
      "plus a real 3-tier Clos spray run (wheel engine only)");
  print_row({"mix", "scheduler", "events", "wall s", "M events/s", "speedup"});

  JsonResult json("sim_core");
  // 64k self-rescheduling actors = 64k concurrent pending events, the
  // pending-set size of a production-scale fabric sim (fig15/16 training
  // runs). This is where the engines diverge hardest: the wheel's working
  // set stays flat while the old heap's sift paths and tombstone/pending
  // hash sets fall out of cache (2.0x at 4k pending -> ~5x at 64k).
  const std::size_t actors = 65536;
  const auto rounds = [&](std::uint32_t full) {
    const double r = full * scale;
    return static_cast<std::uint32_t>(r < 4 ? 4 : r);
  };

  double schedule_fire_speedup = 0;
  const struct {
    Mix mix;
    std::uint32_t full_rounds;
  } mixes[] = {
      {Mix::kScheduleFire, 62},
      {Mix::kCancelHeavy, 24},
      {Mix::kFarFuture, 37},
  };
  for (const auto& m : mixes) {
    const std::uint32_t r = rounds(m.full_rounds);
    const MixResult wheel = run_mix<Simulator>(m.mix, actors, r);
    const MixResult heap = run_mix<LegacyScheduler>(m.mix, actors, r);
    STELLAR_CHECK(wheel.events == heap.events &&
                      wheel.final_ps == heap.final_ps,
                  "engines diverged on %s: %llu ev @ %lld ps vs %llu ev @ "
                  "%lld ps",
                  mix_name(m.mix),
                  static_cast<unsigned long long>(wheel.events),
                  static_cast<long long>(wheel.final_ps),
                  static_cast<unsigned long long>(heap.events),
                  static_cast<long long>(heap.final_ps));
    const double speedup = heap.events_per_sec > 0
                               ? wheel.events_per_sec / heap.events_per_sec
                               : 0;
    if (m.mix == Mix::kScheduleFire) schedule_fire_speedup = speedup;
    print_row({mix_name(m.mix), "wheel", std::to_string(wheel.events),
               fmt(wheel.wall_s, 3), fmt(wheel.events_per_sec / 1e6, 2),
               fmt(speedup, 2) + "x"});
    print_row({"", "legacy_heap", std::to_string(heap.events),
               fmt(heap.wall_s, 3), fmt(heap.events_per_sec / 1e6, 2), "-"});
    json.add_row({{"mix", jstr(mix_name(m.mix))},
                  {"scheduler", jstr("wheel")},
                  {"events", jint(static_cast<long long>(wheel.events))},
                  {"wall_s", jnum(wheel.wall_s, 4)},
                  {"events_per_sec", jnum(wheel.events_per_sec, 0)},
                  {"speedup_vs_heap", jnum(speedup, 2)}});
    json.add_row({{"mix", jstr(mix_name(m.mix))},
                  {"scheduler", jstr("legacy_heap")},
                  {"events", jint(static_cast<long long>(heap.events))},
                  {"wall_s", jnum(heap.wall_s, 4)},
                  {"events_per_sec", jnum(heap.events_per_sec, 0)}});
  }

  const MixResult spray = run_spray_3tier(scale);
  print_row({"spray_3tier", "wheel", std::to_string(spray.events),
             fmt(spray.wall_s, 3), fmt(spray.events_per_sec / 1e6, 2), "-"});
  json.add_row({{"mix", jstr("spray_3tier")},
                {"scheduler", jstr("wheel")},
                {"events", jint(static_cast<long long>(spray.events))},
                {"wall_s", jnum(spray.wall_s, 4)},
                {"events_per_sec", jnum(spray.events_per_sec, 0)}});

  json.write();
  engine_meter().report();

  if (scale >= 1.0 && schedule_fire_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: schedule_fire wheel speedup %.2fx < 3.0x bar\n",
                 schedule_fire_speedup);
    return 1;
  }
  if (scale < 1.0 && schedule_fire_speedup < 3.0) {
    std::fprintf(stderr,
                 "warning: smoke-scale speedup %.2fx below 3.0x bar "
                 "(not enforced at scale %.2f)\n",
                 schedule_fire_speedup, scale);
  }
  return 0;
}
