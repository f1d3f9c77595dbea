// Benchmark driver: runs one workload of the repository benchmark for a
// host-time budget and prints one JSON line with the workload's simulated
// outputs, per-pass host timings and per-layer counts. perf/run.py builds
// this binary, runs it once per workload and turns that line into metrics.
//
// Rules this file keeps (perf/README.md has the reasons):
//  * It reaches the simulator only through public headers of src/ and
//    includes nothing from bench/, nor sim/parallel.h, sim/spsc.h,
//    net/fabric_partition.h or core/run_shard.h.
//  * One process, one thread. Every call into a layer is timed from outside
//    with steady_clock spans; nothing inside src/ is instrumented for it.
//  * A pass is a fixed amount of simulated work built from --seed. Each pass
//    rebuilds every object from scratch, so all passes of one process must
//    produce identical simulated outputs and counts.
//
// Usage:
//   perf_driver --workload NAME [--seed N] [--seconds S] [--trace-dir DIR]
// A pass always runs to its end, and a new one starts only if it is likely
// to end within --seconds, so a tiny --seconds runs exactly one pass.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collective/allreduce.h"
#include "collective/fleet.h"
#include "collective/traffic.h"
#include "common/rng.h"
#include "core/stellar.h"
#include "fault/fault.h"
#include "net/fabric.h"
#include "obs/obs.h"
#include "rnic/gdr.h"
#include "rnic/transport.h"
#include "sim/hybrid.h"
#include "sim/simulator.h"

using namespace stellar;

namespace {

// ---------------------------------------------------------------------------
// Host-time spans around the driver's calls into each layer
// ---------------------------------------------------------------------------

enum class Layer : int {
  kDriver,
  kSim,
  kNet,
  kRnic,
  kHybrid,
  kCollective,
  kFault,
  kCore,
  kVirt,
  kMemory,
  kGdr,
  kCount,
};
constexpr int kLayers = static_cast<int>(Layer::kCount);
constexpr const char* kLayerNames[kLayers] = {
    "driver", "sim",  "net",  "rnic",   "hybrid", "collective",
    "fault",  "core", "virt", "memory", "gdr"};

using Ns = std::int64_t;

Ns host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records (layer, name, start, end, parent) for every timed call and keeps
/// per-layer self time: a span's duration minus what its child spans cover.
/// Set-up spans (building fabrics, hosts, connections, ...) are summed
/// separately so run time can exclude them.
class SpanLog {
 public:
  struct Span {
    Layer layer;
    const char* name;
    Ns start;
    Ns end;
    int parent;  // index of the enclosing span, -1 at top level
  };

  /// Start a pass: zero the per-pass accumulators. Spans are kept in memory
  /// only while `record` is set (the first pass), so memory stays bounded.
  void begin_pass(bool record) {
    for (Ns& v : self_) v = 0;
    setup_ = 0;
    record_ = record;
  }

  /// Time `fn` as a call into `layer`; returns its duration.
  template <typename Fn>
  Ns call(Layer layer, const char* name, Fn&& fn) {
    return timed(layer, name, /*setup=*/false, fn);
  }
  /// Same, counted as benchmark set-up.
  template <typename Fn>
  Ns setup(Layer layer, const char* name, Fn&& fn) {
    return timed(layer, name, /*setup=*/true, fn);
  }

  Ns self(Layer layer) const { return self_[static_cast<int>(layer)]; }
  Ns setup_total() const { return setup_; }

  /// Chrome trace-event JSON of the recorded spans (one track per layer,
  /// microsecond timestamps relative to the first span).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const Ns base = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (int l = 0; l < kLayers; ++l) {
      std::fprintf(f,
                   "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %d, \"args\": {\"name\": \"%s\"}},\n",
                   l, kLayerNames[l]);
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %d}}%s\n",
                   s.name, kLayerNames[static_cast<int>(s.layer)],
                   static_cast<int>(s.layer),
                   static_cast<double>(s.start - base) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer;
    Ns start;
    Ns children;
    int index;  // recorded span index, or -1
  };

  template <typename Fn>
  Ns timed(Layer layer, const char* name, bool is_setup, Fn& fn) {
    int index = -1;
    if (record_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(Span{layer, name, 0, 0,
                            open_.empty() ? -1 : open_.back().index});
    }
    open_.push_back(Open{layer, host_now_ns(), 0, index});
    fn();
    const Ns end = host_now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const Ns dur = end - o.start;
    self_[static_cast<int>(layer)] += dur - o.children;
    if (!open_.empty()) open_.back().children += dur;
    if (is_setup) setup_ += dur;
    if (index >= 0) {
      spans_[static_cast<std::size_t>(index)].start = o.start;
      spans_[static_cast<std::size_t>(index)].end = end;
    }
    return dur;
  }

  Ns self_[kLayers] = {};
  Ns setup_ = 0;
  bool record_ = false;
  std::vector<Open> open_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Per-pass results
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}
std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}
std::string integer(std::uint64_t v) { return std::to_string(v); }
std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// Simulated outputs of one pass, compared against the goldens: named
/// entries (one per sweep run or translation phase), each an ordered list
/// of (key, JSON value).
struct Outputs {
  using Fields = std::vector<std::pair<std::string, std::string>>;
  std::vector<std::pair<std::string, Fields>> entries;

  void add(std::string name, Fields fields) {
    entries.emplace_back(std::move(name), std::move(fields));
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(entries[i].first) + ": {";
      const Fields& f = entries[i].second;
      for (std::size_t k = 0; k < f.size(); ++k) {
        if (k > 0) out += ", ";
        out += quoted(f[k].first) + ": " + f[k].second;
      }
      out += "}";
    }
    return out + "}";
  }
};

/// Host-time distributions, reported as p50/p99 with their sample count.
const char* const kSampleMetrics[] = {
    "virt.register_us", "virt.deregister_us", "gdr.emtt_write_us",
    "gdr.ats_transfer_us"};

struct Pass {
  Outputs outputs;
  std::map<std::string, double> counts;
  std::map<std::string, double> host;
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void violation(std::string what) { violations.push_back(std::move(what)); }
};

/// Everything a workload needs while it runs one pass.
struct Ctx {
  std::uint64_t seed = 1;
  SpanLog log;
  Pass pass;
  obs::ObsHub* hub = nullptr;  // traced builds only
  // Host time of run_until slices that started with every region fluid.
  Ns fluid_ns = 0;
};

/// Advance `sim` to `until` in `slice`-long timed calls into the sim layer.
/// A slice that starts with every region of `hybrid` fluid counts as fluid
/// host time. Stops early once `stop` returns true.
void run_slices(Ctx& c, Simulator& sim, SimTime slice, SimTime until,
                const HybridDriver* hybrid,
                const std::function<bool()>& stop = [] { return false; }) {
  while (sim.now() < until && !stop()) {
    bool fluid = hybrid != nullptr;
    if (hybrid != nullptr) {
      for (std::uint32_t r = 0; r < hybrid->region_count(); ++r) {
        fluid = fluid && hybrid->region_mode(r) == RegionMode::kFluid;
      }
    }
    const SimTime deadline = std::min(sim.now() + slice, until);
    const Ns ns = c.log.call(Layer::kSim, "run_until",
                             [&] { sim.run_until(deadline); });
    if (fluid) c.fluid_ns += ns;
    double& pending = c.pass.counts["sim.pending_max"];
    pending = std::max(pending, static_cast<double>(sim.pending_events()));
  }
}

/// Fold one finished simulation's engine, fabric, transport and hybrid
/// counters into the pass counts.
void add_sim_counts(Ctx& c, Simulator& sim, ClosFabric& fabric,
                    EngineFleet& fleet, const HybridDriver* hybrid) {
  auto& k = c.pass.counts;
  k["sim.events"] += static_cast<double>(sim.executed_events());
  k["sim.pool_capacity"] =
      std::max(k["sim.pool_capacity"],
               static_cast<double>(sim.heap_stats().pool_capacity));
  double max_queue = k["net.max_queue_kib"];
  for (const NetLink* l : fabric.all_links()) {
    k["net.link_packets"] += static_cast<double>(l->packets_sent());
    k["net.drops"] += static_cast<double>(l->tail_drops() + l->random_drops() +
                                          l->down_drops() +
                                          l->voided_packets());
    max_queue =
        std::max(max_queue, static_cast<double>(l->max_queue_bytes()) / 1024);
  }
  k["net.max_queue_kib"] = max_queue;
  k["net.delivered_packets"] += static_cast<double>(fabric.delivered_packets());
  // EngineFleet keeps engines in a hash map; the sums below do not depend
  // on visiting order.
  fleet.for_each_engine([&](RdmaEngine& e) {
    k["rnic.rx_ooo_packets"] += static_cast<double>(e.rx_out_of_order_packets());
    k["rnic.rx_duplicates"] += static_cast<double>(e.rx_duplicate_packets());
    for (const auto& conn : e.connections()) {
      k["rnic.packets_sent"] += static_cast<double>(conn->packets_sent());
      k["rnic.messages_completed"] +=
          static_cast<double>(conn->completed_messages());
      k["rnic.retransmits"] += static_cast<double>(conn->retransmits());
      k["rnic.timeouts"] += static_cast<double>(conn->timeouts());
      k["rnic.probes_sent"] += static_cast<double>(conn->probes_sent());
      k["rnic.paths_reinstated"] +=
          static_cast<double>(conn->paths_reinstated());
    }
  });
  if (hybrid != nullptr) {
    k["hybrid.fluid_completions"] +=
        static_cast<double>(hybrid->fluid_completions());
    k["hybrid.fluid_bytes"] += static_cast<double>(hybrid->fluid_bytes_served());
    k["hybrid.transitions"] += static_cast<double>(hybrid->transitions());
    k["hybrid.absorbed_packets"] +=
        static_cast<double>(hybrid->absorbed_packets());
    // Summed per run here; turned into a share of region-time at pass end.
    k["hybrid.fluid_ps"] += static_cast<double>(hybrid->fluid_time().ps());
    k["hybrid.region_ps"] += static_cast<double>(
        sim.now().ps() * static_cast<std::int64_t>(hybrid->region_count()));
  }
}

// ---------------------------------------------------------------------------
// Workload: permutation_packet
// ---------------------------------------------------------------------------
//
// Figure 9's fabric (2 segments x 16 hosts, 16 aggregation switches, 200G
// everywhere) at packet fidelity, loaded by Figure 9's PermutationTraffic:
// one generator per segment streams 1 MiB RDMA WRITEs, closed loop, from
// its hosts to a seeded permutation of the other segment's hosts, so every
// flow crosses the aggregation layer. A run warms up for kPermWarmup and
// then measures the bytes completed in a kPermWindow window. Six runs per
// pass: {SinglePath, RoundRobin, OBS} x {4, 128} paths, each with its own
// pairing.

constexpr std::uint32_t kPermHosts = 16;
constexpr SimTime kPermSlice = SimTime::micros(25);
constexpr SimTime kPermWarmup = SimTime::micros(200);
constexpr SimTime kPermWindow = SimTime::micros(400);

struct PermSpec {
  MultipathAlgo algo;
  std::uint16_t paths;
};

void permutation_run(Ctx& c, PermSpec spec, std::uint64_t seed) {
  Simulator sim;
  if (c.hub != nullptr) c.hub->set_clock(&sim);
  std::unique_ptr<ClosFabric> fabric;
  c.log.setup(Layer::kNet, "build_fabric", [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = kPermHosts;
    fc.rails = 1;
    fc.planes = 1;
    fc.aggs_per_plane = 16;
    fc.fabric_link.bandwidth = Bandwidth::gbps(200);
    fabric = std::make_unique<ClosFabric>(sim, fc);
  });
  EngineFleet fleet(sim, *fabric);
  std::vector<EndpointId> segment[2];
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < kPermHosts; ++h) {
      segment[s].push_back(fabric->endpoint(s, h, 0, 0));
    }
  }

  // The generators' constructors open every connection.
  std::vector<std::unique_ptr<PermutationTraffic>> traffic;
  std::string error;
  c.log.setup(Layer::kRnic, "connect", [&] {
    PermutationConfig pc;
    pc.message_bytes = 1_MiB;
    pc.transport.algo = spec.algo;
    pc.transport.num_paths = spec.paths;
    try {
      for (std::uint32_t s = 0; s < 2; ++s) {
        pc.seed = hash_combine(seed, s);
        traffic.push_back(std::make_unique<PermutationTraffic>(
            fleet, segment[s], segment[1 - s], pc));
      }
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
  });

  auto completed = [&] {
    std::uint64_t bytes = 0;
    for (const auto& t : traffic) bytes += t->completed_bytes();
    return bytes;
  };
  std::uint64_t delivered = 0;
  if (error.empty()) {
    for (const auto& t : traffic) t->start();
    run_slices(c, sim, kPermSlice, kPermWarmup, nullptr);
    const std::uint64_t before = completed();
    run_slices(c, sim, kPermSlice, kPermWarmup + kPermWindow, nullptr);
    delivered = completed() - before;
    for (const auto& t : traffic) t->stop();
  }

  std::uint64_t retx = 0;
  for (const auto& t : traffic) {
    retx += t->total_retransmits();
    if (error.empty() && !t->status().is_ok()) error = t->status().to_string();
  }
  double mean_sum = 0;
  double max_q = 0;
  const std::vector<NetLink*> uplinks = fabric->all_tor_uplinks();
  for (const NetLink* l : uplinks) {
    mean_sum += l->mean_queue_bytes();
    max_q = std::max(max_q, static_cast<double>(l->max_queue_bytes()));
  }
  add_sim_counts(c, sim, *fabric, fleet, nullptr);
  if (c.hub != nullptr) c.hub->set_clock(nullptr);

  ++c.pass.ops;
  const bool ok = error.empty() && delivered > 0;
  if (!ok) {
    ++c.pass.failed;
    c.pass.violation("permutation run failed or moved nothing: " + error);
  }
  c.pass.outputs.add(
      std::string(multipath_algo_name(spec.algo)) + "/" +
          std::to_string(spec.paths),
      {{"window_bytes", integer(delivered)},
       {"mean_queue_kib",
        fixed(mean_sum / static_cast<double>(uplinks.size()) / 1024, 3)},
       {"max_queue_kib", fixed(max_q / 1024, 3)},
       {"retransmits", integer(retx)},
       {"status", quoted(ok ? "OK" : "ERROR")}});
}

void permutation_packet(Ctx& c) {
  std::uint64_t run = 0;
  for (std::uint16_t paths : {std::uint16_t{4}, std::uint16_t{128}}) {
    for (MultipathAlgo algo : {MultipathAlgo::kSinglePath,
                               MultipathAlgo::kRoundRobin, MultipathAlgo::kObs}) {
      const std::uint64_t seed = hash_combine(c.seed, 0x9e09 + run++);
      c.log.call(Layer::kDriver, "run", [&] {
        permutation_run(c, PermSpec{algo, paths}, seed);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Workload: allreduce_hybrid
// ---------------------------------------------------------------------------
//
// Figure 15/16's training fabric at 256 endpoints (2 segments x 128 hosts,
// 16 aggregation switches) with the hybrid fidelity driver attached. Two
// 128-rank rings: ring A runs one 32 MiB AllReduce while ring B loops
// AllReduces back to back. Four runs per pass: {reranked, random} placement
// x {OBS/128, SinglePath/128}; the reranked runs spend 5 us at packet
// fidelity. The placements are Figure 15/16's formulas over host indices;
// in the OBS runs the seed relabels the hosts inside each segment. Every
// host of a segment sits under the same ToR, so a placement keeps its shape
// and its cross-segment hops, but the connections' ids, and with them the
// paths their packets spray over, change with the seed. The SinglePath runs
// keep their labels: there a relabeling decides which flows hash onto the
// same aggregation switch, and that alone moves the pass's host time by up
// to 20 % (random placement) or fourfold (reranked, whose zoomed region
// then stays congested and never promotes back to fluid).

constexpr std::uint32_t kHybridHosts = 128;
constexpr SimTime kHybridSlice = SimTime::micros(250);
constexpr SimTime kHybridDeadline = SimTime::millis(200);

struct HybridSpec {
  bool reranked;
  MultipathAlgo algo;
};

/// host_label[segment][i]: the host that plays host i of the placement.
using HostLabels = std::vector<std::vector<std::uint32_t>>;

void hybrid_run(Ctx& c, HybridSpec spec, const HostLabels& host_label) {
  Simulator sim;
  if (c.hub != nullptr) c.hub->set_clock(&sim);
  std::unique_ptr<ClosFabric> fabric;
  c.log.setup(Layer::kNet, "build_fabric", [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = kHybridHosts;
    fc.rails = 1;
    fc.planes = 1;
    fc.aggs_per_plane = 16;
    fc.fabric_link.bandwidth = Bandwidth::gbps(200);
    fabric = std::make_unique<ClosFabric>(sim, fc);
  });
  // The driver must exist before any engine is built on the fabric.
  std::unique_ptr<HybridDriver> hybrid;
  c.log.setup(Layer::kHybrid, "build_driver", [&] {
    hybrid = std::make_unique<HybridDriver>(sim, *fabric);
  });
  EngineFleet fleet(sim, *fabric);
  // Reranked runs zoom to packet fidelity for 5 us and promote back, so the
  // freeze/thaw path runs too. Random placements stay fluid: their
  // congested regions would never turn quiet enough to promote back.
  if (spec.reranked) {
    hybrid->request_zoom_window(SimTime::micros(500), SimTime::micros(505));
  }

  // Reranked: each ring keeps its halves inside one segment, so only two
  // hops cross the aggregation layer. Random: ranks alternate segments, so
  // every hop crosses it.
  constexpr std::uint32_t ring = kHybridHosts;
  auto ring_ranks = [&](std::uint32_t base) {
    std::vector<EndpointId> out;
    for (std::uint32_t i = 0; i < ring; ++i) {
      const std::uint32_t seg = spec.reranked ? i / (ring / 2) : i % 2;
      const std::uint32_t host =
          spec.reranked ? (base * (ring / 2) + i % (ring / 2)) % kHybridHosts
                        : (base * (ring / 4) + i / 2) % kHybridHosts;
      out.push_back(fabric->endpoint(seg, host_label[seg][host], 0, 0));
    }
    return out;
  };
  AllReduceConfig cfg;
  cfg.data_bytes = 32_MiB;
  cfg.transport.algo = spec.algo;
  cfg.transport.num_paths = 128;
  std::unique_ptr<RingAllReduce> ring_a;
  std::unique_ptr<RingAllReduce> ring_b;
  c.log.setup(Layer::kCollective, "build_rings", [&] {
    ring_a = std::make_unique<RingAllReduce>(fleet, ring_ranks(0), cfg);
    ring_b = std::make_unique<RingAllReduce>(fleet, ring_ranks(1), cfg);
  });

  std::function<void()> loop_b = [&] { ring_b->start(loop_b); };
  ring_b->start(loop_b);
  bool done = false;
  ring_a->start([&done] { done = true; });
  run_slices(c, sim, kHybridSlice, kHybridDeadline, hybrid.get(),
             [&done] { return done; });
  add_sim_counts(c, sim, *fabric, fleet, hybrid.get());
  const bool ok = done && ring_a->status().is_ok();
  c.pass.counts["collective.allreduces"] += ok ? 1 : 0;
  if (c.hub != nullptr) c.hub->set_clock(nullptr);

  ++c.pass.ops;
  if (!ok) {
    ++c.pass.failed;
    c.pass.violation("hybrid run stalled or failed: " +
                     ring_a->status().to_string());
  }
  c.pass.outputs.add(
      std::string(spec.reranked ? "reranked/" : "random/") +
          multipath_algo_name(spec.algo),
      {{"bus_gbps", fixed(ok ? ring_a->bus_bandwidth_gbps() : 0.0, 6)},
       {"status", quoted(ok ? "OK" : "ERROR")}});
}

void allreduce_hybrid(Ctx& c) {
  HostLabels identity(2, std::vector<std::uint32_t>(kHybridHosts));
  for (std::vector<std::uint32_t>& label : identity) {
    for (std::uint32_t h = 0; h < kHybridHosts; ++h) label[h] = h;
  }
  HostLabels seeded = identity;
  Rng rng(hash_combine(c.seed, 0x1516));
  for (std::vector<std::uint32_t>& label : seeded) {
    for (std::size_t i = kHybridHosts; i > 1; --i) {
      std::swap(label[i - 1], label[rng.below(i)]);
    }
  }
  for (bool reranked : {true, false}) {
    for (MultipathAlgo algo : {MultipathAlgo::kObs, MultipathAlgo::kSinglePath}) {
      c.log.call(Layer::kDriver, "run", [&] {
        hybrid_run(c, HybridSpec{reranked, algo},
                   algo == MultipathAlgo::kObs ? seeded : identity);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Workload: allreduce_faults
// ---------------------------------------------------------------------------
//
// Figure 11b's fabric (2 segments x 8 hosts, 32 aggregation switches) and
// its 16-rank cross-segment ring running one 16 MiB AllReduce (~1.3 ms
// fault-free) under a seeded fault plan every run survives: a 3% loss
// window on one ToR uplink, three flaps of another, and one aggregation
// switch down from 0.25 ms to 1.25 ms. Four runs per pass: {OBS/128, RR/128,
// OBS/4, SinglePath/128}. The seed picks the three switches, the uplinks'
// segments, and the loss and flap windows; the work per run stays close to
// fixed because the AllReduce moves the same bytes whatever the plan.

constexpr SimTime kFaultSlice = SimTime::micros(250);
constexpr SimTime kFaultDeadline = SimTime::millis(100);
constexpr std::uint32_t kFaultAggs = 32;

struct FaultSpec {
  MultipathAlgo algo;
  std::uint16_t paths;
};

FaultPlan fault_plan(std::uint64_t seed) {
  Rng rng(hash_combine(seed, 0x11b));
  auto us = [&](std::int64_t lo, std::int64_t hi) {
    return SimTime::micros(lo + static_cast<std::int64_t>(rng.below(
                                    static_cast<std::uint64_t>(hi - lo + 1))));
  };
  // Three distinct aggregation switches: loss, flap, and the one that dies.
  std::uint32_t aggs[3];
  for (int i = 0; i < 3; ++i) {
    bool fresh = false;
    while (!fresh) {
      aggs[i] = static_cast<std::uint32_t>(rng.below(kFaultAggs));
      fresh = true;
      for (int j = 0; j < i; ++j) fresh = fresh && aggs[j] != aggs[i];
    }
  }
  FaultPlan plan;
  plan.seed = seed;
  FaultEvent loss;
  loss.at = us(100, 300);
  loss.kind = FaultKind::kDegrade;
  loss.label = "loss";
  loss.link = {LinkLayer::kTorUp, static_cast<std::uint32_t>(rng.below(2)), 0,
               0, aggs[0]};
  loss.duration = us(500, 1000);
  loss.degrade_loss = 0.03;
  plan.events.push_back(loss);
  FaultEvent flap;
  flap.at = us(100, 600);
  flap.kind = FaultKind::kLinkFlap;
  flap.label = "flap";
  flap.link = {LinkLayer::kTorUp, static_cast<std::uint32_t>(rng.below(2)), 0,
               0, aggs[1]};
  flap.duration = SimTime::micros(100);
  flap.flaps = 3;
  flap.flap_period = SimTime::micros(400);
  plan.events.push_back(flap);
  FaultEvent down;
  down.at = SimTime::micros(250);
  down.kind = FaultKind::kSwitchDown;
  down.label = "agg";
  down.sw.agg = aggs[2];
  plan.events.push_back(down);
  FaultEvent up = down;
  up.at = SimTime::micros(1250);
  up.kind = FaultKind::kSwitchUp;
  plan.events.push_back(up);
  return plan;
}

void faults_run(Ctx& c, FaultSpec spec, const FaultPlan& plan) {
  Simulator sim;
  if (c.hub != nullptr) c.hub->set_clock(&sim);
  std::unique_ptr<ClosFabric> fabric;
  c.log.setup(Layer::kNet, "build_fabric", [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = 8;
    fc.rails = 1;
    fc.planes = 1;
    fc.aggs_per_plane = kFaultAggs;
    fabric = std::make_unique<ClosFabric>(sim, fc);
  });
  EngineFleet fleet(sim, *fabric);
  std::vector<EndpointId> ranks;
  for (std::uint32_t i = 0; i < 16; ++i) {
    ranks.push_back(fabric->endpoint(i % 2, i / 2, 0, 0));
  }
  AllReduceConfig cfg;
  cfg.data_bytes = 16_MiB;
  cfg.transport.algo = spec.algo;
  cfg.transport.num_paths = spec.paths;
  cfg.transport.max_retries = 32;
  // Probe blacklisted paths within the run, not after it.
  cfg.transport.blacklist_hold = SimTime::micros(300);
  cfg.transport.probe_interval = SimTime::micros(200);
  std::unique_ptr<RingAllReduce> ar;
  c.log.setup(Layer::kCollective, "build_ring", [&] {
    ar = std::make_unique<RingAllReduce>(fleet, ranks, cfg);
  });
  FaultInjector injector(sim, *fabric);
  Status armed;
  c.log.setup(Layer::kFault, "arm", [&] { armed = injector.arm(plan); });

  bool done = false;
  if (armed.is_ok()) {
    ar->start([&done] { done = true; });
    run_slices(c, sim, kFaultSlice, kFaultDeadline, nullptr,
               [&done] { return done; });
  }
  add_sim_counts(c, sim, *fabric, fleet, nullptr);
  const bool ok = done && ar->status().is_ok();
  c.pass.counts["collective.allreduces"] += ok ? 1 : 0;
  c.pass.counts["fault.injected"] +=
      static_cast<double>(injector.events_executed());
  if (c.hub != nullptr) c.hub->set_clock(nullptr);

  ++c.pass.ops;
  if (!ok) {
    ++c.pass.failed;
    c.pass.violation("fault run stalled or failed: " +
                     (armed.is_ok() ? ar->status() : armed).to_string());
  }
  c.pass.outputs.add(
      std::string(multipath_algo_name(spec.algo)) + "/" +
          std::to_string(spec.paths),
      {{"allreduce_ps",
        integer(static_cast<std::uint64_t>(ar->last_duration().ps()))},
       {"status", quoted(ok ? "OK" : "ERROR")},
       {"retransmits", integer(ar->total_retransmits())}});
}

void allreduce_faults(Ctx& c) {
  const FaultPlan plan = fault_plan(c.seed);
  const FaultSpec specs[] = {{MultipathAlgo::kObs, 128},
                             {MultipathAlgo::kRoundRobin, 128},
                             {MultipathAlgo::kObs, 4},
                             {MultipathAlgo::kSinglePath, 128}};
  for (const FaultSpec& spec : specs) {
    c.log.call(Layer::kDriver, "run", [&] { faults_run(c, spec, plan); });
  }
}

// ---------------------------------------------------------------------------
// Workload: vstellar_translation
// ---------------------------------------------------------------------------
//
// One StellarHost (4 RNICs, 8 GPUs) and 8 PVDMA containers, each with one
// vStellar device. Seeded rounds of register_memory (host DRAM, 1-16 MiB at
// seeded addresses inside a 256 MiB window, so blocks are shared between
// live MRs), an eMTT gdr_write of the new MR, and deregister_memory of the
// oldest MR once a container holds kLiveMrs. Then a Figure-8 style sweep:
// an ATS/ATC GDR engine writes 16 buffers round robin at 64 KiB..128 MiB,
// so the working set crosses ATC and then IOTLB capacity. No Simulator.

constexpr std::uint32_t kContainers = 8;
constexpr int kTranslationRounds = 2000;
constexpr std::size_t kLiveMrs = 4;
constexpr std::uint64_t kMrWindow = 256_MiB;
constexpr std::size_t kSweepConnections = 16;
constexpr std::uint64_t kSweepBuffer = 128_MiB;
constexpr std::uint64_t kSweepBytesPerPoint = 2_GiB;

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

void vstellar_translation(Ctx& c) {
  Pass& p = c.pass;
  std::unique_ptr<StellarHost> host;
  c.log.setup(Layer::kCore, "build_host", [&] {
    StellarHostConfig cfg;
    // IOTLB sized so its capacity cliff lands past the ATC's (Figure 8).
    cfg.pcie.iommu.iotlb_capacity = 64 * 1024;
    host = std::make_unique<StellarHost>(cfg);
  });

  std::vector<std::unique_ptr<RundContainer>> containers;
  std::vector<VStellarDevice*> devices;
  for (std::uint32_t i = 0; i < kContainers; ++i) {
    containers.push_back(std::make_unique<RundContainer>(
        i + 1, "tenant-" + std::to_string(i), 16_GiB));
    Status s;
    p.host["virt.boot_s"] += 1e-9 * static_cast<double>(
        c.log.setup(Layer::kVirt, "boot", [&] {
          auto boot = host->boot(*containers.back());
          if (!boot.is_ok()) s = boot.status();
        }));
    VStellarDevice* dev = nullptr;
    p.host["virt.device_create_s"] += 1e-9 * static_cast<double>(
        c.log.setup(Layer::kVirt, "create_device", [&] {
          if (!s.is_ok()) return;
          auto d = host->create_vstellar_device(*containers.back(), i % 4);
          if (d.is_ok()) {
            dev = d.value();
          } else {
            s = d.status();
          }
        }));
    if (dev == nullptr) {
      p.violation("container set-up failed: " + s.to_string());
      return;
    }
    devices.push_back(dev);
  }

  // The sweep engine and its IOMMU windows: one buffer per connection,
  // mapped far above the containers' PVDMA windows.
  std::vector<IoVa> buffers;
  std::unique_ptr<GdrEngine> ats;
  c.log.setup(Layer::kMemory, "map_sweep_buffers", [&] {
    for (std::size_t b = 0; b < kSweepConnections; ++b) {
      const IoVa base{(1ull << 47) + (b << 32)};
      if (host->pcie().iommu().map(base, Hpa{1_TiB + b * kSweepBuffer},
                                   kSweepBuffer).is_ok()) {
        buffers.push_back(base);
      }
    }
  });
  c.log.setup(Layer::kGdr, "build_ats_engine", [&] {
    ats = std::make_unique<GdrEngine>(
        host->make_gdr_engine(GdrMode::kAtsAtc, 0));
  });
  if (buffers.size() != kSweepConnections) {
    p.violation("sweep buffer mapping failed");
    return;
  }

  // -- Registration rounds (the write side) plus eMTT writes (read side).
  std::vector<std::vector<MrKey>> live(kContainers);
  std::vector<std::int64_t> reg_ps(kContainers, 0);
  std::vector<std::int64_t> write_ps(kContainers, 0);
  std::vector<std::uint64_t> pinned_now(kContainers, 0);
  std::vector<double>& reg_us = p.samples["virt.register_us"];
  std::vector<double>& dereg_us = p.samples["virt.deregister_us"];
  std::vector<double>& write_us = p.samples["gdr.emtt_write_us"];
  Rng rng(hash_combine(c.seed, 0x0608));

  auto deregister = [&](std::uint32_t ci, MrKey key) {
    Status s;
    const Ns ns = c.log.call(Layer::kVirt, "deregister_memory", [&] {
      s = devices[ci]->deregister_memory(key);
    });
    dereg_us.push_back(static_cast<double>(ns) / 1e3);
    ++p.ops;
    if (!s.is_ok()) {
      ++p.failed;
      p.violation("deregister_memory: " + s.to_string());
    }
  };

  for (int round = 0; round < kTranslationRounds; ++round) {
    for (std::uint32_t ci = 0; ci < kContainers; ++ci) {
      const std::uint64_t len = (1 + rng.below(16)) * 1_MiB;
      const std::uint64_t gpa =
          kPage2M + rng.below((kMrWindow - len) / kPage4K) * kPage4K;
      const Gva va{(static_cast<std::uint64_t>(round) + 1) << 32};
      StatusOr<VStellarDevice::RegisterResult> reg =
          internal_error("register_memory not called");
      const Ns ns = c.log.call(Layer::kVirt, "register_memory", [&] {
        reg = devices[ci]->register_memory(va, len, MemoryOwner::kHostDram,
                                           gpa);
      });
      reg_us.push_back(static_cast<double>(ns) / 1e3);
      ++p.ops;
      p.counts["virt.register_ops"] += 1;
      if (!reg.is_ok()) {
        ++p.failed;
        p.violation("register_memory: " + reg.status().to_string());
        continue;
      }
      reg_ps[ci] += reg.value().latency.ps();
      pinned_now[ci] += reg.value().pinned_now ? 1 : 0;

      StatusOr<GdrTransfer> xfer = internal_error("gdr_write not called");
      const Ns wns = c.log.call(Layer::kGdr, "gdr_write", [&] {
        xfer = devices[ci]->gdr_write(reg.value().key, va, len);
      });
      write_us.push_back(static_cast<double>(wns) / 1e3);
      ++p.ops;
      if (xfer.is_ok()) {
        write_ps[ci] += xfer.value().duration.ps();
      } else {
        ++p.failed;
        p.violation("gdr_write: " + xfer.status().to_string());
      }

      live[ci].push_back(reg.value().key);
      if (live[ci].size() > kLiveMrs) {
        deregister(ci, live[ci].front());
        live[ci].erase(live[ci].begin());
      }
    }
  }
  for (std::uint32_t ci = 0; ci < kContainers; ++ci) {
    for (MrKey key : live[ci]) deregister(ci, key);
    const Pvdma& pvdma = host->hypervisor().pvdma(containers[ci]->id());
    p.counts["pvdma.blocks_registered"] +=
        static_cast<double>(pvdma.blocks_registered());
    p.counts["pvdma.map_cache_hits"] +=
        static_cast<double>(pvdma.map_cache().hits());
    p.counts["pvdma.map_cache_misses"] +=
        static_cast<double>(pvdma.map_cache().misses());
    if (pvdma.pinned_bytes() != 0) {
      p.violation("container " + std::to_string(ci) +
                  " still pins memory after deregistering every MR");
    }
    p.outputs.add("container" + std::to_string(ci),
                  {{"register_latency_ps", integer(static_cast<std::uint64_t>(
                                               reg_ps[ci]))},
                   {"emtt_write_ps", integer(static_cast<std::uint64_t>(
                                         write_ps[ci]))},
                   {"registrations_that_pinned", integer(pinned_now[ci])}});
  }
  if (host->pcie().iommu().pinned_bytes() != 0) {
    p.violation("IOMMU still pins memory after every MR was deregistered");
  }

  // -- ATS/ATC sweep.
  std::vector<double>& ats_us = p.samples["gdr.ats_transfer_us"];
  Ns ats_ns = 0;
  std::uint64_t ats_pages = 0;
  for (std::uint64_t msg = 64_KiB; msg <= kSweepBuffer; msg *= 2) {
    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, kSweepBytesPerPoint / (msg * kSweepConnections));
    std::int64_t ps = 0;
    std::uint64_t atc_misses = 0;
    std::uint64_t iotlb_misses = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (const IoVa buf : buffers) {
        GdrTransfer t;
        const Ns ns =
            c.log.call(Layer::kGdr, "ats_transfer",
                       [&] { t = ats->transfer(buf, msg); });
        ats_us.push_back(static_cast<double>(ns) / 1e3);
        ats_ns += ns;
        ats_pages += msg / kPage4K;
        ++p.ops;
        ps += t.duration.ps();
        atc_misses += t.atc_misses;
        iotlb_misses += t.iotlb_misses;
      }
    }
    p.outputs.add("ats_" + format_bytes(msg),
                  {{"duration_ps", integer(static_cast<std::uint64_t>(ps))},
                   {"atc_misses", integer(atc_misses)},
                   {"iotlb_misses", integer(iotlb_misses)}});
  }
  p.host["gdr.ns_per_page"] =
      ats_pages == 0 ? 0.0
                     : static_cast<double>(ats_ns) / static_cast<double>(ats_pages);

  const Iommu& iommu = host->pcie().iommu();
  p.counts["memory.iotlb_hit_ratio"] =
      hit_ratio(iommu.iotlb_hits(), iommu.iotlb_misses());
  p.counts["memory.page_walks"] = static_cast<double>(iommu.page_walks());
  p.counts["pcie.atc_hit_ratio"] =
      hit_ratio(host->atc(0).hits(), host->atc(0).misses());
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(Ctx&);
};
constexpr Workload kWorkloads[] = {
    {"permutation_packet", permutation_packet},
    {"allreduce_hybrid", allreduce_hybrid},
    {"allreduce_faults", allreduce_faults},
    {"vstellar_translation", vstellar_translation},
};

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999999);
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Turn the raw sums of one pass into the per-layer metrics.
void finish_pass(Ctx& c) {
  Pass& p = c.pass;
  auto& k = p.counts;
  const double events = k["sim.events"];
  const Ns sim_ns = c.log.self(Layer::kSim);
  p.host["sim.ns_per_event"] =
      events > 0 ? static_cast<double>(sim_ns) / events : 0.0;
  const double packets = k["rnic.packets_sent"];
  k["rnic.retx_ratio"] = packets > 0 ? k["rnic.retransmits"] / packets : 0.0;
  k["rnic.goodput_ratio"] =
      packets > 0
          ? (packets - k["rnic.retransmits"] - k["rnic.probes_sent"]) / packets
          : 0.0;
  k["hybrid.fluid_time_share"] =
      k["hybrid.region_ps"] > 0 ? k["hybrid.fluid_ps"] / k["hybrid.region_ps"]
                                : 0.0;
  k.erase("hybrid.fluid_ps");
  k.erase("hybrid.region_ps");
  k["pvdma.map_cache_hit_ratio"] = hit_ratio(
      static_cast<std::uint64_t>(k["pvdma.map_cache_hits"]),
      static_cast<std::uint64_t>(k["pvdma.map_cache_misses"]));
  k.erase("pvdma.map_cache_hits");
  k.erase("pvdma.map_cache_misses");
  if (c.hub != nullptr) {
    k["obs.trace_events"] = static_cast<double>(c.hub->tracer().event_count());
  }

  p.host["net.fabric_build_s"] = 1e-9 * static_cast<double>(c.log.self(Layer::kNet));
  p.host["rnic.connect_s"] = 1e-9 * static_cast<double>(c.log.self(Layer::kRnic));
  p.host["hybrid.build_s"] = 1e-9 * static_cast<double>(c.log.self(Layer::kHybrid));
  p.host["collective.build_s"] =
      1e-9 * static_cast<double>(c.log.self(Layer::kCollective));
  p.host["fault.arm_s"] = 1e-9 * static_cast<double>(c.log.self(Layer::kFault));
  p.host["hybrid.fluid_host_s"] = 1e-9 * static_cast<double>(c.fluid_ns);
  const double completions = k["hybrid.fluid_completions"];
  p.host["hybrid.us_per_fluid_completion"] =
      completions > 0 ? static_cast<double>(c.fluid_ns) / 1e3 / completions
                      : 0.0;
  for (int l = 0; l < kLayers; ++l) {
    p.host[std::string("self.") + kLayerNames[l] + "_s"] =
        1e-9 * static_cast<double>(c.log.self(static_cast<Layer>(l)));
  }
  for (const char* name : kSampleMetrics) {
    std::vector<double>& v = p.samples[name];
    p.host[std::string(name) + "_p50"] = percentile(v, 0.50);
    p.host[std::string(name) + "_p99"] = percentile(v, 0.99);
    p.host[std::string(name) + "_samples"] = static_cast<double>(v.size());
  }
  p.samples.clear();
}

std::string counts_json(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": " + num(v);
  }
  return out + "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_driver --workload NAME [--seed N] [--seconds S] "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value);
        return 2;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0) return usage();

  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> host_series;
  Pass first;
  bool deterministic = true;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  Ctx ctx;
  ctx.seed = seed;

  const Ns t0 = host_now_ns();
  for (int pass = 0;; ++pass) {
    ctx.pass = Pass{};
    ctx.fluid_ns = 0;
    ctx.log.begin_pass(/*record=*/pass == 0 && !trace_dir.empty());
    // Traced builds observe every pass through a fresh hub, sampling one
    // trace event in 1024 so memory stays bounded.
    std::unique_ptr<obs::ObsHub> hub;
    if (STELLAR_TRACE_ENABLED) {
      hub = std::make_unique<obs::ObsHub>();
      for (int cat = 0; cat < obs::kTraceCats; ++cat) {
        hub->tracer().set_sample_period(static_cast<obs::TraceCat>(cat), 1024);
      }
      obs::install_hub(hub.get());
    }
    ctx.hub = hub.get();

    const Ns start = host_now_ns();
    ctx.log.call(Layer::kDriver, workload->name, [&] { workload->run(ctx); });
    const Ns pass_ns = host_now_ns() - start;
    finish_pass(ctx);
    if (hub != nullptr) {
      if (pass == 0 && !trace_dir.empty()) {
        const std::string base = trace_dir + "/" + workload->name;
        std::FILE* f = std::fopen((base + ".metrics.json").c_str(), "w");
        if (f != nullptr) {
          const std::string body = hub->metrics().to_json();
          std::fwrite(body.data(), 1, body.size(), f);
          std::fclose(f);
        }
      }
      obs::install_hub(nullptr);
      ctx.hub = nullptr;
    }

    const Ns setup_ns = ctx.log.setup_total();
    run_s.push_back(1e-9 * static_cast<double>(pass_ns - setup_ns));
    setup_s.push_back(1e-9 * static_cast<double>(setup_ns));
    for (const auto& [name, v] : ctx.pass.host) host_series[name].push_back(v);
    ops += ctx.pass.ops;
    failed += ctx.pass.failed;
    for (const std::string& v : ctx.pass.violations) {
      if (violations.size() < 16) violations.push_back(v);
    }
    if (pass == 0) {
      first = ctx.pass;
      if (!trace_dir.empty()) {
        ctx.log.write_chrome_json(trace_dir + "/" + workload->name +
                                  ".spans.json");
      }
    } else if (ctx.pass.outputs.json() != first.outputs.json() ||
               counts_json(ctx.pass.counts) != counts_json(first.counts)) {
      deterministic = false;
    }

    const double elapsed = 1e-9 * static_cast<double>(host_now_ns() - t0);
    const double typical = median(run_s) + median(setup_s);
    if (elapsed + typical > seconds) break;
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);

  std::string out = "{\"workload\": " + quoted(workload->name) +
                    ", \"seed\": " + integer(seed) + ", \"traced\": " +
                    (STELLAR_TRACE_ENABLED ? "true" : "false");
  out += ", \"passes\": " + integer(run_s.size());
  out += ", \"run_s\": [";
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    out += (i > 0 ? ", " : "") + num(run_s[i]);
  }
  out += "], \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out += (i > 0 ? ", " : "") + num(setup_s[i]);
  }
  out += "], \"peak_rss_mib\": " +
         num(static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  out += ", \"attempted\": " + integer(ops) + ", \"failed\": " + integer(failed);
  out += ", \"ops_per_pass\": " + integer(first.ops);
  out += std::string(", \"deterministic\": ") +
         (deterministic ? "true" : "false");
  out += ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out += (i > 0 ? ", " : "") + quoted(violations[i]);
  }
  out += "], \"outputs\": " + first.outputs.json();
  out += ", \"counts\": " + counts_json(first.counts);
  std::map<std::string, double> host;
  for (const auto& [name, series] : host_series) host[name] = median(series);
  out += ", \"host\": " + counts_json(host);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
