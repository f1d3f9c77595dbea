// Multi-tenant isolation under adversarial neighbors (docs/TENANCY.md).
//
// Four phases, one process, one deterministic BENCH_tenants.json:
//
//   scale    2048 tenants boot / create a vStellar device / register a
//            host-DRAM MR through the shared src/workload tenant-fleet
//            generator (the same seeded stream examples/serverless_inference
//            replays at 120 tenants), then the degradation ladder is walked
//            up and back down on one tenant (green -> throttled -> shed ->
//            green) to show grading is recoverable in both directions.
//
//   attacks  three noisy-neighbor patterns, each run A/B against the same
//            seeded victim workload — "enforced" (per-tenant budgets on) vs
//            "unenforced" (set_enforcement(false), every cap lifted):
//              rule_churn    vSwitch rule-table pollution ahead of victim
//                            rules (positional first-match walk)
//              pin_flood     host pin-capacity exhaustion; victims ride the
//                            hypervisor retry path
//              iotlb_thrash  IOTLB pollution scans vs victim hot sets
//            Headline per pattern: victim p99 degradation vs a victims-only
//            baseline. Gates: enforced < 20%, unenforced > 100% (2x).
//
//   soak     the attacker is killed mid-flood under periodic invariant
//            auditors (emtt-coherence, tenant-isolation, simulator-heap,
//            trap-on-finding). The storm runs through FaultInjector
//            TenantTarget hooks; FaultTelemetry attributes pin retries per
//            tenant (attacker vs victim collateral). Gates: zero findings,
//            kill_tenant reports fully_reclaimed, every victim op completes.
//
// All JSON values are integers or fixed strings; two runs of this binary
// produce byte-identical BENCH_tenants.json (tools/ci_checks.sh diffs them).
//
// Run: ./bench/fig_tenants
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "check/audit.h"
#include "check/auditors.h"
#include "common/stats.h"
#include "core/stellar.h"
#include "core/tenant.h"
#include "fault/fault.h"
#include "fault/telemetry.h"
#include "memory/iommu.h"
#include "net/fabric.h"
#include "rnic/vswitch.h"
#include "sim/simulator.h"
#include "workload/tenant_fleet.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

constexpr TenantId kAdversary = 50;
constexpr TenantId kFirstVictim = 100;

enum class Mode { kBaseline, kEnforced, kUnenforced };

/// (p99 / baseline - 1) in parts-per-million, the headline metric.
long long degradation_ppm(double p99, double baseline) {
  if (baseline <= 0.0) return 0;
  return static_cast<long long>(std::llround((p99 / baseline - 1.0) * 1e6));
}

long long ns_to_ps(double ns) {
  return static_cast<long long>(std::llround(ns * 1000.0));
}

bool check_gates(const char* pattern, long long enforced_ppm,
                 long long unenforced_ppm) {
  const bool ok = enforced_ppm < 200'000 && unenforced_ppm > 1'000'000;
  std::printf("  %-13s enforced %+.1f%%  unenforced %+.1f%%  -> %s\n",
              pattern, static_cast<double>(enforced_ppm) / 1e4,
              static_cast<double>(unenforced_ppm) / 1e4,
              ok ? "PASS" : "FAIL");
  return ok;
}

// ---------------------------------------------------------------------------
// Phase 1: scale — thousands of tenants through the shared fleet generator.
// ---------------------------------------------------------------------------

bool run_scale(JsonResult& json) {
  print_header("Phase 1: 2048-tenant fleet + degradation ladder");

  StellarHostConfig cfg;
  StellarHost host(cfg);

  TenantFleetConfig fleet;
  fleet.seed = 7;
  fleet.tenants = 2048;
  fleet.first_tenant = kFirstVictim;
  fleet.guest_mem_bytes = 64_MiB;
  fleet.stampede_width = 32;
  fleet.mr_bytes = 4_MiB;
  fleet.dma_ops_per_tenant = 0;  // boot/device/MR only at this scale
  fleet.sends_per_tenant = 0;

  TenantBudgets budgets;
  budgets.max_devices = 2;
  budgets.max_qps = 8;
  budgets.max_mrs = 4;
  budgets.pin_budget_bytes = 16_MiB;

  std::vector<std::unique_ptr<RundContainer>> containers;
  containers.reserve(fleet.tenants);
  std::size_t booted = 0, devices = 0, mrs = 0;
  for (const FleetOp& op : generate_fleet_ops(fleet)) {
    switch (op.kind) {
      case FleetOpKind::kBoot: {
        containers.push_back(std::make_unique<RundContainer>(
            op.tenant, "t" + std::to_string(op.tenant),
            fleet.guest_mem_bytes));
        STELLAR_CHECK_OK(host.boot(*containers.back()).status(),
                         "scale: boot failed");
        STELLAR_CHECK_OK(host.tenants().register_tenant(op.tenant, budgets),
                         "scale: register_tenant failed");
        ++booted;
        break;
      }
      case FleetOpKind::kCreateDevice: {
        auto dev = host.create_vstellar_device(
            *containers.back(), (op.tenant - kFirstVictim) % host.rnic_count());
        STELLAR_CHECK_OK(dev.status(), "scale: device failed");
        ++devices;
        break;
      }
      case FleetOpKind::kRegisterMr: {
        auto devs = host.devices_for_vm(op.tenant);
        STELLAR_CHECK(!devs.empty(), "scale: no device for MR");
        auto mr = devs.front()->register_memory(Gva{op.gva}, op.bytes,
                                                MemoryOwner::kHostDram,
                                                /*guest_addr=*/0);
        STELLAR_CHECK_OK(mr.status(), "scale: MR failed");
        ++mrs;
        break;
      }
      default:
        break;
    }
  }

  std::size_t green = 0, throttled = 0, shed = 0;
  for (TenantId t : host.tenants().registered()) {
    switch (host.tenants().level(t)) {
      case DegradeLevel::kGreen: ++green; break;
      case DegradeLevel::kThrottled: ++throttled; break;
      case DegradeLevel::kShed: ++shed; break;
    }
  }

  // Walk one tenant up the ladder and back: 4 MiB MR pins put it at 25% of
  // its 16 MiB pin budget (green); five more demand-pinned blocks reach
  // 87.5% (throttled); one more hits the cap (shed); releasing the extra
  // blocks recovers green. Grading must be recoverable in both directions.
  const TenantId probe = kFirstVictim;
  Pvdma& pvdma = host.hypervisor().pvdma(probe);
  std::string ladder = to_string(host.tenants().level(probe));
  for (std::uint64_t k = 0; k < 5; ++k) {
    STELLAR_CHECK_OK(pvdma.prepare_dma(Gpa{4_MiB + k * 2_MiB}, 2_MiB).status(),
                     "ladder: pin failed");
  }
  ladder += std::string(",") + to_string(host.tenants().level(probe));
  STELLAR_CHECK_OK(pvdma.prepare_dma(Gpa{14_MiB}, 2_MiB).status(),
                   "ladder: final pin failed");
  ladder += std::string(",") + to_string(host.tenants().level(probe));
  pvdma.release_dma(Gpa{4_MiB}, 12_MiB);
  ladder += std::string(",") + to_string(host.tenants().level(probe));

  const bool ok = booted == fleet.tenants && devices == fleet.tenants &&
                  mrs == fleet.tenants && green == fleet.tenants &&
                  ladder == "green,throttled,shed,green";
  std::printf("  %zu tenants booted, %zu devices, %zu MRs; levels: "
              "%zu green / %zu throttled / %zu shed\n",
              booted, devices, mrs, green, throttled, shed);
  std::printf("  ladder walk on tenant %u: %s -> %s\n", probe, ladder.c_str(),
              ok ? "PASS" : "FAIL");

  json.add_row({{"phase", jstr("scale")},
                {"tenants", jint(static_cast<long long>(booted))},
                {"devices", jint(static_cast<long long>(devices))},
                {"mrs", jint(static_cast<long long>(mrs))},
                {"green", jint(static_cast<long long>(green))},
                {"throttled", jint(static_cast<long long>(throttled))},
                {"shed", jint(static_cast<long long>(shed))},
                {"pinned_bytes", jint(static_cast<long long>(
                                     host.pcie().iommu().pinned_bytes()))},
                {"ladder", jstr(ladder)},
                {"gate_pass", jint(ok ? 1 : 0)}});
  return ok;
}

// ---------------------------------------------------------------------------
// Attack pattern 1: vSwitch rule churn.
// ---------------------------------------------------------------------------

double rule_churn_run(Mode mode, std::uint64_t* adversary_sheds) {
  VSwitch vs;
  std::uint64_t rule_id = 1;
  if (mode != Mode::kBaseline) {
    if (mode == Mode::kEnforced) {
      TenantQos qos;
      qos.max_rules = 4;  // the rule-slot quota is the whole defense here
      vs.set_qos(kAdversary, qos);
    }
    for (int i = 0; i < 3500; ++i) {
      SteeringRule rule;
      rule.id = rule_id++;
      rule.match = TrafficClass::kTcp;
      rule.tenant = kAdversary;
      if (!vs.add_rule(rule).is_ok()) ++*adversary_sheds;  // defense working
    }
  }
  for (TenantId t = kFirstVictim; t < kFirstVictim + 16; ++t) {
    SteeringRule rule;
    rule.id = rule_id++;
    rule.match = TrafficClass::kRdma;
    rule.tenant = t;
    STELLAR_CHECK_OK(vs.add_rule(rule), "rule_churn: victim rule rejected");
  }
  PercentileRecorder rec;
  for (int round = 0; round < 256; ++round) {
    for (TenantId t = kFirstVictim; t < kFirstVictim + 16; ++t) {
      auto hit = vs.lookup(TrafficClass::kRdma, t);
      STELLAR_CHECK_OK(hit.status(), "rule_churn: lookup failed");
      rec.add(hit.value().latency.ns());
    }
  }
  return rec.p99();
}

// ---------------------------------------------------------------------------
// Attack pattern 2: PVDMA pin flood against host pin capacity.
// ---------------------------------------------------------------------------

struct PinFloodOutcome {
  double p99_ns = 0.0;
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::uint64_t adversary_budget_sheds = 0;
  std::uint64_t flood_pinned = 0;
};

PinFloodOutcome pin_flood_run(Mode mode) {
  Simulator sim;
  StellarHostConfig cfg;
  cfg.pcie.iommu.pin_capacity_bytes = 8_GiB;
  StellarHost host(cfg);

  TenantFleetConfig fleet;
  fleet.seed = 11;
  fleet.tenants = 16;
  fleet.first_tenant = kFirstVictim;
  fleet.guest_mem_bytes = 256_MiB;
  fleet.stampede_width = 16;
  fleet.dma_ops_per_tenant = 24;
  fleet.dma_spacing = SimTime::micros(25);
  fleet.working_set_bytes = 64_MiB;
  fleet.sends_per_tenant = 0;
  const std::vector<FleetOp> ops = generate_fleet_ops(fleet);

  TenantBudgets victim_budgets;
  victim_budgets.pin_budget_bytes = 128_MiB;

  std::vector<std::unique_ptr<RundContainer>> containers;
  PinFloodOutcome out;
  PercentileRecorder rec;

  for (const FleetOp& op : ops) {
    if (op.kind != FleetOpKind::kBoot) continue;
    containers.push_back(std::make_unique<RundContainer>(
        op.tenant, "v" + std::to_string(op.tenant), fleet.guest_mem_bytes));
    STELLAR_CHECK_OK(host.boot(*containers.back()).status(),
                     "pin_flood: victim boot failed");
    STELLAR_CHECK_OK(host.tenants().register_tenant(op.tenant, victim_budgets),
                     "pin_flood: register failed");
  }

  std::unique_ptr<RundContainer> adversary;
  if (mode != Mode::kBaseline) {
    adversary = std::make_unique<RundContainer>(kAdversary, "adversary", 8_GiB);
    STELLAR_CHECK_OK(host.boot(*adversary).status(),
                     "pin_flood: adversary boot failed");
    TenantBudgets adv;
    adv.pin_budget_bytes = 256_MiB;  // the cap that protects the victims
    STELLAR_CHECK_OK(host.tenants().register_tenant(kAdversary, adv),
                     "pin_flood: adversary register failed");
    if (mode == Mode::kUnenforced) host.tenants().set_enforcement(false);

    sim.schedule_at(SimTime::micros(100), [&host, &out] {
      Pvdma& pvdma = host.hypervisor().pvdma(kAdversary);
      for (std::uint64_t gpa = 0; gpa < 8_GiB; gpa += 2_MiB) {
        auto r = pvdma.prepare_dma(Gpa{gpa}, 2_MiB);
        if (r.is_ok()) {
          out.flood_pinned += 2_MiB;
          continue;
        }
        if (r.status().code() == StatusCode::kFailedPrecondition) {
          ++out.adversary_budget_sheds;  // own-budget shed: defense working
        }
        break;  // budget or capacity: the flood can grow no further
      }
    });
    sim.schedule_at(SimTime::micros(1300), [&host] {
      host.hypervisor().pvdma(kAdversary).release_all();
    });
  }

  for (const FleetOp& op : ops) {
    if (op.kind != FleetOpKind::kPrepareDma) continue;
    ++out.issued;
    sim.schedule_at(op.at, [&host, &sim, &rec, &out, op] {
      const SimTime issue = sim.now();
      host.hypervisor().prepare_dma_with_retry(
          sim, op.tenant, Gpa{op.gpa}, op.bytes,
          [&sim, &rec, &out, issue](StatusOr<Pvdma::MapResult> r) {
            if (!r.is_ok()) return;  // terminal failure: left uncounted
            ++out.completed;
            rec.add(((sim.now() - issue) + r.value().cost).ns());
          });
    });
  }

  sim.run();
  engine_meter().add(sim);
  out.p99_ns = rec.p99();
  return out;
}

// ---------------------------------------------------------------------------
// Attack pattern 3: IOTLB thrash scans vs victim hot sets.
// ---------------------------------------------------------------------------

double iotlb_run(Mode mode) {
  IommuConfig cfg;
  cfg.iotlb_capacity = 2048;
  Iommu iommu(cfg);

  constexpr std::size_t kVictims = 4;
  constexpr std::size_t kHotPages = 128;
  for (std::size_t v = 0; v < kVictims; ++v) {
    const std::uint64_t base = (v + 1) * 64_MiB;
    STELLAR_CHECK_OK(iommu.map(IoVa{base}, Hpa{base}, kHotPages * kPage4K),
                     "iotlb: victim map failed");
  }
  const std::uint64_t scan_base = 1_GiB;
  const std::uint64_t scan_pages = 16384;
  STELLAR_CHECK_OK(
      iommu.map(IoVa{scan_base}, Hpa{scan_base}, scan_pages * kPage4K),
      "iotlb: adversary map failed");
  if (mode == Mode::kEnforced) {
    iommu.set_iotlb_share(kAdversary, 256);  // self-evicting share cap
  }

  auto touch_victims = [&](PercentileRecorder* rec) {
    for (std::size_t v = 0; v < kVictims; ++v) {
      const std::uint64_t base = (v + 1) * 64_MiB;
      for (std::size_t p = 0; p < kHotPages; ++p) {
        auto tr = iommu.translate(IoVa{base + p * kPage4K},
                                  kFirstVictim + static_cast<TenantId>(v));
        STELLAR_CHECK_OK(tr.status(), "iotlb: victim translate failed");
        if (rec != nullptr) rec->add(tr.value().latency.ns());
      }
    }
  };

  touch_victims(nullptr);  // warm the hot sets
  touch_victims(nullptr);

  PercentileRecorder rec;
  for (std::uint64_t round = 0; round < 64; ++round) {
    if (mode != Mode::kBaseline) {
      for (std::uint64_t p = 0; p < 4096; ++p) {
        const std::uint64_t page = (round * 4096 + p) % scan_pages;
        auto tr =
            iommu.translate(IoVa{scan_base + page * kPage4K}, kAdversary);
        STELLAR_CHECK_OK(tr.status(), "iotlb: scan translate failed");
      }
    }
    touch_victims(&rec);
  }
  return rec.p99();
}

// ---------------------------------------------------------------------------
// The A/B driver shared by the three patterns.
// ---------------------------------------------------------------------------

bool run_attacks(JsonResult& json) {
  print_header("Phase 2: noisy-neighbor attacks, enforced vs unenforced");
  bool all_ok = true;

  {  // rule_churn
    std::uint64_t sheds_enforced = 0, sheds_unenforced = 0, sheds_none = 0;
    const double base = rule_churn_run(Mode::kBaseline, &sheds_none);
    const double enf = rule_churn_run(Mode::kEnforced, &sheds_enforced);
    const double unenf = rule_churn_run(Mode::kUnenforced, &sheds_unenforced);
    const long long enf_ppm = degradation_ppm(enf, base);
    const long long unenf_ppm = degradation_ppm(unenf, base);
    all_ok &= check_gates("rule_churn", enf_ppm, unenf_ppm);
    json.add_row({{"phase", jstr("attack")},
                  {"pattern", jstr("rule_churn")},
                  {"baseline_p99_ps", jint(ns_to_ps(base))},
                  {"enforced_p99_ps", jint(ns_to_ps(enf))},
                  {"unenforced_p99_ps", jint(ns_to_ps(unenf))},
                  {"enforced_degradation_ppm", jint(enf_ppm)},
                  {"unenforced_degradation_ppm", jint(unenf_ppm)},
                  {"adversary_sheds",
                   jint(static_cast<long long>(sheds_enforced))},
                  {"gate_pass", jint(enf_ppm < 200'000 &&
                                     unenf_ppm > 1'000'000 ? 1 : 0)}});
  }

  {  // pin_flood
    const PinFloodOutcome base = pin_flood_run(Mode::kBaseline);
    const PinFloodOutcome enf = pin_flood_run(Mode::kEnforced);
    const PinFloodOutcome unenf = pin_flood_run(Mode::kUnenforced);
    const long long enf_ppm = degradation_ppm(enf.p99_ns, base.p99_ns);
    const long long unenf_ppm = degradation_ppm(unenf.p99_ns, base.p99_ns);
    const bool complete = base.completed == base.issued &&
                          enf.completed == enf.issued &&
                          unenf.completed == unenf.issued;
    all_ok &= check_gates("pin_flood", enf_ppm, unenf_ppm) && complete;
    std::printf("    victim ops %zu/%zu/%zu completed of %zu; adversary "
                "pinned %llu MiB unenforced (budget sheds enforced: %llu)\n",
                base.completed, enf.completed, unenf.completed, base.issued,
                static_cast<unsigned long long>(unenf.flood_pinned >> 20),
                static_cast<unsigned long long>(enf.adversary_budget_sheds));
    json.add_row(
        {{"phase", jstr("attack")},
         {"pattern", jstr("pin_flood")},
         {"baseline_p99_ps", jint(ns_to_ps(base.p99_ns))},
         {"enforced_p99_ps", jint(ns_to_ps(enf.p99_ns))},
         {"unenforced_p99_ps", jint(ns_to_ps(unenf.p99_ns))},
         {"enforced_degradation_ppm", jint(enf_ppm)},
         {"unenforced_degradation_ppm", jint(unenf_ppm)},
         {"victim_ops", jint(static_cast<long long>(base.issued))},
         {"victim_ops_completed_unenforced",
          jint(static_cast<long long>(unenf.completed))},
         {"adversary_sheds",
          jint(static_cast<long long>(enf.adversary_budget_sheds))},
         {"adversary_flood_bytes",
          jint(static_cast<long long>(unenf.flood_pinned))},
         {"gate_pass", jint(enf_ppm < 200'000 && unenf_ppm > 1'000'000 &&
                            complete ? 1 : 0)}});
  }

  {  // iotlb_thrash
    const double base = iotlb_run(Mode::kBaseline);
    const double enf = iotlb_run(Mode::kEnforced);
    const double unenf = iotlb_run(Mode::kUnenforced);
    const long long enf_ppm = degradation_ppm(enf, base);
    const long long unenf_ppm = degradation_ppm(unenf, base);
    all_ok &= check_gates("iotlb_thrash", enf_ppm, unenf_ppm);
    json.add_row({{"phase", jstr("attack")},
                  {"pattern", jstr("iotlb_thrash")},
                  {"baseline_p99_ps", jint(ns_to_ps(base))},
                  {"enforced_p99_ps", jint(ns_to_ps(enf))},
                  {"unenforced_p99_ps", jint(ns_to_ps(unenf))},
                  {"enforced_degradation_ppm", jint(enf_ppm)},
                  {"unenforced_degradation_ppm", jint(unenf_ppm)},
                  {"gate_pass", jint(enf_ppm < 200'000 &&
                                     unenf_ppm > 1'000'000 ? 1 : 0)}});
  }

  return all_ok;
}

// ---------------------------------------------------------------------------
// Phase 3: kill-the-attacker-mid-flood chaos soak under auditors.
// ---------------------------------------------------------------------------

struct AdversaryState {
  StellarHost* host = nullptr;
  RundContainer* container = nullptr;
  VStellarDevice* dev = nullptr;
  std::uint64_t flood_cursor = 0;
  std::uint64_t guest_bytes = 0;
  std::uint64_t quota_sheds = 0;
  std::uint64_t capacity_sheds = 0;
  std::vector<QpNum> held_qps;
  std::vector<MrKey> held_mrs;
  std::uint32_t churn_seq = 0;
  bool killed = false;
  bool fully_reclaimed = false;
  std::uint64_t reclaimed_bytes = 0;
};

bool run_soak(JsonResult& json) {
  print_header("Phase 3: kill-mid-flood chaos soak under invariant auditors");

  Simulator sim;
  StellarHostConfig cfg;
  cfg.pcie.iommu.pin_capacity_bytes = 2_GiB;
  StellarHost host(cfg);

  FabricConfig fabric_cfg;  // minimal fabric: the injector requires one
  fabric_cfg.segments = 1;
  fabric_cfg.hosts_per_segment = 2;
  fabric_cfg.aggs_per_plane = 1;
  ClosFabric fabric(sim, fabric_cfg);

  FaultTelemetry telemetry;
  telemetry.set_seed(7);
  telemetry.watch_hypervisor(&host.hypervisor());
  telemetry.attach(sim, SimTime::micros(50));
  FaultInjector injector(sim, fabric, &telemetry);

  // -- Victims: 8 tenants via the shared fleet generator -----------------------
  TenantFleetConfig fleet;
  fleet.seed = 13;
  fleet.tenants = 8;
  fleet.first_tenant = kFirstVictim;
  fleet.guest_mem_bytes = 256_MiB;
  fleet.stampede_width = 8;
  fleet.mr_bytes = 4_MiB;
  fleet.dma_ops_per_tenant = 16;
  fleet.dma_spacing = SimTime::micros(40);
  fleet.working_set_bytes = 64_MiB;
  fleet.sends_per_tenant = 0;
  const std::vector<FleetOp> ops = generate_fleet_ops(fleet);

  TenantBudgets victim_budgets;
  victim_budgets.max_devices = 2;
  victim_budgets.max_qps = 8;
  victim_budgets.max_mrs = 4;
  victim_budgets.pin_budget_bytes = 128_MiB;

  std::vector<std::unique_ptr<RundContainer>> victims;
  for (const FleetOp& op : ops) {
    switch (op.kind) {
      case FleetOpKind::kBoot:
        victims.push_back(std::make_unique<RundContainer>(
            op.tenant, "v" + std::to_string(op.tenant),
            fleet.guest_mem_bytes));
        STELLAR_CHECK_OK(host.boot(*victims.back()).status(),
                         "soak: victim boot failed");
        STELLAR_CHECK_OK(
            host.tenants().register_tenant(op.tenant, victim_budgets),
            "soak: victim register failed");
        break;
      case FleetOpKind::kCreateDevice:
        STELLAR_CHECK_OK(
            host.create_vstellar_device(*victims.back(),
                                        (op.tenant - kFirstVictim) %
                                            host.rnic_count())
                .status(),
            "soak: victim device failed");
        break;
      case FleetOpKind::kRegisterMr:
        STELLAR_CHECK_OK(host.devices_for_vm(op.tenant)
                             .front()
                             ->register_memory(Gva{op.gva}, op.bytes,
                                               MemoryOwner::kHostDram,
                                               /*guest_addr=*/0)
                             .status(),
                         "soak: victim MR failed");
        break;
      default:
        break;
    }
  }

  // -- The adversary: uncapped pins, capped verbs objects ----------------------
  AdversaryState adv;
  adv.host = &host;
  adv.guest_bytes = 4_GiB;
  auto adv_container = std::make_unique<RundContainer>(kAdversary, "adversary",
                                                       adv.guest_bytes);
  adv.container = adv_container.get();
  STELLAR_CHECK_OK(host.boot(*adv.container).status(),
                   "soak: adversary boot failed");
  TenantBudgets adv_budgets;
  adv_budgets.max_qps = 4;
  adv_budgets.max_mrs = 4;
  adv_budgets.iotlb_share_entries = 256;
  adv_budgets.qos.max_rules = 8;
  STELLAR_CHECK_OK(host.tenants().register_tenant(kAdversary, adv_budgets),
                   "soak: adversary register failed");
  auto adv_dev = host.create_vstellar_device(*adv.container, 0);
  STELLAR_CHECK_OK(adv_dev.status(), "soak: adversary device failed");
  adv.dev = adv_dev.value();
  STELLAR_CHECK_OK(adv.dev
                       ->register_memory(Gva{0x1000}, 4_MiB,
                                         MemoryOwner::kHostDram,
                                         /*guest_addr=*/0)
                       .status(),
                   "soak: adversary MR failed");
  for (int i = 0; i < 2; ++i) {
    auto qp = adv.dev->create_qp();
    STELLAR_CHECK_OK(qp.status(), "soak: adversary QP failed");
  }
  for (int i = 0; i < 4; ++i) {
    SteeringRule rule;
    rule.id = 9000 + static_cast<std::uint64_t>(i);
    rule.match = TrafficClass::kTcp;
    rule.tenant = kAdversary;
    STELLAR_CHECK_OK(host.vswitch().add_rule(rule),
                     "soak: adversary rule failed");
  }

  // -- TenantTarget hooks: the storms the injector drives ----------------------
  FaultInjector::TenantTarget target;
  target.tenant = kAdversary;
  target.pin_flood = [&adv](std::uint64_t bytes) -> Status {
    if (adv.killed) return Status::ok();
    Pvdma& pvdma = adv.host->hypervisor().pvdma(kAdversary);
    std::uint64_t pinned = 0;
    while (pinned < bytes && adv.flood_cursor < adv.guest_bytes) {
      auto r = pvdma.prepare_dma(Gpa{adv.flood_cursor}, 2_MiB);
      adv.flood_cursor += 2_MiB;
      if (r.is_ok()) {
        pinned += 2_MiB;
        continue;
      }
      if (r.status().code() == StatusCode::kFailedPrecondition) {
        ++adv.quota_sheds;
      } else {
        ++adv.capacity_sheds;
      }
      break;  // the shared resource is defended or exhausted: burst over
    }
    return Status::ok();
  };
  target.qp_churn = [&adv](std::uint64_t rounds) -> Status {
    if (adv.killed) return Status::ok();
    // Two creates against one destroy per round: the attacker both churns
    // the QP table and keeps slamming into its own max_qps quota.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (int i = 0; i < 2; ++i) {
        auto qp = adv.dev->create_qp();
        if (qp.is_ok()) {
          adv.held_qps.push_back(qp.value());
        } else {
          ++adv.quota_sheds;  // admit_qp shed the over-quota attacker
        }
      }
      if (adv.held_qps.size() > 1) {
        (void)adv.dev->rnic().verbs().destroy_qp(adv.held_qps.front());
        adv.held_qps.erase(adv.held_qps.begin());
      }
    }
    return Status::ok();
  };
  target.mr_churn = [&adv](std::uint64_t rounds) -> Status {
    if (adv.killed) return Status::ok();
    // Three registrations against a drain-to-one per round: walks the MR
    // count up to the max_mrs quota every round, so both the churn path and
    // the admission shed path stay exercised.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (int i = 0; i < 3; ++i) {
        const std::uint64_t slot = adv.churn_seq++ % 8;
        auto mr = adv.dev->register_memory(
            Gva{0x40000000ull + slot * 2_MiB}, 2_MiB, MemoryOwner::kHostDram,
            /*guest_addr=*/2_GiB + slot * 2_MiB);
        if (mr.is_ok()) {
          adv.held_mrs.push_back(mr.value().key);
        } else if (mr.status().code() == StatusCode::kFailedPrecondition) {
          ++adv.quota_sheds;
        } else {
          ++adv.capacity_sheds;  // pin capacity full mid-flood
        }
      }
      while (adv.held_mrs.size() > 1) {
        (void)adv.dev->deregister_memory(adv.held_mrs.front());
        adv.held_mrs.erase(adv.held_mrs.begin());
      }
    }
    return Status::ok();
  };
  target.iotlb_thrash = [&adv](std::uint64_t pages) -> Status {
    if (adv.killed || adv.flood_cursor == 0) return Status::ok();
    Iommu& iommu = adv.host->pcie().iommu();
    for (std::uint64_t p = 0; p < pages; ++p) {
      const std::uint64_t iova = (p * kPage4K) % adv.flood_cursor;
      if (!iommu.translate(IoVa{iova}, kAdversary).is_ok()) break;
    }
    return Status::ok();
  };
  target.kill = [&adv]() -> StatusOr<std::uint64_t> {
    auto report = adv.host->kill_tenant(*adv.container);
    if (!report.is_ok()) return report.status();
    adv.killed = true;
    adv.fully_reclaimed = report.value().fully_reclaimed;
    adv.reclaimed_bytes = report.value().unpinned_bytes;
    return report.value().unpinned_bytes;
  };
  injector.register_tenant_target(std::move(target));

  // -- The plan: storms, then the kill mid-flood, then one post-kill burst -----
  FaultPlan plan;
  plan.seed = 7;
  auto storm = [&plan](SimTime at, FaultKind kind, const char* label,
                       std::uint64_t intensity) {
    FaultEvent e;
    e.at = at;
    e.kind = kind;
    e.label = label;
    e.tenant = 0;  // first registered tenant target
    e.intensity = intensity;
    plan.events.push_back(e);
  };
  storm(SimTime::micros(100), FaultKind::kPinFlood, "flood-1", 2_GiB);
  storm(SimTime::micros(160), FaultKind::kQpChurn, "qp-storm", 64);
  storm(SimTime::micros(220), FaultKind::kMrChurn, "mr-storm", 64);
  storm(SimTime::micros(280), FaultKind::kIotlbThrash, "thrash", 2048);
  storm(SimTime::micros(340), FaultKind::kPinFlood, "flood-2", 512_MiB);
  storm(SimTime::micros(420), FaultKind::kTenantKill, "kill-adversary", 1);
  storm(SimTime::micros(480), FaultKind::kPinFlood, "flood-post-kill",
        64_MiB);
  STELLAR_CHECK_OK(injector.arm(plan), "soak: arm failed");

  // -- Victim steady-state DMA through the retry path --------------------------
  std::size_t issued = 0, completed = 0;
  PercentileRecorder victim_lat;
  for (const FleetOp& op : ops) {
    if (op.kind != FleetOpKind::kPrepareDma) continue;
    ++issued;
    sim.schedule_at(op.at, [&host, &sim, &victim_lat, &completed, op] {
      const SimTime issue = sim.now();
      host.hypervisor().prepare_dma_with_retry(
          sim, op.tenant, Gpa{op.gpa}, op.bytes,
          [&sim, &victim_lat, &completed, issue](
              StatusOr<Pvdma::MapResult> r) {
            if (!r.is_ok()) return;
            ++completed;
            victim_lat.add(((sim.now() - issue) + r.value().cost).ns());
          });
    });
  }

  // -- Auditors: periodic, trap-on-finding ------------------------------------
  AuditRegistry registry;
  registry.add(std::make_unique<EmttCoherenceAuditor>(host));
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  registry.add(std::make_unique<SimulatorAuditor>(sim));
  registry.attach_periodic(sim, SimTime::micros(50));

  // The periodic auditors re-arm forever; run to a horizon safely past the
  // last victim op (~650 us) plus the full pin-retry backoff tail.
  sim.run_until(SimTime::millis(5));
  engine_meter().add(sim);

  registry.detach();
  telemetry.detach();
  registry.run_all();  // final audit over the drained end state

  std::uint64_t attacker_retries = 0, victim_retries = 0;
  for (const auto& [vm, retries] : telemetry.pin_retries_by_tenant()) {
    if (vm == kAdversary) {
      attacker_retries += retries;
    } else {
      victim_retries += retries;
    }
  }
  std::size_t faults_cleared = 0;
  for (const auto& fault : telemetry.faults()) {
    if (fault.cleared) ++faults_cleared;
  }

  const bool ok = registry.total_findings() == 0 && adv.fully_reclaimed &&
                  completed == issued && faults_cleared == plan.events.size();
  std::printf("  %llu audit runs, %llu findings; kill reclaimed %llu MiB "
              "(fully_reclaimed=%d)\n",
              static_cast<unsigned long long>(registry.runs()),
              static_cast<unsigned long long>(registry.total_findings()),
              static_cast<unsigned long long>(adv.reclaimed_bytes >> 20),
              adv.fully_reclaimed ? 1 : 0);
  std::printf("  victim ops %zu/%zu completed; pin retries: victims %llu, "
              "attacker %llu; adversary sheds: quota %llu, capacity %llu\n",
              completed, issued,
              static_cast<unsigned long long>(victim_retries),
              static_cast<unsigned long long>(attacker_retries),
              static_cast<unsigned long long>(adv.quota_sheds),
              static_cast<unsigned long long>(adv.capacity_sheds));
  std::printf("  soak -> %s\n", ok ? "PASS" : "FAIL");

  json.add_row(
      {{"phase", jstr("soak")},
       {"auditor_runs", jint(static_cast<long long>(registry.runs()))},
       {"findings", jint(static_cast<long long>(registry.total_findings()))},
       {"fully_reclaimed", jint(adv.fully_reclaimed ? 1 : 0)},
       {"reclaimed_bytes", jint(static_cast<long long>(adv.reclaimed_bytes))},
       {"victim_ops", jint(static_cast<long long>(issued))},
       {"victim_ops_completed", jint(static_cast<long long>(completed))},
       {"victim_p99_ps", jint(ns_to_ps(victim_lat.p99()))},
       {"victim_pin_retries", jint(static_cast<long long>(victim_retries))},
       {"attacker_pin_retries",
        jint(static_cast<long long>(attacker_retries))},
       {"adversary_quota_sheds",
        jint(static_cast<long long>(adv.quota_sheds))},
       {"adversary_capacity_sheds",
        jint(static_cast<long long>(adv.capacity_sheds))},
       {"faults_injected", jint(static_cast<long long>(plan.events.size()))},
       {"faults_cleared", jint(static_cast<long long>(faults_cleared))},
       {"gate_pass", jint(ok ? 1 : 0)}});
  return ok;
}

}  // namespace

int main() {
  engine_meter();
  print_header(
      "Multi-tenant isolation: per-tenant QoS vs noisy neighbors "
      "(docs/TENANCY.md)");

  JsonResult json("tenants");
  bool ok = true;
  ok &= run_scale(json);
  ok &= run_attacks(json);
  ok &= run_soak(json);
  json.write();
  engine_meter().report();

  std::printf("\n%s\n", ok ? "ALL GATES PASS"
                           : "GATE FAILURE: isolation contract violated");
  return ok ? 0 : 1;
}
