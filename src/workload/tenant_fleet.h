// Seeded multi-tenant serverless fleet traffic: the dense-inference
// deployment of §3.1 (hundreds-to-thousands of RunD containers per server,
// each wanting a GDR-capable RDMA device) as a deterministic, replayable op
// stream.
//
// The generator emits PLAIN DATA — a time-ordered vector of FleetOps — so
// this library stays at the bottom of the layering DAG (common only). The
// serverless_inference example and bench/fig_tenants both replay the same
// stream against a live StellarHost: cold-start stampede waves (boot +
// device create + first MR), then steady-state PVDMA churn (demand-pins
// walking each tenant's working set, with re-touches that exercise the Map
// Cache) and vSwitch sends. Same config + seed => byte-identical op stream.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace stellar {

enum class FleetOpKind : std::uint8_t {
  kBoot,          // boot the tenant's RunD container
  kCreateDevice,  // create one vStellar device for the tenant
  kRegisterMr,    // register a host-DRAM MR of `bytes` at `gva`
  kPrepareDma,    // PVDMA demand-pin of [gpa, gpa+bytes)
  kSend,          // push `bytes` through the tenant's vSwitch/transport path
};

const char* fleet_op_kind_name(FleetOpKind kind);

struct FleetOp {
  SimTime at;
  TenantId tenant = kHostTenant;
  FleetOpKind kind = FleetOpKind::kBoot;
  std::uint64_t gpa = 0;    // kPrepareDma: guest-physical start
  std::uint64_t gva = 0;    // kRegisterMr: guest-virtual start
  std::uint64_t bytes = 0;  // kRegisterMr / kPrepareDma / kSend
  /// Per-tenant sequence number of this op (deterministic sort tie-break
  /// and a convenient replay-side label).
  std::uint32_t seq = 0;
};

struct TenantFleetConfig {
  std::uint64_t seed = 1;
  std::uint32_t tenants = 120;
  /// Tenant ids are first_tenant .. first_tenant + tenants - 1; keep off 0
  /// (kHostTenant) so fleet usage never aliases host-attributed usage.
  TenantId first_tenant = 100;
  std::uint64_t guest_mem_bytes = 2ull * 1024 * 1024 * 1024;

  // Cold-start stampede shape: containers boot in waves of stampede_width,
  // kBootSpacing apart within a wave, kWaveSpacing between wave starts
  // (tenant_fleet.cc). Each boot is followed by a device create and the
  // tenant's first MR.
  std::uint32_t stampede_width = 8;

  std::uint64_t mr_bytes = 4ull * 1024 * 1024;

  // Steady state (starts after the last wave): every tenant issues
  // dma_ops_per_tenant demand-pins walking a working_set_bytes window of
  // its guest memory — a kDmaRetouch share of them revisit an
  // already-pinned block (Map Cache hit path) — and sends_per_tenant
  // vSwitch messages. Op sizes and send spacing are the k* constants of
  // tenant_fleet.cc.
  std::uint32_t dma_ops_per_tenant = 8;
  std::uint64_t working_set_bytes = 256ull * 1024 * 1024;
  SimTime dma_spacing = SimTime::micros(2);

  std::uint32_t sends_per_tenant = 4;
};

/// Time of the last boot wave's start (steady-state traffic begins one
/// kWaveSpacing later) — lets replayers split cold-start from steady phase.
SimTime fleet_steady_start(const TenantFleetConfig& config);

/// The whole fleet's op stream, sorted by (at, tenant, seq). Deterministic:
/// per-tenant draws come from independent seed-derived streams, so changing
/// the fleet size does not perturb the ops of tenants that stay.
std::vector<FleetOp> generate_fleet_ops(const TenantFleetConfig& config);

}  // namespace stellar
