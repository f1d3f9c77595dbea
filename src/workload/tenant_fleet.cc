#include "workload/tenant_fleet.h"

#include <algorithm>

#include "check/check.h"
#include "common/rng.h"

namespace stellar {

const char* fleet_op_kind_name(FleetOpKind kind) {
  switch (kind) {
    case FleetOpKind::kBoot: return "boot";
    case FleetOpKind::kCreateDevice: return "create_device";
    case FleetOpKind::kRegisterMr: return "register_mr";
    case FleetOpKind::kPrepareDma: return "prepare_dma";
    case FleetOpKind::kSend: return "send";
  }
  return "unknown";
}

namespace {

// Stampede shape: kBootSpacing apart within a wave, kWaveSpacing between
// wave starts.
constexpr SimTime kWaveSpacing = SimTime::micros(50);
constexpr SimTime kBootSpacing = SimTime::nanos(500);

// Steady state: demand-pin sizes, the share of demand-pins that revisit an
// already-pinned block, and vSwitch send sizes and spacing.
constexpr std::uint64_t kDmaBytesMin = 4 * 1024;
constexpr std::uint64_t kDmaBytesMax = 64 * 1024;
constexpr double kDmaRetouch = 0.5;
constexpr std::uint64_t kSendBytesMin = 1024;
constexpr std::uint64_t kSendBytesMax = 16 * 1024;
constexpr SimTime kSendSpacing = SimTime::micros(1);

// 4 KiB-aligned offset inside the tenant's working set. Alignment keeps
// re-touches landing on the same PVDMA block as the first touch.
std::uint64_t aligned_offset(Rng& rng, std::uint64_t span) {
  const std::uint64_t pages = span / 4096 ? span / 4096 : 1;
  return rng.below(pages) * 4096;
}

std::uint64_t bytes_in(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return hi > lo ? lo + rng.below(hi - lo + 1) : lo;
}

}  // namespace

SimTime fleet_steady_start(const TenantFleetConfig& config) {
  const std::uint32_t width = std::max<std::uint32_t>(config.stampede_width, 1);
  const std::uint32_t waves = (config.tenants + width - 1) / width;
  return kWaveSpacing * (waves > 0 ? waves : 1);
}

std::vector<FleetOp> generate_fleet_ops(const TenantFleetConfig& config) {
  STELLAR_CHECK(config.first_tenant != kHostTenant,
                "fleet tenants must not alias kHostTenant");
  const std::uint32_t width = std::max<std::uint32_t>(config.stampede_width, 1);
  std::vector<FleetOp> ops;
  ops.reserve(static_cast<std::size_t>(config.tenants) *
              (3 + config.dma_ops_per_tenant + config.sends_per_tenant));

  const SimTime steady = fleet_steady_start(config);
  for (std::uint32_t i = 0; i < config.tenants; ++i) {
    const TenantId tenant = config.first_tenant + i;
    // Independent per-tenant stream: adding/removing tenants leaves every
    // other tenant's draws untouched.
    Rng rng(hash_combine(config.seed, tenant));
    std::uint32_t seq = 0;
    auto push = [&](SimTime at, FleetOpKind kind, std::uint64_t gpa,
                    std::uint64_t gva, std::uint64_t bytes) {
      FleetOp op;
      op.at = at;
      op.tenant = tenant;
      op.kind = kind;
      op.gpa = gpa;
      op.gva = gva;
      op.bytes = bytes;
      op.seq = seq++;
      ops.push_back(op);
    };

    // Cold-start stampede: wave (i / width), slot (i % width) within it.
    const SimTime boot_at =
        kWaveSpacing * (i / width) + kBootSpacing * (i % width);
    push(boot_at, FleetOpKind::kBoot, 0, 0, 0);
    push(boot_at, FleetOpKind::kCreateDevice, 0, 0, 0);
    push(boot_at, FleetOpKind::kRegisterMr, 0, /*gva=*/0x1000,
         config.mr_bytes);

    // Steady-state PVDMA churn over the tenant's working set.
    const std::uint64_t span =
        std::min(config.working_set_bytes, config.guest_mem_bytes);
    std::uint64_t last_gpa = 0;
    bool pinned_once = false;
    for (std::uint32_t d = 0; d < config.dma_ops_per_tenant; ++d) {
      const SimTime at = steady + config.dma_spacing * d;
      const std::uint64_t bytes = bytes_in(rng, kDmaBytesMin, kDmaBytesMax);
      std::uint64_t gpa;
      if (pinned_once && rng.chance(kDmaRetouch)) {
        gpa = last_gpa;  // Map Cache hit path
      } else {
        gpa = aligned_offset(rng, span > bytes ? span - bytes : 1);
        last_gpa = gpa;
        pinned_once = true;
      }
      push(at, FleetOpKind::kPrepareDma, gpa, 0, bytes);
    }

    for (std::uint32_t sidx = 0; sidx < config.sends_per_tenant; ++sidx) {
      const SimTime at = steady + kSendSpacing * sidx;
      push(at, FleetOpKind::kSend, 0, 0,
           bytes_in(rng, kSendBytesMin, kSendBytesMax));
    }
  }

  std::sort(ops.begin(), ops.end(), [](const FleetOp& a, const FleetOp& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    return a.seq < b.seq;
  });
  return ops;
}

}  // namespace stellar
