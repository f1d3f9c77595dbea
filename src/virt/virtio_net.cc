#include "virt/virtio_net.h"

namespace stellar {

namespace {
constexpr Bandwidth kNicLineRate = Bandwidth::gbps(200);
}  // namespace

Status validate_platform(const HostPlatformConfig& config) {
  if (config.ats_enabled && config.iommu_mode == IommuMode::kPassthrough) {
    return failed_precondition(
        "platform: ATS cannot be enabled with iommu=pt on this server "
        "model (3.1(4)); use iommu=nopt or disable ATS");
  }
  return Status::ok();
}

Bandwidth host_tcp_throughput(const HostPlatformConfig& config) {
  double factor = 1.0;
  if (config.iommu_mode == IommuMode::kNoPassthrough) {
    // Kernel TCP must map every skb through the IOMMU (IOVA as the DMA
    // address): measured ~40% throughput loss on the affected hosts.
    factor = 0.6;
  }
  return Bandwidth::bits_per_sec(static_cast<std::int64_t>(
      static_cast<double>(kNicLineRate.bps()) * factor));
}

bool baseline_gdr_possible(const HostPlatformConfig& config) {
  // The VFIO/ATC baseline needs ATS for GDR address translation. Stellar's
  // eMTT does not (translated TLPs skip the IOMMU entirely).
  return config.ats_enabled;
}

}  // namespace stellar
