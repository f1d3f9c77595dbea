// The Problem-4 interaction between PCIe ATS and the host IOMMU mode, the
// platform side of Figure 3's non-RDMA path. The §3.1(4) operational
// constraint: on the affected server model ATS cannot be enabled with
// iommu=pt, and running nopt to keep GDR working degrades the host kernel's
// TCP stack (the kernel must then use IOVAs as DMA addresses).
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/units.h"

namespace stellar {

enum class IommuMode : std::uint8_t { kPassthrough, kNoPassthrough };

struct HostPlatformConfig {
  IommuMode iommu_mode = IommuMode::kNoPassthrough;
  bool ats_enabled = true;
};

/// Validate a platform configuration against the §3.1(4) constraint of the
/// affected server model: ATS + iommu=pt is broken.
Status validate_platform(const HostPlatformConfig& config);

/// Host-kernel TCP throughput under the platform settings: iommu=nopt
/// forces the kernel TCP stack through IOVA-based DMA mapping — the
/// customer-visible regression that motivated splitting RDMA away from
/// the shared PCIe settings.
Bandwidth host_tcp_throughput(const HostPlatformConfig& config);

/// Can the platform support GDR for secure containers? (Requires ATS under
/// the VFIO baseline; Stellar's eMTT removes the dependency entirely.)
bool baseline_gdr_possible(const HostPlatformConfig& config);

}  // namespace stellar
