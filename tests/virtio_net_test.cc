#include "virt/virtio_net.h"

#include <gtest/gtest.h>

namespace stellar {
namespace {

TEST(PlatformTest, AtsWithPassthroughRejectedOnAffectedModel) {
  HostPlatformConfig cfg;
  cfg.iommu_mode = IommuMode::kPassthrough;
  cfg.ats_enabled = true;
  EXPECT_EQ(validate_platform(cfg).code(), StatusCode::kFailedPrecondition);
  // Disabling ATS resolves it (but kills baseline GDR).
  cfg.ats_enabled = false;
  EXPECT_TRUE(validate_platform(cfg).is_ok());
  EXPECT_FALSE(baseline_gdr_possible(cfg));
}

TEST(PlatformTest, Problem4TradeoffIsLoseLose) {
  // The §3.1(4) production dilemma on the affected model:
  HostPlatformConfig gdr_config;  // ATS on => must run nopt
  gdr_config.iommu_mode = IommuMode::kNoPassthrough;
  gdr_config.ats_enabled = true;
  ASSERT_TRUE(validate_platform(gdr_config).is_ok());
  EXPECT_TRUE(baseline_gdr_possible(gdr_config));
  // ...but host TCP pays ~40%.
  EXPECT_LT(host_tcp_throughput(gdr_config).as_gbps(), 130.0);

  HostPlatformConfig tcp_config;  // pt keeps TCP fast => no ATS, no GDR
  tcp_config.iommu_mode = IommuMode::kPassthrough;
  tcp_config.ats_enabled = false;
  ASSERT_TRUE(validate_platform(tcp_config).is_ok());
  EXPECT_FALSE(baseline_gdr_possible(tcp_config));
  EXPECT_DOUBLE_EQ(host_tcp_throughput(tcp_config).as_gbps(), 200.0);
}

}  // namespace
}  // namespace stellar
