// Direct unit tests for the vSwitch per-tenant QoS layer: rule-slot quotas
// and the token-bucket rate limiter (docs/TENANCY.md). Labelled `tenant` —
// ctest -L tenant.
#include "rnic/vswitch.h"

#include <gtest/gtest.h>

namespace stellar {
namespace {

SteeringRule rule(std::uint64_t id, TrafficClass cls, TenantId tenant) {
  SteeringRule r;
  r.id = id;
  r.match = cls;
  r.tenant = tenant;
  return r;
}

TEST(VSwitchQos, RuleQuotaShedsTenantWithoutCollateral) {
  VSwitch vs;
  TenantQos qos;
  qos.max_rules = 2;
  vs.set_qos(7, qos);

  EXPECT_TRUE(vs.add_rule(rule(1, TrafficClass::kTcp, 7)).is_ok());
  EXPECT_TRUE(vs.add_rule(rule(2, TrafficClass::kTcp, 7)).is_ok());
  auto third = vs.add_rule(rule(3, TrafficClass::kTcp, 7));
  EXPECT_EQ(third.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(vs.rule_count(7), 2u);

  // A neighbor without a quota is untouched by the shed.
  EXPECT_TRUE(vs.add_rule(rule(4, TrafficClass::kRdma, 8)).is_ok());

  // Removing one of the tenant's rules frees a slot under the quota again.
  EXPECT_TRUE(vs.remove_rule(1).is_ok());
  EXPECT_TRUE(vs.add_rule(rule(5, TrafficClass::kTcp, 7)).is_ok());
}

TEST(VSwitchQos, GlobalCapacityIsResourceExhausted) {
  VSwitch vs(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(vs.add_rule(rule(i, TrafficClass::kTcp, 1)).is_ok());
  }
  EXPECT_EQ(vs.add_rule(rule(9, TrafficClass::kTcp, 2)).code(),
            StatusCode::kResourceExhausted);
}

TEST(VSwitchQos, LookupLatencyIsPositional) {
  VSwitch vs;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(vs.add_rule(rule(i, TrafficClass::kTcp, 1)).is_ok());
  }
  ASSERT_TRUE(vs.add_rule(rule(99, TrafficClass::kRdma, 2)).is_ok());
  auto hit = vs.lookup(TrafficClass::kRdma, 2);
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value().rules_walked, 11u);

  // Dropping the ten TCP rules ahead of it shortens the walk to one entry.
  EXPECT_EQ(vs.remove_tenant_rules(1), 10u);
  hit = vs.lookup(TrafficClass::kRdma, 2);
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value().rules_walked, 1u);
}

TEST(VSwitchQos, TokenBucketDelaysOnlyTheOverRateSender) {
  VSwitch vs;
  ASSERT_TRUE(vs.add_rule(rule(1, TrafficClass::kRdma, 7)).is_ok());
  ASSERT_TRUE(vs.add_rule(rule(2, TrafficClass::kRdma, 8)).is_ok());
  TenantQos qos;
  qos.rate = Bandwidth::gbps(8);  // 1 GiB/s-ish: 1 KiB refills in ~1 us
  qos.burst_bytes = 4096;
  vs.set_qos(7, qos);

  const SimTime t0 = SimTime::zero();
  // The burst passes untouched.
  auto f = vs.forward(TrafficClass::kRdma, 7, 4096, t0);
  ASSERT_TRUE(f.is_ok());
  EXPECT_FALSE(f.value().throttled);

  // The very next packet finds an empty bucket and is delayed, not failed.
  f = vs.forward(TrafficClass::kRdma, 7, 4096, t0);
  ASSERT_TRUE(f.is_ok());
  EXPECT_TRUE(f.value().throttled);
  EXPECT_GT(f.value().throttle_delay, SimTime::zero());
  EXPECT_EQ(vs.throttles(7), 1u);

  // The neighbor at the same instant is never throttled.
  f = vs.forward(TrafficClass::kRdma, 8, 4096, t0);
  ASSERT_TRUE(f.is_ok());
  EXPECT_FALSE(f.value().throttled);
  EXPECT_EQ(vs.throttles(8), 0u);
}

TEST(VSwitchQos, TokenBucketRefillsAfterIdle) {
  VSwitch vs;
  ASSERT_TRUE(vs.add_rule(rule(1, TrafficClass::kRdma, 7)).is_ok());
  TenantQos qos;
  qos.rate = Bandwidth::gbps(8);
  qos.burst_bytes = 4096;
  vs.set_qos(7, qos);

  ASSERT_TRUE(vs.forward(TrafficClass::kRdma, 7, 4096, SimTime::zero())
                  .is_ok());  // drains the burst
  // 8 Gbps refills 4096 bytes in ~4.1 us; after 10 us the bucket is full.
  auto f = vs.forward(TrafficClass::kRdma, 7, 4096, SimTime::micros(10));
  ASSERT_TRUE(f.is_ok());
  EXPECT_FALSE(f.value().throttled);
}

}  // namespace
}  // namespace stellar
