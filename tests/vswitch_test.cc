// Direct unit tests for the vSwitch per-tenant QoS layer: rule-slot quotas
// and the positional lookup cost they protect (docs/TENANCY.md). Labelled
// `tenant` — ctest -L tenant.
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

}  // namespace
}  // namespace stellar
