#include <gtest/gtest.h>

#include "rnic/mtt.h"
#include "rnic/verbs.h"

namespace stellar {
namespace {

TEST(VerbsTest, PdPerVm) {
  VerbsResources verbs;
  const PdId pd1 = verbs.create_pd(/*vm=*/1);
  const PdId pd2 = verbs.create_pd(/*vm=*/2);
  EXPECT_NE(pd1, pd2);
  EXPECT_EQ(verbs.pd_vm(pd1).value(), 1u);
  EXPECT_EQ(verbs.pd_vm(pd2).value(), 2u);
  EXPECT_FALSE(verbs.pd_vm(999).is_ok());
}

TEST(VerbsTest, QpStateLadder) {
  VerbsResources verbs;
  const PdId pd = verbs.create_pd(1);
  const QpNum qp = verbs.create_qp(pd).value();
  EXPECT_EQ(verbs.qp(qp).value()->state, QpState::kReset);
  // Skipping states is illegal.
  EXPECT_EQ(verbs.modify_qp(qp, QpState::kRts).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kInit).is_ok());
  EXPECT_EQ(verbs.modify_qp(qp, QpState::kRts).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kRtr, 77).is_ok());
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kRts).is_ok());
  EXPECT_EQ(verbs.qp(qp).value()->remote_qp, 77u);
  // Error and reset are reachable from anywhere.
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kError).is_ok());
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kReset).is_ok());
}

TEST(VerbsTest, ProtectionDomainIsolation) {
  VerbsResources verbs;
  const PdId pd_a = verbs.create_pd(1);
  const PdId pd_b = verbs.create_pd(2);
  const QpNum qp = verbs.create_qp(pd_a).value();
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kInit).is_ok());
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kRtr).is_ok());
  ASSERT_TRUE(verbs.modify_qp(qp, QpState::kRts).is_ok());

  const MrKey own =
      verbs.register_mr(pd_a, Gva{0x1000}, 4096, MemoryOwner::kHostDram)
          .value();
  const MrKey foreign =
      verbs.register_mr(pd_b, Gva{0x1000}, 4096, MemoryOwner::kGpuHbm).value();

  EXPECT_TRUE(verbs.check_access(qp, own).is_ok());
  // The §9 isolation property: cross-PD access is rejected by hardware.
  EXPECT_EQ(verbs.check_access(qp, foreign).code(),
            StatusCode::kPermissionDenied);
}

TEST(VerbsTest, AccessRequiresRts) {
  VerbsResources verbs;
  const PdId pd = verbs.create_pd(1);
  const QpNum qp = verbs.create_qp(pd).value();
  const MrKey mr =
      verbs.register_mr(pd, Gva{0}, 4096, MemoryOwner::kHostDram).value();
  EXPECT_EQ(verbs.check_access(qp, mr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(VerbsTest, RegisterMrValidation) {
  VerbsResources verbs;
  EXPECT_FALSE(verbs.register_mr(42, Gva{0}, 4096, MemoryOwner::kHostDram)
                   .is_ok());  // unknown PD
  const PdId pd = verbs.create_pd(1);
  EXPECT_EQ(verbs.register_mr(pd, Gva{0}, 0, MemoryOwner::kHostDram)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VerbsTest, DestroyLifecycle) {
  VerbsResources verbs;
  const PdId pd = verbs.create_pd(1);
  const QpNum qp = verbs.create_qp(pd).value();
  const MrKey mr =
      verbs.register_mr(pd, Gva{0}, 4096, MemoryOwner::kHostDram).value();
  EXPECT_TRUE(verbs.destroy_qp(qp).is_ok());
  EXPECT_FALSE(verbs.destroy_qp(qp).is_ok());
  EXPECT_TRUE(verbs.deregister_mr(mr).is_ok());
  EXPECT_FALSE(verbs.deregister_mr(mr).is_ok());
}

TEST(MttTest, RegisterLookupDeregister) {
  Mtt mtt(/*capacity_pages=*/1024);
  ASSERT_TRUE(mtt.register_region(1, Gva{0x10000}, 0x4000, 0xA0000,
                                  MemoryOwner::kGpuHbm, /*translated=*/true)
                  .is_ok());
  auto e = mtt.lookup(1, Gva{0x11234});
  ASSERT_TRUE(e.is_ok());
  EXPECT_EQ(e.value().target, 0xA1234u);
  EXPECT_EQ(e.value().owner, MemoryOwner::kGpuHbm);
  EXPECT_TRUE(e.value().translated);
  EXPECT_EQ(mtt.used_pages(), 4u);
  ASSERT_TRUE(mtt.deregister(1).is_ok());
  EXPECT_EQ(mtt.used_pages(), 0u);
  EXPECT_FALSE(mtt.lookup(1, Gva{0x10000}).is_ok());
}

TEST(MttTest, UntranslatedEntryKind) {
  Mtt mtt(1024);
  // Classic MTT entry: GVA -> GPA, needs IOMMU downstream.
  ASSERT_TRUE(mtt.register_region(7, Gva{0}, 0x1000, 0x5000,
                                  MemoryOwner::kHostDram, false)
                  .is_ok());
  EXPECT_FALSE(mtt.lookup(7, Gva{0}).value().translated);
}

TEST(MttTest, CapacityEnforced) {
  Mtt mtt(8);
  ASSERT_TRUE(mtt.register_region(1, Gva{0}, 6 * kPage4K, 0,
                                  MemoryOwner::kHostDram, true)
                  .is_ok());
  EXPECT_EQ(mtt.register_region(2, Gva{1_MiB}, 4 * kPage4K, 0,
                                MemoryOwner::kHostDram, true)
                .code(),
            StatusCode::kResourceExhausted);
  // Exactly filling is fine.
  ASSERT_TRUE(mtt.register_region(3, Gva{1_MiB}, 2 * kPage4K, 0,
                                  MemoryOwner::kHostDram, true)
                  .is_ok());
  EXPECT_EQ(mtt.used_pages(), 8u);
}

TEST(MttTest, LookupOutsideRegionFails) {
  Mtt mtt(1024);
  ASSERT_TRUE(mtt.register_region(1, Gva{0x1000}, 0x1000, 0,
                                  MemoryOwner::kHostDram, true)
                  .is_ok());
  EXPECT_EQ(mtt.lookup(1, Gva{0x2000}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(mtt.lookup(99, Gva{0x1000}).status().code(),
            StatusCode::kNotFound);
}

TEST(MttTest, DuplicateKeyRejected) {
  Mtt mtt(1024);
  ASSERT_TRUE(mtt.register_region(1, Gva{0}, 0x1000, 0,
                                  MemoryOwner::kHostDram, true)
                  .is_ok());
  EXPECT_EQ(mtt.register_region(1, Gva{0x4000}, 0x1000, 0,
                                MemoryOwner::kHostDram, true)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(MttTest, SingleRangeLookupBoundaries) {
  Mtt mtt(1024);
  const Gva base{0x7f0000003000};
  const std::uint64_t len = 5 * kPage4K + 123;
  ASSERT_TRUE(mtt.register_region(3, base, len, 0xA0000000,
                                  MemoryOwner::kHostDram, true)
                  .is_ok());
  EXPECT_EQ(mtt.lookup(3, base).value().target, 0xA0000000u);
  EXPECT_EQ(mtt.lookup(3, base + (len - 1)).value().target,
            0xA0000000u + len - 1);
  EXPECT_EQ(mtt.lookup(3, base + len).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(mtt.lookup(3, base - 1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mtt.lookup(3, Gva{0}).status().code(), StatusCode::kOutOfRange);
}

TEST(MttTest, ZeroLengthRegionRegistersNothing) {
  Mtt mtt(1024);
  EXPECT_EQ(mtt.register_region(1, Gva{0x1000}, 0, 0x5000,
                                MemoryOwner::kHostDram, true, /*tenant=*/7)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mtt.region_count(), 0u);
  EXPECT_EQ(mtt.used_pages(), 0u);
  EXPECT_EQ(mtt.tenant_pages(7), 0u);
  EXPECT_EQ(mtt.lookup(1, Gva{0x1000}).status().code(), StatusCode::kNotFound);
  // The key stays free for a real registration.
  EXPECT_TRUE(mtt.register_region(1, Gva{0x1000}, 0x1000, 0x5000,
                                  MemoryOwner::kHostDram, true, 7)
                  .is_ok());
  // A zero-length call on a taken key reports the duplicate, as before.
  EXPECT_EQ(mtt.register_region(1, Gva{0x9000}, 0, 0,
                                MemoryOwner::kHostDram, true, 7)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(MttTest, RejectedRegistrationLeavesPageCountsUnchanged) {
  Mtt mtt(8);
  ASSERT_TRUE(mtt.register_region(1, Gva{0}, 6 * kPage4K, 0,
                                  MemoryOwner::kHostDram, true, /*tenant=*/4)
                  .is_ok());
  const auto unchanged = [&] {
    EXPECT_EQ(mtt.used_pages(), 6u);
    EXPECT_EQ(mtt.tenant_pages(4), 6u);
    EXPECT_EQ(mtt.tenant_pages(5), 0u);
    EXPECT_EQ(mtt.region_count(), 1u);
  };
  EXPECT_EQ(mtt.register_region(2, Gva{1_MiB}, 3 * kPage4K, 0,
                                MemoryOwner::kHostDram, true, 5)
                .code(),
            StatusCode::kResourceExhausted);
  unchanged();
  EXPECT_EQ(mtt.register_region(1, Gva{1_MiB}, kPage4K, 0,
                                MemoryOwner::kHostDram, true, 5)
                .code(),
            StatusCode::kAlreadyExists);
  unchanged();
  EXPECT_EQ(mtt.register_region(3, Gva{1_MiB}, 0, 0, MemoryOwner::kHostDram,
                                true, 5)
                .code(),
            StatusCode::kInvalidArgument);
  unchanged();
}

}  // namespace
}  // namespace stellar
