#include "rnic/congestion.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stellar {
namespace {

CcConfig small_config() {
  CcConfig cfg;
  cfg.init_window = 64 * 1024;
  cfg.min_window = 4096;
  cfg.max_window = 256 * 1024;
  return cfg;
}

TEST(WindowCcTest, StartsAtInitWindow) {
  WindowCc cc(small_config());
  EXPECT_EQ(cc.window(), 64u * 1024);
  EXPECT_TRUE(cc.can_send(0));
  EXPECT_TRUE(cc.can_send(64 * 1024 - 1));
  EXPECT_FALSE(cc.can_send(64 * 1024));
}

TEST(WindowCcTest, CleanAcksGrowWindow) {
  WindowCc cc(small_config());
  const std::uint64_t before = cc.window();
  for (int i = 0; i < 16; ++i) {
    cc.on_ack(4096, false, SimTime::micros(8));
  }
  EXPECT_GT(cc.window(), before);
}

TEST(WindowCcTest, GrowthCapsAtMax) {
  WindowCc cc(small_config());
  for (int i = 0; i < 100'000; ++i) {
    cc.on_ack(4096, false, SimTime::micros(8));
  }
  EXPECT_EQ(cc.window(), 256u * 1024);
}

TEST(WindowCcTest, EcnShrinksWindow) {
  WindowCc cc(small_config());
  // Warm up alpha with marked ACKs, then observe decrease.
  for (int i = 0; i < 256; ++i) cc.on_ack(4096, true, SimTime::micros(8));
  EXPECT_LT(cc.window(), 64u * 1024);
  EXPECT_GT(cc.alpha(), 0.3);  // persistent marking drives alpha up
}

TEST(WindowCcTest, WindowNeverBelowMin) {
  WindowCc cc(small_config());
  for (int i = 0; i < 10'000; ++i) cc.on_ack(4096, true, SimTime::micros(8));
  EXPECT_GE(cc.window(), 4096u);
}

TEST(WindowCcTest, HighRttTriggersBackoff) {
  WindowCc cc(small_config());
  // Clean ACKs but with persistently huge RTT (queueing the ECN missed):
  // far past rtt_high_factor * kBaseRtt.
  std::uint64_t prev = cc.window();
  bool decreased = false;
  for (int i = 0; i < 1000; ++i) {
    cc.on_ack(4096, false, SimTime::micros(100));
    if (cc.window() < prev) decreased = true;
    prev = cc.window();
  }
  EXPECT_TRUE(decreased);
}

TEST(WindowCcTest, AlphaDecaysWithoutMarks) {
  WindowCc cc(small_config());
  for (int i = 0; i < 32; ++i) cc.on_ack(4096, true, SimTime::micros(8));
  const double alpha_high = cc.alpha();
  for (int i = 0; i < 2048; ++i) cc.on_ack(4096, false, SimTime::micros(8));
  EXPECT_LT(cc.alpha(), alpha_high / 4);
}

TEST(SwiftCcTest, GrowsUnderTargetShrinksOverTarget) {
  const CcConfig cfg = small_config();
  SwiftCc cc(cfg);  // target = 1.5 * kBaseRtt = 12 us
  const std::uint64_t start = cc.window();
  for (int i = 0; i < 32; ++i) cc.on_ack(4096, false, SimTime::micros(6));
  EXPECT_GT(cc.window(), start);
  const std::uint64_t grown = cc.window();
  // Far-over-target RTTs shrink, rate-limited to once per window of ACKs.
  for (int i = 0; i < 1024; ++i) cc.on_ack(4096, false, SimTime::micros(60));
  EXPECT_LT(cc.window(), grown);
  EXPECT_GE(cc.window(), cfg.min_window);
}

TEST(SwiftCcTest, IgnoresEcn) {
  SwiftCc cc(small_config());
  const std::uint64_t before = cc.window();
  // ECN-marked but fast ACKs still grow the window: pure delay signal.
  for (int i = 0; i < 16; ++i) cc.on_ack(4096, true, SimTime::micros(5));
  EXPECT_GT(cc.window(), before);
}

TEST(SwiftCcTest, FactoryDispatch) {
  auto window = make_congestion_control(CcAlgo::kWindowEcnRtt, small_config());
  auto swift = make_congestion_control(CcAlgo::kSwiftDelay, small_config());
  ASSERT_NE(window, nullptr);
  ASSERT_NE(swift, nullptr);
  EXPECT_EQ(window->window(), swift->window());
  EXPECT_STREQ(cc_algo_name(CcAlgo::kWindowEcnRtt), "ECN+RTT window");
  EXPECT_STREQ(cc_algo_name(CcAlgo::kSwiftDelay), "Swift-delay");
}

TEST(SwiftCcTest, InvariantsUnderRandomEvents) {
  SwiftCc cc(small_config());
  Rng rng(777);
  for (int i = 0; i < 20'000; ++i) {
    cc.on_ack(static_cast<std::uint32_t>(rng.below(9000) + 1),
              rng.chance(0.3),
              SimTime::nanos(static_cast<std::int64_t>(rng.below(80'000))));
    ASSERT_GE(cc.window(), 4096u);
    ASSERT_LE(cc.window(), 256u * 1024);
  }
}

/// Property: under arbitrary random event streams the window stays within
/// [min, max] and can_send stays consistent with the window.
TEST(WindowCcPropertyTest, InvariantsUnderRandomEvents) {
  WindowCc cc(small_config());
  Rng rng(31337);
  for (int i = 0; i < 50'000; ++i) {
    cc.on_ack(static_cast<std::uint32_t>(rng.below(9000) + 1),
              rng.chance(0.2),
              SimTime::nanos(static_cast<std::int64_t>(rng.below(100'000))));
    ASSERT_GE(cc.window(), 4096u);
    ASSERT_LE(cc.window(), 256u * 1024);
    ASSERT_TRUE(cc.can_send(cc.window() - 1));
    ASSERT_FALSE(cc.can_send(cc.window()));
    ASSERT_GE(cc.alpha(), 0.0);
    ASSERT_LE(cc.alpha(), 1.0);
  }
}

}  // namespace
}  // namespace stellar
