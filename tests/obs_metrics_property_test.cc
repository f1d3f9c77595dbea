// Property tests for the obs metrics primitives.
//
// The LogHistogram is the cheap streaming stand-in for the exact
// PercentileRecorder the benches use: its quantile() mirrors the recorder's
// rank interpolation over bucket midpoints, so the estimate may be off by
// at most one bucket width (12.5% relative above the exact range). These
// tests pin that bound across seeded distributions, check the bucket
// arithmetic invariants exhaustively, and verify counter monotonicity and
// registry determinism under interleaved producers.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace stellar;
using obs::LogHistogram;

namespace {

/// Deterministic 64-bit mixer (splitmix64), same as the sim stress tests.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Width of the bucket containing `v` — the tolerance unit for quantile
/// comparisons.
double bucket_width_at(double v) {
  const auto u = static_cast<std::uint64_t>(std::max(v, 0.0));
  const int i = LogHistogram::bucket_index(u);
  return static_cast<double>(LogHistogram::bucket_hi(i) -
                             LogHistogram::bucket_lo(i));
}

void expect_quantiles_within_one_bucket(const std::vector<std::uint64_t>& vs,
                                        const char* label) {
  LogHistogram h;
  PercentileRecorder exact;
  for (std::uint64_t v : vs) {
    h.record(v);
    exact.add(static_cast<double>(v));
  }
  ASSERT_EQ(h.count(), vs.size());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double est = h.quantile(q);
    const double ref = exact.percentile(q);
    const double tol = bucket_width_at(std::max(est, ref));
    EXPECT_NEAR(est, ref, tol) << label << " q=" << q;
  }
}

TEST(LogHistogramPropertyTest, BucketBoundsAreConsistent) {
  // Every bucket: lo < hi, index(lo) == i, index(hi - 1) == i, and lo/hi
  // tile the axis with no gaps.
  for (int i = 0; i + 1 < LogHistogram::kBuckets; ++i) {
    const std::uint64_t lo = LogHistogram::bucket_lo(i);
    const std::uint64_t hi = LogHistogram::bucket_hi(i);
    ASSERT_LT(lo, hi) << "bucket " << i;
    EXPECT_EQ(LogHistogram::bucket_index(lo), i);
    EXPECT_EQ(LogHistogram::bucket_index(hi - 1), i);
    EXPECT_EQ(LogHistogram::bucket_hi(i), LogHistogram::bucket_lo(i + 1))
        << "gap after bucket " << i;
    const std::uint64_t mid = LogHistogram::bucket_mid(i);
    EXPECT_GE(mid, lo);
    EXPECT_LT(mid, hi);
  }
}

TEST(LogHistogramPropertyTest, SampleLandsInItsBucket) {
  std::uint64_t rng = 1;
  for (int trial = 0; trial < 100000; ++trial) {
    // Spread across all octaves: random width up to 2^62.
    const std::uint64_t v = mix64(rng) >> (mix64(rng) % 63);
    const int i = LogHistogram::bucket_index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, LogHistogram::kBuckets);
    EXPECT_LE(LogHistogram::bucket_lo(i), v);
    EXPECT_GT(LogHistogram::bucket_hi(i), v);
  }
  // Small values are exact (their own bucket of width 1).
  for (std::uint64_t v = 0; v < 2ull * LogHistogram::kSub; ++v) {
    const int i = LogHistogram::bucket_index(v);
    EXPECT_EQ(LogHistogram::bucket_lo(i), v);
    EXPECT_EQ(LogHistogram::bucket_hi(i), v + 1);
    EXPECT_EQ(LogHistogram::bucket_mid(i), v);
  }
}

TEST(LogHistogramPropertyTest, QuantilesTrackExactRecorderUniform) {
  std::uint64_t rng = 42;
  std::vector<std::uint64_t> vs;
  for (int i = 0; i < 20000; ++i) vs.push_back(mix64(rng) % 5'000'000);
  expect_quantiles_within_one_bucket(vs, "uniform");
}

TEST(LogHistogramPropertyTest, QuantilesTrackExactRecorderHeavyTail) {
  // Latency-shaped: mostly small with a heavy tail spanning many octaves
  // (the regime the log bucketing exists for).
  std::uint64_t rng = 7;
  std::vector<std::uint64_t> vs;
  for (int i = 0; i < 20000; ++i) {
    vs.push_back(1 + (mix64(rng) >> (mix64(rng) % 40)));
  }
  expect_quantiles_within_one_bucket(vs, "heavy-tail");
}

TEST(LogHistogramPropertyTest, QuantilesTrackExactRecorderSmallExact) {
  // All samples below 16 hit the exact buckets: quantiles should match the
  // recorder to within interpolation rounding, not just a bucket width.
  std::uint64_t rng = 13;
  std::vector<std::uint64_t> vs;
  for (int i = 0; i < 5000; ++i) vs.push_back(mix64(rng) % 16);
  expect_quantiles_within_one_bucket(vs, "small-exact");

  LogHistogram h;
  PercentileRecorder exact;
  for (std::uint64_t v : vs) {
    h.record(v);
    exact.add(static_cast<double>(v));
  }
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(h.quantile(q), exact.percentile(q), 1.0) << "q=" << q;
  }
}

TEST(LogHistogramPropertyTest, QuantileEdgeCases) {
  LogHistogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.mean(), 0u);

  LogHistogram one;
  one.record(12345);
  const double tol = bucket_width_at(12345);
  EXPECT_NEAR(one.quantile(0.0), 12345.0, tol);
  EXPECT_NEAR(one.quantile(1.0), 12345.0, tol);
  EXPECT_EQ(one.min(), 12345u);
  EXPECT_EQ(one.max(), 12345u);

  LogHistogram h;
  h.record(10);
  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(LogHistogramPropertyTest, SumMinMaxAreExact) {
  std::uint64_t rng = 99;
  LogHistogram h;
  std::uint64_t sum = 0, mn = ~0ull, mx = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = mix64(rng) % 1'000'000'000ull;
    h.record(v);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.min(), mn);
  EXPECT_EQ(h.max(), mx);
  EXPECT_EQ(h.mean(), sum / 1000);
}

TEST(MetricsRegistryPropertyTest, CountersStayMonotonicUnderInterleaving) {
  // Model concurrent spans from several producers interleaved in arbitrary
  // deterministic order: whatever the interleaving, each counter's
  // observed value sequence is non-decreasing and the final total equals
  // the sum of per-producer contributions.
  obs::MetricsRegistry reg;
  const char* names[3] = {"layer_a/ops", "layer_b/ops", "layer_c/ops"};
  std::uint64_t contributed[3] = {0, 0, 0};
  std::uint64_t last_seen[3] = {0, 0, 0};
  std::uint64_t rng = 2026;
  for (int step = 0; step < 50000; ++step) {
    const std::size_t who = mix64(rng) % 3;
    const std::uint64_t delta = mix64(rng) % 4;  // includes zero-deltas
    reg.counter(names[who]).add(delta);
    contributed[who] += delta;
    for (std::size_t i = 0; i < 3; ++i) {
      const std::uint64_t v = reg.counter(names[i]).value();
      ASSERT_GE(v, last_seen[i]) << "counter went backwards: " << names[i];
      last_seen[i] = v;
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reg.counter(names[i]).value(), contributed[i]);
  }
}

TEST(MetricsRegistryPropertyTest, DumpIsIndependentOfRegistrationOrder) {
  // Same series, registered and updated in different orders, must render
  // identical JSON (the registry sorts by name, not insertion).
  obs::MetricsRegistry a, b;
  a.counter("z/count").add(3);
  a.gauge("m/level").set(-7);
  a.histogram("a/lat_ps").record(100);
  a.histogram("a/lat_ps").record(900);

  b.histogram("a/lat_ps").record(100);
  b.gauge("m/level").add(-7);
  b.counter("z/count").add(1);
  b.counter("z/count").add(2);
  b.histogram("a/lat_ps").record(900);

  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.size(), 3u);
}

TEST(MetricsRegistryPropertyTest, ReferencesAreStableAcrossGrowth) {
  obs::MetricsRegistry reg;
  obs::Counter& first = reg.counter("first");
  first.add(1);
  // Force many rebalances; the cached reference must stay valid (map nodes
  // are stable) — this is what lets hot paths cache series pointers.
  for (int i = 0; i < 1000; ++i) {
    reg.counter("filler/" + std::to_string(i)).add(1);
  }
  first.add(1);
  EXPECT_EQ(reg.counter("first").value(), 2u);
}

TEST(TracerPropertyTest, SamplingKeepsExactlyOneOfN) {
  obs::Tracer t;
  t.set_sample_period(obs::TraceCat::kTransport, 10);
  for (int i = 0; i < 1000; ++i) {
    t.instant(obs::TraceCat::kTransport, "ev", SimTime::picos(i));
  }
  EXPECT_EQ(t.event_count(), 100u);
  EXPECT_EQ(t.dropped_by_sampling(), 900u);
  // Other categories are unaffected.
  t.instant(obs::TraceCat::kNet, "ev", SimTime::picos(0));
  EXPECT_EQ(t.event_count(), 101u);
}

}  // namespace
