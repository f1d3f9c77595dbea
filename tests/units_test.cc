#include "common/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace stellar {
namespace {

TEST(SimTimeTest, ConstructorsAgree) {
  EXPECT_EQ(SimTime::nanos(1), SimTime::picos(1000));
  EXPECT_EQ(SimTime::micros(1), SimTime::nanos(1000));
  EXPECT_EQ(SimTime::millis(1), SimTime::micros(1000));
  EXPECT_EQ(SimTime::seconds(1.0), SimTime::millis(1000));
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::micros(3);
  const SimTime b = SimTime::micros(1);
  EXPECT_EQ(a + b, SimTime::micros(4));
  EXPECT_EQ(a - b, SimTime::micros(2));
  EXPECT_EQ(a * 2, SimTime::micros(6));
  EXPECT_EQ(a / 3, SimTime::micros(1));
  EXPECT_DOUBLE_EQ(a / b, 3.0);
}

TEST(SimTimeTest, Conversions) {
  const SimTime t = SimTime::micros(1500);
  EXPECT_DOUBLE_EQ(t.us(), 1500.0);
  EXPECT_DOUBLE_EQ(t.ms(), 1.5);
  EXPECT_DOUBLE_EQ(t.ns(), 1'500'000.0);
  EXPECT_DOUBLE_EQ(t.sec(), 0.0015);
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::picos(500).to_string(), "500 ps");
  EXPECT_EQ(SimTime::nanos(42).to_string(), "42.00 ns");
  EXPECT_EQ(SimTime::micros(250).to_string(), "250.00 us");
  EXPECT_EQ(SimTime::millis(7).to_string(), "7.00 ms");
  EXPECT_EQ(SimTime::seconds(390).to_string(), "390.00 s");
}

TEST(ByteLiteralsTest, Magnitudes) {
  EXPECT_EQ(1_KiB, 1024ull);
  EXPECT_EQ(1_MiB, 1024ull * 1024);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(2_TiB, 2ull * 1024 * 1024 * 1024 * 1024);
}

TEST(FormatBytesTest, HumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4.00 KiB");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(2_MiB), "2.00 MiB");
  EXPECT_EQ(format_bytes(1600ull * 1_GiB), "1.56 TiB");
}

TEST(BandwidthTest, TransmitTimeExact) {
  // 400 Gbps = 50 bytes/ns => 4 KiB in 81.92 ns.
  const Bandwidth bw = Bandwidth::gbps(400);
  EXPECT_EQ(bw.transmit_time(4096), SimTime::picos(81'920));
  // 200 Gbps: 1 byte = 40 ps.
  EXPECT_EQ(Bandwidth::gbps(200).transmit_time(1), SimTime::picos(40));
}

TEST(BandwidthTest, TransmitTimeMatchesWideFormulaAroundNarrowLimit) {
  // transmit_time divides in 64 bits up to 1,152,921 bytes (the largest
  // count whose bytes * 8e12 fits in an int64) and in i128 above it. Both
  // must truncate exactly like the one-formula i128 reference.
  const auto wide = [](Bandwidth bw, std::uint64_t bytes) {
    return SimTime::picos(static_cast<std::int64_t>(
        static_cast<__int128>(bytes) * 8 * 1'000'000'000'000ll / bw.bps()));
  };
  const Bandwidth rates[] = {
      Bandwidth::gbps(25), Bandwidth::gbps(100), Bandwidth::gbps(200),
      Bandwidth::gbps(400),
      Bandwidth::bits_per_sec(98'765'432'101)};  // ps per byte not integral
  // The limit and one past it; a 64 B ACK and a 4,096 B payload plus its
  // 64 B header (link serialization and the stack rate cap); a 4 KiB GDR
  // page plus its 66 B TLP overhead; and a large cold-path copy.
  const std::uint64_t counts[] = {0,    1,    64,        4160,      4162,
                                  1'152'920, 1'152'921, 1'152'922,
                                  1_GiB};
  for (const Bandwidth bw : rates) {
    for (const std::uint64_t bytes : counts) {
      EXPECT_EQ(bw.transmit_time(bytes), wide(bw, bytes))
          << bytes << " bytes at " << bw.bps() << " b/s";
    }
  }
  // Positive products of 1,152,921 bytes fit; 1,152,922 would not.
  EXPECT_LE(__int128{1'152'921} * 8'000'000'000'000ll,
            __int128{std::numeric_limits<std::int64_t>::max()});
  EXPECT_GT(__int128{1'152'922} * 8'000'000'000'000ll,
            __int128{std::numeric_limits<std::int64_t>::max()});
}

TEST(BandwidthTest, Conversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(200).as_gbps(), 200.0);
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(400).gigabytes_per_sec(), 50.0);
}

TEST(BandwidthTest, LargeTransferNoOverflow) {
  // 1 TiB at 100 Gbps ~ 87.96 s; must not overflow int64 picoseconds math.
  const SimTime t = Bandwidth::gbps(100).transmit_time(1_TiB);
  EXPECT_NEAR(t.sec(), 87.96, 0.05);
}

}  // namespace
}  // namespace stellar
