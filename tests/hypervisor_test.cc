#include "virt/hypervisor.h"

#include <gtest/gtest.h>

namespace stellar {
namespace {

HostPcieConfig big_host() {
  HostPcieConfig cfg;
  cfg.main_memory_bytes = 4ull << 40;  // 4 TiB host
  return cfg;
}

TEST(HypervisorTest, PinAllBootIsMinuteScaleFor1600GB) {
  HostPcie pcie(big_host());
  HypervisorConfig hcfg;
  hcfg.use_pvdma = false;
  Hypervisor hyp(pcie, hcfg);
  RundContainer container(1, "big", 1600ull * 1_GiB);
  auto report = hyp.boot_container(container);
  ASSERT_TRUE(report.is_ok());
  // The §3.1(2) observation: ~390 s of pinning dominates start-up.
  EXPECT_GT(report.value().pin_time.sec(), 300.0);
  EXPECT_GT(report.value().total.sec(), 300.0);
  // The whole guest is pinned up front.
  EXPECT_EQ(pcie.iommu().pinned_bytes(), 1600ull * 1_GiB);
}

TEST(HypervisorTest, PvdmaBootIsSecondsScale) {
  HostPcie pcie(big_host());
  HypervisorConfig hcfg;
  hcfg.use_pvdma = true;
  Hypervisor hyp(pcie, hcfg);
  RundContainer container(1, "big", 1600ull * 1_GiB);
  auto report = hyp.boot_container(container);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().pin_time, SimTime::zero());
  // "below 20 seconds in all cases" (Figure 6).
  EXPECT_LT(report.value().total.sec(), 25.0);
  EXPECT_EQ(pcie.iommu().pinned_bytes(), 0u);
}

TEST(HypervisorTest, BootSpeedupMatchesPaperScale) {
  auto boot_time = [](bool pvdma, std::uint64_t mem) {
    HostPcie pcie(big_host());
    HypervisorConfig hcfg;
    hcfg.use_pvdma = pvdma;
    Hypervisor hyp(pcie, hcfg);
    RundContainer container(1, "c", mem);
    return hyp.boot_container(container).value().total.sec();
  };
  const double speedup = boot_time(false, 1600ull * 1_GiB) /
                         boot_time(true, 1600ull * 1_GiB);
  // The paper reports up to 15x (abstract) / 30x (§4) depending on the
  // baseline; the model lands in that band.
  EXPECT_GT(speedup, 10.0);
  EXPECT_LT(speedup, 40.0);
}

TEST(HypervisorTest, DoubleBootRejected) {
  HostPcie pcie;
  Hypervisor hyp(pcie, {});
  RundContainer container(1, "c", 1_GiB);
  ASSERT_TRUE(hyp.boot_container(container).is_ok());
  EXPECT_EQ(hyp.boot_container(container).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(HypervisorTest, ShutdownReleasesBacking) {
  HostPcie pcie;
  Hypervisor hyp(pcie, {});
  RundContainer container(1, "c", 1_GiB);
  const std::uint64_t before = pcie.main_memory().used_bytes();
  ASSERT_TRUE(hyp.boot_container(container).is_ok());
  EXPECT_EQ(pcie.main_memory().used_bytes(), before + 1_GiB);
  ASSERT_TRUE(hyp.shutdown_container(container).is_ok());
  EXPECT_EQ(pcie.main_memory().used_bytes(), before);
  EXPECT_FALSE(container.booted());
  EXPECT_EQ(hyp.shutdown_container(container).code(), StatusCode::kNotFound);
}

TEST(HypervisorTest, OversizedContainerFailsCleanly) {
  HostPcieConfig cfg;
  cfg.main_memory_bytes = 2_GiB;
  HostPcie pcie(cfg);
  Hypervisor hyp(pcie, {});
  RundContainer container(1, "huge", 8_GiB);
  EXPECT_EQ(hyp.boot_container(container).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(container.booted());
}

// ---------------------------------------------------------------------------
// Jittered pin-retry backoff
// ---------------------------------------------------------------------------

// Boot one guest per hypervisor on a shared-size host and capture the
// completion time of a retried pin that spent `pressure` stuck behind
// injected resource pressure.
SimTime retry_completion_time(Hypervisor& hyp, Simulator& sim, VmId vm,
                              RundContainer& container, SimTime pressure) {
  EXPECT_TRUE(hyp.boot_container(container).is_ok());
  auto gpa = container.alloc(2_MiB, kPage2M);
  EXPECT_TRUE(gpa.is_ok());
  hyp.pvdma(vm).set_resource_pressure(true);
  sim.schedule_after(pressure,
                     [&hyp, vm] { hyp.pvdma(vm).set_resource_pressure(false); });
  SimTime done_at = SimTime::zero();
  hyp.prepare_dma_with_retry(sim, vm, gpa.value(), 2_MiB,
                             [&](StatusOr<Pvdma::MapResult> result) {
                               EXPECT_TRUE(result.is_ok())
                                   << result.status().to_string();
                               done_at = sim.now();
                             });
  sim.run();
  return done_at;
}

TEST(HypervisorTest, JitterDesynchronizesRetryingGuests) {
  // Two guests with identical layouts hit the same pressure window. With
  // jitter, their retry schedules decorrelate: the pins clear at different
  // instants instead of stampeding together.
  Simulator sim;
  HostPcie pcie1(big_host()), pcie2(big_host());
  Hypervisor h1(pcie1), h2(pcie2);
  RundContainer c1(1, "g1", 4ull << 30), c2(2, "g2", 4ull << 30);
  const SimTime pressure = SimTime::micros(300);
  const SimTime t1 = retry_completion_time(h1, sim, 1, c1, pressure);
  Simulator sim2;
  const SimTime t2 = retry_completion_time(h2, sim2, 2, c2, pressure);
  EXPECT_GT(t1, pressure);
  EXPECT_GT(t2, pressure);
  EXPECT_NE(t1, t2) << "jittered guests retried in lock-step";
  EXPECT_GT(h1.pin_retries(), 0u);
}

TEST(HypervisorTest, JitteredScheduleIsDeterministicAcrossRuns) {
  // Same seed, same guest, same pressure: the jittered completion time is
  // bit-identical run to run — randomized but reproducible.
  auto once = [] {
    Simulator sim;
    HostPcie pcie(big_host());
    Hypervisor hyp(pcie);
    RundContainer c(1, "g", 4ull << 30);
    return retry_completion_time(hyp, sim, 1, c, SimTime::micros(300));
  };
  EXPECT_EQ(once(), once());
}

TEST(VirtioTest, ControlPathLatencyAndCount) {
  VirtioControlPath control;
  const SimTime t = control.execute(ControlCommand::kCreateQp);
  EXPECT_GT(t, SimTime::micros(10));
  EXPECT_LT(t, SimTime::micros(100));
  control.execute(ControlCommand::kRegisterMr);
  EXPECT_EQ(control.commands_executed(), 2u);
}

TEST(VirtioTest, ShmWindowsAreDisjoint) {
  ShmRegion shm(1_MiB);
  auto a = shm.map(Hpa{0x1000}, kPage4K);
  auto b = shm.map(Hpa{0x9000}, kPage4K);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(shm.translate(a.value()).value(), Hpa{0x1000});
  EXPECT_EQ(shm.translate(b.value()).value(), Hpa{0x9000});
  EXPECT_EQ(shm.window_count(), 2u);
  ASSERT_TRUE(shm.unmap(a.value()).is_ok());
  EXPECT_FALSE(shm.translate(a.value()).is_ok());
}

TEST(VirtioTest, ShmExhaustion) {
  ShmRegion shm(2 * kPage4K);
  ASSERT_TRUE(shm.map(Hpa{0}, kPage4K).is_ok());
  ASSERT_TRUE(shm.map(Hpa{0}, kPage4K).is_ok());
  EXPECT_EQ(shm.map(Hpa{0}, kPage4K).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace stellar
