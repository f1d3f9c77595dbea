// Cross-cutting coverage: fleet idempotence, simulator re-entrancy,
// provisioning rollback, PCIe error paths, bursty duty cycles.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "collective/fleet.h"
#include "collective/traffic.h"
#include "pcie/atc.h"
#include "rnic/device.h"

namespace stellar {
namespace {

TEST(EngineFleetTest, AtIsIdempotent) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 1;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 1;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  RdmaEngine& first = fleet.at(0);
  RdmaEngine& second = fleet.at(0);
  EXPECT_EQ(&first, &second);
}

TEST(EngineFleetTest, ConnectInstantiatesBothSides) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 1;
  fc.hosts_per_segment = 2;
  fc.aggs_per_plane = 1;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  auto conn = fleet.connect(fabric.endpoint(0, 0),
                            fabric.endpoint(0, 1), {});
  ASSERT_TRUE(conn.is_ok());
  conn.value()->post_write(1_MiB);
  sim.run();
  // No handler-less black hole: everything delivered.
  EXPECT_EQ(fabric.dropped_no_handler(), 0u);
}

TEST(EngineFleetTest, ForEachEngineVisitsAscendingEndpoints) {
  Simulator sim;
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 4;
  fc.aggs_per_plane = 1;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);
  for (EndpointId id : {5u, 0u, 7u, 2u, 6u, 1u, 4u, 3u}) fleet.at(id);
  std::vector<EndpointId> visited;
  fleet.for_each_engine(
      [&](RdmaEngine& engine) { visited.push_back(engine.self()); });
  EXPECT_EQ(visited, (std::vector<EndpointId>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorReentrancyTest, CancelFromInsideEvent) {
  Simulator sim;
  bool second_ran = false;
  Simulator::Timer second(sim, [&second_ran] { second_ran = true; });
  second.arm(SimTime::nanos(20));
  sim.schedule_at(SimTime::nanos(10), [&] { EXPECT_TRUE(second.disarm()); });
  sim.run();
  EXPECT_FALSE(second_ran);
}

TEST(SimulatorReentrancyTest, ScheduleAtCurrentTimeFromEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::nanos(10), [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(SimTime::nanos(10), [&] { order.push_back(3); });
  sim.run();
  // Zero-delay event runs after already-queued same-time events (FIFO seq).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(RnicProvisioningTest, VfCreationRollsBackOnBdfConflict) {
  HostPcieConfig cfg;
  HostPcie pcie(cfg);
  const std::size_t sw = pcie.add_switch("sw0");
  Rnic rnic(pcie, Bdf{0x10, 0, 0}, sw);
  // Occupy the BDF the 2nd VF would claim.
  ASSERT_TRUE(pcie.attach_device(Bdf{0x10, 1, 1}, sw, 4096).is_ok());
  EXPECT_FALSE(rnic.set_num_vfs(4).is_ok());
  EXPECT_EQ(rnic.num_vfs(), 0u);  // rolled back, not half-configured
  // And the RNIC is still usable afterwards.
  EXPECT_TRUE(rnic.create_virtual_device(1).is_ok());
}

TEST(RnicProvisioningTest, PfGdrIdempotent) {
  HostPcie pcie;
  const std::size_t sw = pcie.add_switch("sw0");
  Rnic rnic(pcie, Bdf{0x10, 0, 0}, sw);
  EXPECT_TRUE(rnic.enable_pf_gdr().is_ok());
  EXPECT_TRUE(rnic.enable_pf_gdr().is_ok());
  EXPECT_EQ(pcie.pcie_switch(sw).lut_size(), 1u);
}

TEST(HostPcieErrorsTest, AtsForUnknownBdf) {
  HostPcie pcie;
  pcie.add_switch("sw0");
  ASSERT_TRUE(pcie.iommu().map(IoVa{0}, Hpa{0x400000}, 1_MiB).is_ok());
  // The ATC of a device that never attached: its ATS requests fail even
  // for a mapped page, and nothing is cached.
  Atc atc(pcie, Bdf{0x66, 0, 0}, 16);
  EXPECT_EQ(atc.translate(IoVa{0}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(atc.translate_run(IoVa{0}, 4).failed, 4u);
  EXPECT_EQ(atc.cache().size(), 0u);
  EXPECT_EQ(pcie.iommu().iotlb().size(), 0u);
}

TEST(HostPcieErrorsTest, TranslatedTlpToUnclaimedAddressFails) {
  HostPcie pcie;
  const std::size_t sw = pcie.add_switch("sw0");
  ASSERT_TRUE(pcie.attach_device(Bdf{0x10, 0, 0}, sw, 4096).is_ok());
  Tlp tlp;
  tlp.requester = Bdf{0x10, 0, 0};
  tlp.at = AtField::kTranslated;
  tlp.address = (1ull << 46) + (1ull << 39);  // MMIO window, no BAR there
  EXPECT_EQ(pcie.dma(tlp).status().code(), StatusCode::kNotFound);
}

TEST(HostPcieErrorsTest, BadSwitchIdRejected) {
  HostPcie pcie;
  EXPECT_EQ(pcie.attach_device(Bdf{0x10, 0, 0}, 7, 4096).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BurstyDriverTest, RespectsOffWindow) {
  Simulator sim;
  // A "task" that completes instantly; count how many run per window.
  std::vector<SimTime> run_times;
  BurstyDriver bursty(
      sim,
      [&](std::function<void()> done) {
        run_times.push_back(sim.now());
        sim.schedule_after(SimTime::micros(100), std::move(done));
      },
      /*on=*/SimTime::millis(1), /*off=*/SimTime::millis(3));
  bursty.run();
  sim.run_until(SimTime::millis(9));
  bursty.stop();
  sim.run();
  // Runs cluster inside [0,1) ms, [4,5) ms, [8,9) ms — nothing in the off
  // windows.
  for (const SimTime t : run_times) {
    const double in_cycle = std::fmod(t.ms(), 4.0);
    EXPECT_LT(in_cycle, 1.1) << "task started inside an off window at "
                             << t.to_string();
  }
  EXPECT_GE(run_times.size(), 20u);  // ~10 per on-window
}

}  // namespace
}  // namespace stellar
