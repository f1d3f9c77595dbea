// Full-stack integration: a multi-tenant serverless scenario exercising
// every layer together — container boot (PVDMA), vStellar devices, eMTT
// GDR, PD isolation, and a cross-segment collective on the packet fabric —
// the end-to-end flow a production job would take.
#include <gtest/gtest.h>

#include <memory>

#include "check/auditors.h"
#include "collective/allreduce.h"
#include "core/cluster.h"
#include "core/stellar.h"
#include "rnic/vswitch.h"
#include "workload/models.h"
#include "workload/placement.h"

namespace stellar {
namespace {

TEST(IntegrationTest, ServerlessTenantLifecycle) {
  StellarHostConfig host_cfg;
  host_cfg.pcie.main_memory_bytes = 128_GiB;
  StellarHost host(host_cfg);

  // Two tenants boot (fast: PVDMA defers pinning), each gets a device.
  RundContainer tenant_a(1, "a", 16_GiB);
  RundContainer tenant_b(2, "b", 16_GiB);
  ASSERT_TRUE(host.boot(tenant_a).is_ok());
  ASSERT_TRUE(host.boot(tenant_b).is_ok());
  auto boot = host.boot(tenant_a);  // double boot rejected
  EXPECT_FALSE(boot.is_ok());

  // Both tenants share RNIC 0 — the PD check below is a same-NIC property.
  auto dev_a = host.create_vstellar_device(tenant_a, 0);
  auto dev_b = host.create_vstellar_device(tenant_b, 0);
  ASSERT_TRUE(dev_a.is_ok() && dev_b.is_ok());
  EXPECT_LT(dev_a.value()->creation_time().sec(), 2.0);

  // Tenant A registers host memory (pins on demand) and GPU memory.
  auto host_buf = tenant_a.alloc(16_MiB, kPage2M);
  ASSERT_TRUE(host_buf.is_ok());
  auto host_mr = dev_a.value()->register_memory(
      Gva{0x10000000}, 16_MiB, MemoryOwner::kHostDram,
      host_buf.value().value());
  ASSERT_TRUE(host_mr.is_ok());
  EXPECT_TRUE(host_mr.value().pinned_now);
  EXPECT_EQ(host.hypervisor().pvdma(1).pinned_bytes(), 16_MiB);

  auto gpu_mr = dev_a.value()->register_memory(Gva{0x20000000}, 128_MiB,
                                               MemoryOwner::kGpuHbm, 0, 0);
  ASSERT_TRUE(gpu_mr.is_ok());

  // GDR via eMTT at 400G-class throughput.
  auto gdr = dev_a.value()->gdr_write(gpu_mr.value().key, Gva{0x20000000},
                                      32_MiB);
  ASSERT_TRUE(gdr.is_ok());
  EXPECT_GT(gdr.value().gbps, 380.0);

  // Isolation: tenant B's QP cannot touch tenant A's MR.
  auto qp_b = dev_b.value()->create_qp();
  ASSERT_TRUE(qp_b.is_ok());
  ASSERT_TRUE(dev_b.value()->connect_qp(qp_b.value(), 1).is_ok());
  EXPECT_EQ(dev_b.value()
                ->check_access(qp_b.value(), gpu_mr.value().key)
                .code(),
            StatusCode::kPermissionDenied);

  // Teardown releases everything.
  ASSERT_TRUE(dev_a.value()->deregister_memory(host_mr.value().key).is_ok());
  EXPECT_EQ(host.hypervisor().pvdma(1).pinned_bytes(), 0u);
  ASSERT_TRUE(host.shutdown(tenant_a).is_ok());
  ASSERT_TRUE(host.shutdown(tenant_b).is_ok());
}

TEST(IntegrationTest, PlacedCollectiveOverCluster) {
  ClusterConfig cfg;
  cfg.fabric.segments = 2;
  cfg.fabric.hosts_per_segment = 8;
  cfg.fabric.aggs_per_plane = 8;
  StellarCluster cluster(cfg);

  auto ranks = place_job(cluster.fabric(), 16, 0,
                         PlacementPolicy::kRandomRanking);
  EXPECT_DOUBLE_EQ(cross_segment_hop_fraction(cluster.fabric(), ranks), 1.0);

  AllReduceConfig ar_cfg;
  ar_cfg.data_bytes = 16_MiB;
  ar_cfg.transport = cluster.config().transport;
  RingAllReduce ar(cluster.fleet(), ranks, ar_cfg);
  bool done = false;
  ar.start([&] { done = true; });
  cluster.run();
  ASSERT_TRUE(done);

  // Feed the measured bandwidth into the training model end to end.
  TrainJob job = table1_llama33b();
  const double bw = ar.bus_bandwidth_gbps();
  const double it_s = iteration_seconds_split(job, bw, bw);
  EXPECT_GT(it_s, compute_seconds(job));
  EXPECT_LT(it_s, compute_seconds(job) * 2.0);
}

TEST(IntegrationTest, TrafficClassesCoexist) {
  // RDMA (vStellar path) and the vSwitch TCP pipeline live side by side:
  // TCP rule churn must not affect the measured RDMA transport at all,
  // because Stellar RDMA never enters the steering pipeline.
  ClusterConfig cfg;
  cfg.fabric.segments = 2;
  cfg.fabric.hosts_per_segment = 2;
  StellarCluster cluster(cfg);
  auto conn = cluster.connect(cluster.endpoint(0, 0), cluster.endpoint(1, 0));
  ASSERT_TRUE(conn.is_ok());

  VSwitch vswitch;  // the TCP-side table, churning in parallel
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        vswitch.add_rule({i, TrafficClass::kTcp, 0, true, 1, 1}).is_ok());
  }

  bool done = false;
  conn.value()->post_write(32_MiB, [&] { done = true; });
  const SimTime t0 = cluster.simulator().now();
  cluster.run();
  ASSERT_TRUE(done);
  const double gbps =
      32.0 * 8 * 1024 * 1024 * 1024 / (cluster.simulator().now() - t0).sec() /
      1e9 / 1024;
  EXPECT_GT(gbps, 180.0);  // full rate, rule churn irrelevant
}

TEST(IntegrationTest, InvariantAuditorsRunCleanAcrossTheStack) {
  // Host side: boot a tenant and register host memory so the pin-accounting
  // and eMTT-coherence auditors have real pinned state to walk.
  StellarHostConfig host_cfg;
  host_cfg.pcie.main_memory_bytes = 128_GiB;
  StellarHost host(host_cfg);
  RundContainer tenant(1, "audited", 16_GiB);
  ASSERT_TRUE(host.boot(tenant).is_ok());
  auto dev = host.create_vstellar_device(tenant, 0);
  ASSERT_TRUE(dev.is_ok());
  auto buf = tenant.alloc(16_MiB, kPage2M);
  ASSERT_TRUE(buf.is_ok());
  auto mr = dev.value()->register_memory(Gva{0x10000000}, 16_MiB,
                                         MemoryOwner::kHostDram,
                                         buf.value().value());
  ASSERT_TRUE(mr.is_ok());

  // Fabric side: a cross-segment ring allreduce generating real traffic.
  ClusterConfig cfg;
  cfg.fabric.segments = 2;
  cfg.fabric.hosts_per_segment = 4;
  cfg.fabric.aggs_per_plane = 4;
  StellarCluster cluster(cfg);
  std::vector<EndpointId> ranks;
  for (std::uint32_t h = 0; h < 4; ++h) {
    ranks.push_back(cluster.endpoint(0, h));
    ranks.push_back(cluster.endpoint(1, h));
  }
  AllReduceConfig ar_cfg;
  ar_cfg.data_bytes = 8_MiB;
  ar_cfg.transport = cluster.config().transport;
  RingAllReduce ar(cluster.fleet(), ranks, ar_cfg);

  // All six auditor kinds over the live objects (one transport auditor per
  // engine). trap_on_finding stays ON: any violation aborts the test.
  AuditRegistry registry;
  registry.add(std::make_unique<FabricConservationAuditor>(cluster.fabric()));
  Hypervisor& hyp = host.hypervisor();
  registry.add(std::make_unique<PinAccountingAuditor>(
      hyp.pvdma(tenant.id()), host.pcie().iommu(), hyp.ept(tenant.id())));
  registry.add(std::make_unique<EmttCoherenceAuditor>(host));
  registry.add(std::make_unique<TenantIsolationAuditor>(host));
  cluster.fleet().for_each_engine([&](RdmaEngine& engine) {
    registry.add(std::make_unique<TransportAuditor>(engine));
  });
  registry.add(std::make_unique<SimulatorAuditor>(cluster.simulator()));
  EXPECT_EQ(registry.auditor_count(), 5 + ranks.size());

  registry.attach_periodic(cluster.simulator(), SimTime::micros(50));
  bool done = false;
  ar.start([&] { done = true; });
  cluster.run();
  ASSERT_TRUE(done);

  // Periodic firings during the collective plus one drain-time audit, all
  // clean. run_all() here double-checks the quiesced end state.
  EXPECT_GT(registry.runs(), 1u);
  EXPECT_EQ(registry.total_findings(), 0u);
  registry.detach();
  const AuditReport report = registry.run_all();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.checks_performed(), 0u);

  ASSERT_TRUE(dev.value()->deregister_memory(mr.value().key).is_ok());
  ASSERT_TRUE(host.shutdown(tenant).is_ok());
}

}  // namespace
}  // namespace stellar
