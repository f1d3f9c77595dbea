// Parameter-server style inference serving over the full verbs surface:
// workers fetch model shards with RDMA READ, stream requests with SEND /
// posted receives, and push results with RDMA WRITE — all sprayed over 128
// paths through the rail-optimized fabric.
//
// Demonstrates the two-sided and one-sided verbs the vStellar device
// exposes to tenants beyond the WRITE-only collective path.
//
// Run: ./examples/parameter_server
#include <cstdio>
#include <vector>

#include "core/cluster.h"

using namespace stellar;

int main() {
  std::printf("== Parameter server over Stellar verbs ==\n\n");

  ClusterConfig cfg;
  cfg.fabric.segments = 2;
  cfg.fabric.hosts_per_segment = 5;
  StellarCluster cluster(cfg);

  const EndpointId server = cluster.endpoint(0, 0);
  constexpr int kWorkers = 8;
  constexpr std::uint64_t kShard = 64_MiB;
  constexpr std::uint64_t kRequest = 64_KiB;
  constexpr std::uint64_t kResult = 1_MiB;

  struct Worker {
    RdmaConnection* to_server = nullptr;
    bool shard_loaded = false;
    int results_pushed = 0;
  };
  std::vector<Worker> workers(kWorkers);

  // Connect every worker to the server (both endpoint engines come up).
  for (int w = 0; w < kWorkers; ++w) {
    const EndpointId ep =
        cluster.endpoint((w + 1) / 5, 1 + (w + 1) % 4);  // spread across hosts
    workers[w].to_server = cluster.connect(ep, server).value();
  }

  // Phase 1: every worker READs its model shard from the server.
  std::printf("[1] %d workers RDMA-READ a %s shard each from the server\n",
              kWorkers, format_bytes(kShard).c_str());
  const SimTime t0 = cluster.simulator().now();
  int shards_done = 0;
  for (int w = 0; w < kWorkers; ++w) {
    workers[w].to_server->post_read(kShard, [&, w] {
      workers[w].shard_loaded = true;
      ++shards_done;
    });
  }
  cluster.run();
  const SimTime load_time = cluster.simulator().now() - t0;
  std::printf("    all %d shards loaded in %s (%.1f Gbps aggregate)\n",
              shards_done, load_time.to_string().c_str(),
              kWorkers * static_cast<double>(kShard) * 8 / load_time.sec() / 1e9);

  // Phase 2: request/response — the server posts receives, workers SEND
  // requests, the server WRITEs results back... modelled from the worker
  // side: SEND a request, then WRITE the computed result.
  std::printf("[2] request/response: SEND %s requests; WRITE %s results\n",
              format_bytes(kRequest).c_str(), format_bytes(kResult).c_str());
  int requests_served = 0;
  auto& server_engine = cluster.fleet().at(server);
  for (int w = 0; w < kWorkers; ++w) {
    for (int r = 0; r < 4; ++r) {
      server_engine.post_recv(workers[w].to_server->id(),
                              [&](const RxMessage&) { ++requests_served; });
    }
  }
  for (int w = 0; w < kWorkers; ++w) {
    for (int r = 0; r < 4; ++r) {
      workers[w].to_server->post_send(kRequest, [&, w] {
        workers[w].to_server->post_write(kResult, [&, w] {
          ++workers[w].results_pushed;
        });
      });
    }
  }
  cluster.run();

  int total_results = 0;
  for (const Worker& w : workers) total_results += w.results_pushed;
  std::printf("    served %d requests, %d results written back\n",
              requests_served, total_results);

  std::printf(
      "\nVerbs exercised: READ (shard fetch, responder auto-streams on the\n"
      "reverse path), SEND + posted RECVs (requests), WRITE (results) —\n"
      "all over %u-path OBS spray with DPP reordering absorption.\n",
      cluster.config().transport.num_paths);
  return shards_done == kWorkers && requests_served == kWorkers * 4 &&
                 total_results == kWorkers * 4
             ? 0
             : 1;
}
