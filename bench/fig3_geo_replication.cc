// Regenerates Figure 3: YCSB average latency and total throughput versus
// number of closed-loop clients for Eventual / RC / MAV / Master, in three
// deployments:
//   A) two clusters within a single datacenter (us-east AZs),
//   B) two clusters across the continental US (Virginia + Oregon),
//   C) five clusters across the five lowest-cost EC2 regions.
//
// Beyond the paper's curves, each configuration reports the anti-entropy
// steady state (gossip records and digest entries shipped per committed
// transaction) — the data-plane overhead the O(diff) replica work targets.
// A final sweep (Figure 3D) re-runs the single-datacenter config with the
// client envelope batcher on: same workload, higher saturation throughput.
// Set HAT_BENCH_JSON=<path> to also write a machine-readable throughput
// summary (the CI perf artifact); HAT_BENCH_QUICK=1 runs a reduced sweep.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace hat::bench {
namespace {

void RunConfiguration(const char* title, const char* short_name,
                      cluster::DeploymentOptions deployment,
                      const std::vector<int>& client_counts,
                      sim::Duration measure, JsonSummary& json) {
  harness::Banner(title);
  auto systems = PaperSystems();

  harness::FigureSeries latency;
  latency.title = "Average transaction latency (ms)";
  latency.x_label = "clients";
  harness::FigureSeries throughput;
  throughput.title = "Total throughput (1000 txns/s)";
  throughput.x_label = "clients";
  harness::FigureSeries gossip;
  gossip.title = "Anti-entropy records shipped per committed txn";
  gossip.x_label = "clients";
  for (int n : client_counts) {
    latency.x.push_back(n);
    throughput.x.push_back(n);
    gossip.x.push_back(n);
  }

  for (const auto& system : systems) {
    std::vector<double> lat, thr, ae;
    for (int n : client_counts) {
      YcsbRun run;
      run.deployment = deployment;
      run.client = system.options;
      run.workload = PaperYcsb();
      run.num_clients = n;
      run.measure = measure;
      server::ServerStats servers;
      auto result = run.Execute(&servers);
      lat.push_back(result.txn_latency_ms.Mean());
      thr.push_back(result.TxnsPerSecond() / 1000.0);
      ae.push_back(result.committed > 0
                       ? static_cast<double>(servers.ae_records_out) /
                             static_cast<double>(result.committed)
                       : 0.0);
      std::fflush(stdout);
    }
    latency.series.emplace_back(system.name, lat);
    throughput.series.emplace_back(system.name, thr);
    gossip.series.emplace_back(system.name, ae);
  }
  latency.Print(stdout, 1);
  throughput.Print(stdout, 2);
  gossip.Print(stdout, 2);
  json.Add(std::string(short_name) + "_throughput_ktps", throughput);
  json.Add(std::string(short_name) + "_ae_records_per_txn", gossip);
}

}  // namespace
}  // namespace hat::bench

int main() {
  using namespace hat::bench;
  JsonSummary json;
  std::vector<int> clients =
      QuickBench() ? std::vector<int>{8, 64} : std::vector<int>{8, 64, 256,
                                                                1024};
  hat::sim::Duration measure =
      (QuickBench() ? 1 : 2) * hat::sim::kSecond;

  RunConfiguration(
      "Figure 3A: two clusters within a single datacenter (us-east)",
      "fig3a", hat::cluster::DeploymentOptions::SingleDatacenter(), clients,
      measure, json);
  std::printf(
      "\n(paper 3A: master ~2x the latency and ~half the throughput of\n"
      " eventual; RC ~= eventual; MAV ~75%% of eventual)\n");

  RunConfiguration(
      "Figure 3B: clusters in us-east (VA) and us-west-2 (OR)",
      "fig3b", hat::cluster::DeploymentOptions::TwoRegions(), clients,
      measure, json);
  std::printf(
      "\n(paper 3B: master latency ~300ms/txn — a 278-4257%% increase —\n"
      " while HAT configurations match the single-datacenter deployment)\n");

  std::vector<int> clients_c =
      QuickBench() ? std::vector<int>{64} : std::vector<int>{64, 256, 1024};
  RunConfiguration(
      "Figure 3C: five clusters (VA, CA, OR, IR, TO)",
      "fig3c", hat::cluster::DeploymentOptions::FiveRegions(), clients_c,
      measure, json);
  std::printf(
      "\n(paper 3C: master ~800ms/txn; MAV throughput halves versus\n"
      " eventual as all-to-all anti-entropy quadruples per-server work)\n");

  // ---- batched wire path: client group commit at saturation ----------------
  // Beyond the paper: the same single-datacenter YCSB with the client's
  // envelope batcher on (batch_max=8). A commit's parallel puts coalesce
  // into one ClientBatchRequest per server — one wire header, one WAL
  // sync — so saturation throughput must rise.
  hat::harness::Banner(
      "Figure 3D: client group commit (batch_max=8) vs unbatched, "
      "single datacenter, 1 server/cluster, RC");
  // Four points on the batching/latency trade-off. A 200us wait window
  // harvests more companions per envelope but, held unconditionally, adds
  // its full length to every op issued against an idle server — the
  // adaptive variant closes the envelope at instant-end whenever nothing is
  // in flight to the target, so low-load latency must track the wait-0
  // batcher while the wait-window coalescing survives under load.
  struct Fig3dConfig {
    const char* name;
    bool batch;
    hat::sim::Duration wait_us;
    bool adaptive;
  };
  const Fig3dConfig configs[] = {
      {"RC", false, 0, false},
      {"RC+batch", true, 0, false},
      {"RC+batch+wait", true, 200, false},
      {"RC+batch+adaptive", true, 200, true},
  };
  hat::harness::FigureSeries batched;
  batched.title = "Total throughput (1000 txns/s)";
  batched.x_label = "clients";
  hat::harness::FigureSeries batched_lat;
  batched_lat.title = "Average transaction latency (ms)";
  batched_lat.x_label = "clients";
  for (int n : clients) {
    batched.x.push_back(n);
    batched_lat.x.push_back(n);
  }
  for (const Fig3dConfig& cfg : configs) {
    std::vector<double> thr, lat;
    for (int n : clients) {
      YcsbRun run;
      run.deployment = hat::cluster::DeploymentOptions::SingleDatacenter();
      run.deployment.servers_per_cluster = 1;
      run.client.isolation = hat::client::IsolationLevel::kReadCommitted;
      if (cfg.batch) {
        run.client.batch_max = 8;
        run.client.batch_max_wait_us = cfg.wait_us;
        run.client.adaptive_batch_wait = cfg.adaptive;
      }
      run.workload = PaperYcsb();
      run.num_clients = n;
      run.measure = measure;
      auto result = run.Execute();
      thr.push_back(result.TxnsPerSecond() / 1000.0);
      lat.push_back(result.txn_latency_ms.Mean());
      std::fflush(stdout);
    }
    batched.series.emplace_back(cfg.name, thr);
    batched_lat.series.emplace_back(cfg.name, lat);
  }
  batched.Print(stdout, 2);
  batched_lat.Print(stdout, 3);
  json.Add("fig3d_batched_saturation_ktps", batched);
  json.Add("fig3d_batched_latency_ms", batched_lat);

  if (const char* path = json.Flush()) {
    std::printf("\nWrote JSON throughput summary to %s\n", path);
  }
  return 0;
}
