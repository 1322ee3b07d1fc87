// Regenerates Figure 6: scale-out. Two clusters (VA + OR); the number of
// servers per cluster sweeps 5..25 (total 10..50) with 15 YCSB clients per
// server. The paper: eventual and RC scale linearly (~5x from 10 to 50
// servers); MAV scales ~3.8x.
//
// Also reports the anti-entropy steady state per configuration (gossip
// records per committed txn) — echo suppression keeps this flat as servers
// are added, where the echoing data plane paid ~2x.
//
// A second sweep holds the server count fixed and raises
// shards_per_server: each server's data plane splits into independent
// VersionedStore shards (per-shard fold caches, digest buckets, GC
// frontiers), the layout Section 6.3 calls hash-partitioned — throughput
// must hold steady while per-shard state shrinks.
//
// A third sweep scales *within* one server: shards = cores = C on a
// ShardExecutor, offered load growing with C — saturation throughput must
// scale near-linearly in C (same-shard work serializes, cross-shard work
// overlaps) and the printed per-lane utilization shows what binds first
// (cores vs the global lane). A final sweep re-runs the cores sweep for RC
// and reports the global-lane share of busy time: tagged shard-homogeneous
// gossip batches are charged to the owning shard's lane, so only
// cross-shard control traffic stays global. The sweeps end with an end-to-end
// convergence check on a multi-shard deployment (real client commits,
// push + sharded digest repair, replica-equality assertion); a failure
// exits nonzero so CI catches it.
//
// `fig6_scaleout --migrate` runs the live-migration sweep instead: a
// zipfian workload heats one shard, the RebalanceCoordinator moves the
// hottest shard of cluster 0 to another server at T/2 while the clients
// keep committing, and the sweep prints the throughput dip, the p95
// latency around the cutover window, and the snapshot/catch-up volumes
// shipped — then verifies replica convergence (nonzero exit on
// divergence or on a migration that failed to complete).
//
// HAT_BENCH_QUICK=1 runs a reduced sweep; HAT_BENCH_JSON=<path> writes the
// throughput summary.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "hat/client/sync_client.h"
#include "hat/cluster/placement.h"

namespace {

/// End-to-end sanity for the sharded data plane: commit through real
/// clients against a multi-shard deployment, settle, and require every
/// key's replicas to agree on the folded read. Returns the number of
/// divergent keys (0 = converged).
int MultiShardConvergenceCheck() {
  using namespace hat;
  constexpr int kKeys = 300;
  sim::Simulation sim(7);
  auto opts = cluster::DeploymentOptions::TwoRegions();
  opts.servers_per_cluster = 2;
  opts.server.shards_per_server = 4;
  opts.server.digest_buckets = 64;
  opts.server.digest_sync_interval = 200 * sim::kMillisecond;
  cluster::Deployment deployment(sim, opts);
  client::SyncClient client(sim, deployment.AddClient({}));
  for (int i = 0; i < kKeys; i++) {
    client.Begin();
    client.Write("key" + std::to_string(i), "value" + std::to_string(i));
    if (!client.Commit().ok()) return kKeys;  // commits must not fail
  }
  sim.RunUntil(sim.Now() + 5 * sim::kSecond);

  int divergent = 0;
  for (int i = 0; i < kKeys; i++) {
    Key key = "key" + std::to_string(i);
    auto replicas = deployment.ReplicasOf(key);
    auto first = deployment.server(replicas[0]).good().Read(key);
    bool ok = first.found && first.value == "value" + std::to_string(i);
    for (size_t r = 1; r < replicas.size() && ok; r++) {
      auto other = deployment.server(replicas[r]).good().Read(key);
      ok = other.found && other.value == first.value && other.ts == first.ts;
    }
    if (!ok) divergent++;
  }
  return divergent;
}

// ---------------------------------------------------------------------------
// Live-migration sweep (--migrate)
// ---------------------------------------------------------------------------

/// One closed-loop YCSB client recording commits and latency per 100ms
/// window (the resolution the migration dip is measured at).
struct WindowedLoop {
  hat::client::TxnClient* client = nullptr;
  hat::workload::YcsbGenerator* gen = nullptr;
  hat::Rng rng{0};
  hat::sim::Simulation* sim = nullptr;
  hat::sim::SimTime start = 0, end = 0;
  hat::sim::Duration window = 100 * hat::sim::kMillisecond;
  std::vector<uint64_t>* committed = nullptr;       // per window
  std::vector<hat::Histogram>* latency = nullptr;   // per window, ms
  hat::workload::YcsbTxn txn;
  size_t op_index = 0;
  hat::sim::SimTime txn_start = 0;
  uint64_t tag = 0;

  void StartTxn() {
    if (sim->Now() >= end) return;
    txn = gen->NextTxn(rng);
    op_index = 0;
    txn_start = sim->Now();
    client->Begin();
    NextOp();
  }
  void NextOp() {
    if (op_index >= txn.ops.size()) {
      client->Commit([this](hat::Status s) { OnDone(std::move(s)); });
      return;
    }
    const hat::workload::YcsbOp& op = txn.ops[op_index++];
    if (op.is_read) {
      client->Read(op.key, [this](hat::Status s, hat::ReadVersion) {
        if (!s.ok()) {
          client->Abort();
          OnDone(std::move(s));
          return;
        }
        NextOp();
      });
    } else {
      client->Write(op.key, gen->MakeValue(tag++));
      NextOp();
    }
  }
  void OnDone(hat::Status s) {
    hat::sim::SimTime now = sim->Now();
    if (s.ok() && now >= start && now < end) {
      size_t w = static_cast<size_t>((now - start) / window);
      if (w < committed->size()) {
        (*committed)[w]++;
        (*latency)[w].Record(static_cast<double>(now - txn_start) / 1000.0);
      }
    }
    StartTxn();
  }
};

int MigrationSweep() {
  using namespace hat;
  using namespace hat::bench;
  const bool quick = QuickBench();
  const sim::Duration kWindow = 100 * sim::kMillisecond;
  const sim::Duration kWarmup = 1 * sim::kSecond;
  const sim::Duration kMeasure = (quick ? 3 : 6) * sim::kSecond;
  const int kClients = quick ? 18 : 30;

  sim::Simulation sim(42);
  auto opts = cluster::DeploymentOptions::TwoRegions();
  opts.servers_per_cluster = 3;
  opts.server.shards_per_server = 2;
  opts.server.digest_sync_interval = 250 * sim::kMillisecond;
  cluster::Deployment deployment(sim, opts);
  cluster::RebalanceCoordinator coordinator(deployment);
  EnableObsFromEnv(deployment);

  workload::YcsbOptions wl = PaperYcsb();
  wl.num_keys = 5000;
  wl.value_size = 256;
  wl.distribution = workload::KeyDistribution::kZipfian;  // heat one shard
  workload::YcsbGenerator gen(wl);
  for (uint64_t i = 0; i < wl.num_keys; i++) {
    WriteRecord w;
    w.key = workload::YcsbGenerator::KeyFor(i);
    w.value = gen.MakeValue(i);
    w.ts = Timestamp{1, 0xfffffffeu};
    for (net::NodeId r : deployment.ReplicasOf(w.key)) {
      deployment.server(r).InstallForTest(w);
    }
  }

  const sim::SimTime measure_start = kWarmup;
  const sim::SimTime measure_end = kWarmup + kMeasure;
  const size_t num_windows = kMeasure / kWindow;
  std::vector<uint64_t> committed(num_windows, 0);
  std::vector<Histogram> latency(num_windows);

  client::ClientOptions copts;  // RC over eventual replication
  copts.isolation = client::IsolationLevel::kReadCommitted;
  Rng seeder(42 ^ 0x9e37);
  std::vector<std::unique_ptr<WindowedLoop>> loops;
  for (int i = 0; i < kClients; i++) {
    client::ClientOptions per_client = copts;
    per_client.home_cluster = i % deployment.NumClusters();
    auto loop = std::make_unique<WindowedLoop>();
    loop->client = &deployment.AddClient(per_client);
    loop->gen = &gen;
    loop->rng = seeder.Fork(i);
    loop->sim = &sim;
    loop->start = measure_start;
    loop->end = measure_end;
    loop->window = kWindow;
    loop->committed = &committed;
    loop->latency = &latency;
    loops.push_back(std::move(loop));
  }
  for (auto& loop : loops) {
    sim.At(1, [raw = loop.get()]() { raw->StartTxn(); });
  }

  // At T/2, move the hottest shard of cluster 0 one server over.
  const sim::SimTime t_migrate = measure_start + kMeasure / 2;
  uint32_t moved_shard = 0;
  int from_slot = 0, to_slot = 0;
  sim.At(t_migrate, [&]() {
    moved_shard = coordinator.PickHottestShard(0);
    from_slot = deployment.placement().Owner(0, moved_shard);
    to_slot = (from_slot + 1) % deployment.ServersPerCluster();
    coordinator.ScheduleMigration(0, moved_shard, to_slot, sim.Now());
  });

  sim.RunUntil(measure_end);
  sim.RunUntil(sim.Now() + 4 * sim::kSecond);  // drain + converge

  // ---- report --------------------------------------------------------------
  hat::harness::Banner(
      "Figure 6d: live migration of the hottest shard at T/2 "
      "(zipfian YCSB, RC, 100ms windows)");
  const double window_s = static_cast<double>(kWindow) / sim::kSecond;
  hat::harness::FigureSeries fig;
  fig.title = "Throughput (1000 txns/s per 100ms window)";
  fig.x_label = "t (ms, migration at t=" +
                std::to_string(t_migrate / sim::kMillisecond) + "ms)";
  std::vector<double> thr;
  for (size_t w = 0; w < num_windows; w++) {
    fig.x.push_back(static_cast<double>(measure_start + w * kWindow) /
                    sim::kMillisecond);
    thr.push_back(static_cast<double>(committed[w]) / window_s / 1000.0);
  }
  fig.series.emplace_back("RC+migration", thr);
  fig.Print(stdout, 2);

  const size_t mig_window = (t_migrate - measure_start) / kWindow;
  double before = 0, dip = thr[mig_window];
  for (size_t w = 0; w < mig_window; w++) before += thr[w];
  before /= static_cast<double>(mig_window);
  for (size_t w = mig_window;
       w < std::min(num_windows, mig_window + 10); w++) {
    dip = std::min(dip, thr[w]);
  }
  Histogram base_lat, cutover_lat;
  const auto& stats = coordinator.stats();
  for (size_t w = 0; w < num_windows; w++) {
    sim::SimTime ws = measure_start + w * kWindow;
    if (ws < t_migrate) base_lat.Merge(latency[w]);
    if (stats.cutover_at != 0 && ws + kWindow > stats.cutover_at - kWindow &&
        ws < stats.cutover_at + 4 * kWindow) {
      cutover_lat.Merge(latency[w]);
    }
  }
  uint64_t wrong_shard = 0;
  for (const auto& loop : loops) {
    wrong_shard += loop->client->stats().wrong_shard_retries;
  }
  auto servers = deployment.TotalServerStats();
  std::printf(
      "\nmigrated logical shard %u: server slot %d -> %d of cluster 0\n"
      "  snapshot records shipped:   %llu\n"
      "  catch-up records shipped:   %llu\n"
      "  cutover epoch/time:         %llu @ %.0fms (drain done %.0fms)\n"
      "  throughput before / dip:    %.2f / %.2f ktxn/s (%.1f%% dip)\n"
      "  p95 latency before / cutover window: %.2f / %.2f ms\n"
      "  wrong-shard client retries: %llu   forwarded records: %llu\n"
      "  source lane queue depth now: %zu\n",
      moved_shard, from_slot, to_slot,
      static_cast<unsigned long long>(stats.snapshot_records),
      static_cast<unsigned long long>(stats.catchup_records),
      static_cast<unsigned long long>(stats.cutover_epoch),
      static_cast<double>(stats.cutover_at) / sim::kMillisecond,
      static_cast<double>(stats.finished_at) / sim::kMillisecond,
      before, dip, before > 0 ? 100.0 * (before - dip) / before : 0.0,
      base_lat.Percentile(0.95), cutover_lat.Percentile(0.95),
      static_cast<unsigned long long>(wrong_shard),
      static_cast<unsigned long long>(servers.forwarded_records),
      deployment.server(deployment.ServerId(0, from_slot))
          .ShardLaneQueueDepth(moved_shard));

  // ---- verify --------------------------------------------------------------
  int failures = 0;
  if (!coordinator.Done()) {
    std::fprintf(stderr, "migration did not complete\n");
    failures++;
  }
  // Replica convergence across every preloaded key (folded read equality).
  int divergent = 0;
  for (uint64_t i = 0; i < wl.num_keys; i++) {
    Key key = workload::YcsbGenerator::KeyFor(i);
    auto replicas = deployment.ReplicasOf(key);
    auto first = deployment.server(replicas[0]).good().Read(key);
    for (size_t r = 1; r < replicas.size(); r++) {
      auto other = deployment.server(replicas[r]).good().Read(key);
      if (other.ts != first.ts || other.value != first.value) {
        divergent++;
        break;
      }
    }
  }
  std::printf("\nPost-migration convergence check: %s (%d divergent keys)\n",
              divergent == 0 ? "PASS" : "FAIL", divergent);
  if (divergent != 0) failures++;

  JsonSummary json;
  json.Add("fig6_migration_window_ktps", fig);
  if (const char* path = json.Flush()) {
    std::printf("Wrote JSON migration summary to %s\n", path);
  }

  // Annotate the exported trace with the cutover instant the dip analysis
  // above keys on, so the Perfetto timeline shows *why* the windows around
  // it slowed down.
  std::vector<obs::Span> extra;
  if (stats.cutover_at != 0) {
    obs::Span cut;
    cut.kind = obs::SpanKind::kCutover;
    cut.node = deployment.ServerId(0, from_slot);
    cut.start_us = stats.cutover_at;
    cut.end_us = stats.cutover_at;
    cut.arg = moved_shard;
    extra.push_back(cut);
  }
  ExportObsFromEnv(deployment, extra);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--migrate") == 0) return MigrationSweep();
  }
  using namespace hat::bench;
  std::vector<int> servers_per_cluster =
      QuickBench() ? std::vector<int>{5, 10} : std::vector<int>{5, 10, 15, 25};
  std::vector<int> shards_per_server =
      QuickBench() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  // Figure 6 plots Eventual, RC, MAV (no master).
  auto systems = PaperSystems();
  systems.erase(systems.begin() + 3);

  hat::harness::Banner(
      "Figure 6: scale-out, total servers vs throughput (1000 txns/s), "
      "15 clients/server");
  hat::harness::FigureSeries fig;
  fig.title = "Total throughput (1000 txns/s)";
  fig.x_label = "servers";
  hat::harness::FigureSeries gossip;
  gossip.title = "Anti-entropy records shipped per committed txn";
  gossip.x_label = "servers";
  for (int spc : servers_per_cluster) {
    fig.x.push_back(spc * 2);
    gossip.x.push_back(spc * 2);
  }

  for (const auto& system : systems) {
    std::vector<double> thr, ae;
    for (int spc : servers_per_cluster) {
      YcsbRun run;
      run.deployment = hat::cluster::DeploymentOptions::TwoRegions();
      run.deployment.servers_per_cluster = spc;
      run.client = system.options;
      run.workload = PaperYcsb();
      run.num_clients = 15 * spc * 2;
      run.measure = (QuickBench() ? 1 : 2) * hat::sim::kSecond;
      hat::server::ServerStats servers;
      auto result = run.Execute(&servers);
      thr.push_back(result.TxnsPerSecond() / 1000.0);
      ae.push_back(result.committed > 0
                       ? static_cast<double>(servers.ae_records_out) /
                             static_cast<double>(result.committed)
                       : 0.0);
    }
    fig.series.emplace_back(system.name, thr);
    gossip.series.emplace_back(system.name, ae);
  }
  fig.Print(stdout, 2);
  gossip.Print(stdout, 2);

  for (auto& [name, values] : fig.series) {
    std::printf("%s scale-out %d -> %d servers: %.2fx\n", name.c_str(),
                servers_per_cluster.front() * 2,
                servers_per_cluster.back() * 2,
                values.back() / values.front());
  }
  std::printf(
      "\n(paper: eventual/RC ~5x, MAV ~3.8x — MAV suffers storage-layer\n"
      " contention; with memory-backed storage it reaches 4.25x)\n");

  // ---- intra-server shard sweep (fixed 10 servers) -------------------------

  hat::harness::Banner(
      "Figure 6b: shards per server vs throughput (1000 txns/s), "
      "10 servers, 15 clients/server");
  hat::harness::FigureSeries shard_fig;
  shard_fig.title = "Total throughput (1000 txns/s)";
  shard_fig.x_label = "shards/server";
  for (int sps : shards_per_server) shard_fig.x.push_back(sps);

  constexpr int kShardSweepSpc = 5;
  for (const auto& system : systems) {
    std::vector<double> thr;
    for (int sps : shards_per_server) {
      YcsbRun run;
      run.deployment = hat::cluster::DeploymentOptions::TwoRegions();
      run.deployment.servers_per_cluster = kShardSweepSpc;
      run.deployment.server.shards_per_server = static_cast<size_t>(sps);
      // Keep total digest state constant: B buckets spread over the shards.
      run.deployment.server.digest_buckets =
          hat::version::VersionedStore::kDefaultDigestBuckets /
          static_cast<size_t>(sps);
      run.client = system.options;
      run.workload = PaperYcsb();
      run.num_clients = 15 * kShardSweepSpc * 2;
      run.measure = (QuickBench() ? 1 : 2) * hat::sim::kSecond;
      auto result = run.Execute();
      thr.push_back(result.TxnsPerSecond() / 1000.0);
    }
    shard_fig.series.emplace_back(system.name, thr);
  }
  shard_fig.Print(stdout, 2);

  // ---- intra-server cores sweep (C shards x C cores, driven to saturation) --

  hat::harness::Banner(
      "Figure 6c: cores per server vs throughput (1000 txns/s), "
      "1 server/cluster, shards = cores = C, clients scale with C");
  std::vector<int> cores_per_server =
      QuickBench() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  hat::harness::FigureSeries core_fig;
  core_fig.title = "Total throughput (1000 txns/s)";
  core_fig.x_label = "cores/server";
  for (int c : cores_per_server) core_fig.x.push_back(c);

  for (const auto& system : systems) {
    std::vector<double> thr;
    for (int c : cores_per_server) {
      YcsbRun run;
      run.deployment = hat::cluster::DeploymentOptions::TwoRegions();
      run.deployment.servers_per_cluster = 1;
      run.deployment.server.shards_per_server = static_cast<size_t>(c);
      run.deployment.server.cores_per_server = static_cast<size_t>(c);
      run.client = system.options;
      run.workload = PaperYcsb();
      int sweep_servers = static_cast<int>(run.deployment.clusters.size()) *
                          run.deployment.servers_per_cluster;
      // Closed-loop clients bound offered load, so it must grow with
      // capacity for the sweep to measure saturation throughput, not the
      // client count.
      run.num_clients = 30 * c * sweep_servers;
      run.measure = (QuickBench() ? 1 : 2) * hat::sim::kSecond;
      hat::server::ServerStats servers;
      hat::sim::SimTime elapsed = 0;
      auto result = run.Execute(&servers, &elapsed);
      thr.push_back(result.TxnsPerSecond() / 1000.0);

      // Saturation signals: capacity-normalized utilization and where the
      // time went — if the global lane's share grows with C, cross-shard
      // overhead is what caps the speedup. busy_us is summed over every
      // server, so the capacity is cores x servers x elapsed.
      double capacity = static_cast<double>(c) *
                        static_cast<double>(sweep_servers) *
                        static_cast<double>(elapsed);
      double global_share =
          servers.busy_us > 0 && !servers.lane_busy_us.empty()
              ? servers.lane_busy_us.back() / servers.busy_us
              : 0.0;
      std::printf(
          "  %-8s C=%d: %7.2f ktxn/s  util %.2f  global-lane share %4.1f%%  "
          "queue-wait p95 %.0fus\n",
          system.name.c_str(), c, result.TxnsPerSecond() / 1000.0,
          servers.busy_us / capacity, 100.0 * global_share,
          servers.queue_wait_us.Percentile(0.95));
    }
    core_fig.series.emplace_back(system.name, thr);
  }
  core_fig.Print(stdout, 2);

  for (auto& [name, values] : core_fig.series) {
    std::printf("%s intra-server speedup C=%d -> C=%d: %.2fx\n", name.c_str(),
                cores_per_server.front(), cores_per_server.back(),
                values.back() / values.front());
  }

  // ---- batched wire path: global-lane share with shard-lane AE batching ----

  hat::harness::Banner(
      "Figure 6e: shard-lane anti-entropy batching and the global lane "
      "(RC, 1 server/cluster, shards = cores = C)");
  hat::harness::FigureSeries batch_share_fig;
  batch_share_fig.title = "Global-lane share of server busy time (%)";
  batch_share_fig.x_label = "cores/server";
  std::vector<double> shares;
  for (int c : cores_per_server) {
    batch_share_fig.x.push_back(c);
    YcsbRun run;
    run.deployment = hat::cluster::DeploymentOptions::TwoRegions();
    run.deployment.servers_per_cluster = 1;
    run.deployment.server.shards_per_server = static_cast<size_t>(c);
    run.deployment.server.cores_per_server = static_cast<size_t>(c);
    run.client.isolation = hat::client::IsolationLevel::kReadCommitted;
    run.workload = PaperYcsb();
    run.num_clients = 30 * c * 2;
    run.measure = (QuickBench() ? 1 : 2) * hat::sim::kSecond;
    hat::server::ServerStats servers;
    auto result = run.Execute(&servers);
    double share = servers.busy_us > 0 && !servers.lane_busy_us.empty()
                       ? 100.0 * servers.lane_busy_us.back() / servers.busy_us
                       : 0.0;
    shares.push_back(share);
    std::printf("  RC C=%d: %7.2f ktxn/s  global-lane share %5.2f%%\n", c,
                result.TxnsPerSecond() / 1000.0, share);
  }
  batch_share_fig.series.emplace_back("RC+shard-lane", shares);
  batch_share_fig.Print(stdout, 1);

  int divergent = MultiShardConvergenceCheck();
  std::printf("\nMulti-shard convergence check (4 shards/server): %s\n",
              divergent == 0 ? "PASS" : "FAIL");

  JsonSummary json;
  json.Add("fig6_throughput_ktps", fig);
  json.Add("fig6_ae_records_per_txn", gossip);
  json.Add("fig6_shard_scaleout_ktps", shard_fig);
  json.Add("fig6_core_scaleout_ktps", core_fig);
  json.Add("fig6_batching_global_lane_share_pct", batch_share_fig);
  if (const char* path = json.Flush()) {
    std::printf("\nWrote JSON throughput summary to %s\n", path);
  }
  if (divergent != 0) {
    std::fprintf(stderr, "%d keys diverged across replicas\n", divergent);
    return 1;
  }
  return 0;
}
