// Batched wire path: prices the two batching layers.
//
//   A) Shard-lane anti-entropy batching: per-(peer, shard) outboxes make
//      every push batch shard-homogeneous, so the receiver charges the
//      batch header and WAL group commit to the owning shard's executor
//      lane instead of the global lane. Reported: global-lane share of
//      server busy time, saturation throughput, and gossip records per
//      committed txn across the Figure 6c cores sweep.
//
//   B) Client group commit (ClientOptions::batch_max): a commit's parallel
//      puts bound for the same server coalesce into one ClientBatchRequest
//      — one wire header and one WAL sync for the whole envelope. Reported:
//      saturation throughput versus closed-loop clients, plus the achieved
//      ops-per-batch amortization.
//
// CI regression gate, against the committed bench/baselines/
// BENCH_batching.json: at every C it covers, section A must not ship more
// than 1.05x the committed anti-entropy records per committed txn, nor
// exceed the committed global-lane share; group commit must not lose
// saturation throughput. Exits nonzero on a violation, or when the
// baseline covers no C of the sweep.
//
// HAT_BENCH_QUICK=1 runs a reduced sweep; HAT_BENCH_JSON=<path> writes the
// machine-readable summary (BENCH_batching.json in CI).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace {

/// The committed value of `series` at x == `x` in figure `figure` of
/// bench/baselines/BENCH_batching.json, or nullopt if any part is absent.
/// Relies on JsonSummary's layout: one figure per line, "x" before
/// "series".
std::optional<double> Committed(const std::string& figure,
                                const std::string& series, double x) {
  std::ifstream in(HAT_BENCH_BASELINE_DIR "/BENCH_batching.json");
  auto numbers = [](const std::string& line, const std::string& key) {
    std::vector<double> out;
    size_t at = line.find("\"" + key + "\": [");
    if (at == std::string::npos) return out;
    std::istringstream list(line.substr(line.find('[', at) + 1));
    double v;
    char sep = ',';
    while (sep == ',' && list >> v) {
      out.push_back(v);
      list >> sep;
    }
    return out;
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\": \"" + figure + "\"") == std::string::npos) {
      continue;
    }
    std::vector<double> xs = numbers(line, "x");
    std::vector<double> ys = numbers(line, series);
    for (size_t i = 0; i < xs.size() && i < ys.size(); i++) {
      if (xs[i] == x) return ys[i];
    }
  }
  return std::nullopt;
}

/// `v` as the baseline JSON stores it (%g), so a value equal to its
/// committed counterpart compares equal.
double AsCommitted(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return std::strtod(buf, nullptr);
}

}  // namespace

int main() {
  using namespace hat::bench;
  const bool quick = QuickBench();
  const hat::sim::Duration measure = (quick ? 1 : 2) * hat::sim::kSecond;
  JsonSummary json;
  int failures = 0;

  // ---- A: shard-lane anti-entropy batching (Figure 6c topology) -----------
  hat::harness::Banner(
      "Batched wire path A: shard-lane anti-entropy batching, "
      "1 server/cluster, shards = cores = C, RC");
  std::vector<int> cores = quick ? std::vector<int>{2, 4}
                                 : std::vector<int>{2, 4, 8};
  const std::string kSeries = "RC+shard-lane";
  hat::harness::FigureSeries share_fig;
  share_fig.title = "Global-lane share of server busy time (%)";
  share_fig.x_label = "cores/server";
  hat::harness::FigureSeries ae_thr_fig;
  ae_thr_fig.title = "Total throughput (1000 txns/s)";
  ae_thr_fig.x_label = "cores/server";
  hat::harness::FigureSeries ae_records_fig;
  ae_records_fig.title = "Anti-entropy records per committed txn";
  ae_records_fig.x_label = "cores/server";
  std::vector<double> shares, thrs, records;
  for (int c : cores) {
    YcsbRun run;
    run.deployment = hat::cluster::DeploymentOptions::TwoRegions();
    run.deployment.servers_per_cluster = 1;
    run.deployment.server.shards_per_server = static_cast<size_t>(c);
    run.deployment.server.cores_per_server = static_cast<size_t>(c);
    run.client.isolation = hat::client::IsolationLevel::kReadCommitted;
    run.workload = PaperYcsb();
    run.num_clients = 30 * c * 2;
    run.measure = measure;
    hat::server::ServerStats servers;
    auto result = run.Execute(&servers);
    double share = servers.busy_us > 0 && !servers.lane_busy_us.empty()
                       ? 100.0 * servers.lane_busy_us.back() / servers.busy_us
                       : 0.0;
    double per_txn = result.committed > 0
                         ? static_cast<double>(servers.ae_records_out) /
                               static_cast<double>(result.committed)
                         : 0.0;
    shares.push_back(share);
    thrs.push_back(result.TxnsPerSecond() / 1000.0);
    records.push_back(per_txn);
    std::printf(
        "  shard-lane C=%d: %7.2f ktxn/s  global-lane share %5.2f%%  "
        "ae %.2f rec/txn  %.1f rec/batch\n",
        c, result.TxnsPerSecond() / 1000.0, share, per_txn,
        servers.ae_batches_out > 0
            ? static_cast<double>(servers.ae_records_out) /
                  static_cast<double>(servers.ae_batches_out)
            : 0.0);
    share_fig.x.push_back(c);
    ae_thr_fig.x.push_back(c);
    ae_records_fig.x.push_back(c);
  }
  share_fig.series.emplace_back(kSeries, shares);
  ae_thr_fig.series.emplace_back(kSeries, thrs);
  ae_records_fig.series.emplace_back(kSeries, records);
  json.Add("batching_global_lane_share_pct", share_fig);
  json.Add("batching_ae_ktps", ae_thr_fig);
  json.Add("batching_ae_records_per_txn", ae_records_fig);

  // Gate against the committed baseline at every C it covers.
  size_t gated = 0;
  for (size_t i = 0; i < cores.size(); i++) {
    auto rec = Committed("batching_ae_records_per_txn", kSeries, cores[i]);
    auto share =
        Committed("batching_global_lane_share_pct", kSeries, cores[i]);
    if (!rec || !share) continue;
    gated++;
    if (AsCommitted(records[i]) > *rec * 1.05) {
      std::fprintf(stderr,
                   "REGRESSION: C=%d ships %g ae records/txn vs %g "
                   "committed (>5%%)\n",
                   cores[i], records[i], *rec);
      failures++;
    }
    if (AsCommitted(shares[i]) > *share) {
      std::fprintf(stderr,
                   "REGRESSION: C=%d global-lane share %g%% exceeds the "
                   "committed %g%%\n",
                   cores[i], shares[i], *share);
      failures++;
    }
  }
  if (gated == 0) {
    std::fprintf(stderr,
                 "REGRESSION: BENCH_batching.json commits no section A "
                 "value for this sweep\n");
    failures++;
  }

  // ---- B: client group commit saturation ----------------------------------
  hat::harness::Banner(
      "Batched wire path B: client group commit (batch_max=8), "
      "single datacenter, 1 server/cluster, RC");
  std::vector<int> clients = quick ? std::vector<int>{16, 64}
                                   : std::vector<int>{16, 64, 256};
  hat::harness::FigureSeries sat_fig;
  sat_fig.title = "Total throughput (1000 txns/s)";
  sat_fig.x_label = "clients";
  for (int n : clients) sat_fig.x.push_back(n);

  double sat_ktps[2] = {0, 0};
  for (int on = 0; on <= 1; on++) {
    std::vector<double> thrs;
    for (int n : clients) {
      YcsbRun run;
      run.deployment = hat::cluster::DeploymentOptions::SingleDatacenter();
      run.deployment.servers_per_cluster = 1;
      run.client.isolation = hat::client::IsolationLevel::kReadCommitted;
      if (on) run.client.batch_max = 8;
      run.workload = PaperYcsb();
      run.num_clients = n;
      run.measure = measure;
      hat::server::ServerStats servers;
      auto result = run.Execute(&servers);
      thrs.push_back(result.TxnsPerSecond() / 1000.0);
      if (n == clients.back()) sat_ktps[on] = result.TxnsPerSecond() / 1000.0;
      std::printf(
          "  group-commit %-3s clients=%-4d: %7.2f ktxn/s  "
          "%llu client batches (%.1f ops/batch)\n",
          on ? "ON" : "off", n, result.TxnsPerSecond() / 1000.0,
          static_cast<unsigned long long>(servers.client_batches),
          servers.client_batches > 0
              ? static_cast<double>(servers.client_batch_ops) /
                    static_cast<double>(servers.client_batches)
              : 0.0);
    }
    sat_fig.series.emplace_back(on ? "RC+batch" : "RC", thrs);
  }
  std::printf("\nsaturation at %d clients: %.2f -> %.2f ktxn/s (%.2fx)\n",
              clients.back(), sat_ktps[0], sat_ktps[1],
              sat_ktps[0] > 0 ? sat_ktps[1] / sat_ktps[0] : 0.0);
  json.Add("batching_client_saturation_ktps", sat_fig);

  if (sat_ktps[1] < sat_ktps[0]) {
    std::fprintf(stderr,
                 "REGRESSION: client group commit lost saturation "
                 "throughput (%.2f -> %.2f ktxn/s)\n",
                 sat_ktps[0], sat_ktps[1]);
    failures++;
  }

  if (const char* path = json.Flush()) {
    std::printf("\nWrote JSON batching summary to %s\n", path);
  }
  return failures == 0 ? 0 : 1;
}
