#include "perfbench/src/workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>

#include "hat/client/sync_client.h"

namespace perfbench {

namespace cluster = hat::cluster;
namespace client = hat::client;
namespace sim = hat::sim;
namespace harness = hat::harness;
namespace wl = hat::workload;

namespace {

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  wl::YcsbOptions paper_ycsb;  // bench/bench_util.h PaperYcsb()
  paper_ycsb.num_keys = 20000;
  paper_ycsb.value_size = 1024;
  paper_ycsb.read_fraction = 0.5;
  paper_ycsb.ops_per_txn = 8;

  client::ClientOptions rc;
  rc.isolation = client::IsolationLevel::kReadCommitted;

  {
    WorkloadSpec s;
    s.name = "ycsb_rc_lan";
    s.deployment = cluster::DeploymentOptions::SingleDatacenter();
    s.client = rc;
    s.ycsb = paper_ycsb;
    s.clients = 64;
    s.warmup = 500 * sim::kMillisecond;
    s.window_per_second = 200 * sim::kMillisecond;
    s.trace_sample_every = 16;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "ycsb_rc_geo5";
    s.deployment = cluster::DeploymentOptions::FiveRegions();
    s.client = rc;
    s.ycsb = paper_ycsb;
    s.clients = 64;
    s.warmup = 300 * sim::kMillisecond;
    s.window_per_second = 90 * sim::kMillisecond;
    s.trace_sample_every = 16;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "tpcc_mav_wan";
    s.tpcc = true;
    s.deployment = cluster::DeploymentOptions::TwoRegions();
    s.client.isolation = client::IsolationLevel::kMonotonicAtomicView;
    s.tpcc_config.warehouses = 2;
    s.tpcc_config.districts_per_warehouse = 4;
    s.tpcc_config.customers_per_district = 20;
    s.tpcc_config.items = 50;
    s.clients = 24;
    s.warmup = 300 * sim::kMillisecond;
    s.window_per_second = 65 * sim::kMillisecond;
    s.trace_sample_every = 8;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Counters TakeCounters(cluster::Deployment& deployment) {
  Counters c;
  c.events = deployment.simulation().events_processed();
  c.net = deployment.network().stats();
  c.servers = deployment.TotalServerStats();
  c.clients = deployment.TotalClientStats();
  for (size_t id = 0; id < deployment.ServerCount(); id++) {
    const auto& srv = deployment.server(static_cast<hat::net::NodeId>(id));
    c.global_lane_busy_us +=
        srv.stats().lane_busy_us.at(srv.executor().global_lane());
  }
  return c;
}

namespace {
/// num(c) * scale / den(c) per chunk; infinite for an empty chunk, so a
/// minimum over repetitions never picks it.
template <typename Num, typename Den>
std::vector<double> PerChunk(const Window& w, double scale, Num num, Den den) {
  std::vector<double> out;
  for (const Chunk& c : w.chunks) {
    double d = static_cast<double>(den(c));
    out.push_back(d > 0 ? num(c) * scale / d
                        : std::numeric_limits<double>::infinity());
  }
  return out;
}
}  // namespace

std::vector<double> CpuUsPerTxnByChunk(const Window& w) {
  return PerChunk(
      w, 1e6, [](const Chunk& c) { return c.NormalizedCpuS(); },
      [](const Chunk& c) { return c.committed; });
}

std::vector<double> CpuNsPerEventByChunk(const Window& w) {
  return PerChunk(
      w, 1e9, [](const Chunk& c) { return c.NormalizedCpuS(); },
      [](const Chunk& c) { return c.events; });
}

double WindowNormalizedCpuS(const Window& w) {
  double s = 0;
  for (const Chunk& c : w.chunks) s += c.NormalizedCpuS();
  return s;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

Run::Run(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  sim_ = std::make_unique<sim::Simulation>(seed);
  deployment_ = std::make_unique<cluster::Deployment>(*sim_, spec.deployment);
  if (spec.tpcc) {
    // As bench_tpcc_analysis: the standard mix, the driver seeded with the
    // simulation's seed.
    tpcc_ = std::make_unique<harness::TpccDriver>(
        *deployment_, spec.tpcc_config, harness::TpccMix{}, spec.client,
        spec.clients, seed);
    hat::Status s = tpcc_->Populate();
    if (!s.ok()) {
      std::fprintf(stderr, "TPC-C populate failed: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
  } else {
    // As bench/bench_util.h YcsbRun::Execute.
    ycsb_ = std::make_unique<harness::YcsbDriver>(
        *deployment_, spec.ycsb, spec.client, spec.clients, seed ^ 0x9e37);
    ycsb_->Preload();
  }
}

Run::~Run() = default;

namespace {
uint64_t Failed(const client::ClientStats& c) {
  return c.txns_aborted_internal + c.txns_aborted_external +
         c.txns_unavailable;
}
}  // namespace

Window Run::Measure(sim::Duration window, int chunks,
                    ReferenceUnit& reference,
                    const std::function<void(bool)>& on_window) {
  Window w;
  chunks = std::max(chunks, 1);
  const sim::Duration chunk_len = std::max<sim::Duration>(window / chunks, 1);
  window = chunk_len * static_cast<sim::Duration>(chunks);
  w.start = sim_->Now() + spec_.warmup;
  w.end = w.start + window;
  w.chunks.resize(static_cast<size_t>(chunks));

  // The readings. Each is scheduled before the driver starts, so it runs
  // first among the events due at its instant, and the driver counts a
  // transaction in the window when it ends in [start, end). Each edge times
  // the reference unit after reading the counters, and the next chunk's
  // CPU time starts after it.
  struct Edge {
    double cpu_s = 0;  ///< where the next chunk's CPU time starts
    double reference_s = 0;
    uint64_t events = 0;
    uint64_t msgs = 0;
    uint64_t committed = 0;
    uint64_t failed = 0;
  } last;
  auto edge = [this, &reference]() {
    Edge e;
    const double end_cpu_s = ProcessCpuSeconds();
    e.events = sim_->events_processed();
    e.msgs = deployment_->network().stats().sent;
    client::ClientStats c = deployment_->TotalClientStats();
    e.committed = c.txns_committed;
    e.failed = Failed(c);
    e.reference_s = reference.Seconds();
    e.cpu_s = ProcessCpuSeconds();
    return std::make_pair(end_cpu_s, e);
  };
  sim_->At(w.start, [&]() {
    if (on_window) on_window(true);
    w.begin = TakeCounters(*deployment_);
    last = edge().second;
  });
  for (int k = 0; k < chunks; k++) {
    sim_->At(w.start + chunk_len * static_cast<sim::Duration>(k + 1),
             [&, k]() {
               auto [end_cpu_s, now] = edge();
               Chunk& c = w.chunks[static_cast<size_t>(k)];
               c.cpu_s = end_cpu_s - last.cpu_s;
               c.reference_s = (last.reference_s + now.reference_s) / 2;
               c.events = now.events - last.events;
               c.msgs = now.msgs - last.msgs;
               c.committed = now.committed - last.committed;
               c.failed = now.failed - last.failed;
               last = now;
               if (k + 1 == chunks) {
                 w.finish = TakeCounters(*deployment_);
                 if (on_window) on_window(false);
               }
             });
  }

  harness::WorkloadResult result;
  if (tpcc_) {
    tpcc_result_ = tpcc_->Run(spec_.warmup, window);
    result = tpcc_result_.workload;
  } else {
    result = ycsb_->Run(spec_.warmup, window);
  }
  w.committed = result.committed;
  w.failed =
      result.unavailable + result.aborted_internal + result.aborted_external;
  w.latency_ms = result.txn_latency_ms;
  return w;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

bool Run::Converged() const {
  const cluster::Deployment& d = *deployment_;
  for (size_t id = 0; id < d.ServerCount(); id++) {
    if (d.server(static_cast<hat::net::NodeId>(id)).PendingCount() != 0) {
      return false;
    }
  }
  for (int shard = 0; shard < d.ServersPerCluster(); shard++) {
    auto first = d.server(d.ServerId(0, shard)).good().ShardHashes();
    for (int c = 1; c < d.NumClusters(); c++) {
      if (d.server(d.ServerId(c, shard)).good().ShardHashes() != first) {
        return false;
      }
    }
  }
  return true;
}

std::string Run::CheckCorrect() {
  // Clients start nothing after the window; let in-flight transactions
  // finish and anti-entropy drain, then compare every replica's shard
  // hashes across clusters.
  const sim::SimTime give_up = sim_->Now() + 30 * sim::kSecond;
  bool converged = false;
  while (sim_->Now() < give_up) {
    sim_->RunUntil(sim_->Now() + 100 * sim::kMillisecond);
    if (Converged()) {
      converged = true;
      break;
    }
  }
  if (!converged) {
    return "replicas did not converge within 30 simulated seconds of the "
           "window's end";
  }
  return spec_.tpcc ? CheckTpccInvariants() : std::string();
}

std::string Run::CheckTpccInvariants() {
  // Section 6.2 invariants: the driver's observations over the window,
  // then Consistency Condition 1 over the quiesced database.
  if (tpcc_result_.duplicate_order_ids != 0) {
    return std::to_string(tpcc_result_.duplicate_order_ids) +
           " duplicate order ids";
  }
  if (tpcc_result_.fk_violations != 0) {
    return std::to_string(tpcc_result_.fk_violations) +
           " order -> order-line foreign-key violations";
  }
  client::ClientOptions opts = spec_.client;
  opts.home_cluster = 0;
  client::SyncClient checker(*sim_, deployment_->AddClient(opts));
  checker.Begin();
  const wl::TpccConfig& config = spec_.tpcc_config;
  int64_t w_ytd = 0;
  int64_t d_ytd = 0;
  negative_stock_items_ = 0;
  std::string failure;
  auto read = [&](const hat::Key& key) -> int64_t {
    auto v = checker.ReadInt(key);
    if (!v.ok()) {
      failure = "checker read of " + key + " failed";
      return 0;
    }
    return *v;
  };
  for (int w = 0; w < config.warehouses; w++) {
    w_ytd += read(wl::TpccKeys::WarehouseYtd(w));
    for (int d = 0; d < config.districts_per_warehouse; d++) {
      d_ytd += read(wl::TpccKeys::DistrictYtd(w, d));
    }
    for (int i = 0; i < config.items; i++) {
      if (read(wl::TpccKeys::Stock(w, i)) < 0) negative_stock_items_++;
    }
  }
  checker.Abort();
  if (!failure.empty()) return failure;
  if (w_ytd != d_ytd) {
    return "Consistency Condition 1 violated: w_ytd " + std::to_string(w_ytd) +
           " != sum d_ytd " + std::to_string(d_ytd);
  }
  return {};
}

}  // namespace perfbench
