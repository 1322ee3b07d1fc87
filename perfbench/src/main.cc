// hatbench: runs one benchmark workload and prints its metrics.
//
//   hatbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of five untraced executions of the
// window, with seeds derived from --seed. --trace 1 prints the per-layer
// metrics: it runs the workload with --seed twice untraced, once with the
// sim-clock tracer on and once with the timing proxies on, and checks that
// all four simulated the same execution. Host times are process CPU time
// scaled to the speed of a fixed reference unit timed next to them
// (reference.h). Both modes run the workload's correctness checks. The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "hat/obs/trace.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

namespace sim = hat::sim;

constexpr int kChunks = 20;
// A --trace 0 run times kSetupReps set-ups and measures the window on the
// last kExecutions of those deployments.
constexpr int kSetupReps = 9;
constexpr int kExecutions = 5;
constexpr int kReplayReps = 5;
constexpr uint32_t kP99 = 9900;
// The traced run keeps every kSampleEvery-th item of each kind, at most
// kSampleCap of each, so the replays stay small on the largest workload.
constexpr uint64_t kSampleEvery = 16;
constexpr size_t kSampleCap = 20000;
constexpr uint64_t kMaxReplayEvents = 1000000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hatbench: %s\nusage: hatbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

/// Ordered metric list: name -> (value, unit).
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Adds a ratio metric and prints it with its base.
  void AddRatio(const std::string& name, const Ratio& r, const char* unit) {
    std::printf("  %-42s %s\n", name.c_str(), r.Describe().c_str());
    Add(name, r.Value(), unit);
  }

  void PrintTable() const {
    for (const auto& m : metrics_) {
      std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); i++) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

/// Seed of execution `i` of a run: execution 0 uses --seed itself.
uint64_t ExecutionSeed(uint64_t seed, int i) {
  return seed + static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull;
}

/// The sim-clock end-to-end figures of a window; identical for one seed.
struct SimFigures {
  double ktps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double commit_ratio = 0;
};

SimFigures SimFiguresOf(const Window& w) {
  SimFigures f;
  f.ktps = static_cast<double>(w.committed) / w.seconds() / 1000.0;
  const auto cdf = w.latency_ms.Cdf();
  f.p50_ms = CdfQuantile(cdf, 0.50);
  f.p99_ms = CdfQuantile(cdf, kP99 / 10000.0);
  f.commit_ratio = w.attempted() > 0 ? static_cast<double>(w.committed) /
                                           static_cast<double>(w.attempted())
                                     : 0;
  return f;
}

/// True when two windows simulated the same execution.
bool SameExecution(const Window& a, const Window& b) {
  if (a.chunks.size() != b.chunks.size()) return false;
  for (size_t i = 0; i < a.chunks.size(); i++) {
    if (!a.chunks[i].SameSimulation(b.chunks[i])) return false;
  }
  return a.committed == b.committed && a.failed == b.failed &&
         a.latency_ms.count() == b.latency_ms.count() &&
         a.latency_ms.sum() == b.latency_ms.sum() &&
         a.latency_ms.Cdf() == b.latency_ms.Cdf();
}

/// The CPUs this process may run on, in id order (empty if unknown).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves this single-threaded process to `cpu`. A refusal only means the
/// execution runs wherever the scheduler puts it.
void RunOn(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void PrintSeries(const char* label, const std::vector<double>& values) {
  std::printf("  %s:", label);
  for (double v : values) std::printf(" %.1f", v);
  std::printf("\n");
}

void PrintWindow(const char* label, const Window& w) {
  SimFigures f = SimFiguresOf(w);
  std::printf(
      "%s: %.3f sim s, %llu committed / %llu attempted, %.3f ktps, "
      "p50 %.3f ms, p99 %.3f ms (%llu samples, %llu beyond p99)\n",
      label, w.seconds(), static_cast<unsigned long long>(w.committed),
      static_cast<unsigned long long>(w.attempted()), f.ktps, f.p50_ms,
      f.p99_ms, static_cast<unsigned long long>(w.committed),
      static_cast<unsigned long long>(SamplesBeyond(w.committed, kP99)));
  if (w.chunks.empty()) return;
  PrintSeries("CPU us/txn by chunk at reference speed", CpuUsPerTxnByChunk(w));
  std::vector<double> reference_ms;
  for (const Chunk& c : w.chunks) reference_ms.push_back(c.reference_s * 1e3);
  std::printf("  reference unit ms by chunk:");
  for (double v : reference_ms) std::printf(" %.2f", v);
  std::printf("\n");
  std::vector<double> events;
  for (const Chunk& c : w.chunks) {
    events.push_back(static_cast<double>(c.events) /
                     static_cast<double>(std::max<uint64_t>(c.committed, 1)));
  }
  PrintSeries("events/txn by chunk", events);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int EndToEnd(const WorkloadSpec& spec, const Args& args, sim::Duration window) {
  std::string failure;
  auto fail = [&failure](const std::string& why) {
    if (failure.empty()) failure = why;
  };
  // Every set-up is timed in process CPU time, which leaves out the time
  // the host gave to other work, and scaled to the reference speed measured
  // just before and after it, which cancels most of how fast the host ran
  // that work. The last kExecutions deployments also run the window, each
  // with its own seed derived from --seed; the sim metrics pool their
  // transactions, and the host cost is the median over all their chunks.
  // Set-ups and executions rotate over the CPUs this process may use, so
  // that no one core's contention decides the figures.
  const std::vector<int> cpus = AllowedCpus();
  ReferenceUnit reference;
  std::vector<double> setup_s;
  std::vector<double> cpu_us_per_txn;
  Window pooled;
  for (int i = 0; i < kSetupReps; i++) {
    int execution = std::max(0, i - (kSetupReps - kExecutions));
    if (!cpus.empty()) RunOn(cpus[static_cast<size_t>(i) % cpus.size()]);
    double before_s = reference.Seconds();
    double cpu0 = ProcessCpuSeconds();
    auto run = std::make_unique<Run>(spec, ExecutionSeed(args.seed, execution));
    double cpu_s = ProcessCpuSeconds() - cpu0;
    setup_s.push_back(
        AtReferenceSpeed(cpu_s, (before_s + reference.Seconds()) / 2));
    if (i < kSetupReps - kExecutions) continue;
    Window w = run->Measure(window, kChunks, reference);
    PrintWindow("untraced", w);
    for (double v : CpuUsPerTxnByChunk(w)) cpu_us_per_txn.push_back(v);
    pooled.end += w.end - w.start;
    pooled.committed += w.committed;
    pooled.failed += w.failed;
    pooled.latency_ms.Merge(w.latency_ms);
    std::string check = run->CheckCorrect();
    if (!check.empty()) fail(check);
    if (spec.tpcc) {
      std::printf("  negative stock items: %d (observed, not checked)\n",
                  run->negative_stock_items());
    }
  }
  double peak_rss = PeakRssMb();
  PrintWindow("pooled", pooled);
  std::printf("  set-up CPU s at reference speed:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf("\n");
  if (!PercentileReportable(pooled.committed, kP99)) {
    fail("fewer than 10 samples beyond p99");
  }

  SimFigures f = SimFiguresOf(pooled);
  Report report;
  report.Add("sim_ktps", f.ktps, "ktxn/s");
  report.Add("sim_latency_p50_ms", f.p50_ms, "ms");
  report.Add("sim_latency_p99_ms", f.p99_ms, "ms");
  report.Add("txn_commit_ratio", f.commit_ratio, "ratio");
  report.Add("host_cpu_us_per_txn", Median(cpu_us_per_txn), "us");
  report.Add("peak_rss_mb", peak_rss, "MB");
  report.Add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
             "s");
  report.PrintTable();
  if (!failure.empty()) std::printf("CHECK FAILED: %s\n", failure.c_str());
  report.PrintJson(failure.empty(), pooled.attempted(), pooled.failed);
  return failure.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

int PerLayer(const WorkloadSpec& spec, const Args& args, sim::Duration window) {
  std::string failure;
  auto fail = [&failure](const std::string& why) {
    if (failure.empty()) failure = why;
  };

  // 1-2. Untraced twice: the determinism check, the host timings (least
  //      per chunk over the two) and every counter. The first deployment in
  //      the process also pays the page faults of a fresh heap, so the
  //      second is the baseline the traced run's overhead is taken against.
  //      Every window times the reference unit at its chunk edges, and host
  //      times are scaled to its speed.
  ReferenceUnit reference;
  Window u;
  std::vector<std::vector<double>> ns_per_event;
  {
    Window cold;
    {
      Run run(spec, args.seed);
      cold = run.Measure(window, kChunks, reference);
    }
    Run run(spec, args.seed);
    u = run.Measure(window, kChunks, reference);
    if (!SameExecution(cold, u)) fail("two untraced runs of one seed diverged");
    ns_per_event = {CpuNsPerEventByChunk(cold), CpuNsPerEventByChunk(u)};
  }
  PrintWindow("untraced", u);

  // 3. Traced, with nothing else attached, for the span metrics and the
  //    cost of tracing.
  Window t;
  SelfTimes self;
  {
    Run run(spec, args.seed);
    hat::cluster::Deployment& dep = run.deployment();
    hat::cluster::ObsConfig obs;
    obs.tracing = true;
    obs.trace_sample_every = spec.trace_sample_every;
    obs.trace_ring_capacity = size_t{1} << 22;
    dep.EnableObservability(obs);
    t = run.Measure(window, kChunks, reference);
    self = ComputeSelfTimes(dep.tracer()->Spans(), t.start, t.end);
    if (dep.tracer()->dropped() != 0) fail("trace ring buffers overflowed");
  }
  PrintWindow("traced", t);
  if (!SameExecution(u, t)) {
    fail("the traced run diverged from the untraced run of the same seed");
  }

  // 4. Untraced with the timing proxies, which also keep the sample the
  //    replays use; the replays read this run's final stores.
  Run run(spec, args.seed);
  hat::cluster::Deployment& dep = run.deployment();
  auto probe = std::make_unique<Probe>(dep, kSampleEvery, kSampleCap);
  Window p = run.Measure(window, kChunks, reference,
                         [&probe](bool on) { probe->set_active(on); });
  PrintWindow("probed", p);
  if (!SameExecution(u, p)) {
    fail("the probed run diverged from the untraced run of the same seed");
  }
  if (!PercentileReportable(u.committed, kP99)) {
    fail("fewer than 10 samples beyond p99");
  }

  Report report;
  const Counters& b = u.begin;
  const Counters& e = u.finish;
  auto per_txn = [&](double num, const char* what) {
    return Ratio{num, static_cast<double>(u.committed), what, "txns"};
  };
  const auto& sb = b.servers;
  const auto& se = e.servers;
  auto ds = [&](uint64_t hat::server::ServerStats::*f) {
    return static_cast<double>(se.*f - sb.*f);
  };
  auto dc = [&](uint64_t hat::client::ClientStats::*f) {
    return static_cast<double>(e.clients.*f - b.clients.*f);
  };
  const double events = static_cast<double>(e.events - b.events);

  report.Add("workload.committed_txns", static_cast<double>(u.committed),
             "count");
  report.Add("workload.samples_beyond_p99",
             static_cast<double>(SamplesBeyond(u.committed, kP99)), "count");

  // sim
  report.AddRatio("sim.events_per_txn", per_txn(events, "events"), "count");
  report.Add("sim.host_ns_per_event", MedianOfChunkMinima(ns_per_event),
             "ns");
  {
    std::vector<double> reference_ms;
    for (const Chunk& c : u.chunks) reference_ms.push_back(c.reference_s * 1e3);
    report.Add("host.reference_unit_ms", Median(reference_ms), "ms");
  }
  {
    uint64_t replay_events =
        std::min<uint64_t>(e.events - b.events, kMaxReplayEvents);
    double rpc_share =
        events > 0 ? static_cast<double>(probe->rpc_requests()) / events : 0;
    report.Add("sim.schedule_cancel_ns",
               ReplayScheduleCancel(replay_events,
                                    static_cast<uint64_t>(
                                        rpc_share *
                                        static_cast<double>(replay_events)),
                                    args.seed, 3),
               "ns");
  }

  // net
  report.AddRatio("net.msgs_per_txn",
                  per_txn(static_cast<double>(e.net.sent - b.net.sent), "msgs"),
                  "count");
  report.AddRatio(
      "net.bytes_per_txn",
      per_txn(static_cast<double>(e.net.bytes - b.net.bytes), "bytes"), "B");

  // net.codec
  const Sample& sample = probe->sample();
  CodecReplay codec = ReplayCodec(sample.envelopes, kReplayReps);
  if (!codec.ok) fail("a sampled envelope did not round-trip the codec");
  report.Add("codec.sampled_envelopes",
             static_cast<double>(sample.envelopes.size()), "count");
  report.Add("codec.encode_ns_per_msg", codec.encode_ns, "ns");
  report.Add("codec.decode_ns_per_msg", codec.decode_ns, "ns");
  report.Add("codec.wirebytes_ns_per_msg", codec.wire_bytes_ns, "ns");

  // client
  report.AddRatio("client.read_retries_per_txn",
                  per_txn(dc(&hat::client::ClientStats::read_retries),
                          "retries"),
                  "count");
  report.AddRatio("client.metadata_bytes_per_txn",
                  per_txn(dc(&hat::client::ClientStats::metadata_bytes),
                          "bytes"),
                  "B");

  // server.replica
  report.Add("server.replica.dispatch_host_ns_per_msg",
             probe->server_time().NsPerMessage(), "ns");
  report.AddRatio("server.replica.gets_not_yet_per_txn",
                  per_txn(ds(&hat::server::ServerStats::gets_not_yet),
                          "not-yet gets"),
                  "count");

  // server.executor
  {
    double cores = static_cast<double>(dep.ServerCount()) *
                   static_cast<double>(dep.CoresPerServer());
    double busy = se.busy_us - sb.busy_us;
    report.AddRatio("executor.utilization",
                    Ratio{busy, cores * static_cast<double>(u.end - u.start),
                          "busy us", "core us"},
                    "ratio");
    hat::Histogram wait = se.queue_wait_us.DeltaSince(sb.queue_wait_us);
    const auto cdf = wait.Cdf();
    report.Add("executor.queue_wait_us_p50", CdfQuantile(cdf, 0.50), "us");
    report.Add("executor.queue_wait_us_p99", CdfQuantile(cdf, 0.99), "us");
    report.AddRatio("executor.global_lane_share",
                    Ratio{e.global_lane_busy_us - b.global_lane_busy_us, busy,
                          "global-lane us", "busy us"},
                    "ratio");
    report.AddRatio("executor.tasks_per_txn",
                    per_txn(ds(&hat::server::ServerStats::exec_tasks), "tasks"),
                    "count");
  }

  // server.mav
  const double promotions = ds(&hat::server::ServerStats::mav_promotions);
  report.Add("mav.promotions", promotions, "count");
  report.AddRatio("mav.notifies_per_promotion",
                  Ratio{ds(&hat::server::ServerStats::notifies), promotions,
                        "notifies", "promotions"},
                  "count");
  report.AddRatio("mav.promotions_per_txn", per_txn(promotions, "promotions"),
                  "count");
  {
    std::vector<double> waits = self.mav_ack_wait_us;
    std::sort(waits.begin(), waits.end());
    std::printf("  %-42s %zu samples, %llu beyond p99\n",
                "mav.ack_wait_ms_p99", waits.size(),
                static_cast<unsigned long long>(
                    SamplesBeyond(waits.size(), kP99)));
    report.Add("mav.ack_wait_samples", static_cast<double>(waits.size()),
               "count");
    report.Add("mav.ack_wait_ms_p99", Quantile(waits, 0.99) / 1000.0, "ms");
  }

  // server.ae
  const double batches_out = ds(&hat::server::ServerStats::ae_batches_out);
  const double records_out = ds(&hat::server::ServerStats::ae_records_out);
  report.Add("ae.batches_out", batches_out, "count");
  report.AddRatio("ae.records_out_per_txn", per_txn(records_out, "records"),
                  "count");
  report.AddRatio("ae.records_per_batch",
                  Ratio{records_out, batches_out, "records", "batches"},
                  "count");
  report.AddRatio("ae.retransmits_per_batch",
                  Ratio{ds(&hat::server::ServerStats::ae_retransmits),
                        batches_out, "retransmits", "batches"},
                  "ratio");
  report.AddRatio("ae.dupes_suppressed_per_batch_in",
                  Ratio{ds(&hat::server::ServerStats::ae_dupes_suppressed),
                        ds(&hat::server::ServerStats::ae_batches_in), "dupes",
                        "batches in"},
                  "ratio");

  // server.persistence: modelled durability (durable, no storage_dir). A
  // plain put pays one WAL sync; an AE batch or client envelope batch one
  // group commit (client envelope batching is off in every workload).
  {
    double puts = ds(&hat::server::ServerStats::puts);
    double syncs = puts + ds(&hat::server::ServerStats::wal_group_commits);
    report.Add("persistence.wal_syncs", syncs, "count");
    report.AddRatio(
        "persistence.installs_per_group_commit",
        Ratio{puts + ds(&hat::server::ServerStats::ae_records_in), syncs,
              "installs", "WAL syncs"},
        "count");
  }

  // version
  report.Add("version.apply_ns",
             ReplayApply(sample.installs, kReplayReps), "ns");
  report.Add("version.read_ns",
             ReplayReads(dep, sample.get_keys, kReplayReps), "ns");
  report.Add("version.scan_ns_per_item",
             ReplayScans(dep, sample.scans, kReplayReps), "ns");
  {
    double bytes = 0, keys = 0, versions = 0;
    for (size_t id = 0; id < dep.ServerCount(); id++) {
      const auto& good = dep.server(static_cast<hat::net::NodeId>(id)).good();
      bytes += static_cast<double>(good.ApproximateBytes());
      keys += static_cast<double>(good.KeyCount());
      versions += static_cast<double>(good.VersionCount());
    }
    report.AddRatio("version.bytes_per_key",
                    Ratio{bytes, keys, "bytes", "replica keys"}, "B");
    report.AddRatio("version.versions_per_key",
                    Ratio{versions, keys, "versions", "replica keys"}, "count");
  }

  // cluster
  report.Add("cluster.replicas_of_ns",
             ReplayReplicasOf(dep, sample.keys, kReplayReps), "ns");

  // trace
  report.Add("trace.sampled_committed_txns",
             static_cast<double>(self.committed_txns), "count");
  for (size_t k = 0; k < kSelfTimeKinds.size(); k++) {
    std::string name = std::string("trace.") +
                       hat::obs::SpanKindName(kSelfTimeKinds[k]) +
                       ".self_ms_per_txn";
    report.AddRatio(name,
                    Ratio{self.self_us[k] / 1000.0,
                          static_cast<double>(self.committed_txns),
                          "self ms", "sampled txns"},
                    "ms");
  }
  for (size_t k = 0; k < kCountedKinds.size(); k++) {
    std::string name = std::string("trace.") +
                       hat::obs::SpanKindName(kCountedKinds[k]) +
                       ".spans_per_txn";
    report.AddRatio(name,
                    Ratio{static_cast<double>(self.spans[k]),
                          static_cast<double>(self.committed_txns), "spans",
                          "sampled txns"},
                    "count");
  }
  double cpu_u = WindowNormalizedCpuS(u);
  double cpu_t = WindowNormalizedCpuS(t);
  report.Add("trace.overhead_pct", (cpu_t - cpu_u) / cpu_u * 100.0, "%");

  probe.reset();
  std::string check = run.CheckCorrect();
  if (!check.empty()) fail(check);
  report.Add("workload.negative_stock_items", run.negative_stock_items(),
             "count");

  report.PrintTable();
  if (!failure.empty()) std::printf("CHECK FAILED: %s\n", failure.c_str());
  report.PrintJson(failure.empty(), t.attempted(), t.failed);
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string known;
    for (const std::string& n : WorkloadNames()) known += " " + n;
    std::fprintf(stderr, "hatbench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  auto window = static_cast<sim::Duration>(
      args.seconds * static_cast<double>(spec->window_per_second));
  std::printf("workload %s, seed %llu, %.3f simulated s measured in %d "
              "chunks\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<double>(window) / 1e6, kChunks);
  return args.trace ? PerLayer(*spec, args, window)
                    : EndToEnd(*spec, args, window);
}
