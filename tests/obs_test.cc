// Tests for hat/obs: generic stats merging over VisitFields, the metrics
// registry + sim-clock sampler (including late registration), the tracer
// ring buffers and deterministic sampling, the exporters, and an
// end-to-end traced MAV run whose span tree must hang together.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hat/client/options.h"
#include "hat/cluster/deployment.h"
#include "hat/harness/driver.h"
#include "hat/obs/export.h"
#include "hat/obs/registry.h"
#include "hat/obs/sampler.h"
#include "hat/obs/trace.h"
#include "hat/server/replica_server.h"
#include "hat/sim/simulation.h"

namespace hat::obs {
namespace {

// ------------------------------ MergeStats ---------------------------------

TEST(MergeStatsTest, TwoKnownServerStatsSumFieldForField) {
  server::ServerStats a;
  a.gets = 10;
  a.puts = 3;
  a.ae_records_in = 7;
  a.wal_group_commits = 2;
  a.busy_us = 1.5;
  a.lane_busy_us = {100.0, 200.0};
  a.lane_queue_depth = {1, 2};
  a.queue_wait_us.Record(50);

  server::ServerStats b;
  b.gets = 5;
  b.scans = 4;
  b.ae_records_in = 1;
  b.busy_us = 2.25;
  b.lane_busy_us = {10.0, 20.0, 30.0};  // more lanes than a: dst must grow
  b.lane_queue_depth = {0, 0, 9};
  b.queue_wait_us.Record(70);
  b.queue_wait_us.Record(90);

  server::ServerStats total;
  MergeStats(total, a);
  MergeStats(total, b);

  EXPECT_EQ(total.gets, 15u);
  EXPECT_EQ(total.puts, 3u);
  EXPECT_EQ(total.scans, 4u);
  EXPECT_EQ(total.ae_records_in, 8u);
  EXPECT_EQ(total.wal_group_commits, 2u);
  EXPECT_DOUBLE_EQ(total.busy_us, 3.75);
  ASSERT_EQ(total.lane_busy_us.size(), 3u);
  EXPECT_DOUBLE_EQ(total.lane_busy_us[0], 110.0);
  EXPECT_DOUBLE_EQ(total.lane_busy_us[1], 220.0);
  EXPECT_DOUBLE_EQ(total.lane_busy_us[2], 30.0);
  ASSERT_EQ(total.lane_queue_depth.size(), 3u);
  EXPECT_EQ(total.lane_queue_depth[2], 9u);
  EXPECT_EQ(total.queue_wait_us.count(), 3u);
  // Untouched fields stay zero.
  EXPECT_EQ(total.mav_promotions, 0u);
  EXPECT_EQ(total.exec_tasks, 0u);
}

TEST(MergeStatsTest, FieldCountsMatchTheStructs) {
  // 36 scalars + 2 lane vectors + 1 histogram; ClientStats is 14 scalars.
  // The sizeof static_asserts next to each VisitFields enforce "every
  // field is listed"; this pins the expected census so a silent VisitFields
  // rewrite shows up here too.
  EXPECT_EQ(CountStatsFields<server::ServerStats>(), 39u);
  EXPECT_EQ(CountStatsFields<client::ClientStats>(), 14u);
}

TEST(MergeStatsTest, ClientStatsMerge) {
  client::ClientStats a, b;
  a.txns_committed = 11;
  a.reads = 40;
  b.txns_committed = 9;
  b.batches_sent = 5;
  client::ClientStats total;
  MergeStats(total, a);
  MergeStats(total, b);
  EXPECT_EQ(total.txns_committed, 20u);
  EXPECT_EQ(total.reads, 40u);
  EXPECT_EQ(total.batches_sent, 5u);
}

// ------------------------------- Registry ----------------------------------

TEST(RegistryTest, SourcesReadLiveValues) {
  Registry reg;
  uint64_t counter = 0;
  double gauge = 0;
  Histogram hist;
  reg.AddCounter("c", {1, -1, "t"}, [&]() { return double(counter); });
  reg.AddGauge("g", {1, 2, "t"}, [&]() { return gauge; });
  reg.AddHistogram("h", {1, -1, "t"}, [&]() -> const Histogram& {
    return hist;
  });
  ASSERT_EQ(reg.size(), 3u);
  counter = 42;
  gauge = -1.5;
  hist.Record(7);
  EXPECT_DOUBLE_EQ(reg.metrics()[0].value(), 42.0);
  EXPECT_DOUBLE_EQ(reg.metrics()[1].value(), -1.5);
  EXPECT_EQ(reg.metrics()[2].histogram().count(), 1u);
  EXPECT_EQ(reg.metrics()[1].labels.lane, 2);
  EXPECT_EQ(reg.metrics()[0].kind, MetricKind::kCounter);
  EXPECT_EQ(reg.metrics()[1].kind, MetricKind::kGauge);
  EXPECT_EQ(reg.metrics()[2].kind, MetricKind::kHistogram);
}

TEST(RegistryTest, AddStatsRegistersScalarsAndHistogramsSkipsVectors) {
  Registry reg;
  server::ServerStats stats;
  reg.AddStats<server::ServerStats>(
      "server.", {3, -1, "server"},
      [&stats]() -> const server::ServerStats& { return stats; });
  // 36 scalar counters + 1 histogram; the two lane vectors are skipped
  // (registered per lane by the deployment, where the lane label is known).
  EXPECT_EQ(reg.size(), 37u);
  stats.gets = 17;
  bool found = false;
  for (const auto& m : reg.metrics()) {
    if (m.name == "server.gets") {
      found = true;
      EXPECT_DOUBLE_EQ(m.value(), 17.0);
      EXPECT_EQ(m.labels.server, 3);
    }
    EXPECT_NE(m.name, "server.lane_busy_us");
  }
  EXPECT_TRUE(found);
}

// -------------------------------- Sampler ----------------------------------

TEST(SamplerTest, CountersBecomeIntervalDeltas) {
  sim::Simulation sim(1);
  Registry reg;
  uint64_t counter = 0;
  reg.AddCounter("c", {}, [&]() { return double(counter); });
  Sampler::Options opts;
  opts.period = 10 * sim::kMillisecond;
  Sampler sampler(sim, reg, opts);
  counter = 100;  // pre-start activity must not pollute the first interval
  sampler.Start();
  sim.After(5 * sim::kMillisecond, [&]() { counter += 7; });
  sim.After(15 * sim::kMillisecond, [&]() { counter += 3; });
  sim.RunUntil(35 * sim::kMillisecond);
  sampler.Stop();
  ASSERT_EQ(sampler.times().size(), 3u);
  ASSERT_EQ(sampler.series().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.series()[0][0], 7.0);   // [0, 10ms)
  EXPECT_DOUBLE_EQ(sampler.series()[0][1], 3.0);   // [10, 20ms)
  EXPECT_DOUBLE_EQ(sampler.series()[0][2], 0.0);   // quiet interval
}

TEST(SamplerTest, HistogramsBecomeWindowedP95) {
  sim::Simulation sim(1);
  Registry reg;
  Histogram hist;
  reg.AddHistogram("h", {}, [&]() -> const Histogram& { return hist; });
  Sampler::Options opts;
  opts.period = 10 * sim::kMillisecond;
  Sampler sampler(sim, reg, opts);
  sampler.Start();
  sim.After(2 * sim::kMillisecond, [&]() { hist.RecordMany(100, 50); });
  sim.After(12 * sim::kMillisecond, [&]() { hist.RecordMany(9000, 50); });
  sim.RunUntil(25 * sim::kMillisecond);
  sampler.Stop();
  ASSERT_EQ(sampler.times().size(), 2u);
  // Each window's p95 reflects only that window's observations.
  EXPECT_NEAR(sampler.series()[0][0], 100, 100 * 0.02);
  EXPECT_NEAR(sampler.series()[0][1], 9000, 9000 * 0.02);
}

TEST(SamplerTest, LateRegistrationBackfillsZeros) {
  sim::Simulation sim(1);
  Registry reg;
  uint64_t early = 0, late = 0;
  reg.AddCounter("early", {}, [&]() { return double(early); });
  Sampler::Options opts;
  opts.period = 10 * sim::kMillisecond;
  Sampler sampler(sim, reg, opts);
  sampler.Start();
  // Two ticks in, a new metric appears (a client added to a live
  // deployment) with history on its counter.
  sim.After(25 * sim::kMillisecond, [&]() {
    late = 500;
    reg.AddCounter("late", {}, [&]() { return double(late); });
  });
  sim.After(32 * sim::kMillisecond, [&]() { late += 4; });
  sim.RunUntil(45 * sim::kMillisecond);
  sampler.Stop();
  ASSERT_EQ(sampler.times().size(), 4u);
  ASSERT_EQ(sampler.series().size(), 2u);
  ASSERT_EQ(sampler.series()[1].size(), 4u) << "rows must stay parallel";
  EXPECT_DOUBLE_EQ(sampler.series()[1][0], 0.0);  // backfilled
  EXPECT_DOUBLE_EQ(sampler.series()[1][1], 0.0);  // backfilled
  // First live tick (30ms) baselines at the join value — the pre-join 500
  // must not appear as a delta spike; the 35ms +4 lands in [30, 40ms).
  EXPECT_DOUBLE_EQ(sampler.series()[1][2], 0.0);
  EXPECT_DOUBLE_EQ(sampler.series()[1][3], 4.0);
}

// -------------------------------- Tracer -----------------------------------

TEST(TracerTest, RingWrapKeepsNewestAndCountsDropped) {
  Tracer::Options opts;
  opts.ring_capacity = 4;
  Tracer tracer(opts);
  tracer.set_enabled(true);
  for (uint64_t i = 1; i <= 6; i++) {
    Span s;
    s.trace_id = 1;
    s.span_id = i;
    s.node = 0;
    tracer.Record(s);
  }
  std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // Oldest-first within the ring: 3, 4, 5, 6 survive.
  EXPECT_EQ(spans.front().span_id, 3u);
  EXPECT_EQ(spans.back().span_id, 6u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  Span s;
  s.trace_id = 1;
  tracer.Record(s);  // enabled() false: must no-op
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_FALSE(tracer.ShouldSampleTxn());
}

TEST(TracerTest, SampleEveryNthIsCounterBasedAndDeterministic) {
  Tracer::Options opts;
  opts.sample_every = 3;
  Tracer tracer(opts);
  tracer.set_enabled(true);
  std::vector<bool> pattern;
  for (int i = 0; i < 9; i++) pattern.push_back(tracer.ShouldSampleTxn());
  EXPECT_EQ(pattern, std::vector<bool>(
                         {true, false, false, true, false, false, true,
                          false, false}));
}

TEST(TracerTest, ChildOfStaysInTraceWithFreshSpanId) {
  Tracer tracer;
  TraceContext root{tracer.NewTraceId(), tracer.NewSpanId()};
  TraceContext child = tracer.ChildOf(root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  EXPECT_TRUE(child.active());
  EXPECT_FALSE(TraceContext{}.active());
}

TEST(TracerTest, SpansGroupedByNodeInIdOrder) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (uint32_t node : {5u, 2u, 5u, 9u}) {
    Span s;
    s.trace_id = 1;
    s.node = node;
    tracer.Record(s);
  }
  std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].node, 2u);
  EXPECT_EQ(spans[1].node, 5u);
  EXPECT_EQ(spans[2].node, 5u);
  EXPECT_EQ(spans[3].node, 9u);
}

// ------------------------------- Exporters ---------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ExportTest, ChromeTraceContainsEventsAndParses) {
  std::vector<Span> spans;
  Span dur;
  dur.trace_id = 1;
  dur.span_id = 2;
  dur.kind = SpanKind::kExecute;
  dur.node = 3;
  dur.lane = 1;
  dur.core = 0;
  dur.start_us = 100;
  dur.end_us = 250;
  spans.push_back(dur);
  Span instant;
  instant.kind = SpanKind::kCheckpoint;
  instant.node = 3;
  instant.start_us = instant.end_us = 400;
  spans.push_back(instant);

  std::string path = testing::TempDir() + "/obs_chrome_trace.json";
  ASSERT_TRUE(WriteChromeTrace(path, spans));
  std::string doc = ReadAll(path);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // duration event
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(doc.find("execute"), std::string::npos);
  EXPECT_NE(doc.find("checkpoint"), std::string::npos);
  // Crude but effective structural check: braces/brackets balance.
  long depth = 0;
  for (char c : doc) {
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST(ExportTest, MetricsJsonCarriesTimesAndSeries) {
  sim::Simulation sim(1);
  Registry reg;
  uint64_t counter = 0;
  reg.AddCounter("test.counter", {2, -1, "fam"},
                 [&]() { return double(counter); });
  Sampler::Options opts;
  opts.period = 10 * sim::kMillisecond;
  Sampler sampler(sim, reg, opts);
  sampler.Start();
  sim.After(5 * sim::kMillisecond, [&]() { counter = 6; });
  sim.RunUntil(22 * sim::kMillisecond);
  sampler.Stop();

  std::string path = testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(WriteMetricsJson(path, sampler));
  std::string doc = ReadAll(path);
  EXPECT_NE(doc.find("\"test.counter\""), std::string::npos);
  EXPECT_NE(doc.find("\"t_us\""), std::string::npos);
  EXPECT_NE(doc.find("\"fam\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------- end-to-end traced deployment -----------------------

/// A small traced MAV run; keeps the deployment alive so tests can inspect
/// the tracer and sampler after the run.
struct TracedRun {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<cluster::Deployment> deployment;
  std::vector<Span> spans;
};

TracedRun TracedMavRun(client::ClientOptions copts) {
  TracedRun run;
  run.sim = std::make_unique<sim::Simulation>(42);
  auto opts = cluster::DeploymentOptions::TwoRegions();
  opts.servers_per_cluster = 2;
  opts.server.shards_per_server = 2;
  run.deployment = std::make_unique<cluster::Deployment>(*run.sim, opts);
  cluster::ObsConfig obs_config;
  obs_config.tracing = true;
  obs_config.sampling = true;
  run.deployment->EnableObservability(obs_config);

  workload::YcsbOptions wl;
  wl.num_keys = 200;
  wl.value_size = 32;
  wl.read_fraction = 0.5;
  wl.ops_per_txn = 4;
  harness::YcsbDriver driver(*run.deployment, wl, copts, /*num_clients=*/4,
                             /*seed=*/7);
  driver.Preload();
  driver.Run(50 * sim::kMillisecond, 200 * sim::kMillisecond);
  run.spans = run.deployment->tracer()->Spans();
  return run;
}

TEST(TracedDeploymentTest, MavCommitSpanTreeHangsTogether) {
  client::ClientOptions copts;
  copts.isolation = client::IsolationLevel::kMonotonicAtomicView;
  TracedRun run = TracedMavRun(copts);
  cluster::Deployment* deployment = run.deployment.get();
  const std::vector<Span>& spans = run.spans;
  ASSERT_FALSE(spans.empty());

  std::set<SpanKind> kinds;
  for (const Span& s : spans) {
    kinds.insert(s.kind);
    EXPECT_GE(s.end_us, s.start_us) << "span timestamps must be monotone";
  }
  // The full MAV write path must be represented.
  for (SpanKind k :
       {SpanKind::kTxn, SpanKind::kCommit, SpanKind::kRpcFlight,
        SpanKind::kQueueWait, SpanKind::kExecute, SpanKind::kWalCommit,
        SpanKind::kMavAckWait, SpanKind::kAeApply}) {
    EXPECT_TRUE(kinds.count(k)) << "missing span kind " << SpanKindName(k);
  }

  // Span-tree structure. Parent ids come in two flavours: recorded spans
  // (the kTxn root) and envelope/context identities that exist only as
  // edges (an RPC's context id is the parent of the server-side work it
  // causes, but is not itself a recorded span). What must hold: every
  // kCommit span's parent is its trace's recorded kTxn root, roots are
  // roots (parent 0, span_id present), and no span parents itself.
  std::map<uint64_t, const Span*> roots;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kTxn) {
      EXPECT_EQ(s.parent_id, 0u) << "kTxn must be a root span";
      roots[s.trace_id] = &s;
    }
    if (s.trace_id != 0) {
      EXPECT_NE(s.parent_id, s.span_id) << "span must not parent itself";
    }
  }
  ASSERT_FALSE(roots.empty());
  size_t checked_commits = 0;
  for (const Span& s : spans) {
    if (s.kind != SpanKind::kCommit) continue;
    auto it = roots.find(s.trace_id);
    if (it == roots.end()) continue;  // root evicted or txn in flight
    EXPECT_EQ(s.parent_id, it->second->span_id)
        << "kCommit must hang off its transaction's root span";
    // The commit phase nests inside the transaction interval.
    EXPECT_GE(s.start_us, it->second->start_us);
    EXPECT_LE(s.end_us, it->second->end_us);
    checked_commits++;
  }
  EXPECT_GT(checked_commits, 0u);

  // Server-side spans sit within the sim-time frame of the run.
  for (const Span& s : spans) {
    EXPECT_LE(s.end_us, 1000 * sim::kMillisecond);
  }

  // The sampler ran alongside and its rows stayed parallel.
  ASSERT_NE(deployment->sampler(), nullptr);
  EXPECT_GE(deployment->sampler()->times().size(), 10u);
  for (const auto& row : deployment->sampler()->series()) {
    EXPECT_EQ(row.size(), deployment->sampler()->times().size());
  }
}

TEST(TracedDeploymentTest, BatchedClientRecordsBatchWaitSpans) {
  client::ClientOptions copts;
  copts.isolation = client::IsolationLevel::kReadCommitted;
  copts.batch_max = 8;
  copts.batch_max_wait_us = 200;
  TracedRun run = TracedMavRun(copts);
  size_t batch_waits = 0;
  for (const Span& s : run.spans) {
    if (s.kind == SpanKind::kBatchWait) {
      batch_waits++;
      EXPECT_NE(s.trace_id, 0u);
      EXPECT_GE(s.end_us, s.start_us);
      EXPECT_GE(s.arg, 1u) << "kBatchWait arg carries the batch size";
    }
  }
  EXPECT_GT(batch_waits, 0u) << "batched client produced no kBatchWait spans";
}

TEST(TracedDeploymentTest, TracingIsDeterministicAcrossIdenticalRuns) {
  client::ClientOptions copts;
  copts.isolation = client::IsolationLevel::kMonotonicAtomicView;
  std::vector<Span> first = TracedMavRun(copts).spans;
  std::vector<Span> second = TracedMavRun(copts).spans;
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); i++) {
    EXPECT_EQ(first[i].trace_id, second[i].trace_id) << i;
    EXPECT_EQ(first[i].span_id, second[i].span_id) << i;
    EXPECT_EQ(static_cast<int>(first[i].kind),
              static_cast<int>(second[i].kind)) << i;
    EXPECT_EQ(first[i].start_us, second[i].start_us) << i;
    EXPECT_EQ(first[i].end_us, second[i].end_us) << i;
  }
}

}  // namespace
}  // namespace hat::obs
