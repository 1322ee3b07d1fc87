// Unit tests for server::ShardExecutor — the deterministic lanes x cores
// queueing model — plus integration tests pinning the properties the rest
// of the repo depends on: bit-identical reproducibility under
// cores_per_server > 1, capacity-normalized utilization, and executor
// counters surfacing through ServerStats.

#include <gtest/gtest.h>

#include <vector>

#include "hat/cluster/deployment.h"
#include "hat/net/rpc.h"
#include "hat/server/shard_executor.h"

namespace hat::server {
namespace {

using cluster::Deployment;
using cluster::DeploymentOptions;

class ShardExecutorTest : public ::testing::Test {
 protected:
  ShardExecutor Make(size_t shards, size_t cores, double dispatch_us = 0) {
    return ShardExecutor(sim_, ShardExecutor::Options{shards, cores,
                                                      dispatch_us});
  }
  sim::Simulation sim_{1};
};

TEST_F(ShardExecutorTest, SingleCoreSerializesEvenAcrossLanes) {
  auto ex = Make(4, 1);
  EXPECT_EQ(ex.Submit(0, 100, nullptr), 100u);
  EXPECT_EQ(ex.Submit(1, 100, nullptr), 200u);  // different lane, same core
  EXPECT_EQ(ex.Submit(ex.global_lane(), 50, nullptr), 250u);
}

TEST_F(ShardExecutorTest, CrossShardWorkOverlapsUpToCoreCount) {
  auto ex = Make(4, 2);
  EXPECT_EQ(ex.Submit(0, 100, nullptr), 100u);
  EXPECT_EQ(ex.Submit(1, 100, nullptr), 100u);  // second core
  // Both cores busy until 100: the third lane queues for a core.
  EXPECT_EQ(ex.Submit(2, 100, nullptr), 200u);
}

TEST_F(ShardExecutorTest, SameLaneSerializesDespiteFreeCores) {
  auto ex = Make(2, 8);
  EXPECT_EQ(ex.Submit(0, 100, nullptr), 100u);
  EXPECT_EQ(ex.Submit(0, 100, nullptr), 200u);  // FIFO per lane
  EXPECT_EQ(ex.Submit(1, 100, nullptr), 100u);  // other lane unaffected
}

TEST_F(ShardExecutorTest, DispatchChargedOnlyOnMultiCoreShardLanes) {
  auto single = Make(2, 1, /*dispatch_us=*/7);
  EXPECT_EQ(single.Submit(0, 100, nullptr), 100u);  // C = 1: no handoff
  EXPECT_EQ(single.stats().dispatches, 0u);

  auto multi = Make(2, 2, /*dispatch_us=*/7);
  EXPECT_EQ(multi.Submit(0, 100, nullptr), 107u);
  EXPECT_EQ(multi.stats().dispatches, 1u);
  // The global lane is the receive path itself: never dispatched.
  EXPECT_EQ(multi.Submit(multi.global_lane(), 100, nullptr), 100u);
  EXPECT_EQ(multi.stats().dispatches, 1u);
}

TEST_F(ShardExecutorTest, SubmitAllCompletesAtLastLane) {
  auto ex = Make(4, 4);
  bool done = false;
  sim::SimTime end = ex.SubmitAll({{0, 100}, {1, 300}, {2, 50}},
                                  [&done]() { done = true; });
  EXPECT_EQ(end, 300u);
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim_.Now(), 300u);
}

TEST_F(ShardExecutorTest, EmptyPlanCompletesImmediately) {
  auto ex = Make(2, 2);
  bool done = false;
  EXPECT_EQ(ex.SubmitAll({}, [&done]() { done = true; }), sim_.Now());
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(ShardExecutorTest, QueueWaitMeasuresLaneAndCoreContention) {
  auto ex = Make(2, 1);
  ex.Submit(0, 100, nullptr);
  ex.Submit(1, 50, nullptr);  // waits 100us for the core
  const auto& stats = ex.stats();
  EXPECT_EQ(stats.queue_wait_us.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.queue_wait_us.min(), 0);
  // Log-bucketed histogram: the 100us wait lands within 1% of 100.
  EXPECT_NEAR(stats.queue_wait_us.max(), 100, 1.5);
}

TEST_F(ShardExecutorTest, PerLaneBusyAndTotalsAgree) {
  auto ex = Make(2, 2);
  ex.Submit(0, 100, nullptr);
  ex.Submit(1, 40, nullptr);
  ex.Submit(ex.global_lane(), 10, nullptr);
  const auto& stats = ex.stats();
  ASSERT_EQ(stats.lane_busy_us.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.lane_busy_us[0], 100);
  EXPECT_DOUBLE_EQ(stats.lane_busy_us[1], 40);
  EXPECT_DOUBLE_EQ(stats.lane_busy_us[2], 10);
  EXPECT_DOUBLE_EQ(stats.busy_us, 150);
  EXPECT_EQ(stats.tasks, 3u);
}

TEST_F(ShardExecutorTest, UtilizationNormalizesByCoreCount) {
  auto ex = Make(4, 4);
  for (size_t lane = 0; lane < 4; lane++) ex.Submit(lane, 100, nullptr);
  // 400us of work on 4 cores over a 100us window: fully busy, not 4x busy.
  EXPECT_DOUBLE_EQ(ex.UtilizationOver(100), 1.0);
  EXPECT_DOUBLE_EQ(ex.LaneUtilizationOver(0, 100), 1.0);
  EXPECT_DOUBLE_EQ(ex.LaneUtilizationOver(ex.global_lane(), 100), 0.0);
}

TEST_F(ShardExecutorTest, QueueDepthTracksBookedBacklogPerLane) {
  auto ex = Make(2, 1);
  EXPECT_EQ(ex.QueueDepth(0), 0u);
  ex.Submit(0, 100, nullptr);   // completes at t=100
  ex.Submit(0, 50, nullptr);    // completes at t=150
  ex.Submit(1, 50, nullptr);    // queued behind the core, completes at t=200
  EXPECT_EQ(ex.QueueDepth(0), 2u);
  EXPECT_EQ(ex.QueueDepth(1), 1u);
  EXPECT_EQ(ex.QueueDepth(ex.global_lane()), 0u);
  sim_.RunUntil(120);
  EXPECT_EQ(ex.QueueDepth(0), 1u) << "the 100us task has completed";
  sim_.RunUntil(200);
  EXPECT_EQ(ex.QueueDepth(0), 0u) << "drained lane reads depth 0";
  EXPECT_EQ(ex.QueueDepth(1), 0u);
}

TEST_F(ShardExecutorTest, QueueDepthSurvivesResetAndDepthSurfacesInStats) {
  auto ex = Make(1, 1);
  ex.Submit(0, 1000, nullptr);
  EXPECT_EQ(ex.QueueDepth(0), 1u);
  ex.Reset();  // crash: the booked backlog is gone with the frontiers
  EXPECT_EQ(ex.QueueDepth(0), 0u);
}

TEST_F(ShardExecutorTest, AddLaneAppendsAfterGlobalLane) {
  auto ex = Make(2, 2);
  ASSERT_EQ(ex.lane_count(), 3u);
  size_t added = ex.AddLane();  // a migrated-in shard's lane
  EXPECT_EQ(added, 3u) << "the global lane stays pinned at index shards";
  EXPECT_EQ(ex.global_lane(), 2u);
  EXPECT_EQ(ex.lane_count(), 4u);
  // The added lane behaves like any shard lane: FIFO and dispatch-charged.
  EXPECT_EQ(ex.Submit(added, 100, nullptr), 100u);
  EXPECT_EQ(ex.Submit(added, 100, nullptr), 200u);
  EXPECT_EQ(ex.QueueDepth(added), 2u);
  const auto& stats = ex.stats();
  ASSERT_EQ(stats.lane_busy_us.size(), 4u);
  EXPECT_DOUBLE_EQ(stats.lane_busy_us[added], 200);
}

TEST_F(ShardExecutorTest, MakespanShrinksLinearlyWithCores) {
  // The tentpole property, asserted at the model level: M tasks spread
  // evenly over C lanes on C cores finish in 1/C of the single-core
  // makespan — same-shard work serializes, cross-shard work overlaps.
  constexpr size_t kTasks = 64;
  constexpr double kCost = 100;
  for (size_t c : {2u, 4u, 8u}) {
    auto baseline = Make(c, 1);
    auto scaled = Make(c, c);
    sim::SimTime base_end = 0, scaled_end = 0;
    for (size_t i = 0; i < kTasks; i++) {
      base_end = baseline.Submit(i % c, kCost, nullptr);
      scaled_end = scaled.Submit(i % c, kCost, nullptr);
    }
    EXPECT_EQ(base_end, kTasks * 100) << c;
    EXPECT_EQ(scaled_end, kTasks * 100 / c) << c;
  }
}

TEST_F(ShardExecutorTest, ResetFreesLanesAndCores) {
  auto ex = Make(2, 1);
  ex.Submit(0, 1000, nullptr);
  ex.Reset();  // crash: queued work dies with the process
  EXPECT_EQ(ex.Submit(0, 100, nullptr), sim_.Now() + 100);
  EXPECT_DOUBLE_EQ(ex.stats().busy_us, 1100);  // stats survive, like crashes
}

// ---------------------------------------------------------------------------
// Integration: the executor behind a ReplicaServer deployment.
// ---------------------------------------------------------------------------

/// A test probe node that can issue raw RPCs to servers.
class Probe : public net::RpcNode {
 public:
  using net::RpcNode::RpcNode;
  void HandleMessage(net::Envelope) override {}
};

WriteRecord MakeWrite(const Key& key, const Value& value, uint64_t logical) {
  WriteRecord w;
  w.key = key;
  w.value = value;
  w.ts = {logical, 7};
  return w;
}

/// Everything a run can legitimately differ in: event counts, executor
/// accounting (exact doubles), protocol counters, and folded reads.
struct RunFingerprint {
  uint64_t events = 0;
  std::vector<double> busy;
  std::vector<double> lane_busy;
  std::vector<uint64_t> counters;
  std::vector<std::string> folds;

  bool operator==(const RunFingerprint&) const = default;
};

/// Drives a fixed concurrent workload (client puts + MAV puts + gets fanned
/// out with no waiting, plus digest repair ticking underneath) on a
/// multi-core multi-shard deployment and fingerprints the outcome.
RunFingerprint RunOnce(uint64_t seed) {
  sim::Simulation sim(seed);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 2;
  opts.server.shards_per_server = 4;
  opts.server.cores_per_server = 4;
  opts.server.digest_buckets = 64;
  opts.server.digest_sync_interval = 200 * sim::kMillisecond;
  Deployment deployment(sim, opts);
  net::NodeId probe_id = deployment.network().topology().AddNode(
      {net::Region::kVirginia, 0, 999});
  Probe probe(sim, deployment.network(), probe_id);

  for (uint64_t i = 0; i < 200; i++) {
    Key key = "key" + std::to_string(i);
    net::PutRequest put;
    put.write = MakeWrite(key, "v" + std::to_string(i), 10 + i);
    put.mode = i % 3 == 0 ? net::PutMode::kMav : net::PutMode::kEventual;
    if (put.mode == net::PutMode::kMav) put.write.sibs = {key};
    probe.Call(deployment.ReplicaInCluster(key, i % 2), put, 5 * sim::kSecond,
               [](Status, const net::Message*) {});
    net::GetRequest get;
    get.key = "key" + std::to_string(i / 2);
    probe.Call(deployment.ReplicaInCluster(get.key, (i + 1) % 2), get,
               5 * sim::kSecond, [](Status, const net::Message*) {});
  }
  sim.RunUntil(sim.Now() + 3 * sim::kSecond);

  RunFingerprint fp;
  fp.events = sim.events_processed();
  for (size_t s = 0; s < deployment.ServerCount(); s++) {
    const ServerStats& st =
        deployment.server(static_cast<net::NodeId>(s)).stats();
    fp.busy.push_back(st.busy_us);
    fp.busy.push_back(st.queue_wait_us.sum());
    fp.lane_busy.insert(fp.lane_busy.end(), st.lane_busy_us.begin(),
                        st.lane_busy_us.end());
    for (uint64_t c : {st.gets, st.puts, st.ae_records_in, st.ae_records_out,
                       st.mav_promotions, st.exec_tasks, st.exec_dispatches,
                       st.queue_wait_us.count()}) {
      fp.counters.push_back(c);
    }
  }
  for (uint64_t i = 0; i < 200; i++) {
    Key key = "key" + std::to_string(i);
    for (net::NodeId r : deployment.ReplicasOf(key)) {
      auto rv = deployment.server(r).good().Read(key);
      fp.folds.push_back(rv.found ? rv.value : "<none>");
    }
  }
  return fp;
}

TEST(ShardExecutorDeterminismTest, SameSeedSameExecutionWithManyCores) {
  // The executor must not break reproducibility: two runs of the same seed
  // with cores_per_server > 1 and shards_per_server > 1 agree bit for bit
  // on event counts, every executor counter, and every folded value.
  RunFingerprint a = RunOnce(11);
  RunFingerprint b = RunOnce(11);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.busy, b.busy);  // exact double equality, no tolerance
  EXPECT_EQ(a.lane_busy, b.lane_busy);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.folds, b.folds);
  EXPECT_TRUE(a == b);

  // And a different seed genuinely perturbs the execution (the fingerprint
  // is not vacuously constant).
  RunFingerprint c = RunOnce(12);
  EXPECT_FALSE(a == c);
}

TEST(ShardExecutorDeploymentTest, ExecutorCountersSurfaceThroughStats) {
  sim::Simulation sim(3);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}};
  opts.server.shards_per_server = 2;
  opts.server.cores_per_server = 2;
  Deployment deployment(sim, opts);
  net::NodeId probe_id = deployment.network().topology().AddNode(
      {net::Region::kVirginia, 0, 999});
  Probe probe(sim, deployment.network(), probe_id);

  for (uint64_t i = 0; i < 40; i++) {
    net::PutRequest put;
    put.write = MakeWrite("key" + std::to_string(i), "v", 10 + i);
    probe.Call(deployment.ReplicaInCluster(put.write.key, 0), put,
               5 * sim::kSecond, [](Status, const net::Message*) {});
  }
  sim.RunUntil(sim.Now() + sim::kSecond);

  ServerStats total = deployment.TotalServerStats();
  EXPECT_EQ(total.puts, 40u);
  EXPECT_EQ(total.exec_tasks, 40u);  // single replica: no gossip traffic
  EXPECT_EQ(total.exec_dispatches, 40u);  // every put crossed to a shard lane
  ASSERT_EQ(total.lane_busy_us.size(), 3u);  // 2 shard lanes + global
  double lane_sum = 0;
  for (double lane : total.lane_busy_us) lane_sum += lane;
  EXPECT_DOUBLE_EQ(lane_sum, total.busy_us);
  EXPECT_EQ(total.queue_wait_us.count(), 40u);  // one charge per put
}

TEST(ShardExecutorDeploymentTest, ServerUtilizationIsCapacityNormalized) {
  for (size_t cores : {1u, 4u}) {
    sim::Simulation sim(3);
    DeploymentOptions opts;
    opts.clusters = {{net::Region::kVirginia, 0}};
    opts.servers_per_cluster = 1;
    opts.server.shards_per_server = 4;
    opts.server.cores_per_server = cores;
    Deployment deployment(sim, opts);
    net::NodeId probe_id = deployment.network().topology().AddNode(
        {net::Region::kVirginia, 0, 999});
    Probe probe(sim, deployment.network(), probe_id);
    for (uint64_t i = 0; i < 50; i++) {
      net::PutRequest put;
      put.write = MakeWrite("key" + std::to_string(i), "v", 10 + i);
      probe.Call(0, put, 5 * sim::kSecond, [](Status, const net::Message*) {});
    }
    sim.RunUntil(sim.Now() + sim::kSecond);

    const auto& server = deployment.server(0);
    sim::SimTime elapsed = sim.Now();
    double busy = server.stats().busy_us;
    // busy / (cores x elapsed), so a C-core server reports utilization in
    // [0, 1] instead of busy-time-per-wall-time (which can exceed 1).
    EXPECT_DOUBLE_EQ(server.UtilizationOver(elapsed),
                     busy / (static_cast<double>(cores) *
                             static_cast<double>(elapsed)));
    EXPECT_LE(server.UtilizationOver(elapsed), 1.0);
    double lane_sum = 0;
    for (size_t lane = 0; lane < 5; lane++) {
      lane_sum += server.LaneUtilizationOver(lane, elapsed);
    }
    EXPECT_NEAR(lane_sum * static_cast<double>(elapsed), busy, 1e-6);
  }
}

}  // namespace
}  // namespace hat::server
