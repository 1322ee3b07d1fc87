// End-to-end integration tests: full deployments, real client/server
// message flows, partitions, and the availability claims of Sections 4-5.

#include <gtest/gtest.h>

#include "hat/client/sync_client.h"
#include "hat/cluster/deployment.h"
#include "hat/common/codec.h"
#include "hat/harness/driver.h"

namespace hat {
namespace {

using client::ClientOptions;
using client::IsolationLevel;
using client::SyncClient;
using client::SystemMode;
using cluster::Deployment;
using cluster::DeploymentOptions;

class IntegrationTest : public ::testing::Test {
 protected:
  void Build(DeploymentOptions opts, uint64_t seed = 7) {
    sim_ = std::make_unique<sim::Simulation>(seed);
    // Tests do not need modeled durability charges.
    opts.server.durable = false;
    deployment_ = std::make_unique<Deployment>(*sim_, opts);
  }

  SyncClient Client(ClientOptions opts) {
    return SyncClient(*sim_, deployment_->AddClient(opts));
  }

  /// Runs the simulation for `d` of virtual time (anti-entropy etc.).
  void Settle(sim::Duration d = 2 * sim::kSecond) {
    sim_->RunUntil(sim_->Now() + d);
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_F(IntegrationTest, ReadCommittedWriteThenRead) {
  Build(DeploymentOptions::SingleDatacenter());
  ClientOptions opts;
  opts.isolation = IsolationLevel::kReadCommitted;
  auto c = Client(opts);

  c.Begin();
  c.Write("greeting", "hello");
  ASSERT_TRUE(c.Commit().ok());

  c.Begin();
  auto rv = c.Read("greeting");
  ASSERT_TRUE(rv.ok());
  EXPECT_TRUE(rv->found);
  EXPECT_EQ(rv->value, "hello");
  ASSERT_TRUE(c.Commit().ok());
}

TEST_F(IntegrationTest, ReadsSeeNothingBeforeFirstWrite) {
  Build(DeploymentOptions::SingleDatacenter());
  auto c = Client(ClientOptions{});
  c.Begin();
  auto rv = c.Read("absent");
  ASSERT_TRUE(rv.ok());
  EXPECT_FALSE(rv->found);
  c.Abort();
}

TEST_F(IntegrationTest, AntiEntropyConvergesAcrossClusters) {
  Build(DeploymentOptions::TwoRegions());
  ClientOptions writer_opts;
  writer_opts.home_cluster = 0;
  auto writer = Client(writer_opts);

  writer.Begin();
  writer.Write("k", "v1");
  ASSERT_TRUE(writer.Commit().ok());
  Settle();

  ClientOptions reader_opts;
  reader_opts.home_cluster = 1;  // other datacenter
  auto reader = Client(reader_opts);
  reader.Begin();
  auto rv = reader.Read("k");
  ASSERT_TRUE(rv.ok());
  EXPECT_TRUE(rv->found);
  EXPECT_EQ(rv->value, "v1");
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(IntegrationTest, HatCommitsDuringPartitionMasterDoesNot) {
  Build(DeploymentOptions::TwoRegions());
  ClientOptions hat_opts;
  hat_opts.home_cluster = 0;
  hat_opts.op_timeout = 3 * sim::kSecond;
  hat_opts.rpc_timeout = 500 * sim::kMillisecond;
  auto hat_client = Client(hat_opts);

  ClientOptions master_opts = hat_opts;
  master_opts.mode = SystemMode::kMaster;
  auto master_client = Client(master_opts);

  deployment_->PartitionClusters(0, 1);

  // HAT: transactional availability — commits against the local cluster.
  int hat_committed = 0;
  for (int i = 0; i < 8; i++) {
    hat_client.Begin();
    hat_client.Write("key" + std::to_string(i), "v");
    if (hat_client.Commit().ok()) hat_committed++;
  }
  EXPECT_EQ(hat_committed, 8);

  // Master: keys mastered in the remote cluster are unavailable.
  int master_failed = 0;
  int attempts = 0;
  for (int i = 0; i < 8; i++) {
    Key key = "key" + std::to_string(i);
    if (deployment_->MasterOf(key) ==
        deployment_->ReplicaInCluster(key, 0)) {
      continue;  // mastered locally; would succeed
    }
    attempts++;
    master_client.Begin();
    master_client.Write(key, "v");
    Status s = master_client.Commit();
    if (s.IsUnavailable() || s.IsTimeout()) master_failed++;
  }
  ASSERT_GT(attempts, 0);
  EXPECT_EQ(master_failed, attempts);

  // After healing, anti-entropy reconciles both sides.
  deployment_->Heal();
  Settle(3 * sim::kSecond);
  ClientOptions reader_opts;
  reader_opts.home_cluster = 1;
  auto reader = Client(reader_opts);
  reader.Begin();
  auto rv = reader.Read("key0");
  ASSERT_TRUE(rv.ok());
  EXPECT_TRUE(rv->found);
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(IntegrationTest, LockingPreventsLostUpdate) {
  Build(DeploymentOptions::SingleDatacenter());
  ClientOptions opts;
  opts.mode = SystemMode::kLocking;
  auto c1 = Client(opts);
  auto c2 = Client(opts);

  // Seed the counter.
  c1.Begin();
  c1.Write("counter", EncodeInt64Value(100));
  ASSERT_TRUE(c1.Commit().ok());
  Settle();

  // Sequential read-modify-writes through locks preserve both updates.
  for (SyncClient* c : {&c1, &c2}) {
    Status s;
    do {
      c->Begin();
      auto v = c->ReadInt("counter");
      ASSERT_TRUE(v.ok());
      c->Write("counter", EncodeInt64Value(*v + 10));
      s = c->Commit();
    } while (!s.ok());  // wait-die may abort; retry
  }
  Settle();
  c1.Begin();
  auto final_value = c1.ReadInt("counter");
  ASSERT_TRUE(final_value.ok());
  EXPECT_EQ(*final_value, 120);
  ASSERT_TRUE(c1.Commit().ok());
}

TEST_F(IntegrationTest, CommutativeIncrementsMergeAcrossPartition) {
  Build(DeploymentOptions::TwoRegions());
  ClientOptions a_opts;
  a_opts.home_cluster = 0;
  auto a = Client(a_opts);
  ClientOptions b_opts;
  b_opts.home_cluster = 1;
  auto b = Client(b_opts);

  a.Begin();
  a.Write("balance", EncodeInt64Value(1000));
  ASSERT_TRUE(a.Commit().ok());
  Settle();

  deployment_->PartitionClusters(0, 1);
  a.Begin();
  a.Increment("balance", 20);
  ASSERT_TRUE(a.Commit().ok());
  b.Begin();
  b.Increment("balance", 30);
  ASSERT_TRUE(b.Commit().ok());

  deployment_->Heal();
  Settle(3 * sim::kSecond);

  // Both increments survive: commutative updates avoid Lost Update
  // (Section 6, footnote 4).
  a.Begin();
  auto va = a.ReadInt("balance");
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(*va, 1050);
  ASSERT_TRUE(a.Commit().ok());
  b.Begin();
  auto vb = b.ReadInt("balance");
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*vb, 1050);
  ASSERT_TRUE(b.Commit().ok());
}

TEST_F(IntegrationTest, MavAtomicVisibilityAppendixBExample) {
  // T1: w_x(1) w_y(1); T2: r_x(1) -> r_y must be >= T1's write.
  Build(DeploymentOptions::TwoRegions());
  ClientOptions w_opts;
  w_opts.isolation = IsolationLevel::kMonotonicAtomicView;
  w_opts.home_cluster = 0;
  auto writer = Client(w_opts);

  writer.Begin();
  writer.Write("x", "1");
  writer.Write("y", "1");
  ASSERT_TRUE(writer.Commit().ok());
  Settle(3 * sim::kSecond);

  ClientOptions r_opts = w_opts;
  r_opts.home_cluster = 1;
  auto reader = Client(r_opts);
  reader.Begin();
  auto x = reader.Read("x");
  ASSERT_TRUE(x.ok());
  if (x->found) {
    auto y = reader.Read("y");
    ASSERT_TRUE(y.ok());
    EXPECT_TRUE(y->found) << "MAV: observed T1 via x, y must be visible";
    EXPECT_EQ(y->value, "1");
  }
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(IntegrationTest, MavNotifiesStayWithinMessageBudget) {
  // Multi-key MAV transactions across two regions: WAN round trips keep
  // transactions pending across renotify ticks, so renotifies regularly
  // cross the promotions they are meant to speed up and arrive late at
  // replicas that have already promoted. Each such late notify may be
  // answered once; an answer is never answered in turn.
  Build(DeploymentOptions::TwoRegions());
  workload::YcsbOptions wopts;
  wopts.num_keys = 400;
  wopts.value_size = 64;
  wopts.ops_per_txn = 8;
  ClientOptions copts;
  copts.isolation = IsolationLevel::kMonotonicAtomicView;
  harness::YcsbDriver driver(*deployment_, wopts, copts, /*num_clients=*/16,
                             /*seed=*/5);
  driver.Preload();
  // Without the reply rule the exchanges outlive their transactions and
  // grow with run length: at 4 s they exceed the budget below by 1.8x.
  auto result = driver.Run(500 * sim::kMillisecond, 4 * sim::kSecond);
  ASSERT_GT(result.committed, 0u);

  server::ServerStats total = deployment_->TotalServerStats();
  ASSERT_GT(total.mav_promotions, 0u);
  ASSERT_GT(total.mav_renotifies, 0u) << "config no longer renotifies";
  const uint64_t sent = total.mav_acks_sent + total.mav_renotifies;
  EXPECT_LE(total.mav_notify_replies, sent);
  EXPECT_LE(total.notifies, 2 * sent);
}

TEST_F(IntegrationTest, QuorumUnavailableWhenMajorityUnreachable) {
  Build(DeploymentOptions::TwoRegions());  // 2 replicas; majority = 2
  ClientOptions opts;
  opts.mode = SystemMode::kQuorum;
  opts.home_cluster = 0;
  opts.op_timeout = 2 * sim::kSecond;
  opts.rpc_timeout = 500 * sim::kMillisecond;
  auto c = Client(opts);

  c.Begin();
  c.Write("q", "1");
  ASSERT_TRUE(c.Commit().ok());

  deployment_->PartitionClusters(0, 1);
  c.Begin();
  c.Write("q", "2");
  Status s = c.Commit();
  EXPECT_FALSE(s.ok()) << "writes need both replicas with n=2";
}

}  // namespace
}  // namespace hat
