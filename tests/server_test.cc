// Unit tests for ReplicaServer: queueing model, MAV pending/good promotion,
// anti-entropy retransmission, lock manager (wait-die), pending GC, version
// GC.

#include <gtest/gtest.h>

#include "hat/cluster/deployment.h"
#include "hat/net/rpc.h"

namespace hat::server {
namespace {

using cluster::Deployment;
using cluster::DeploymentOptions;

/// A test probe node that can issue raw RPCs to servers.
class Probe : public net::RpcNode {
 public:
  using net::RpcNode::RpcNode;
  void HandleMessage(net::Envelope) override {}

  /// Synchronous RPC helper: drives the sim until the response arrives.
  Result<net::Message> CallSync(net::NodeId to, net::Message req,
                                sim::Duration timeout = 5 * sim::kSecond) {
    bool done = false;
    Status status;
    net::Message response;
    Call(to, std::move(req), timeout,
         [&](Status s, const net::Message* m) {
           status = std::move(s);
           if (m) response = *m;
           done = true;
         });
    while (!done && sim_.Step()) {
    }
    if (!status.ok()) return status;
    return response;
  }
};

class ServerTest : public ::testing::Test {
 protected:
  void Build(int clusters = 2, int servers_per_cluster = 2) {
    sim_ = std::make_unique<sim::Simulation>(3);
    DeploymentOptions opts;
    for (int i = 0; i < clusters; i++) {
      opts.clusters.push_back(
          {net::Region::kVirginia, static_cast<uint8_t>(i)});
    }
    opts.servers_per_cluster = servers_per_cluster;
    opts.server.durable = false;
    deployment_ = std::make_unique<Deployment>(*sim_, opts);
    net::NodeId probe_id = deployment_->network().topology().AddNode(
        {net::Region::kVirginia, 0, 999});
    probe_ = std::make_unique<Probe>(*sim_, deployment_->network(), probe_id);
  }

  WriteRecord MakeWrite(const Key& key, const Value& value, uint64_t logical,
                        std::vector<Key> sibs = {}) {
    WriteRecord w;
    w.key = key;
    w.value = value;
    w.ts = {logical, 7};
    w.sibs = std::move(sibs);
    return w;
  }

  net::GetResponse Get(net::NodeId server, const Key& key,
                       std::optional<Timestamp> required = std::nullopt) {
    net::GetRequest req;
    req.key = key;
    req.required = required;
    auto resp = probe_->CallSync(server, req);
    EXPECT_TRUE(resp.ok());
    return std::get<net::GetResponse>(*resp);
  }

  bool Put(net::NodeId server, const WriteRecord& w, net::PutMode mode) {
    net::PutRequest req;
    req.write = w;
    req.mode = mode;
    auto resp = probe_->CallSync(server, req);
    if (!resp.ok()) return false;
    return std::get<net::PutResponse>(*resp).ok;
  }

  void Settle(sim::Duration d = 2 * sim::kSecond) {
    sim_->RunUntil(sim_->Now() + d);
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<Probe> probe_;
};

TEST_F(ServerTest, EventualPutVisibleImmediately) {
  Build();
  net::NodeId replica = deployment_->ReplicaInCluster("k", 0);
  ASSERT_TRUE(Put(replica, MakeWrite("k", "v", 10), net::PutMode::kEventual));
  auto resp = Get(replica, "k");
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.value, "v");
}

TEST_F(ServerTest, EventualPutGossipsToAllReplicas) {
  Build();
  auto replicas = deployment_->ReplicasOf("k");
  ASSERT_TRUE(
      Put(replicas[0], MakeWrite("k", "v", 10), net::PutMode::kEventual));
  Settle();
  for (net::NodeId r : replicas) {
    EXPECT_TRUE(deployment_->server(r).good().Contains("k", {10, 7}))
        << "replica " << r;
  }
}

TEST_F(ServerTest, MavWritePendingUntilAllSiblingsStable) {
  Build();
  // Two sibling keys on (likely) different shards.
  Key kx = "x-key", ky = "y-key";
  auto wx = MakeWrite(kx, "1", 20, {kx, ky});
  auto wy = MakeWrite(ky, "1", 20, {kx, ky});
  net::NodeId rx = deployment_->ReplicaInCluster(kx, 0);

  // Deliver only the x write: no replica can assemble the full sibling set,
  // so x must stay out of good everywhere.
  ASSERT_TRUE(Put(rx, wx, net::PutMode::kMav));
  Settle();
  auto resp = Get(rx, kx);
  EXPECT_FALSE(resp.found) << "write revealed before pending-stable";
  EXPECT_GT(deployment_->server(rx).PendingCount(), 0u);

  // Deliver the sibling: now the transaction becomes pending-stable and is
  // revealed on every replica of both keys.
  net::NodeId ry = deployment_->ReplicaInCluster(ky, 0);
  ASSERT_TRUE(Put(ry, wy, net::PutMode::kMav));
  Settle();
  EXPECT_TRUE(Get(rx, kx).found);
  EXPECT_TRUE(Get(ry, ky).found);
  for (net::NodeId r : deployment_->ReplicasOf(kx)) {
    EXPECT_TRUE(deployment_->server(r).good().Contains(kx, {20, 7}));
  }
  EXPECT_GT(deployment_->TotalServerStats().mav_promotions, 0u);
}

TEST_F(ServerTest, MavRequiredReadServedFromPending) {
  Build();
  Key kx = "x-key", ky = "y-key";
  auto wx = MakeWrite(kx, "1", 20, {kx, ky});
  net::NodeId rx = deployment_->ReplicaInCluster(kx, 0);
  ASSERT_TRUE(Put(rx, wx, net::PutMode::kMav));
  Settle(200 * sim::kMillisecond);

  // Plain read: hidden. Required read at the exact pending timestamp: served
  // from pending (Appendix B GET).
  EXPECT_FALSE(Get(rx, kx).found);
  auto resp = Get(rx, kx, Timestamp{20, 7});
  EXPECT_EQ(resp.code, net::GetCode::kOk);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.value, "1");
}

TEST_F(ServerTest, MavRequiredReadNotYetWhenUnknown) {
  Build();
  net::NodeId r = deployment_->ReplicaInCluster("k", 0);
  auto resp = Get(r, "k", Timestamp{99, 1});
  EXPECT_EQ(resp.code, net::GetCode::kNotYet);
}

TEST_F(ServerTest, MavPromotionSurvivesPartitionAfterHeal) {
  Build();
  Key kx = "x-key", ky = "y-key";
  net::NodeId rx0 = deployment_->ReplicaInCluster(kx, 0);
  net::NodeId ry0 = deployment_->ReplicaInCluster(ky, 0);

  deployment_->PartitionClusters(0, 1);
  ASSERT_TRUE(
      Put(rx0, MakeWrite(kx, "1", 30, {kx, ky}), net::PutMode::kMav));
  ASSERT_TRUE(
      Put(ry0, MakeWrite(ky, "1", 30, {kx, ky}), net::PutMode::kMav));
  Settle();
  // Cluster 1 replicas unreachable: cannot be pending-stable yet.
  EXPECT_FALSE(Get(rx0, kx).found);

  deployment_->Heal();
  Settle(3 * sim::kSecond);
  // Anti-entropy retransmits + re-notifies: promotion completes everywhere.
  EXPECT_TRUE(Get(rx0, kx).found);
  net::NodeId rx1 = deployment_->ReplicaInCluster(kx, 1);
  EXPECT_TRUE(deployment_->server(rx1).good().Contains(kx, {30, 7}));
}

TEST_F(ServerTest, StalePendingDroppedButStillAcked) {
  Build();
  Key kx = "x-key";
  net::NodeId rx = deployment_->ReplicaInCluster(kx, 0);
  // Newer good version first.
  ASSERT_TRUE(Put(rx, MakeWrite(kx, "new", 50), net::PutMode::kEventual));
  Settle();
  // Older single-key MAV write arrives late: dropped as stale.
  ASSERT_TRUE(Put(rx, MakeWrite(kx, "old", 40, {kx}), net::PutMode::kMav));
  Settle();
  EXPECT_EQ(Get(rx, kx).value, "new");
  EXPECT_GT(deployment_->server(rx).stats().stale_pending_dropped, 0u);
}

TEST_F(ServerTest, AntiEntropyRetransmitsThroughPartition) {
  Build();
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  deployment_->PartitionClusters(0, 1);
  ASSERT_TRUE(Put(r0, MakeWrite("k", "v", 60), net::PutMode::kEventual));
  Settle();
  EXPECT_FALSE(deployment_->server(r1).good().Contains("k", {60, 7}));
  deployment_->Heal();
  Settle(3 * sim::kSecond);
  EXPECT_TRUE(deployment_->server(r1).good().Contains("k", {60, 7}));
}

TEST_F(ServerTest, DuplicateAntiEntropyBatchesAreIdempotent) {
  Build();
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  ASSERT_TRUE(Put(r0, MakeWrite("k", "v", 70), net::PutMode::kEventual));
  // Let retransmissions happen (ack might be slow); state must stay single.
  Settle(5 * sim::kSecond);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  EXPECT_EQ(deployment_->server(r1).good().VersionCountFor("k"), 1u);
}

TEST_F(ServerTest, VersionGcBoundsPerKeyVersions) {
  Build();
  net::NodeId r = deployment_->ReplicaInCluster("k", 0);
  for (uint64_t i = 1; i <= 50; i++) {
    ASSERT_TRUE(Put(r, MakeWrite("k", "v" + std::to_string(i), 100 + i),
                    net::PutMode::kEventual));
  }
  Settle();
  EXPECT_LE(deployment_->server(r).good().VersionCountFor("k"), 9u);
  EXPECT_EQ(Get(r, "k").value, "v50");
}

TEST_F(ServerTest, ServiceTimeQueuesRequests) {
  Build(1, 1);
  net::NodeId r = deployment_->ReplicaInCluster("k", 0);
  // Issue many puts; the server is a single service center so busy time
  // accumulates at least #puts * put cost.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(Put(r, MakeWrite("k" + std::to_string(i), "v", 200 + i),
                    net::PutMode::kEventual));
  }
  const auto& stats = deployment_->server(r).stats();
  EXPECT_EQ(stats.puts, 50u);
  EXPECT_GE(stats.busy_us, 50 * 80.0);  // >= 50 puts at base cost
}

TEST_F(ServerTest, ScanResultSizeDelaysItsOwnReply) {
  // Regression: the per-item scan charge used to be added to busy_until_
  // *after* the Reply was already scheduled, so a huge scan never delayed
  // its own response. The per-item cost is now part of the task producing
  // the reply: a 1000-item scan must reply measurably later than a 1-item
  // scan (999 extra items at scan_item_us each).
  Build(1, 1);
  net::NodeId r = deployment_->ReplicaInCluster("scan0000", 0);
  char key[16];
  for (int i = 0; i < 1000; i++) {
    std::snprintf(key, sizeof(key), "scan%04d", i);
    deployment_->server(r).InstallForTest(MakeWrite(key, "v", 10 + i));
  }

  auto scan = [&](const Key& lo, const Key& hi, size_t expect_items) {
    net::ScanRequest req;
    req.lo = lo;
    req.hi = hi;
    sim::SimTime start = sim_->Now();
    auto resp = probe_->CallSync(r, req, 30 * sim::kSecond);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(std::get<net::ScanResponse>(*resp).items.size(), expect_items);
    return sim_->Now() - start;
  };

  sim::Duration small = scan("scan0000", "scan0001", 1);
  Settle(100 * sim::kMillisecond);  // fully drain before the big scan
  sim::Duration large = scan("scan0000", "scan9999", 1000);
  // 999 extra items x 5us = ~5ms of extra service time in the reply path
  // (network jitter between the two RPCs is far smaller).
  EXPECT_GT(large, small + 4 * sim::kMillisecond)
      << "large=" << large << "us small=" << small << "us";
}

// ------------------------------ lock manager ------------------------------

class LockTest : public ServerTest {
 protected:
  net::LockResponse Lock(net::NodeId server, const Key& key, bool exclusive,
                         Timestamp txn) {
    net::LockRequest req;
    req.key = key;
    req.exclusive = exclusive;
    req.txn = txn;
    auto resp = probe_->CallSync(server, req, 500 * sim::kMillisecond);
    if (!resp.ok()) return net::LockResponse{false, false};  // queued
    return std::get<net::LockResponse>(*resp);
  }
  void Unlock(net::NodeId server, std::vector<Key> keys, Timestamp txn) {
    net::UnlockRequest req;
    req.keys = std::move(keys);
    req.txn = txn;
    probe_->SendOneWay(server, std::move(req));
    Settle(100 * sim::kMillisecond);
  }
};

TEST_F(LockTest, SharedLocksCoexist) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", false, {1, 1}).granted);
  EXPECT_TRUE(Lock(s, "k", false, {2, 2}).granted);
}

TEST_F(LockTest, ExclusiveConflictsWithShared) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", false, {1, 1}).granted);
  // Younger writer dies (wait-die).
  auto resp = Lock(s, "k", true, {5, 5});
  EXPECT_FALSE(resp.granted);
  EXPECT_TRUE(resp.must_abort);
  EXPECT_GT(deployment_->server(s).stats().lock_deaths, 0u);
}

TEST_F(LockTest, OlderWriterWaitsAndIsGrantedOnUnlock) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", false, {10, 1}).granted);
  // Older (smaller ts) waits: the RPC times out (queued, not denied).
  bool got_response = false;
  net::LockRequest req;
  req.key = "k";
  req.exclusive = true;
  req.txn = {1, 2};
  probe_->Call(s, req, 10 * sim::kSecond,
               [&](Status st, const net::Message* m) {
                 got_response = true;
                 ASSERT_TRUE(st.ok());
                 EXPECT_TRUE(std::get<net::LockResponse>(*m).granted);
               });
  Settle(500 * sim::kMillisecond);
  EXPECT_FALSE(got_response);
  Unlock(s, {"k"}, {10, 1});
  Settle(500 * sim::kMillisecond);
  EXPECT_TRUE(got_response);
}

TEST_F(LockTest, ReentrantGrant) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", true, {3, 3}).granted);
  EXPECT_TRUE(Lock(s, "k", true, {3, 3}).granted);
  EXPECT_TRUE(Lock(s, "k", false, {3, 3}).granted);
}

TEST_F(LockTest, SoleSharedHolderUpgrades) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", false, {3, 3}).granted);
  EXPECT_TRUE(Lock(s, "k", true, {3, 3}).granted);  // upgrade
  // Another shared request now conflicts.
  auto resp = Lock(s, "k", false, {9, 9});
  EXPECT_FALSE(resp.granted);
}

TEST_F(LockTest, UnlockReleasesAndCleans) {
  Build();
  net::NodeId s = deployment_->MasterOf("k");
  EXPECT_TRUE(Lock(s, "k", true, {3, 3}).granted);
  Unlock(s, {"k"}, {3, 3});
  EXPECT_TRUE(Lock(s, "k", true, {9, 9}).granted);
}

// --------------------------- digest anti-entropy ---------------------------

TEST_F(ServerTest, DigestSyncRepairsWritesPushNeverDelivered) {
  sim_ = std::make_unique<sim::Simulation>(3);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 2;
  opts.server.durable = false;
  opts.server.digest_sync_interval = 300 * sim::kMillisecond;
  deployment_ = std::make_unique<Deployment>(*sim_, opts);

  // Install directly at one replica, bypassing the push outbox entirely —
  // modelling a write whose gossip state died with a crashed process.
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  deployment_->server(r0).InstallForTest(MakeWrite("k", "v", 90));
  Settle(3 * sim::kSecond);
  EXPECT_TRUE(deployment_->server(r1).good().Contains("k", {90, 7}))
      << "digest exchange must back-fill the missing write";
}

TEST_F(ServerTest, WithoutDigestSyncOrphanWritesStayLocal) {
  Build();  // digest_sync_interval = 0 (default)
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  deployment_->server(r0).InstallForTest(MakeWrite("k", "v", 90));
  Settle(3 * sim::kSecond);
  EXPECT_FALSE(deployment_->server(r1).good().Contains("k", {90, 7}))
      << "push-only anti-entropy cannot know about bypassed installs";
}

TEST_F(ServerTest, DigestSyncOnlySendsMissingVersions) {
  sim_ = std::make_unique<sim::Simulation>(4);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 1;
  opts.server.durable = false;
  opts.server.digest_sync_interval = 200 * sim::kMillisecond;
  deployment_ = std::make_unique<Deployment>(*sim_, opts);
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  // Both replicas share the same newest version; digest rounds should not
  // ship it back and forth.
  deployment_->server(r0).InstallForTest(MakeWrite("k", "v", 90));
  deployment_->server(r1).InstallForTest(MakeWrite("k", "v", 90));
  Settle(2 * sim::kSecond);
  EXPECT_EQ(deployment_->TotalServerStats().ae_records_out, 0u);
}

TEST_F(ServerTest, GossipEchoSuppressedInTwoReplicaCluster) {
  Build();  // 2 clusters -> every key has exactly 2 replicas
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  ASSERT_TRUE(Put(r0, MakeWrite("k", "v", 10), net::PutMode::kEventual));
  Settle();
  // One write, one peer: exactly one record crosses the wire. Before echo
  // suppression the receiver re-gossiped it back to its sender and
  // records_out double-counted every write.
  EXPECT_EQ(deployment_->TotalServerStats().ae_records_out, 1u);
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  EXPECT_TRUE(deployment_->server(r1).good().Contains("k", {10, 7}));
}

TEST_F(ServerTest, MavGossipEchoSuppressedToo) {
  Build();
  net::NodeId r0 = deployment_->ReplicaInCluster("k", 0);
  ASSERT_TRUE(Put(r0, MakeWrite("k", "v", 10, {"k"}), net::PutMode::kMav));
  Settle();
  EXPECT_EQ(deployment_->TotalServerStats().ae_records_out, 1u);
}

TEST_F(ServerTest, CrashedReplicaReconvergesViaBucketedRepairAlone) {
  // Push outboxes are disabled, so bucketed digest repair is the only
  // propagation mechanism: after a crash wipes one replica, periodic ticks
  // must rebuild identical version sets and folded values from the peer.
  sim_ = std::make_unique<sim::Simulation>(5);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 1;
  opts.server.durable = false;
  opts.server.ae_push_enabled = false;
  opts.server.digest_sync_interval = 200 * sim::kMillisecond;
  opts.server.max_versions_per_key = 0;  // keep exact version sets comparable
  deployment_ = std::make_unique<Deployment>(*sim_, opts);
  net::NodeId r0 = deployment_->ReplicaInCluster("key0", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("key0", 1);
  for (uint64_t i = 0; i < 300; i++) {
    auto w = MakeWrite("key" + std::to_string(i), "v", 10 + i);
    deployment_->server(r0).InstallForTest(w);
    deployment_->server(r1).InstallForTest(w);
  }
  deployment_->server(r1).Crash();
  ASSERT_EQ(deployment_->server(r1).good().VersionCount(), 0u);

  Settle(3 * sim::kSecond);  // a handful of digest ticks
  const auto& s0 = deployment_->server(r0).good();
  const auto& s1 = deployment_->server(r1).good();
  EXPECT_EQ(s1.VersionCount(), s0.VersionCount());
  EXPECT_EQ(s1.KeyCount(), s0.KeyCount());
  for (uint64_t i = 0; i < 300; i++) {
    Key k = "key" + std::to_string(i);
    EXPECT_EQ(s1.Read(k).value, s0.Read(k).value) << k;
    EXPECT_EQ(s1.Read(k).ts, s0.Read(k).ts) << k;
  }
  // And the repair was digest-driven, not push-driven.
  EXPECT_EQ(deployment_->TotalServerStats().ae_records_out, 300u);
  EXPECT_GT(deployment_->TotalServerStats().ae_digest_ticks, 0u);
}

TEST_F(ServerTest, MultiShardReplicaReconvergesShardByShard) {
  // End-to-end sharded repair over the simulated network: a crashed
  // multi-shard replica is rebuilt by periodic shard-digest ticks alone
  // (push disabled), and the cold-shard savings show up in the digest
  // byte counters.
  sim_ = std::make_unique<sim::Simulation>(5);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 1;
  opts.server.durable = false;
  opts.server.ae_push_enabled = false;
  opts.server.digest_sync_interval = 200 * sim::kMillisecond;
  opts.server.max_versions_per_key = 0;  // keep exact version sets comparable
  opts.server.shards_per_server = 4;
  opts.server.digest_buckets = 64;
  deployment_ = std::make_unique<Deployment>(*sim_, opts);
  net::NodeId r0 = deployment_->ReplicaInCluster("key0", 0);
  net::NodeId r1 = deployment_->ReplicaInCluster("key0", 1);
  for (uint64_t i = 0; i < 300; i++) {
    auto w = MakeWrite("key" + std::to_string(i), "v", 10 + i);
    deployment_->server(r0).InstallForTest(w);
    deployment_->server(r1).InstallForTest(w);
  }
  deployment_->server(r1).Crash();
  ASSERT_EQ(deployment_->server(r1).good().VersionCount(), 0u);

  Settle(3 * sim::kSecond);  // a handful of digest ticks
  const auto& s0 = deployment_->server(r0).good();
  const auto& s1 = deployment_->server(r1).good();
  ASSERT_EQ(s1.shard_count(), 4u);
  EXPECT_EQ(s1.VersionCount(), s0.VersionCount());
  EXPECT_EQ(s1.ShardHashes(), s0.ShardHashes());
  for (size_t s = 0; s < 4; s++) {
    EXPECT_EQ(s1.shard(s).BucketHashes(), s0.shard(s).BucketHashes()) << s;
    EXPECT_GT(s1.shard(s).KeyCount(), 0u) << "all shards repopulated";
  }
  for (uint64_t i = 0; i < 300; i++) {
    Key k = "key" + std::to_string(i);
    EXPECT_EQ(s1.Read(k).value, s0.Read(k).value) << k;
    EXPECT_EQ(s1.Read(k).ts, s0.Read(k).ts) << k;
  }
  EXPECT_EQ(deployment_->TotalServerStats().ae_records_out, 300u);

  // Steady state after convergence: ticks exchange 4 shard summaries and
  // nothing else. Run another window and require the per-tick byte rate to
  // be summary-sized, far under one bucket vector per tick.
  auto before = deployment_->TotalServerStats();
  Settle(2 * sim::kSecond);
  auto after = deployment_->TotalServerStats();
  uint64_t ticks = after.ae_digest_ticks - before.ae_digest_ticks;
  uint64_t bytes = after.ae_digest_bytes_out - before.ae_digest_bytes_out;
  ASSERT_GT(ticks, 0u);
  EXPECT_LT(bytes / ticks, 64 * 8 / 2) << "in-sync ticks must stay at "
                                          "shard-summary cost, not bucket "
                                          "vectors";
}

// ------------------------------ crash/recovery ----------------------------

TEST_F(ServerTest, CrashLosesVolatileState) {
  Build();
  net::NodeId r = deployment_->ReplicaInCluster("k", 0);
  ASSERT_TRUE(Put(r, MakeWrite("k", "v", 80), net::PutMode::kEventual));
  Settle();  // let gossip propagate before the crash
  deployment_->server(r).Crash();
  EXPECT_FALSE(deployment_->server(r).good().Contains("k", {80, 7}));
  EXPECT_FALSE(Get(r, "k").found);
  // The other replica still has it — anti-entropy from the peer's inflight
  // retry may repopulate; verify the peer itself.
  net::NodeId r1 = deployment_->ReplicaInCluster("k", 1);
  Settle();
  EXPECT_TRUE(deployment_->server(r1).good().Contains("k", {80, 7}));
}

// ------------------------------ batched wire path -------------------------

TEST_F(ServerTest, ClientBatchAnswersEachOpInOrder) {
  Build();
  net::NodeId replica = deployment_->ReplicaInCluster("k", 0);
  net::ClientBatchRequest batch;
  net::PutRequest put;
  put.write = MakeWrite("k", "v", 10);
  put.mode = net::PutMode::kEventual;
  batch.ops.push_back(put);
  net::GetRequest get;
  get.key = "k";
  batch.ops.push_back(get);
  net::GetRequest miss;
  miss.key = "k";  // same key, but requiring a version the put didn't install
  miss.required = Timestamp{99, 7};
  batch.ops.push_back(miss);
  auto resp = probe_->CallSync(replica, batch);
  ASSERT_TRUE(resp.ok());
  const auto& r = std::get<net::ClientBatchResponse>(*resp);
  ASSERT_EQ(r.replies.size(), 3u);
  // Replies are positional and ops apply in order: the get observes the
  // batch's own preceding put.
  EXPECT_TRUE(std::get<net::PutResponse>(r.replies[0]).ok);
  const auto& g = std::get<net::GetResponse>(r.replies[1]);
  EXPECT_TRUE(g.found);
  EXPECT_EQ(g.value, "v");
  EXPECT_EQ(std::get<net::GetResponse>(r.replies[2]).code,
            net::GetCode::kNotYet);
  const auto& stats = deployment_->server(replica).stats();
  EXPECT_EQ(stats.client_batches, 1u);
  EXPECT_EQ(stats.client_batch_ops, 3u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 2u);
}

TEST_F(ServerTest, ShardLaneBatchingChargesAeBatchesToShardLanes) {
  sim_ = std::make_unique<sim::Simulation>(3);
  DeploymentOptions opts;
  opts.clusters = {{net::Region::kVirginia, 0}, {net::Region::kVirginia, 1}};
  opts.servers_per_cluster = 2;
  opts.server.durable = false;
  opts.server.shards_per_server = 4;
  deployment_ = std::make_unique<Deployment>(*sim_, opts);
  net::NodeId probe_id = deployment_->network().topology().AddNode(
      {net::Region::kVirginia, 0, 999});
  probe_ = std::make_unique<Probe>(*sim_, deployment_->network(), probe_id);
  for (int i = 0; i < 16; i++) {
    Key key = "k" + std::to_string(i);
    ASSERT_TRUE(Put(deployment_->ReplicaInCluster(key, 0),
                    MakeWrite(key, "v", static_cast<uint64_t>(10 + i)),
                    net::PutMode::kEventual));
  }
  Settle();
  // Every push batch is shard-tagged and its receiver hosts the shard, so
  // all of them were charged to shard lanes instead of the global lane.
  const auto total = deployment_->TotalServerStats();
  EXPECT_GT(total.ae_batches_in, 0u);
  EXPECT_EQ(total.ae_shard_lane_batches, total.ae_batches_in);
  // And the writes still converged.
  for (int i = 0; i < 16; i++) {
    Key key = "k" + std::to_string(i);
    for (net::NodeId r : deployment_->ReplicasOf(key)) {
      EXPECT_TRUE(deployment_->server(r).good().Contains(
          key, {static_cast<uint64_t>(10 + i), 7}))
          << key << " replica " << r;
    }
  }
}

}  // namespace
}  // namespace hat::server
