// PlacementMap and explicit-placement ShardedStore tests: epoch-0 must
// reproduce the historical stride arithmetic bit-for-bit (the
// backward-compatibility bar for the live-migration subsystem), epochs
// bump monotonically on reassignment, and the store's logical-slot
// addressing (TrySlotOfKey / Attach / Detach) keeps slot indices stable.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hat/cluster/deployment.h"
#include "hat/cluster/placement.h"
#include "hat/common/rng.h"
#include "hat/version/sharded_store.h"

namespace hat::cluster {
namespace {

using version::ShardedStore;

TEST(PlacementMapTest, EpochZeroReproducesStrideArithmeticForRandomKeys) {
  // The backward-compat property: for 10k random keys and a spread of
  // cluster shapes, epoch-0 placement routing equals the historical
  // Fnv1a64(key) % L -> l % servers_per_cluster arithmetic.
  struct Shape {
    int clusters, spc, sps;
  };
  for (const Shape& shape : std::vector<Shape>{
           {1, 2, 1}, {2, 3, 2}, {2, 5, 4}, {3, 2, 8}, {5, 7, 3}}) {
    PlacementMap pm(shape.clusters, shape.spc, shape.sps);
    EXPECT_EQ(pm.epoch(), 0u);
    int L = shape.spc * shape.sps;
    ASSERT_EQ(pm.num_logical_shards(), L);
    Rng rng(0x9e3779b9 ^ static_cast<uint64_t>(L));
    for (int i = 0; i < 10000; i++) {
      Key key = "key-" + std::to_string(rng.NextUint64());
      int logical = static_cast<int>(Fnv1a64(key.data(), key.size()) %
                                     static_cast<uint64_t>(L));
      for (int c = 0; c < shape.clusters; c++) {
        ASSERT_EQ(pm.Owner(c, logical), logical % shape.spc)
            << "shape " << shape.spc << "x" << shape.sps << " key " << key;
      }
    }
  }
}

TEST(PlacementMapTest, EpochZeroDeploymentRoutingMatchesStrideArithmetic) {
  // End to end through a real Deployment: placement-driven routing equals
  // the classic ShardOf arithmetic for every key while no migration ran.
  sim::Simulation sim(11);
  auto opts = DeploymentOptions::TwoRegions();
  opts.servers_per_cluster = 3;
  opts.server.shards_per_server = 4;
  Deployment deployment(sim, opts);
  EXPECT_EQ(deployment.PlacementEpoch(), 0u);
  Rng rng(77);
  for (int i = 0; i < 10000; i++) {
    Key key = "k" + std::to_string(rng.NextUint64());
    for (int c = 0; c < deployment.NumClusters(); c++) {
      ASSERT_EQ(deployment.ReplicaInCluster(key, c),
                deployment.ServerId(c, deployment.ShardOf(key)))
          << key;
    }
    // The server that hosts the key must agree it owns it.
    net::NodeId id = deployment.ReplicaInCluster(key, 0);
    EXPECT_TRUE(deployment.server(id).good().OwnsKey(key)) << key;
    EXPECT_EQ(deployment.server(id).good().LogicalShardOfKey(key),
              static_cast<uint32_t>(deployment.LogicalShardOf(key)));
  }
}

TEST(PlacementMapTest, OwnedByListsTheStrideLayoutAscending) {
  PlacementMap pm(2, 3, 2);  // L = 6
  EXPECT_EQ(pm.OwnedBy(0, 0), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(pm.OwnedBy(0, 1), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(pm.OwnedBy(1, 2), (std::vector<uint32_t>{2, 5}));
}

TEST(PlacementMapTest, SetOwnerBumpsEpochOncePerChange) {
  PlacementMap pm(2, 3, 2);
  EXPECT_EQ(pm.SetOwner(0, 4, 1), 0u) << "no-op keeps the epoch";
  EXPECT_EQ(pm.SetOwner(0, 4, 2), 1u);
  EXPECT_EQ(pm.Owner(0, 4), 2);
  EXPECT_EQ(pm.Owner(1, 4), 1) << "other clusters are untouched";
  EXPECT_EQ(pm.SetOwner(1, 0, 2), 2u);
  EXPECT_EQ(pm.OwnedBy(0, 2), (std::vector<uint32_t>{2, 4, 5}));
}

// ---------------------------------------------------------------------------
// ShardedStore slot layouts
// ---------------------------------------------------------------------------

ShardedStore ExplicitStore(std::vector<uint32_t> owned,
                           size_t num_logical_shards) {
  ShardedStore::Options opts;
  opts.shards = owned.size();
  opts.digest_buckets = 16;
  opts.logical_shards = std::move(owned);
  opts.num_logical_shards = num_logical_shards;
  return ShardedStore(opts);
}

WriteRecord Write(const Key& key, uint64_t ts) {
  WriteRecord w;
  w.key = key;
  w.value = "v";
  w.ts = Timestamp{ts, 1};
  return w;
}

/// A key landing in logical shard `want` of `modulus` total.
Key KeyInShard(uint32_t want, uint64_t modulus, int salt = 0) {
  for (int i = 0;; i++) {
    Key k = "s" + std::to_string(salt) + "-" + std::to_string(i);
    if (Fnv1a64(k.data(), k.size()) % modulus == want) return k;
  }
}

TEST(ShardedStoreExplicitTest, SlotOfKeyMatchesImplicitArithmetic) {
  // Stride layout {1, 4, 7} (slot 1 of a 3-server cluster, 3
  // shards/server) must address by the arithmetic slot = l / 3.
  ShardedStore store = ExplicitStore({1, 4, 7}, 9);
  EXPECT_EQ(store.num_logical_shards(), 9u);
  Rng rng(5);
  int owned_seen = 0;
  for (int i = 0; i < 5000; i++) {
    Key key = "key" + std::to_string(rng.NextUint64());
    uint32_t logical =
        static_cast<uint32_t>(Fnv1a64(key.data(), key.size()) % 9);
    auto slot = store.TrySlotOfKey(key);
    if (logical % 3 == 1) {
      ASSERT_TRUE(slot.has_value()) << key;
      EXPECT_EQ(*slot, logical / 3) << "stride local index";
      owned_seen++;
    } else {
      EXPECT_FALSE(slot.has_value()) << key;
    }
  }
  EXPECT_GT(owned_seen, 1000);
}

TEST(ShardedStoreExplicitTest, AttachAndDetachKeepSlotIndicesStable) {
  ShardedStore store = ExplicitStore({1, 4, 7}, 9);
  // Attach logical shard 0 (migrating in from slot-0's server).
  size_t staged = store.AttachShard(0);
  EXPECT_EQ(staged, 3u) << "appended after existing slots";
  EXPECT_EQ(store.AttachShard(0), 3u) << "idempotent";
  EXPECT_EQ(store.LogicalTagOfSlot(3), 0u);

  Key mine = KeyInShard(0, 9);
  EXPECT_TRUE(store.OwnsKey(mine));
  EXPECT_TRUE(store.Apply(Write(mine, 10)));
  EXPECT_EQ(store.shard(3).VersionCount(), 1u);

  // Detach logical 4: its slot empties but indices do not shift.
  Key theirs = KeyInShard(4, 9);
  ASSERT_TRUE(store.Apply(Write(theirs, 11)));
  store.DetachShard(4);
  EXPECT_FALSE(store.OwnsKey(theirs));
  EXPECT_EQ(store.LogicalTagOfSlot(1), ShardedStore::kNoShard);
  EXPECT_EQ(store.shard(1).VersionCount(), 0u);
  EXPECT_EQ(store.LogicalTagOfSlot(2), 7u) << "slot 2 still hosts logical 7";
  EXPECT_TRUE(store.OwnsKey(mine)) << "attached shard unaffected";
  EXPECT_EQ(store.shard_count(), 4u);
}

TEST(ShardedStoreExplicitTest, IdentityLayoutOwnsEveryKey) {
  // No logical_shards: slot i hosts logical shard i of 4.
  ShardedStore::Options opts;
  opts.shards = 4;
  ShardedStore store(opts);
  EXPECT_EQ(store.num_logical_shards(), 4u);
  for (size_t i = 0; i < 4; i++) {
    EXPECT_EQ(store.LogicalTagOfSlot(i), i);
    EXPECT_EQ(store.SlotOfLogical(static_cast<uint32_t>(i)), i);
  }
  Rng rng(9);
  for (int i = 0; i < 1000; i++) {
    Key key = "k" + std::to_string(rng.NextUint64());
    EXPECT_TRUE(store.OwnsKey(key));
    EXPECT_EQ(store.ShardIndexOf(key), Fnv1a64(key.data(), key.size()) % 4);
  }
}

}  // namespace
}  // namespace hat::cluster
