// Unit tests for the multi-version store: LWW registers, delta folding,
// convergence under permuted delivery, bounded reads, GC, serialization.

#include <gtest/gtest.h>

#include <algorithm>

#include "hat/common/codec.h"
#include "hat/common/rng.h"
#include "hat/version/sharded_store.h"
#include "hat/version/versioned_store.h"

namespace hat::version {
namespace {

WriteRecord Put(const Key& k, const Value& v, uint64_t logical,
                uint32_t client = 1) {
  WriteRecord w;
  w.key = k;
  w.value = v;
  w.ts = {logical, client};
  return w;
}

WriteRecord Delta(const Key& k, int64_t d, uint64_t logical,
                  uint32_t client = 1) {
  WriteRecord w;
  w.key = k;
  w.value = EncodeInt64Value(d);
  w.kind = WriteKind::kDelta;
  w.ts = {logical, client};
  return w;
}

TEST(TimestampTest, TotalOrder) {
  Timestamp a{1, 5}, b{2, 1}, c{1, 6};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_LT(c, b);
  EXPECT_TRUE(kInitialVersion < a);
  EXPECT_TRUE(kInitialVersion.IsZero());
}

TEST(VersionedStoreTest, EmptyReadsNotFound) {
  VersionedStore store;
  EXPECT_FALSE(store.Read("x").found);
  EXPECT_FALSE(store.LatestTimestamp("x").has_value());
}

TEST(VersionedStoreTest, LastWriterWins) {
  VersionedStore store;
  store.Apply(Put("x", "old", 1));
  store.Apply(Put("x", "new", 2));
  auto rv = store.Read("x");
  EXPECT_TRUE(rv.found);
  EXPECT_EQ(rv.value, "new");
  EXPECT_EQ(rv.ts, (Timestamp{2, 1}));
}

TEST(VersionedStoreTest, LwwIndependentOfArrivalOrder) {
  VersionedStore store;
  store.Apply(Put("x", "new", 2));
  store.Apply(Put("x", "old", 1));  // arrives late
  EXPECT_EQ(store.Read("x").value, "new");
}

TEST(VersionedStoreTest, ClientIdBreaksTies) {
  VersionedStore store;
  store.Apply(Put("x", "a", 5, /*client=*/1));
  store.Apply(Put("x", "b", 5, /*client=*/2));
  EXPECT_EQ(store.Read("x").value, "b");
}

TEST(VersionedStoreTest, DuplicateApplyIsIdempotent) {
  VersionedStore store;
  EXPECT_TRUE(store.Apply(Put("x", "v", 1)));
  EXPECT_FALSE(store.Apply(Put("x", "v", 1)));
  EXPECT_EQ(store.VersionCountFor("x"), 1u);
}

TEST(VersionedStoreTest, DeltasFoldOntoBase) {
  VersionedStore store;
  store.Apply(Put("bal", EncodeInt64Value(100), 1));
  store.Apply(Delta("bal", 20, 2));
  store.Apply(Delta("bal", -5, 3));
  EXPECT_EQ(DecodeInt64Value(store.Read("bal").value), 115);
}

TEST(VersionedStoreTest, PutResetsDeltaAccumulation) {
  VersionedStore store;
  store.Apply(Put("bal", EncodeInt64Value(100), 1));
  store.Apply(Delta("bal", 50, 2));
  store.Apply(Put("bal", EncodeInt64Value(0), 3));  // reset
  store.Apply(Delta("bal", 7, 4));
  EXPECT_EQ(DecodeInt64Value(store.Read("bal").value), 7);
}

TEST(VersionedStoreTest, DeltaOnlyKeyStartsFromZero) {
  VersionedStore store;
  store.Apply(Delta("ctr", 3, 1));
  store.Apply(Delta("ctr", 4, 2));
  EXPECT_EQ(DecodeInt64Value(store.Read("ctr").value), 7);
}

TEST(VersionedStoreTest, ConvergencePropertyRandomPermutations) {
  // The paper's convergence guarantee (Section 5.1.4): replicas that receive
  // the same set of writes in any order agree.
  Rng rng(42);
  for (int trial = 0; trial < 50; trial++) {
    std::vector<WriteRecord> writes;
    for (int i = 1; i <= 20; i++) {
      if (rng.NextBool(0.6)) {
        writes.push_back(Put("k", "v" + std::to_string(i), i,
                             1 + i % 3));
      } else {
        writes.push_back(
            Delta("k", rng.NextInRange(-10, 10), i, 1 + i % 3));
      }
    }
    VersionedStore replica_a, replica_b;
    for (const auto& w : writes) replica_a.Apply(w);
    // Shuffle.
    for (size_t i = writes.size(); i > 1; i--) {
      std::swap(writes[i - 1], writes[rng.NextBelow(i)]);
    }
    for (const auto& w : writes) replica_b.Apply(w);
    auto a = replica_a.Read("k");
    auto b = replica_b.Read("k");
    EXPECT_EQ(a.value, b.value) << "trial " << trial;
    EXPECT_EQ(a.ts, b.ts);
  }
}

TEST(VersionedStoreTest, BoundedReadSeesSnapshot) {
  VersionedStore store;
  store.Apply(Put("x", "v1", 1));
  store.Apply(Put("x", "v2", 5));
  store.Apply(Put("x", "v3", 9));
  EXPECT_EQ(store.Read("x", Timestamp{5, 1}).value, "v2");
  EXPECT_EQ(store.Read("x", Timestamp{4, 99}).value, "v1");
  EXPECT_FALSE(store.Read("x", Timestamp{0, 1}).found);
}

TEST(VersionedStoreTest, ReadAtLeast) {
  VersionedStore store;
  store.Apply(Put("x", "v1", 1));
  EXPECT_FALSE(store.ReadAtLeast("x", Timestamp{2, 0}).has_value());
  store.Apply(Put("x", "v2", 3));
  auto rv = store.ReadAtLeast("x", Timestamp{2, 0});
  ASSERT_TRUE(rv.has_value());
  EXPECT_EQ(rv->value, "v2");
}

TEST(VersionedStoreTest, ScanReturnsSortedRange) {
  VersionedStore store;
  store.Apply(Put("b", "2", 1));
  store.Apply(Put("a", "1", 1));
  store.Apply(Put("d", "4", 1));
  store.Apply(Put("c", "3", 1));
  auto items = store.Scan("b", "d");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].first, "b");
  EXPECT_EQ(items[1].first, "c");
}

TEST(VersionedStoreTest, VersionsAfterForAntiEntropy) {
  VersionedStore store;
  store.Apply(Put("x", "v1", 1));
  store.Apply(Put("x", "v2", 2));
  store.Apply(Put("x", "v3", 3));
  auto missing = store.VersionsAfter("x", Timestamp{1, 1});
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].value, "v2");
  EXPECT_EQ(missing[1].value, "v3");
}

TEST(VersionedStoreTest, DigestListsLatestPerKey) {
  VersionedStore store;
  store.Apply(Put("a", "1", 1));
  store.Apply(Put("a", "2", 7));
  store.Apply(Put("b", "1", 3));
  std::vector<std::pair<Key, Timestamp>> digest;
  store.ForEachLatest([&digest](const Key& key, const Timestamp& ts) {
    digest.emplace_back(key, ts);
  });
  ASSERT_EQ(digest.size(), 2u);
  EXPECT_EQ(digest[0], (std::pair<Key, Timestamp>{"a", {7, 1}}));
  EXPECT_EQ(digest[1], (std::pair<Key, Timestamp>{"b", {3, 1}}));
}

TEST(VersionedStoreTest, GcPreservesVisibleValue) {
  VersionedStore store;
  store.Apply(Put("bal", EncodeInt64Value(10), 1));
  store.Apply(Delta("bal", 5, 2));
  store.Apply(Delta("bal", 5, 3));
  store.Apply(Delta("bal", 1, 9));
  int64_t before = *DecodeInt64Value(store.Read("bal").value);
  size_t dropped = store.GarbageCollect("bal", Timestamp{9, 0});
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(*DecodeInt64Value(store.Read("bal").value), before);
  EXPECT_LE(store.VersionCountFor("bal"), 2u);
}

TEST(VersionedStoreTest, GcKeepsNewerVersionsIntact) {
  VersionedStore store;
  for (int i = 1; i <= 10; i++) {
    store.Apply(Put("x", "v" + std::to_string(i), i));
  }
  store.GarbageCollect("x", Timestamp{8, 0});
  EXPECT_EQ(store.Read("x").value, "v10");
  EXPECT_EQ(store.Read("x", Timestamp{8, 1}).value, "v8");
}

TEST(VersionedStoreTest, SibsAndDepsSurviveFold) {
  VersionedStore store;
  WriteRecord w = Put("x", "v", 4);
  w.sibs = {"x", "y", "z"};
  w.deps = {{"a", {1, 1}}};
  store.Apply(w);
  auto rv = store.Read("x");
  EXPECT_EQ(rv.sibs, (std::vector<Key>{"x", "y", "z"}));
  ASSERT_EQ(rv.deps.size(), 1u);
  EXPECT_EQ(rv.deps[0].key, "a");
}

TEST(VersionedStoreTest, NthNewestTimestamp) {
  VersionedStore store;
  for (uint64_t i = 1; i <= 5; i++) {
    store.Apply(Put("x", "v" + std::to_string(i), i));
  }
  EXPECT_EQ(store.NthNewestTimestamp("x", 0), (Timestamp{5, 1}));
  EXPECT_EQ(store.NthNewestTimestamp("x", 4), (Timestamp{1, 1}));
  EXPECT_FALSE(store.NthNewestTimestamp("x", 5).has_value());
  EXPECT_FALSE(store.NthNewestTimestamp("absent", 0).has_value());
}

TEST(VersionedStoreTest, NewestPutTimestampSkipsDeltas) {
  VersionedStore store;
  store.Apply(Put("x", EncodeInt64Value(1), 1));
  store.Apply(Delta("x", 1, 2));
  store.Apply(Put("x", EncodeInt64Value(5), 3));
  store.Apply(Delta("x", 1, 4));
  store.Apply(Delta("x", 1, 5));
  EXPECT_EQ(store.NewestPutTimestamp("x"), (Timestamp{3, 1}));
  // Bounded search: the put is 3rd from the top.
  EXPECT_FALSE(store.NewestPutWithin("x", 2).has_value());
  EXPECT_EQ(store.NewestPutWithin("x", 3), (Timestamp{3, 1}));
  EXPECT_FALSE(store.NewestPutTimestamp("absent").has_value());
}

TEST(VersionedStoreTest, DropVersionsBeforePreservesValue) {
  VersionedStore store;
  store.Apply(Put("x", EncodeInt64Value(10), 1));
  store.Apply(Put("x", EncodeInt64Value(20), 2));
  store.Apply(Delta("x", 5, 3));
  int64_t before = *DecodeInt64Value(store.Read("x").value);
  // Dropping below the newest Put is always safe.
  EXPECT_EQ(store.DropVersionsBefore("x", Timestamp{2, 1}), 1u);
  EXPECT_EQ(*DecodeInt64Value(store.Read("x").value), before);
  EXPECT_EQ(store.VersionCountFor("x"), 2u);
  EXPECT_EQ(store.DropVersionsBefore("x", Timestamp{1, 0}), 0u);
}

TEST(VersionedStoreTest, DropBeforeIsConvergenceSafeWithLateArrivals) {
  // Replica A GCs below its newest Put; a late delta older than that Put
  // then arrives at both replicas. They must still agree.
  VersionedStore a, b;
  auto late_delta = Delta("x", 7, 2);
  a.Apply(Put("x", EncodeInt64Value(0), 1));
  b.Apply(Put("x", EncodeInt64Value(0), 1));
  a.Apply(Delta("x", 1, 4));
  b.Apply(Delta("x", 1, 4));
  a.Apply(Put("x", EncodeInt64Value(100), 3));
  b.Apply(Put("x", EncodeInt64Value(100), 3));
  a.DropVersionsBefore("x", *a.NewestPutTimestamp("x"));
  // The late delta (ts 2 < put ts 3) arrives everywhere afterwards.
  a.Apply(late_delta);
  b.Apply(late_delta);
  EXPECT_EQ(a.Read("x").value, b.Read("x").value);
  EXPECT_EQ(*DecodeInt64Value(a.Read("x").value), 101);
}

// --------------------------- fold cache ------------------------------------

TEST(FoldCacheTest, WarmCacheTracksColdFoldUnderRandomTraffic) {
  // Property: a store that is read after every Apply (warm fold cache,
  // exercising the incremental-append path) must agree with a store that
  // receives the same writes but is only folded cold at each checkpoint.
  Rng rng(7);
  for (int trial = 0; trial < 20; trial++) {
    VersionedStore warm, cold;
    std::vector<WriteRecord> writes;
    for (int i = 1; i <= 40; i++) {
      // Mix in-order appends with out-of-order (invalidating) inserts and
      // non-numeric Puts under Deltas.
      uint64_t logical = rng.NextBool(0.7)
                             ? static_cast<uint64_t>(100 + i)
                             : 1 + rng.NextBelow(99);
      WriteRecord w = rng.NextBool(0.5)
                          ? Put("k", rng.NextBool(0.8)
                                         ? EncodeInt64Value(rng.NextInRange(
                                               -100, 100))
                                         : Value("not-a-number"),
                                logical, 1 + i % 3)
                          : Delta("k", rng.NextInRange(-10, 10), logical,
                                  1 + i % 3);
      writes.push_back(w);
      warm.Apply(w);
      auto warm_rv = warm.Read("k");  // warms/extends the cache every step
      VersionedStore fresh;
      for (const auto& replay : writes) fresh.Apply(replay);
      auto cold_rv = fresh.Read("k");
      EXPECT_EQ(warm_rv.value, cold_rv.value) << "trial " << trial
                                              << " step " << i;
      EXPECT_EQ(warm_rv.ts, cold_rv.ts);
    }
  }
}

TEST(FoldCacheTest, OutOfOrderDeltaInvalidatesCachedFold) {
  VersionedStore store;
  store.Apply(Delta("ctr", 2, 2));
  store.Apply(Delta("ctr", 4, 4));
  EXPECT_EQ(DecodeInt64Value(store.Read("ctr").value), 6);  // cache warm
  store.Apply(Delta("ctr", 3, 3));  // lands in the middle of the chain
  EXPECT_EQ(DecodeInt64Value(store.Read("ctr").value), 9);
}

TEST(FoldCacheTest, LatePutBelowCachedDeltasRefoldsCorrectly) {
  VersionedStore store;
  store.Apply(Delta("ctr", 5, 4));
  EXPECT_EQ(DecodeInt64Value(store.Read("ctr").value), 5);
  store.Apply(Put("ctr", EncodeInt64Value(100), 3));  // late base
  EXPECT_EQ(DecodeInt64Value(store.Read("ctr").value), 105);
}

TEST(FoldCacheTest, GcInvalidatesCachedFold) {
  VersionedStore store;
  store.Apply(Put("bal", EncodeInt64Value(10), 1));
  store.Apply(Delta("bal", 5, 2));
  store.Apply(Delta("bal", 1, 3));
  int64_t before = *DecodeInt64Value(store.Read("bal").value);  // warm
  store.GarbageCollect("bal", Timestamp{3, 0});
  EXPECT_EQ(*DecodeInt64Value(store.Read("bal").value), before);
  store.Apply(Put("x", EncodeInt64Value(1), 1));
  store.Apply(Put("x", EncodeInt64Value(2), 2));
  EXPECT_EQ(store.Read("x").ts, (Timestamp{2, 1}));  // warm
  store.DropVersionsBefore("x", Timestamp{2, 1});
  EXPECT_EQ(*DecodeInt64Value(store.Read("x").value), 2);
}

// ------------------------- bucketed digest ---------------------------------

TEST(BucketDigestTest, HashesAreOrderIndependent) {
  VersionedStore a, b;
  std::vector<WriteRecord> writes;
  for (int i = 0; i < 50; i++) {
    writes.push_back(Put("key" + std::to_string(i % 17), "v", 1 + i));
  }
  for (const auto& w : writes) a.Apply(w);
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) b.Apply(*it);
  EXPECT_EQ(a.BucketHashes(), b.BucketHashes());
}

TEST(BucketDigestTest, DifferingLatestVersionFlipsExactlyItsBucket) {
  VersionedStore a, b;
  for (int i = 0; i < 100; i++) {
    auto w = Put("key" + std::to_string(i), "v", 5);
    a.Apply(w);
    b.Apply(w);
  }
  EXPECT_EQ(a.BucketHashes(), b.BucketHashes());
  a.Apply(Put("key42", "newer", 9));
  auto ha = a.BucketHashes(), hb = b.BucketHashes();
  size_t diffs = 0;
  for (size_t i = 0; i < ha.size(); i++) diffs += ha[i] != hb[i];
  EXPECT_EQ(diffs, 1u);
  EXPECT_NE(ha[a.BucketOf("key42")], hb[b.BucketOf("key42")]);
}

TEST(BucketDigestTest, OlderVersionArrivalLeavesHashUntouched) {
  VersionedStore a, b;
  a.Apply(Put("k", "new", 9));
  b.Apply(Put("k", "new", 9));
  a.Apply(Put("k", "old", 2));  // does not change k's latest
  EXPECT_EQ(a.BucketHashes(), b.BucketHashes());
}

TEST(BucketDigestTest, GcPreservesBucketHashes) {
  VersionedStore store, fresh;
  for (int i = 1; i <= 10; i++) {
    store.Apply(Put("k", "v" + std::to_string(i), i));
  }
  fresh.Apply(Put("k", "v10", 10));
  store.DropVersionsBefore("k", Timestamp{10, 1});
  EXPECT_EQ(store.BucketHashes(), fresh.BucketHashes());
}

TEST(BucketDigestTest, ForEachLatestInBucketPartitionsTheKeyspace) {
  VersionedStore store;
  for (int i = 0; i < 200; i++) {
    store.Apply(Put("key" + std::to_string(i), "v", 1 + i));
  }
  size_t seen = 0;
  for (size_t b = 0; b < store.digest_buckets(); b++) {
    store.ForEachLatestInBucket(
        b, [&](const Key& key, const Timestamp& ts) {
          EXPECT_EQ(store.BucketOf(key), b);
          EXPECT_EQ(store.LatestTimestamp(key), ts);
          seen++;
        });
    EXPECT_EQ(store.BucketKeyCount(b) > 0, store.BucketHash(b) != 0);
  }
  EXPECT_EQ(seen, store.KeyCount());
}

TEST(BucketDigestTest, SameTimestampBumpsOnTwoKeysDoNotCancel) {
  // Regression: with an XOR-separable entry hash, updating two same-bucket
  // keys between the same pair of timestamps cancels (the delta F(old) ^
  // F(new) is key-independent) and the diverged bucket reads as in-sync.
  // Force every key into one bucket to make collisions certain.
  VersionedStore a(1), b(1);
  for (int i = 0; i < 8; i++) {
    auto w = Put("key" + std::to_string(i), "v", 10);
    a.Apply(w);
    b.Apply(w);
  }
  EXPECT_EQ(a.BucketHash(0), b.BucketHash(0));
  // Exactly two keys move 10 -> 77 on one replica only.
  a.Apply(Put("key2", "newer", 77));
  a.Apply(Put("key5", "newer", 77));
  EXPECT_NE(a.BucketHash(0), b.BucketHash(0))
      << "two same-ts updates must not cancel out of the bucket hash";
  EXPECT_NE(a.TopHash(), b.TopHash());
}

TEST(BucketDigestTest, BucketCountIsARuntimeKnob) {
  VersionedStore store(8);
  EXPECT_EQ(store.digest_buckets(), 8u);
  for (int i = 0; i < 200; i++) {
    store.Apply(Put("key" + std::to_string(i), "v", 1 + i));
  }
  EXPECT_EQ(store.BucketHashes().size(), 8u);
  size_t seen = 0;
  for (size_t b = 0; b < store.digest_buckets(); b++) {
    store.ForEachLatestInBucket(b, [&](const Key& key, const Timestamp&) {
      EXPECT_EQ(store.BucketOf(key), b);
      seen++;
    });
  }
  EXPECT_EQ(seen, store.KeyCount());
  // Same writes, same bucket count: identical hashes regardless of the
  // default-sized store's view of the world.
  VersionedStore twin(8);
  for (int i = 0; i < 200; i++) {
    twin.Apply(Put("key" + std::to_string(i), "v", 1 + i));
  }
  EXPECT_EQ(store.BucketHashes(), twin.BucketHashes());
}

TEST(BucketDigestTest, TopHashSummarizesTheStore) {
  VersionedStore a(64), b(64);
  for (int i = 0; i < 100; i++) {
    auto w = Put("key" + std::to_string(i), "v", 5);
    a.Apply(w);
    b.Apply(w);
  }
  EXPECT_EQ(a.TopHash(), b.TopHash());
  a.Apply(Put("key42", "newer", 9));
  EXPECT_NE(a.TopHash(), b.TopHash());
  b.Apply(Put("key42", "newer", 9));
  EXPECT_EQ(a.TopHash(), b.TopHash());
  // Old-version arrivals do not move any latest entry, so no change.
  a.Apply(Put("key42", "stale", 2));
  EXPECT_EQ(a.TopHash(), b.TopHash());
}

// ----------------------------- sharded store -------------------------------

TEST(ShardedStoreTest, RoutingPartitionsTheKeyspace) {
  ShardedStore store(ShardedStore::Options{4, 64});
  ASSERT_EQ(store.shard_count(), 4u);
  for (int i = 0; i < 400; i++) {
    store.Apply(Put("key" + std::to_string(i), "v", 1 + i));
  }
  size_t total = 0;
  bool multiple_used = false;
  for (size_t s = 0; s < store.shard_count(); s++) {
    store.shard(s).ForEachLatest([&](const Key& key, const Timestamp&) {
      EXPECT_EQ(store.ShardIndexOf(key), s);
    });
    total += store.shard(s).KeyCount();
    if (s > 0 && store.shard(s).KeyCount() > 0) multiple_used = true;
  }
  EXPECT_EQ(total, 400u);
  EXPECT_TRUE(multiple_used) << "FNV routing should spread keys";
}

TEST(ShardedStoreTest, StrideComposesWithServerPlacement) {
  // Server `base` of kStride (= servers-per-cluster) hosts the logical
  // shards {base + i*stride}: the local shard of a key it owns must be
  // (Fnv1a64 % (shards x stride)) / stride, and ownership must be exactly
  // the server-level placement (Fnv1a64 % stride == base), untouched by
  // the shard count.
  constexpr size_t kStride = 5, kShards = 3;
  for (uint32_t base = 0; base < kStride; base++) {
    ShardedStore::Options opts{kShards, 64};
    for (size_t i = 0; i < kShards; i++) {
      opts.logical_shards.push_back(static_cast<uint32_t>(base + i * kStride));
    }
    opts.num_logical_shards = kShards * kStride;
    ShardedStore store(opts);
    for (int i = 0; i < 300; i++) {
      Key key = "key" + std::to_string(i);
      uint64_t h = Fnv1a64(key.data(), key.size());
      ASSERT_EQ(store.OwnsKey(key), h % kStride == base) << key;
      if (!store.OwnsKey(key)) continue;
      EXPECT_EQ(store.ShardIndexOf(key), (h % (kShards * kStride)) / kStride);
      EXPECT_LT(store.ShardIndexOf(key), kShards);
    }
  }
}

TEST(ShardedStoreTest, MatchesFlatStoreOnShuffledWriteStream) {
  // The sharded data plane is a pure re-partitioning: the three servers of
  // a cluster, each a ShardedStore with the stride layout {base + i*3},
  // fed the same shuffled write stream (routed to the owning server) as a
  // flat VersionedStore must together agree with it on every fold, latest
  // timestamp, and scan result.
  constexpr uint32_t kServers = 3, kShards = 4;
  hat::Rng rng(2024);
  std::vector<WriteRecord> stream;
  for (int i = 0; i < 60; i++) {
    Key key = "key" + std::to_string(i % 23);
    if (rng.NextBool(0.5)) {
      stream.push_back(Put(key, "v" + std::to_string(i), 1 + i));
    } else {
      stream.push_back(Delta(key, rng.NextInRange(-5, 5), 1 + i));
    }
  }
  for (int round = 0; round < 5; round++) {
    // Fisher-Yates shuffle; deterministic via the fixture Rng.
    for (size_t i = stream.size() - 1; i > 0; i--) {
      std::swap(stream[i], stream[rng.NextBelow(i + 1)]);
    }
    VersionedStore flat;
    std::vector<ShardedStore> servers;
    for (uint32_t base = 0; base < kServers; base++) {
      ShardedStore::Options opts{kShards, 32};
      for (uint32_t i = 0; i < kShards; i++) {
        opts.logical_shards.push_back(base + i * kServers);
      }
      opts.num_logical_shards = kShards * kServers;
      servers.emplace_back(opts);
    }
    auto owner = [&servers](const Key& key) -> ShardedStore& {
      for (ShardedStore& s : servers) {
        if (s.OwnsKey(key)) return s;
      }
      ADD_FAILURE() << "no server owns " << key;
      return servers[0];
    };
    for (const auto& w : stream) {
      flat.Apply(w);
      owner(w.key).Apply(w);
    }
    size_t keys = 0, versions = 0;
    std::vector<std::pair<Key, ReadVersion>> sharded_scan;
    for (const ShardedStore& s : servers) {
      keys += s.KeyCount();
      versions += s.VersionCount();
      for (auto& item : s.Scan("", "\xff")) sharded_scan.push_back(item);
    }
    EXPECT_EQ(keys, flat.KeyCount());
    EXPECT_EQ(versions, flat.VersionCount());
    for (int i = 0; i < 23; i++) {
      Key key = "key" + std::to_string(i);
      const ShardedStore& sharded = owner(key);
      auto f = flat.Read(key);
      auto s = sharded.Read(key);
      EXPECT_EQ(s.found, f.found) << key;
      EXPECT_EQ(s.value, f.value) << key;
      EXPECT_EQ(s.ts, f.ts) << key;
      EXPECT_EQ(sharded.LatestTimestamp(key), flat.LatestTimestamp(key));
    }
    std::sort(sharded_scan.begin(), sharded_scan.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    auto flat_scan = flat.Scan("", "\xff");
    ASSERT_EQ(sharded_scan.size(), flat_scan.size());
    for (size_t i = 0; i < flat_scan.size(); i++) {
      EXPECT_EQ(sharded_scan[i].first, flat_scan[i].first) << i;
      EXPECT_EQ(sharded_scan[i].second.value, flat_scan[i].second.value);
      EXPECT_EQ(sharded_scan[i].second.ts, flat_scan[i].second.ts);
    }
  }
}

TEST(ShardedStoreTest, ScanMergesShardsInKeyOrder) {
  ShardedStore store(ShardedStore::Options{4, 32});
  for (int i = 0; i < 100; i++) {
    store.Apply(Put("key" + std::to_string(i), "v", 1 + i));
  }
  Key prev;
  size_t n = 0;
  store.ScanVisit("", "\xff", std::nullopt,
                  [&](const Key& key, ReadVersion) {
                    if (n > 0) EXPECT_LT(prev, key);
                    prev = key;
                    n++;
                  });
  EXPECT_EQ(n, 100u);
}

TEST(ShardedStoreTest, ShardHashesLocalizeADiff) {
  ShardedStore a(ShardedStore::Options{4, 32});
  ShardedStore b(ShardedStore::Options{4, 32});
  for (int i = 0; i < 200; i++) {
    auto w = Put("key" + std::to_string(i), "v", 5);
    a.Apply(w);
    b.Apply(w);
  }
  EXPECT_EQ(a.ShardHashes(), b.ShardHashes());
  a.Apply(Put("key7", "newer", 9));
  auto ha = a.ShardHashes(), hb = b.ShardHashes();
  size_t diffs = 0;
  for (size_t s = 0; s < ha.size(); s++) diffs += ha[s] != hb[s];
  EXPECT_EQ(diffs, 1u);
  EXPECT_NE(ha[a.ShardIndexOf("key7")], hb[b.ShardIndexOf("key7")]);
}

TEST(ShardedStoreTest, GcFrontiersAreShardLocal) {
  // GC on one shard's key must not disturb any other shard's version sets
  // or digest state.
  ShardedStore store(ShardedStore::Options{3, 32});
  for (int i = 0; i < 30; i++) {
    Key key = "key" + std::to_string(i);
    for (int v = 1; v <= 4; v++) {
      store.Apply(Put(key, "v" + std::to_string(v), v));
    }
  }
  Key victim = "key0";
  size_t victim_shard = store.ShardIndexOf(victim);
  std::vector<uint64_t> before = store.ShardHashes();
  EXPECT_EQ(store.DropVersionsBefore(victim, Timestamp{4, 1}), 3u);
  std::vector<uint64_t> after = store.ShardHashes();
  // Dropping non-latest versions leaves every latest entry alone — all
  // shard summaries unchanged — and only the victim's shard lost versions.
  EXPECT_EQ(after, before);
  for (size_t s = 0; s < store.shard_count(); s++) {
    size_t expect = store.shard(s).KeyCount() * 4 -
                    (s == victim_shard ? 3 : 0);
    EXPECT_EQ(store.shard(s).VersionCount(), expect) << s;
  }
}

TEST(KeyInternerTest, DenseIdsAndStableViews) {
  KeyInterner keys;
  std::vector<std::string_view> views;
  for (int i = 0; i < 1000; i++) {
    std::string k = "key" + std::to_string(i);
    EXPECT_EQ(keys.Find(k), KeyInterner::kNotFound);
    EXPECT_EQ(keys.Intern(k), static_cast<KeyInterner::KeyId>(i));
    EXPECT_EQ(keys.Intern(k), static_cast<KeyInterner::KeyId>(i));
    views.push_back(keys.KeyOf(i));
  }
  EXPECT_EQ(keys.size(), 1000u);
  // Views taken before many table growths still read the original bytes.
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(views[i], "key" + std::to_string(i));
    EXPECT_EQ(keys.HashOf(i), Fnv1a64(views[i].data(), views[i].size()));
  }
}

TEST(KeyInternerTest, EmptyKeyIsAKey) {
  KeyInterner keys;
  EXPECT_EQ(keys.Intern(""), 0u);
  EXPECT_EQ(keys.Find(""), 0u);
  EXPECT_EQ(keys.KeyOf(0), "");
}

TEST(RecordArenaTest, DeadByteAccountingGatesCompaction) {
  RecordArena arena;
  std::string blob(1024, 'x');
  for (int i = 0; i < 600; i++) arena.Store(blob);
  EXPECT_EQ(arena.stored_bytes(), 600u * 1024u);
  EXPECT_FALSE(arena.ShouldCompact());
  // Majority dead + past the floor -> compact.
  arena.NoteDead(400 * 1024);
  EXPECT_TRUE(arena.ShouldCompact());
  EXPECT_EQ(arena.live_bytes(), 200u * 1024u);
}

TEST(VersionedStoreTest, ApproximateBytesReturnsToBaselineAfterGc) {
  // The bloated store applies a long history (with sibling metadata, so
  // per-record and fold-cache accounting both matter), reads to warm the
  // fold cache, then drops the shadowed prefix. A control store that only
  // ever saw the surviving suffix must report the identical byte figure —
  // i.e. GC refunds exactly what the dropped records charged.
  VersionedStore bloated;
  for (uint64_t t = 1; t <= 64; t++) {
    WriteRecord w = Put("x", "value" + std::to_string(t), t);
    w.sibs = {"x", "sibling"};
    bloated.Apply(w);
    bloated.Apply(Delta("y", 1, t));
  }
  ASSERT_TRUE(bloated.Read("x").found);  // warm the fold cache
  ASSERT_TRUE(bloated.Read("y").found);
  EXPECT_EQ(bloated.DropVersionsBefore("x", Timestamp{64, 1}), 63u);
  EXPECT_EQ(bloated.DropVersionsBefore("y", Timestamp{64, 1}), 63u);

  VersionedStore control;
  WriteRecord survivor = Put("x", "value64", 64);
  survivor.sibs = {"x", "sibling"};
  control.Apply(survivor);
  control.Apply(Delta("y", 1, 64));
  EXPECT_EQ(bloated.Read("x").value, control.Read("x").value);
  EXPECT_EQ(bloated.Read("y").value, control.Read("y").value);
  // Same live records, same warmed caches -> byte-identical accounting.
  EXPECT_EQ(bloated.ApproximateBytes(), control.ApproximateBytes());
}

TEST(FoldCacheTest, OutOfOrderApplyAfterGcMatchesFreshFold) {
  // Regression for the memo/GC interaction: GC rewrites the chain (folded
  // synthetic Put), a later out-of-order insert below the cached fold must
  // invalidate the memo, and the re-fold must agree with a control store
  // that folds the same post-GC version set from scratch.
  VersionedStore store;
  store.Apply(Put("x", EncodeInt64Value(100), 1));
  for (uint64_t t = 2; t <= 6; t++) store.Apply(Delta("x", 1, t));
  ASSERT_TRUE(store.Read("x").found);  // warm
  store.GarbageCollect("x", Timestamp{4, 1});
  ASSERT_TRUE(store.Read("x").found);  // re-warm over the rewritten chain

  // Late delta lands *between* the synthetic base Put and the cached tail.
  store.Apply(Delta("x", 1000, 4, /*client=*/9));

  VersionedStore fresh;
  for (const WriteRecord& w : store.Versions("x")) fresh.Apply(w);
  EXPECT_EQ(store.Read("x").value, fresh.Read("x").value);
  EXPECT_EQ(DecodeInt64Value(store.Read("x").value),
            DecodeInt64Value(fresh.Read("x").value));
  EXPECT_EQ(*DecodeInt64Value(store.Read("x").value), 100 + 5 + 1000);
}

TEST(VersionedStoreTest, ScanOrderSurvivesInterleavedInterning) {
  // The ordered-id index is rebuilt lazily; interleaving scans with batches
  // of out-of-order key arrivals exercises the sorted-prefix + tail merge.
  VersionedStore store;
  const char* batches[] = {"mm", "cc", "zz", "aa", "qq", "bb", "ee", "nn"};
  std::vector<std::string> seen;
  for (const char* k : batches) {
    store.Apply(Put(k, "v", 1));
    seen.clear();
    store.ScanVisit("", "~", std::nullopt,
                    [&seen](const Key& key, ReadVersion) {
                      seen.push_back(key);
                    });
    ASSERT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  }
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace hat::version
