// Direct unit tests for server::AntiEntropyEngine, constructed without a
// ReplicaServer: outgoing messages are captured by the SendFn, incoming
// records by the InstallFn.

#include "hat/server/anti_entropy_engine.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tests/test_util.h"

namespace hat::server {
namespace {

struct Sent {
  net::NodeId to;
  net::Message msg;
};

class AntiEntropyTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kSelf = 1;
  static constexpr net::NodeId kPeer = 2;

  void MakeEngine(AntiEntropyEngine::Options opts = {}) {
    engine_ = std::make_unique<AntiEntropyEngine>(
        sim_, kSelf, &partitioner_, good_, opts,
        [this](net::NodeId to, net::Message m, obs::TraceContext) {
          sent_.push_back(Sent{to, std::move(m)});
        },
        [this](const WriteRecord& w, net::PutMode, net::NodeId, obs::TraceContext) {
          installed_.push_back(w);
        });
  }

  WriteRecord MakeWrite(const Key& key, uint64_t logical) {
    WriteRecord w;
    w.key = key;
    w.value = "v";
    w.ts = {logical, 7};
    return w;
  }

  /// Shard 0's digest buckets holding `keys`: the scope of a round-2
  /// request that advertises them.
  std::vector<uint32_t> BucketsOf(std::initializer_list<Key> keys) {
    std::set<uint32_t> buckets;
    for (const Key& k : keys) {
      buckets.insert(static_cast<uint32_t>(good_.shard(0).BucketOf(k)));
    }
    return std::vector<uint32_t>(buckets.begin(), buckets.end());
  }

  std::vector<const net::AntiEntropyBatch*> SentBatches() {
    std::vector<const net::AntiEntropyBatch*> out;
    for (const auto& s : sent_) {
      if (const auto* b = std::get_if<net::AntiEntropyBatch>(&s.msg)) {
        out.push_back(b);
      }
    }
    return out;
  }

  sim::Simulation sim_{1};
  FixedPartitioner partitioner_{{kSelf, kPeer, 3}};
  version::ShardedStore good_;  // one shard, default buckets
  std::unique_ptr<AntiEntropyEngine> engine_;
  std::vector<Sent> sent_;
  std::vector<WriteRecord> installed_;
};

TEST_F(AntiEntropyTest, FlushBatchesRespectSizeCap) {
  AntiEntropyEngine::Options opts;
  opts.batch_max = 4;
  MakeEngine(opts);
  engine_->Start();
  for (uint64_t i = 0; i < 10; i++) {
    engine_->Enqueue(MakeWrite("k" + std::to_string(i), 10 + i),
                     net::PutMode::kEventual, /*except=*/0);
  }
  sim_.RunUntil(opts.flush_interval * 2);
  auto batches = SentBatches();
  // 10 writes, 2 peers, cap 4 -> 3 batches per peer.
  ASSERT_EQ(batches.size(), 6u);
  for (const auto* b : batches) EXPECT_LE(b->writes.size(), 4u);
  EXPECT_EQ(engine_->stats().records_out, 20u);
}

TEST_F(AntiEntropyTest, EnqueueSkipsSelfAndOrigin) {
  MakeEngine();
  engine_->Start();
  engine_->Enqueue(MakeWrite("k", 10), net::PutMode::kEventual,
                   /*except=*/kPeer);
  sim_.RunUntil(100 * sim::kMillisecond);
  for (const auto& s : sent_) {
    EXPECT_NE(s.to, kSelf);
    EXPECT_NE(s.to, kPeer) << "origin must not receive its own write back";
  }
  EXPECT_EQ(SentBatches().size(), 1u);  // only node 3
}

TEST_F(AntiEntropyTest, ModeChangesSplitBatches) {
  MakeEngine();
  engine_->Start();
  engine_->Enqueue(MakeWrite("a", 1), net::PutMode::kEventual, 0);
  engine_->Enqueue(MakeWrite("b", 2), net::PutMode::kMav, 0);
  engine_->Enqueue(MakeWrite("c", 3), net::PutMode::kEventual, 0);
  sim_.RunUntil(100 * sim::kMillisecond);
  auto batches = SentBatches();
  ASSERT_EQ(batches.size(), 6u);  // 3 mode runs x 2 peers
  for (const auto* b : batches) EXPECT_EQ(b->writes.size(), 1u);
}

TEST_F(AntiEntropyTest, DuplicateBatchesInstallOnce) {
  MakeEngine();
  net::AntiEntropyBatch batch;
  batch.batch_id = 42;
  batch.writes.push_back(MakeWrite("k", 10));
  engine_->HandleBatch(batch, kPeer);
  engine_->HandleBatch(batch, kPeer);  // retransmit
  EXPECT_EQ(installed_.size(), 1u);
  EXPECT_EQ(engine_->stats().batches_in, 2u);
  EXPECT_EQ(engine_->stats().records_in, 1u);
  // Both deliveries are acked so the sender stops retransmitting.
  size_t acks = 0;
  for (const auto& s : sent_) {
    if (std::holds_alternative<net::AntiEntropyAck>(s.msg)) acks++;
  }
  EXPECT_EQ(acks, 2u);
}

TEST_F(AntiEntropyTest, UnackedBatchesRetransmitWithExponentialBackoff) {
  AntiEntropyEngine::Options opts;
  opts.flush_interval = 1 * sim::kMillisecond;
  opts.retry_interval = 100 * sim::kMillisecond;
  MakeEngine(opts);
  engine_->Start();
  engine_->Enqueue(MakeWrite("k", 10), net::PutMode::kEventual, 3);
  // Never ack. Transmissions: t~1ms (initial), then backoff 100ms, 200ms,
  // 400ms... — by 800ms we expect exactly 1 + 3 sends to kPeer.
  sim_.RunUntil(790 * sim::kMillisecond);
  EXPECT_EQ(SentBatches().size(), 4u);
  // An ack stops the retransmissions entirely.
  const auto* last = SentBatches().back();
  engine_->HandleAck(net::AntiEntropyAck{last->batch_id});
  size_t before = SentBatches().size();
  sim_.RunUntil(5 * sim::kSecond);
  EXPECT_EQ(SentBatches().size(), before);
}

TEST_F(AntiEntropyTest, DigestAnswersOnlyMissingVersions) {
  MakeEngine();
  WriteRecord shared = MakeWrite("a", 10);
  WriteRecord newer = MakeWrite("b", 20);
  good_.Apply(shared);
  good_.Apply(newer);
  // Peer advertises: same version of "a", older version of "b".
  net::DigestRequest req;
  req.latest = {{"a", {10, 7}}, {"b", {5, 7}}};
  req.buckets = BucketsOf({"a", "b"});
  req.reply_allowed = true;
  engine_->HandleDigest(req, kPeer);
  auto batches = SentBatches();
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0]->writes.size(), 1u);
  EXPECT_EQ(batches[0]->writes[0].key, "b");
  EXPECT_EQ(engine_->stats().records_out, 1u);
}

TEST_F(AntiEntropyTest, DigestReverseRoundWhenInitiatorHasMore) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  // Peer advertises a key we lack entirely: we respond with our own digest
  // (reply_allowed=false) so it pushes the difference back — one round only.
  net::DigestRequest req;
  req.latest = {{"z", {30, 7}}};
  req.buckets = BucketsOf({"z"});
  req.reply_allowed = true;
  engine_->HandleDigest(req, kPeer);
  size_t digests = 0;
  for (const auto& s : sent_) {
    if (const auto* d = std::get_if<net::DigestRequest>(&s.msg)) {
      EXPECT_FALSE(d->reply_allowed);
      EXPECT_EQ(s.to, kPeer);
      EXPECT_EQ(d->buckets, req.buckets) << "the reverse round stays scoped";
      digests++;
    }
  }
  EXPECT_EQ(digests, 1u);
}

TEST_F(AntiEntropyTest, DigestRequestWithoutBucketsIsANoOp) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  // Entries that would pull a back-fill ("a" is older there) and a reverse
  // digest ("z" is newer there) — but a request naming no buckets covers
  // nothing, so neither may be sent.
  net::DigestRequest req;
  req.latest = {{"a", {5, 7}}, {"z", {30, 7}}};
  req.reply_allowed = true;
  engine_->HandleDigest(req, kPeer);
  EXPECT_TRUE(SentBatches().empty()) << "no back-fill batch";
  for (const auto& s : sent_) {
    EXPECT_FALSE(std::holds_alternative<net::DigestRequest>(s.msg))
        << "no reverse digest";
  }
  EXPECT_EQ(engine_->stats().records_out, 0u);
}

TEST_F(AntiEntropyTest, DigestSyncTickTargetsAPeerReplica) {
  AntiEntropyEngine::Options opts;
  opts.digest_sync_interval = 50 * sim::kMillisecond;
  MakeEngine(opts);
  engine_->Start();
  good_.Apply(MakeWrite("k", 10));
  sim_.RunUntil(sim::kSecond);
  size_t digests = 0;
  for (const auto& s : sent_) {
    if (std::holds_alternative<net::ShardDigest>(s.msg)) {
      EXPECT_NE(s.to, kSelf);
      digests++;
    }
  }
  EXPECT_GT(digests, 0u);
}

TEST_F(AntiEntropyTest, DisabledPushNeverFlushes) {
  AntiEntropyEngine::Options opts;
  opts.push_enabled = false;
  MakeEngine(opts);
  engine_->Start();
  engine_->Enqueue(MakeWrite("k", 10), net::PutMode::kEventual, 0);
  sim_.RunUntil(sim::kSecond);
  EXPECT_TRUE(SentBatches().empty());
}

TEST_F(AntiEntropyTest, BucketedTickSendsShardHashesNotEntries) {
  AntiEntropyEngine::Options opts;
  opts.digest_sync_interval = 50 * sim::kMillisecond;
  MakeEngine(opts);
  engine_->Start();
  good_.Apply(MakeWrite("k", 10));
  sim_.RunUntil(200 * sim::kMillisecond);
  size_t shard_digests = 0;
  for (const auto& s : sent_) {
    EXPECT_FALSE(std::holds_alternative<net::DigestRequest>(s.msg))
        << "bucketed ticks must not ship per-key digests";
    EXPECT_FALSE(std::holds_alternative<net::BucketDigest>(s.msg))
        << "round 0 ships shard summaries, not bucket hashes";
    if (const auto* sd = std::get_if<net::ShardDigest>(&s.msg)) {
      ASSERT_EQ(sd->shards.size(), good_.shard_count());
      EXPECT_EQ(sd->shards[0].shard, 0u) << "tagged with the logical shard";
      shard_digests++;
    }
  }
  EXPECT_GT(shard_digests, 0u);
  EXPECT_GT(engine_->stats().digest_ticks, 0u);
  EXPECT_EQ(engine_->stats().digest_entries_out, 0u);
}

TEST_F(AntiEntropyTest, MatchingShardHashesEndTheProtocol) {
  MakeEngine();
  good_.Apply(MakeWrite("k", 10));
  // A peer with identical state sends identical shard summaries: silence.
  engine_->HandleShardDigest(ShardDigestOf(good_), kPeer);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(AntiEntropyTest, MatchingBucketHashesEndTheProtocol) {
  MakeEngine();
  good_.Apply(MakeWrite("k", 10));
  // A peer with identical state sends identical hashes: no round 2 at all.
  engine_->HandleBucketDigest(
      net::BucketDigest{good_.shard(0).BucketHashes()}, kPeer);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(AntiEntropyTest, MismatchedShardSummaryPullsItsBucketHashes) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  version::ShardedStore peer;  // missing "a"
  engine_->HandleShardDigest(ShardDigestOf(peer), kPeer);
  ASSERT_EQ(sent_.size(), 1u);
  const auto* bd = std::get_if<net::BucketDigest>(&sent_[0].msg);
  ASSERT_NE(bd, nullptr);
  EXPECT_EQ(bd->shard, 0u);
  EXPECT_EQ(bd->hashes, good_.shard(0).BucketHashes());
}

TEST_F(AntiEntropyTest, ShardDigestAnswersOnlyHostedMismatchedShards) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  // Logical shard 5 is not hosted here (a one-slot store hosts only 0);
  // shard 0 is hosted and its hash disagrees.
  net::ShardDigest digest;
  digest.shards = {{5, 123}, {0, good_.ShardTopHash(0) + 1}};
  engine_->HandleShardDigest(digest, kPeer);
  ASSERT_EQ(sent_.size(), 1u);
  const auto* bd = std::get_if<net::BucketDigest>(&sent_[0].msg);
  ASSERT_NE(bd, nullptr);
  EXPECT_EQ(bd->shard, 0u);
}

TEST_F(AntiEntropyTest, BucketDigestRepliesScopedToMismatchedBuckets) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  good_.Apply(MakeWrite("b", 20));
  // Peer state: missing "b" but otherwise identical.
  version::ShardedStore peer;
  peer.Apply(MakeWrite("a", 10));
  engine_->HandleBucketDigest(
      net::BucketDigest{peer.shard(0).BucketHashes()}, kPeer);
  ASSERT_EQ(sent_.size(), 1u);
  const auto* req = std::get_if<net::DigestRequest>(&sent_[0].msg);
  ASSERT_NE(req, nullptr);
  EXPECT_TRUE(req->reply_allowed);
  ASSERT_FALSE(req->buckets.empty());
  size_t b_bucket = good_.shard(0).BucketOf("b");
  bool covers_b = false;
  for (uint32_t b : req->buckets) {
    if (b == b_bucket) covers_b = true;
  }
  EXPECT_TRUE(covers_b);
  // Entries are our keys in the mismatched buckets only — and each entry
  // must belong to an advertised bucket.
  for (const auto& [k, ts] : req->latest) {
    bool in_scope = false;
    for (uint32_t b : req->buckets) {
      if (good_.shard(0).BucketOf(k) == b) in_scope = true;
    }
    EXPECT_TRUE(in_scope) << k;
  }
}

TEST_F(AntiEntropyTest, ScopedDigestBackfillsOnlyThoseBuckets) {
  MakeEngine();
  good_.Apply(MakeWrite("a", 10));
  good_.Apply(MakeWrite("b", 20));
  // Bucket-scoped request for b's bucket from a peer that has nothing there.
  net::DigestRequest req;
  req.buckets = {static_cast<uint32_t>(good_.shard(0).BucketOf("b"))};
  engine_->HandleDigest(req, kPeer);
  auto batches = SentBatches();
  size_t shipped = 0;
  for (const auto* batch : batches) {
    for (const auto& w : batch->writes) {
      EXPECT_EQ(good_.shard(0).BucketOf(w.key), good_.shard(0).BucketOf("b"));
      shipped++;
    }
  }
  EXPECT_GE(shipped, 1u);
}

TEST_F(AntiEntropyTest, BucketedSyncTransmitsDiffNotDataset) {
  // The acceptance bar for the bucketed protocol: a sync over a 100k-key
  // store with a 50-write diff must ship asymptotically fewer digest
  // entries than the flat all-keys digest, while still repairing the diff.
  constexpr size_t kKeys = 100000;
  constexpr size_t kDiff = 50;
  MakeEngine();
  version::ShardedStore peer;  // the out-of-date replica
  for (size_t i = 0; i < kKeys; i++) {
    auto w = MakeWrite("key" + std::to_string(i), 10);
    good_.Apply(w);
    peer.Apply(w);
  }
  for (size_t i = 0; i < kDiff; i++) {
    good_.Apply(MakeWrite("key" + std::to_string(i * 1999), 77));
  }

  // Round 1: the peer's hashes arrive; we answer with scoped digests.
  engine_->HandleBucketDigest(
      net::BucketDigest{peer.shard(0).BucketHashes()}, kPeer);
  ASSERT_EQ(sent_.size(), 1u);
  const auto& scoped = std::get<net::DigestRequest>(sent_[0].msg);
  EXPECT_EQ(engine_->stats().digest_entries_out, scoped.latest.size());
  // Flat protocol ships one entry per key; bucketed ships only the
  // mismatched buckets' populations (~ diff x keys-per-bucket).
  EXPECT_LE(scoped.latest.size(), kKeys / 10);
  net::DigestRequest all_keys;
  good_.ForEachLatest([&all_keys](const Key& key, const Timestamp& ts) {
    all_keys.latest.emplace_back(key, ts);
  });
  EXPECT_LT(net::WireBytes(net::Message{scoped}) +
                net::WireBytes(net::Message{net::BucketDigest{
                    peer.shard(0).BucketHashes()}}),
            net::WireBytes(net::Message{all_keys}));

  // Round 2 (as the peer's engine would run it): feed the scoped digest to
  // an engine owning the peer store; it must back-fill exactly the diff.
  std::vector<Sent> peer_sent;
  AntiEntropyEngine peer_engine(
      sim_, kPeer, &partitioner_, peer, AntiEntropyEngine::Options{},
      [&peer_sent](net::NodeId to, net::Message m, obs::TraceContext) {
        peer_sent.push_back(Sent{to, std::move(m)});
      },
      [&peer](const WriteRecord& w, net::PutMode, net::NodeId, obs::TraceContext) {
        peer.Apply(w);
      });
  // The scoped request carries OUR entries; the peer answers with what we
  // are missing (nothing) and, seeing it lacks data, sends its own scoped
  // digest back — which we answer with the 50 records.
  peer_engine.HandleDigest(scoped, kSelf);
  const net::DigestRequest* reverse = nullptr;
  for (const auto& s : peer_sent) {
    ASSERT_FALSE(std::holds_alternative<net::AntiEntropyBatch>(s.msg))
        << "peer has nothing we lack; no records should flow to us";
    if (const auto* d = std::get_if<net::DigestRequest>(&s.msg)) reverse = d;
  }
  ASSERT_NE(reverse, nullptr);
  EXPECT_FALSE(reverse->reply_allowed);
  engine_->HandleDigest(*reverse, kPeer);
  size_t repaired = 0;
  for (const auto* batch : SentBatches()) repaired += batch->writes.size();
  EXPECT_EQ(repaired, kDiff);
  EXPECT_EQ(engine_->stats().records_out, kDiff);
  for (const auto& s : sent_) {
    if (const auto* batch = std::get_if<net::AntiEntropyBatch>(&s.msg)) {
      for (const auto& w : batch->writes) peer.Apply(w);
    }
  }
  EXPECT_EQ(peer.VersionCount(), good_.VersionCount());
  EXPECT_EQ(peer.shard(0).BucketHashes(), good_.shard(0).BucketHashes());
}

TEST(ShardedAntiEntropyTest, HotShardRepairShipsThatShardsHashesOnly) {
  // Acceptance bar for the sharded protocol: with shards_per_server > 1, a
  // digest-repair round for a diff confined to one shard must ship round-1
  // bucket hashes for that shard only — cold shards cost one 8-byte summary
  // each, never a bucket-hash vector or a key walk.
  constexpr size_t kShards = 8;
  constexpr size_t kBuckets = 64;
  constexpr size_t kKeys = 4000;
  sim::Simulation sim{1};
  FixedPartitioner partitioner{{1, 2}};
  version::ShardedStore::Options store_opts{kShards, kBuckets};
  version::ShardedStore ours(store_opts);  // up to date
  version::ShardedStore peer(store_opts);  // stale replica
  for (size_t i = 0; i < kKeys; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "v";
    w.ts = {10, 7};
    ours.Apply(w);
    peer.Apply(w);
  }
  // The diff: 10 newer writes, all landing in one (hot) shard.
  size_t hot = ours.ShardIndexOf("key0");
  size_t updated = 0;
  for (size_t i = 0; i < kKeys && updated < 10; i++) {
    Key key = "key" + std::to_string(i);
    if (ours.ShardIndexOf(key) != hot) continue;
    WriteRecord w;
    w.key = key;
    w.value = "newer";
    w.ts = {77, 7};
    ours.Apply(w);
    updated++;
  }
  ASSERT_EQ(updated, 10u);

  struct Sent {
    net::NodeId to;
    net::Message msg;
  };
  std::vector<Sent> ours_sent, peer_sent;
  AntiEntropyEngine ours_engine(
      sim, 1, &partitioner, ours, AntiEntropyEngine::Options{},
      [&ours_sent](net::NodeId to, net::Message m, obs::TraceContext) {
        ours_sent.push_back(Sent{to, std::move(m)});
      },
      [](const WriteRecord&, net::PutMode, net::NodeId, obs::TraceContext) {});
  AntiEntropyEngine peer_engine(
      sim, 2, &partitioner, peer, AntiEntropyEngine::Options{},
      [&peer_sent](net::NodeId to, net::Message m, obs::TraceContext) {
        peer_sent.push_back(Sent{to, std::move(m)});
      },
      [&peer](const WriteRecord& w, net::PutMode, net::NodeId, obs::TraceContext) {
        peer.Apply(w);
      });

  // Round 0 (as the peer's tick would run): peer's shard summaries reach us.
  ours_engine.HandleShardDigest(ShardDigestOf(peer), 2);
  // Round 1: exactly one BucketDigest — the hot shard's — crosses the wire.
  ASSERT_EQ(ours_sent.size(), 1u);
  const auto* bd = std::get_if<net::BucketDigest>(&ours_sent[0].msg);
  ASSERT_NE(bd, nullptr);
  EXPECT_EQ(bd->shard, hot);
  EXPECT_EQ(bd->hashes.size(), kBuckets);
  // Cold shards never hash: total round-1 digest traffic is one shard's
  // bucket vector, not kShards of them.
  EXPECT_LT(ours_engine.stats().digest_bytes_out,
            (kShards * kBuckets * 8) / 2);
  EXPECT_EQ(ours_engine.stats().digest_entries_out, 0u);

  // Round 2: the peer advertises per-key digests for mismatched buckets of
  // the hot shard only.
  peer_engine.HandleBucketDigest(*bd, 1);
  ASSERT_EQ(peer_sent.size(), 1u);
  const auto* scoped = std::get_if<net::DigestRequest>(&peer_sent[0].msg);
  ASSERT_NE(scoped, nullptr);
  EXPECT_EQ(scoped->shard, hot);
  for (const auto& [k, ts] : scoped->latest) {
    EXPECT_EQ(peer.ShardIndexOf(k), hot) << k;
  }
  // Entries shipped ~ mismatched buckets' population, a sliver of the
  // keyspace (the flat protocol would pay kKeys entries).
  EXPECT_EQ(peer_engine.stats().digest_entries_out, scoped->latest.size());
  EXPECT_LT(scoped->latest.size(), kKeys / 4);

  // Round 3: we back-fill exactly the diff; the peer converges.
  ours_engine.HandleDigest(*scoped, 2);
  size_t repaired = 0;
  for (const auto& s : ours_sent) {
    if (const auto* batch = std::get_if<net::AntiEntropyBatch>(&s.msg)) {
      for (const auto& w : batch->writes) {
        peer.Apply(w);
        repaired++;
      }
    }
  }
  EXPECT_EQ(repaired, 10u);
  EXPECT_EQ(peer.ShardHashes(), ours.ShardHashes());
}

TEST_F(AntiEntropyTest, DigestRepliesCappedByBytes) {
  AntiEntropyEngine::Options opts;
  opts.batch_max = 1000;           // count cap out of the way
  opts.batch_max_bytes = 4 * 1024; // bytes cap drives the splits
  MakeEngine(opts);
  for (int i = 0; i < 16; i++) {
    WriteRecord w = MakeWrite("big" + std::to_string(i), 10);
    w.value.assign(1024, 'x');
    good_.Apply(w);
  }
  net::DigestRequest req;  // every bucket, no entries: the peer has nothing
  for (size_t b = 0; b < good_.shard(0).digest_buckets(); b++) {
    req.buckets.push_back(static_cast<uint32_t>(b));
  }
  engine_->HandleDigest(req, kPeer);
  auto batches = SentBatches();
  ASSERT_GE(batches.size(), 4u);
  size_t total = 0;
  for (const auto* batch : batches) {
    EXPECT_LE(net::WireBytes(net::Message{*batch}),
              opts.batch_max_bytes + 2048)  // one record may overshoot
        << "reply batches must respect the byte cap";
    total += batch->writes.size();
  }
  EXPECT_EQ(total, 16u);
}

TEST_F(AntiEntropyTest, BatchIdCounterWrapStaysInOwnIdSpace) {
  AntiEntropyEngine::Options opts;
  opts.flush_interval = 1 * sim::kMillisecond;
  MakeEngine(opts);
  // Position the counter at the last value of its 40-bit field so the next
  // two flushes straddle the wrap.
  engine_->SetNextBatchIdForTest((uint64_t{1} << 40) - 1);
  engine_->Start();
  engine_->Enqueue(MakeWrite("k1", 10), net::PutMode::kEventual, /*except=*/3);
  sim_.RunUntil(5 * sim::kMillisecond);
  engine_->Enqueue(MakeWrite("k2", 11), net::PutMode::kEventual, /*except=*/3);
  sim_.RunUntil(10 * sim::kMillisecond);
  auto batches = SentBatches();
  ASSERT_EQ(batches.size(), 2u);
  // An unmasked increment past 2^40 would carry into the node-id bits and
  // forge an id in node kSelf+1's namespace (so receivers' dedupe sets could
  // silently swallow that node's fresh batches). The masked counter wraps
  // within our own field instead.
  EXPECT_EQ(batches[0]->batch_id >> 40, static_cast<uint64_t>(kSelf));
  EXPECT_EQ(batches[1]->batch_id >> 40, static_cast<uint64_t>(kSelf));
  EXPECT_NE(batches[0]->batch_id, batches[1]->batch_id);
  EXPECT_EQ(batches[1]->batch_id & ((uint64_t{1} << 40) - 1), 0u);
}

TEST_F(AntiEntropyTest, DedupeMemoryRotationsAreCountedAndKeepRecentIds) {
  MakeEngine();
  net::AntiEntropyBatch batch;
  for (uint64_t i = 0; i < 4096; i++) {
    batch.batch_id = (uint64_t{9} << 40) | i;
    engine_->HandleBatch(batch, kPeer);
  }
  EXPECT_EQ(engine_->stats().dedupe_rotations, 1u);
  EXPECT_EQ(engine_->stats().dupes_suppressed, 0u);
  // Recent ids survive the rotation into the previous generation: a
  // retransmit of the id that triggered it is still seen as a duplicate.
  batch.batch_id = (uint64_t{9} << 40) | 4095;
  engine_->HandleBatch(batch, kPeer);
  EXPECT_EQ(engine_->stats().dupes_suppressed, 1u);
}

TEST_F(AntiEntropyTest, SingleSlotStoreKeepsOnePeerOutboxTaggedZero) {
  // A one-slot store hosts the single logical shard 0, so writes for any
  // key share one outbox per peer and every batch is tagged 0.
  AntiEntropyEngine::Options opts;
  opts.batch_max = 64;
  MakeEngine(opts);
  engine_->Start();
  for (int i = 0; i < 8; i++) {
    engine_->Enqueue(MakeWrite("k" + std::to_string(i), 10 + i),
                     net::PutMode::kEventual, /*except=*/3);
  }
  sim_.RunUntil(opts.flush_interval * 2);
  auto batches = SentBatches();
  ASSERT_EQ(batches.size(), 1u);  // one outbox, one flush, one peer
  EXPECT_EQ(batches[0]->shard, 0u);
  EXPECT_EQ(batches[0]->writes.size(), 8u);
}

TEST(ShardLaneBatchingTest, BatchesAreShardHomogeneousAndTagged) {
  constexpr size_t kShards = 4;
  sim::Simulation sim{1};
  FixedPartitioner partitioner{{1, 2}};
  version::ShardedStore good(version::ShardedStore::Options{kShards, 8});
  std::vector<Sent> sent;
  AntiEntropyEngine::Options opts;
  AntiEntropyEngine engine(
      sim, 1, &partitioner, good, opts,
      [&sent](net::NodeId to, net::Message m, obs::TraceContext) {
        sent.push_back(Sent{to, std::move(m)});
      },
      [](const WriteRecord&, net::PutMode, net::NodeId, obs::TraceContext) {});
  engine.Start();
  for (int i = 0; i < 32; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "v";
    w.ts = {static_cast<uint64_t>(10 + i), 7};
    engine.Enqueue(w, net::PutMode::kEventual, /*except=*/0);
  }
  sim.RunUntil(opts.flush_interval * 2);
  std::set<uint32_t> shards_seen;
  size_t batches = 0;
  for (const auto& s : sent) {
    const auto* b = std::get_if<net::AntiEntropyBatch>(&s.msg);
    if (b == nullptr) continue;
    batches++;
    shards_seen.insert(b->shard);
    for (const auto& w : b->writes) {
      EXPECT_EQ(good.LogicalShardOfKey(w.key), b->shard)
          << "batches must be shard-homogeneous";
    }
  }
  // 32 keys across 4 logical shards: per-(peer, shard) outboxes yield one
  // batch per populated shard, not one mixed batch per peer.
  EXPECT_GT(batches, 1u);
  EXPECT_GT(shards_seen.size(), 1u);
  EXPECT_EQ(engine.stats().batches_out, batches);
}

TEST(ShardLaneBatchingTest, DroppedTaggedBatchRetransmitsSameShardAndDedupes) {
  sim::Simulation sim{1};
  FixedPartitioner partitioner{{1, 2}};
  version::ShardedStore::Options store_opts{4, 8};
  version::ShardedStore sender_store(store_opts);
  version::ShardedStore receiver_store(store_opts);
  AntiEntropyEngine::Options opts;
  opts.flush_interval = 1 * sim::kMillisecond;
  opts.retry_interval = 100 * sim::kMillisecond;
  std::vector<Sent> sent;
  AntiEntropyEngine sender(
      sim, 1, &partitioner, sender_store, opts,
      [&sent](net::NodeId to, net::Message m, obs::TraceContext) {
        sent.push_back(Sent{to, std::move(m)});
      },
      [](const WriteRecord&, net::PutMode, net::NodeId, obs::TraceContext) {});
  std::vector<WriteRecord> installed;
  AntiEntropyEngine receiver(
      sim, 2, &partitioner, receiver_store, opts,
      [](net::NodeId, net::Message, obs::TraceContext) {},  // acks dropped
      [&installed](const WriteRecord& w, net::PutMode, net::NodeId, obs::TraceContext) {
        installed.push_back(w);
      });
  sender.Start();
  WriteRecord w;
  w.key = "k";
  w.value = "v";
  w.ts = {10, 7};
  sender.Enqueue(w, net::PutMode::kEventual, /*except=*/0);
  // Initial transmission goes out (and is "dropped" — never acked) ...
  sim.RunUntil(10 * sim::kMillisecond);
  std::vector<const net::AntiEntropyBatch*> batches;
  for (const auto& s : sent) {
    if (const auto* b = std::get_if<net::AntiEntropyBatch>(&s.msg)) {
      batches.push_back(b);
    }
  }
  ASSERT_EQ(batches.size(), 1u);
  uint32_t tag = batches[0]->shard;
  EXPECT_EQ(tag, sender_store.LogicalShardOfKey("k"));
  // ... so the retry timer retransmits: same batch id, same shard tag —
  // the receiver charges the retry to the same executor lane.
  sim.RunUntil(250 * sim::kMillisecond);
  batches.clear();
  for (const auto& s : sent) {
    if (const auto* b = std::get_if<net::AntiEntropyBatch>(&s.msg)) {
      batches.push_back(b);
    }
  }
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(sender.stats().retransmits, 1u);
  EXPECT_EQ(batches[1]->batch_id, batches[0]->batch_id);
  EXPECT_EQ(batches[1]->shard, tag);
  // Both copies eventually arrive: the duplicate is suppressed, the record
  // installs exactly once.
  receiver.HandleBatch(*batches[0], 1);
  receiver.HandleBatch(*batches[1], 1);
  EXPECT_EQ(installed.size(), 1u);
  EXPECT_EQ(receiver.stats().dupes_suppressed, 1u);
}

TEST_F(AntiEntropyTest, ClearDropsOutboxesAndInflight) {
  MakeEngine();
  engine_->Start();
  engine_->Enqueue(MakeWrite("k", 10), net::PutMode::kEventual, 0);
  engine_->Clear();  // crash before the first flush
  sim_.RunUntil(sim::kSecond);
  EXPECT_TRUE(SentBatches().empty());
}

}  // namespace
}  // namespace hat::server
