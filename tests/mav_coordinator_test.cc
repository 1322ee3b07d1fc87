// Direct unit tests for server::MavCoordinator, constructed without a
// ReplicaServer: NOTIFY traffic is captured by the SendFn and gossip by the
// GossipFn, so the Appendix B pending/good protocol is driven by hand.

#include "hat/server/mav_coordinator.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace hat::server {
namespace {

class MavCoordinatorTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kSelf = 1;
  static constexpr net::NodeId kPeer = 2;

  void MakeCoordinator(std::vector<net::NodeId> replicas = {kSelf, kPeer},
                       MavCoordinator::Options opts = {}) {
    partitioner_ = std::make_unique<FixedPartitioner>(std::move(replicas));
    mav_ = std::make_unique<MavCoordinator>(
        sim_, kSelf, partitioner_.get(), good_, persistence_, opts,
        [this](net::NodeId to, net::Message m, obs::TraceContext) {
          notifies_.emplace_back(to, std::get<net::NotifyRequest>(m));
        },
        [this](const WriteRecord& w, net::NodeId, obs::TraceContext) {
          gossiped_.push_back(w);
        },
        [](const Key&) {});
  }

  WriteRecord MakeWrite(const Key& key, uint64_t logical,
                        std::vector<Key> sibs) {
    WriteRecord w;
    w.key = key;
    w.value = "v";
    w.ts = {logical, 7};
    w.sibs = std::move(sibs);
    return w;
  }

  sim::Simulation sim_{1};
  std::unique_ptr<FixedPartitioner> partitioner_;
  version::ShardedStore good_;
  PersistenceManager persistence_{""};  // disabled: pure in-memory protocol
  std::unique_ptr<MavCoordinator> mav_;
  std::vector<std::pair<net::NodeId, net::NotifyRequest>> notifies_;
  std::vector<WriteRecord> gossiped_;
};

TEST_F(MavCoordinatorTest, SelfOnlyReplicaPromotesImmediately) {
  MakeCoordinator({kSelf});
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->stats().promotions, 1u);
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
}

TEST_F(MavCoordinatorTest, PendingUntilPeerAcks) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  // Our own ack went out to the peer; the write stays hidden.
  ASSERT_EQ(notifies_.size(), 1u);
  EXPECT_EQ(notifies_[0].first, kPeer);
  EXPECT_FALSE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->PendingWriteCount(), 1u);
  EXPECT_NE(mav_->PendingVersion("k", {10, 7}), nullptr);
  // Peer's ack arrives: pending-stable -> promoted.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  EXPECT_EQ(mav_->PendingVersion("k", {10, 7}), nullptr);
}

TEST_F(MavCoordinatorTest, AcksOnlyAfterAllLocalSiblingsArrive) {
  MakeCoordinator();
  mav_->Install(MakeWrite("a", 10, {"a", "b"}), /*gossip=*/true);
  // "b" is also replicated here (FixedPartitioner replicates every key
  // everywhere) and has not arrived: no ack may be broadcast yet.
  EXPECT_TRUE(notifies_.empty());
  mav_->Install(MakeWrite("b", 10, {"a", "b"}), /*gossip=*/true);
  ASSERT_EQ(notifies_.size(), 1u);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_TRUE(good_.Contains("a", {10, 7}));
  EXPECT_TRUE(good_.Contains("b", {10, 7}));
  EXPECT_EQ(mav_->stats().promotions, 1u);
}

TEST_F(MavCoordinatorTest, EarlyAckCountsTowardPromotion) {
  MakeCoordinator();
  // The peer's NOTIFY races ahead of the write itself.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  // Install finds the early ack and, with our own, promotes at once.
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, LateAckForPromotedTxnIsAnswered) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  ASSERT_TRUE(good_.Contains("k", {10, 7}));
  notifies_.clear();
  // A healed replica re-notifies after we dropped ack state: answer it so it
  // can promote too.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  ASSERT_EQ(notifies_.size(), 1u);
  EXPECT_EQ(notifies_[0].first, kPeer);
  EXPECT_EQ(notifies_[0].second.sender, kSelf);
}

TEST_F(MavCoordinatorTest, ReplyPromotesPendingReplica) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  ASSERT_FALSE(good_.Contains("k", {10, 7}));
  // A promoted peer's answer still counts as its ack.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer, /*reply=*/true});
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, EarlyReplyCountsTowardPromotion) {
  MakeCoordinator();
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer, /*reply=*/true});
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, ReplyToPromotedReplicaIsNotAnswered) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  ASSERT_TRUE(good_.Contains("k", {10, 7}));
  notifies_.clear();
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer, /*reply=*/true});
  EXPECT_TRUE(notifies_.empty());
  EXPECT_EQ(mav_->stats().notify_replies, 0u);
}

TEST_F(MavCoordinatorTest, SendCountersSplitAcksFromRenotifies) {
  MavCoordinator::Options opts;
  opts.renotify_interval = 100 * sim::kMillisecond;
  MakeCoordinator({kSelf, kPeer, 3}, opts);
  mav_->Start();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  EXPECT_EQ(mav_->stats().acks_sent, 2u);
  EXPECT_EQ(mav_->stats().renotifies, 0u);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  // Every tick renotifies only the replica still missing.
  sim_.RunUntil(sim::kSecond);
  EXPECT_EQ(mav_->stats().acks_sent, 2u);
  EXPECT_GE(mav_->stats().renotifies, 9u);
  EXPECT_EQ(notifies_.size(), 2u + mav_->stats().renotifies);
  for (size_t i = 2; i < notifies_.size(); i++) {
    EXPECT_EQ(notifies_[i].first, 3u);
    EXPECT_FALSE(notifies_[i].second.reply);
  }
}

TEST_F(MavCoordinatorTest, AckSetFollowsPlacementEpoch) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  ASSERT_EQ(notifies_.size(), 1u);
  // Live migration moves the peer copy of "k" from kPeer to node 3.
  partitioner_->SetReplicas("k", {kSelf, 3});
  partitioner_->set_epoch(1);
  // The old replica's ack no longer completes the set...
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_FALSE(good_.Contains("k", {10, 7}));
  // ...the new replica's does.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, 3});
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, AckSetIsCachedWithinAnEpoch) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  // A placement change without an epoch bump is not observed: the ack set
  // resolved at install time still applies.
  partitioner_->SetReplicas("k", {kSelf, 3});
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, RenotifyTargetsTheCurrentAckSet) {
  MavCoordinator::Options opts;
  opts.renotify_interval = 100 * sim::kMillisecond;
  MakeCoordinator({kSelf, kPeer}, opts);
  mav_->Start();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  partitioner_->SetReplicas("k", {kSelf, 3});
  partitioner_->set_epoch(1);
  notifies_.clear();
  sim_.RunUntil(50 * sim::kMillisecond);  // the first tick only
  ASSERT_EQ(notifies_.size(), 1u);
  EXPECT_EQ(notifies_[0].first, 3u);
}

TEST_F(MavCoordinatorTest, StalePendingDroppedButStillAcked) {
  MakeCoordinator();
  good_.Apply(MakeWrite("k", 50, {}));  // newer good version exists
  mav_->Install(MakeWrite("k", 40, {"k"}), /*gossip=*/true);
  EXPECT_EQ(mav_->stats().stale_pending_dropped, 1u);
  EXPECT_EQ(mav_->PendingVersion("k", {40, 7}), nullptr);
  // The ack still went out so siblings elsewhere can promote.
  ASSERT_EQ(notifies_.size(), 1u);
}

TEST_F(MavCoordinatorTest, RenotifyRebroadcastsUntilAcked) {
  MavCoordinator::Options opts;
  opts.renotify_interval = 100 * sim::kMillisecond;
  MakeCoordinator({kSelf, kPeer}, opts);
  mav_->Start();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  size_t initial = notifies_.size();
  sim_.RunUntil(sim::kSecond);
  EXPECT_GT(notifies_.size(), initial) << "renotify must re-broadcast";
  for (const auto& [to, req] : notifies_) {
    EXPECT_EQ(to, kPeer);
    EXPECT_EQ(req.ts, (Timestamp{10, 7}));
  }
  // Once acked, the rebroadcast stops.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  size_t settled = notifies_.size();
  sim_.RunUntil(2 * sim::kSecond);
  EXPECT_EQ(notifies_.size(), settled);
}

TEST_F(MavCoordinatorTest, DuplicateInstallIsIdempotent) {
  MakeCoordinator();
  WriteRecord w = MakeWrite("k", 10, {"k"});
  mav_->Install(w, /*gossip=*/true);
  mav_->Install(w, /*gossip=*/true);  // anti-entropy redundancy
  EXPECT_EQ(mav_->PendingWriteCount(), 1u);
  EXPECT_EQ(gossiped_.size(), 1u);
}

TEST_F(MavCoordinatorTest, ClearDropsPendingState) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  mav_->Clear();
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  EXPECT_EQ(mav_->PendingVersion("k", {10, 7}), nullptr);
}

// Two coordinators wired back to back: each one's SendFn delivers to the
// other's HandleNotify after a one-hop delay on a shared sim. Neither is
// Started, so no renotify timer runs and the sim drains once the notify
// exchange ends.
class MavPairTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kA = 1;
  static constexpr net::NodeId kB = 2;
  static constexpr sim::Duration kHop = sim::kMillisecond;

  struct Replica {
    version::ShardedStore good;
    PersistenceManager persistence{""};
    std::unique_ptr<MavCoordinator> mav;
  };
  struct Sent {
    net::NodeId from;
    net::NodeId to;
    net::NotifyRequest req;
  };

  MavPairTest() {
    for (net::NodeId id : {kA, kB}) {
      Replica& r = replica(id);
      r.mav = std::make_unique<MavCoordinator>(
          sim_, id, &partitioner_, r.good, r.persistence,
          MavCoordinator::Options{},
          [this, id](net::NodeId to, net::Message m, obs::TraceContext) {
            auto req = std::get<net::NotifyRequest>(m);
            sent_.push_back({id, to, req});
            if (!deliver_) return;
            sim_.After(kHop, [this, to, req]() {
              replica(to).mav->HandleNotify(req);
            });
          },
          [](const WriteRecord&, net::NodeId, obs::TraceContext) {},
          [](const Key&) {});
    }
  }

  Replica& replica(net::NodeId id) { return id == kA ? a_ : b_; }

  /// Runs the sim for a bounded time: a notify exchange that never ends
  /// fails the assertions below instead of hanging the test.
  void Drain() { sim_.RunUntil(sim_.Now() + 10 * sim::kSecond); }

  static WriteRecord Write() {
    WriteRecord w;
    w.key = "k";
    w.value = "v";
    w.ts = {10, 7};
    w.sibs = {"k"};
    return w;
  }

  sim::Simulation sim_{1};
  FixedPartitioner partitioner_{{kA, kB}};
  Replica a_;
  Replica b_;
  std::vector<Sent> sent_;
  bool deliver_ = true;  // false: sends are recorded, then lost
};

TEST_F(MavPairTest, LateNotifyBetweenPromotedReplicasGetsOneReply) {
  a_.mav->Install(Write(), /*gossip=*/false);
  b_.mav->Install(Write(), /*gossip=*/false);
  Drain();
  ASSERT_TRUE(a_.good.Contains("k", {10, 7}));
  ASSERT_TRUE(b_.good.Contains("k", {10, 7}));
  ASSERT_EQ(sent_.size(), 2u);  // one ack each way
  sent_.clear();

  // A late (non-reply) notify from B, e.g. a renotify that crossed B's own
  // promotion, reaches A after both have promoted.
  a_.mav->HandleNotify(net::NotifyRequest{{10, 7}, kB});
  Drain();
  ASSERT_EQ(sent_.size(), 1u) << "a reply to a promoted replica was answered";
  EXPECT_EQ(sent_[0].from, kA);
  EXPECT_EQ(sent_[0].to, kB);
  EXPECT_TRUE(sent_[0].req.reply);
  EXPECT_EQ(a_.mav->stats().notify_replies, 1u);
  EXPECT_EQ(b_.mav->stats().notify_replies, 0u);
}

TEST_F(MavPairTest, ReplyToRenotifyPromotesTheLaggingReplica) {
  // A partition drops both first acks. A still promotes (B's ack reaches it
  // by hand); B stays pending.
  deliver_ = false;
  a_.mav->Install(Write(), /*gossip=*/false);
  a_.mav->HandleNotify(net::NotifyRequest{{10, 7}, kB});
  b_.mav->Install(Write(), /*gossip=*/false);
  ASSERT_TRUE(a_.good.Contains("k", {10, 7}));
  ASSERT_FALSE(b_.good.Contains("k", {10, 7}));

  // The partition heals; B's renotify reaches A, and A's reply promotes B.
  deliver_ = true;
  sent_.clear();
  a_.mav->HandleNotify(net::NotifyRequest{{10, 7}, kB});
  Drain();
  EXPECT_TRUE(b_.good.Contains("k", {10, 7}));
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].to, kB);
  EXPECT_TRUE(sent_[0].req.reply);
}

}  // namespace
}  // namespace hat::server
