// Direct unit tests for server::LockManager: grant/queue/wait-die decisions
// exercised without a ReplicaServer, network, or simulation — responses are
// captured by the Responder callback.

#include "hat/server/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

namespace hat::server {
namespace {

struct Response {
  Timestamp txn;
  bool granted;
  bool must_abort;
};

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest()
      : locks_([this](const net::Envelope& env, const net::LockResponse& r) {
          const auto& req = std::get<net::LockRequest>(env.msg);
          responses_.push_back(Response{req.txn, r.granted, r.must_abort});
        }) {}

  net::Envelope Request(const Key& key, bool exclusive, Timestamp txn) {
    net::Envelope env;
    env.from = 1;
    env.rpc_id = ++next_rpc_;
    env.msg = net::LockRequest{key, exclusive, txn};
    return env;
  }

  /// Issues a request and returns the immediate response, if any.
  std::optional<Response> Acquire(const Key& key, bool exclusive,
                                  Timestamp txn) {
    size_t before = responses_.size();
    net::Envelope env = Request(key, exclusive, txn);
    locks_.Acquire(env, std::get<net::LockRequest>(env.msg));
    if (responses_.size() == before) return std::nullopt;  // queued
    return responses_.back();
  }

  void Release(std::vector<Key> keys, Timestamp txn) {
    locks_.Release(net::UnlockRequest{std::move(keys), txn});
  }

  LockManager locks_;
  std::vector<Response> responses_;
  uint64_t next_rpc_ = 0;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  EXPECT_TRUE(Acquire("k", false, {1, 1})->granted);
  EXPECT_TRUE(Acquire("k", false, {2, 2})->granted);
  EXPECT_EQ(locks_.stats().granted, 2u);
  EXPECT_EQ(locks_.stats().deaths, 0u);
}

TEST_F(LockManagerTest, YoungerConflictingRequesterDies) {
  EXPECT_TRUE(Acquire("k", false, {1, 1})->granted);
  auto resp = Acquire("k", true, {5, 5});  // younger writer vs older reader
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->granted);
  EXPECT_TRUE(resp->must_abort);
  EXPECT_EQ(locks_.stats().deaths, 1u);
}

TEST_F(LockManagerTest, OlderRequesterQueuesAndIsGrantedOnRelease) {
  EXPECT_TRUE(Acquire("k", true, {10, 1})->granted);
  // Older (smaller ts) waits rather than dying: no immediate response.
  EXPECT_FALSE(Acquire("k", true, {1, 2}).has_value());
  EXPECT_EQ(locks_.stats().queued, 1u);
  Release({"k"}, {10, 1});
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_TRUE(responses_.back().granted);
  EXPECT_EQ(responses_.back().txn, (Timestamp{1, 2}));
}

TEST_F(LockManagerTest, WaitQueueGrantsInFifoOrderUpToFirstExclusive) {
  EXPECT_TRUE(Acquire("k", true, {10, 1})->granted);
  // Three older waiters: S, X, S — all older than the holder and than every
  // exclusive waiter ahead of them (wait-die lets them queue).
  EXPECT_FALSE(Acquire("k", false, {3, 1}).has_value());
  EXPECT_FALSE(Acquire("k", true, {2, 1}).has_value());
  EXPECT_FALSE(Acquire("k", false, {1, 1}).has_value());
  Release({"k"}, {10, 1});
  // FIFO: the shared waiter at the head is granted; the exclusive waiter
  // behind it stays queued until that shared holder releases too.
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_.back().txn, (Timestamp{3, 1}));
  EXPECT_TRUE(responses_.back().granted);
  Release({"k"}, {3, 1});
  ASSERT_EQ(responses_.size(), 3u);
  EXPECT_EQ(responses_.back().txn, (Timestamp{2, 1}));
  EXPECT_TRUE(responses_.back().granted);
  // The trailing shared waiter was blocked behind the X all along.
  Release({"k"}, {2, 1});
  ASSERT_EQ(responses_.size(), 4u);
  EXPECT_EQ(responses_.back().txn, (Timestamp{1, 1}));
  EXPECT_TRUE(responses_.back().granted);
}

TEST_F(LockManagerTest, NewSharedRequestDoesNotOvertakeQueuedWriter) {
  EXPECT_TRUE(Acquire("k", false, {5, 1})->granted);
  // Older writer queues behind the reader.
  EXPECT_FALSE(Acquire("k", true, {2, 1}).has_value());
  // A younger reader now conflicts with the queued writer and dies instead
  // of overtaking it (starvation protection).
  auto resp = Acquire("k", false, {7, 1});
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->must_abort);
}

TEST_F(LockManagerTest, ReentrantAndUpgradeGrants) {
  EXPECT_TRUE(Acquire("k", true, {3, 3})->granted);
  EXPECT_TRUE(Acquire("k", true, {3, 3})->granted);   // re-entrant X
  EXPECT_TRUE(Acquire("k", false, {3, 3})->granted);  // S under own X
  Release({"k"}, {3, 3});
  EXPECT_TRUE(Acquire("k", false, {4, 4})->granted);
  EXPECT_TRUE(Acquire("k", true, {4, 4})->granted);  // sole-S upgrade
}

TEST_F(LockManagerTest, ReleasePurgesAbortedWaiter) {
  EXPECT_TRUE(Acquire("k", true, {10, 1})->granted);
  EXPECT_FALSE(Acquire("k", true, {1, 2}).has_value());
  // The waiter's transaction aborts elsewhere and releases: it must leave
  // the queue without ever being granted.
  Release({"k"}, {1, 2});
  Release({"k"}, {10, 1});
  EXPECT_EQ(responses_.size(), 1u);
  EXPECT_EQ(locks_.LockedKeyCount(), 0u);
}

TEST_F(LockManagerTest, ClearDropsLocksButKeepsStats) {
  EXPECT_TRUE(Acquire("k", true, {3, 3})->granted);
  locks_.Clear();
  EXPECT_EQ(locks_.LockedKeyCount(), 0u);
  EXPECT_EQ(locks_.stats().granted, 1u);
  // After a crash the table is empty: a younger txn can lock immediately.
  EXPECT_TRUE(Acquire("k", true, {9, 9})->granted);
}

}  // namespace
}  // namespace hat::server
