// Direct unit tests for server::PersistenceManager: good/pending write-through
// round trips a real LocalStore, without a ReplicaServer in the loop.

#include "hat/server/persistence_manager.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "hat/net/codec.h"
#include "hat/storage/local_store.h"

namespace hat::server {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name) {
    path_ = fs::temp_directory_path() /
            ("hatkv_persist_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string path() const { return path_.string(); }

 private:
  fs::path path_;
};

WriteRecord MakeWrite(const Key& key, uint64_t logical, const Value& value) {
  WriteRecord w;
  w.key = key;
  w.value = value;
  w.ts = {logical, 7};
  w.sibs = {key, "sibling"};
  return w;
}

struct Recovered {
  std::vector<std::pair<size_t, WriteRecord>> good;
  std::vector<std::pair<size_t, WriteRecord>> pending;
};

Recovered Recover(PersistenceManager& pm,
                  const std::vector<uint32_t>& shards = {0}) {
  Recovered out;
  Status s = pm.Recover(
      shards,
      [&](size_t shard, const WriteRecord& w) {
        out.good.emplace_back(shard, w);
      },
      [&](size_t shard, const WriteRecord& w) {
        out.pending.emplace_back(shard, w);
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(PersistenceManagerTest, DisabledManagerIsInert) {
  PersistenceManager pm("");
  EXPECT_FALSE(pm.enabled());
  pm.PersistGood(0, MakeWrite("k", 1, "v"));  // must not crash
  pm.PersistPending(0, MakeWrite("k", 2, "v"));
  pm.ErasePersistedPending(0, MakeWrite("k", 2, "v"));
  Status s = pm.Recover({0}, [](size_t, const WriteRecord&) {},
                        [](size_t, const WriteRecord&) {});
  EXPECT_FALSE(s.ok());
}

TEST(PersistenceManagerTest, GoodAndPendingSurviveReopen) {
  TempDir dir("roundtrip");
  {
    PersistenceManager pm(dir.path());
    ASSERT_TRUE(pm.enabled());
    pm.PersistGood(0, MakeWrite("a", 1, "va"));
    pm.PersistPending(0, MakeWrite("b", 2, "vb"));
  }
  PersistenceManager pm(dir.path());
  Recovered r = Recover(pm);
  ASSERT_EQ(r.good.size(), 1u);
  EXPECT_EQ(r.good[0].second.key, "a");
  EXPECT_EQ(r.good[0].second.value, "va");
  EXPECT_EQ(r.good[0].second.ts, (Timestamp{1, 7}));
  EXPECT_EQ(r.good[0].second.sibs, (std::vector<Key>{"a", "sibling"}));
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].second.key, "b");
}

TEST(PersistenceManagerTest, ErasePendingRemovesOnlyThatVersion) {
  TempDir dir("erase");
  PersistenceManager pm(dir.path());
  WriteRecord keep = MakeWrite("k", 1, "keep");
  WriteRecord gone = MakeWrite("k", 2, "gone");
  pm.PersistPending(0, keep);
  pm.PersistPending(0, gone);
  pm.ErasePersistedPending(0, gone);
  Recovered r = Recover(pm);
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].second.value, "keep");
}

TEST(PersistenceManagerTest, PromotionMovesPendingToGood) {
  TempDir dir("promote");
  PersistenceManager pm(dir.path());
  WriteRecord w = MakeWrite("k", 3, "v");
  pm.PersistPending(0, w);
  // Promotion path: good copy written, pending copy erased.
  pm.PersistGood(0, w);
  pm.ErasePersistedPending(0, w);
  Recovered r = Recover(pm);
  EXPECT_TRUE(r.pending.empty());
  ASSERT_EQ(r.good.size(), 1u);
  EXPECT_EQ(r.good[0].second.ts, (Timestamp{3, 7}));
}

TEST(PersistenceManagerTest, RecoveryCallbacksMayPersistAgain) {
  TempDir dir("reentrant");
  PersistenceManager pm(dir.path());
  pm.PersistPending(0, MakeWrite("k", 1, "v"));
  // A pending record re-entering the MAV pipeline persists itself again
  // mid-recovery; the scan must not observe its own writes.
  size_t seen = 0;
  Status s = pm.Recover({0}, [](size_t, const WriteRecord&) {},
                        [&](size_t, const WriteRecord& w) {
                          seen++;
                          pm.PersistPending(0, w);
                        });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(seen, 1u);
}

TEST(PersistenceManagerTest, RecoverySkipsUndecodableRecord) {
  TempDir dir("corrupt");
  {
    PersistenceManager pm(dir.path());
    pm.PersistGood(0, MakeWrite("a", 1, "va"));
    pm.PersistGood(0, MakeWrite("c", 2, "vc"));
    pm.PersistPending(0, MakeWrite("d", 3, "vd"));
  }
  {
    // A value under each record keyspace that is no WriteRecord: one
    // truncated, one with a stray byte after a well-formed record.
    auto disk = storage::LocalStore::Open(dir.path());
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE(disk.value()->Put("g/0000/b", "\x05tru").ok());
    std::string overlong;
    net::codec::EncodeWriteRecord(MakeWrite("e", 4, "ve"), &overlong);
    overlong.push_back('\0');
    ASSERT_TRUE(disk.value()->Put("p/0000/e", overlong).ok());
  }
  PersistenceManager pm(dir.path());
  Recovered r = Recover(pm);
  ASSERT_EQ(r.good.size(), 2u);
  EXPECT_EQ(r.good[0].second.key, "a");
  EXPECT_EQ(r.good[1].second.key, "c");
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].second.key, "d");
  EXPECT_EQ(pm.recover_stats().tail_records, 2u);
  EXPECT_EQ(pm.recover_stats().pending_records, 1u);
  EXPECT_EQ(pm.recover_stats().undecodable_records, 2u);
}

TEST(PersistenceManagerTest, ShardKeyspacesAreDisjoint) {
  // Records persisted under different shards recover shard by shard: a
  // RecoverShard replays exactly its shard's records, and the full Recover
  // tags each record with the shard it was persisted under.
  TempDir dir("shards");
  PersistenceManager pm(dir.path());
  pm.PersistGood(0, MakeWrite("a", 1, "v0"));
  pm.PersistGood(1, MakeWrite("b", 2, "v1"));
  pm.PersistGood(2, MakeWrite("c", 3, "v2"));
  pm.PersistPending(1, MakeWrite("d", 4, "p1"));

  std::vector<Key> shard1_good, shard1_pending;
  ASSERT_TRUE(pm.RecoverShard(
                    1,
                    [&](const WriteRecord& w) {
                      shard1_good.push_back(w.key);
                    },
                    [&](const WriteRecord& w) {
                      shard1_pending.push_back(w.key);
                    })
                  .ok());
  EXPECT_EQ(shard1_good, (std::vector<Key>{"b"}));
  EXPECT_EQ(shard1_pending, (std::vector<Key>{"d"}));

  Recovered all = Recover(pm, {0, 1, 2});
  ASSERT_EQ(all.good.size(), 3u);
  for (const auto& [shard, w] : all.good) {
    if (w.key == "a") {
      EXPECT_EQ(shard, 0u);
    } else if (w.key == "b") {
      EXPECT_EQ(shard, 1u);
    } else if (w.key == "c") {
      EXPECT_EQ(shard, 2u);
    }
  }
  ASSERT_EQ(all.pending.size(), 1u);
  EXPECT_EQ(all.pending[0].first, 1u);
  // A Recover scoped to fewer shards replays only those prefixes.
  Recovered partial = Recover(pm, {0});
  ASSERT_EQ(partial.good.size(), 1u);
  EXPECT_EQ(partial.good[0].second.key, "a");
}

TEST(PersistenceManagerTest, CheckpointBoundsRecoveryToTail) {
  TempDir dir("checkpoint");
  PersistenceManager pm(dir.path());
  // A long good history for one key plus a survivor for another.
  std::vector<WriteRecord> live;
  for (uint64_t t = 1; t <= 20; t++) pm.PersistGood(0, MakeWrite("a", t, "v"));
  pm.PersistGood(0, MakeWrite("b", 1, "vb"));
  // In-memory GC kept only the newest version of "a"; checkpoint snapshots
  // exactly the live set.
  live.push_back(MakeWrite("a", 20, "v"));
  live.push_back(MakeWrite("b", 1, "vb"));
  ASSERT_TRUE(pm.CheckpointShard(0, /*epoch=*/3,
                                 [&](const auto& sink) {
                                   for (const auto& w : live) sink(w);
                                 })
                  .ok());
  auto marker = pm.ReadCheckpointMarker(0);
  ASSERT_TRUE(marker.ok());
  EXPECT_EQ(marker->epoch, 3u);
  EXPECT_EQ(marker->records, 2u);

  // Tail written after the checkpoint.
  pm.PersistGood(0, MakeWrite("a", 21, "v21"));

  Recovered r = Recover(pm);
  // 2 checkpoint records + 1 tail record — not the 21-version history.
  ASSERT_EQ(r.good.size(), 3u);
  EXPECT_EQ(pm.recover_stats().checkpoint_records, 2u);
  EXPECT_EQ(pm.recover_stats().tail_records, 1u);
}

TEST(PersistenceManagerTest, RecheckpointDropsDeadVersions) {
  TempDir dir("recheckpoint");
  PersistenceManager pm(dir.path());
  auto checkpoint = [&](std::vector<WriteRecord> live) {
    ASSERT_TRUE(pm.CheckpointShard(0, 0,
                                   [&](const auto& sink) {
                                     for (const auto& w : live) sink(w);
                                   })
                    .ok());
  };
  checkpoint({MakeWrite("a", 1, "v1"), MakeWrite("a", 2, "v2")});
  // Version (a, 1) died (GC) before the second checkpoint: its old
  // checkpoint record must not resurface on recovery.
  checkpoint({MakeWrite("a", 2, "v2"), MakeWrite("c", 5, "vc")});
  Recovered r = Recover(pm);
  ASSERT_EQ(r.good.size(), 2u);
  EXPECT_EQ(r.good[0].second.key, "a");
  EXPECT_EQ(r.good[0].second.ts, (Timestamp{2, 7}));
  EXPECT_EQ(r.good[1].second.key, "c");
}

TEST(PersistenceManagerTest, CheckpointSurvivesReopenAndErase) {
  TempDir dir("checkpoint_reopen");
  {
    PersistenceManager pm(dir.path());
    pm.PersistGood(0, MakeWrite("a", 1, "va"));
    ASSERT_TRUE(pm.CheckpointShard(0, 1,
                                   [&](const auto& sink) {
                                     sink(MakeWrite("a", 1, "va"));
                                   })
                    .ok());
    EXPECT_TRUE(pm.HasShardData());  // checkpoint records count as data
  }
  PersistenceManager pm(dir.path());
  Recovered r = Recover(pm);
  ASSERT_EQ(r.good.size(), 1u);
  EXPECT_EQ(r.good[0].second.value, "va");
  // EraseShard tombstones the checkpoint keyspace and its marker too.
  ASSERT_TRUE(pm.EraseShard(0).ok());
  EXPECT_FALSE(pm.HasShardData());
  EXPECT_FALSE(pm.ReadCheckpointMarker(0).ok());
  Recovered empty = Recover(pm);
  EXPECT_TRUE(empty.good.empty());
}

}  // namespace
}  // namespace hat::server
