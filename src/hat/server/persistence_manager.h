// PersistenceManager: write-through durability for one replica server.
//
// Installed (good) and not-yet-stable (MAV pending) versions are persisted
// under distinct per-shard keyspace prefixes in a hat::storage::LocalStore
// ("g/<shard>/..." and "p/<shard>/..."), so a crashed replica can rebuild
// both its visible state and its in-flight Appendix B pipeline from disk —
// shard by shard, replaying only the shards the server hosts. Each stored
// value is the record in net::codec's WriteRecord encoding, the same bytes
// it occupies in a message body, so disk and wire share one validating
// decoder. The shard
// component of the keyspace is the *logical* shard id (stable across live
// migration and independent of local slot numbering), and a manifest
// records the layout the keyspace was written under
// ({shards_per_server, placement stride, placement epoch, owned logical
// shards}): recovery validates the manifest against the server's current
// configuration and refuses to replay on mismatch instead of silently
// scrambling records across shards. Live migration reshards the keyspace
// explicitly — the destination persists the incoming shard under its
// logical prefix, the source EraseShard-tombstones its copy after cutover.
// When constructed without a directory the manager is disabled and every
// call is a no-op — benchmarks model durability purely as service time
// (ServiceCosts::wal_sync_us) without doing real IO.

#ifndef HAT_SERVER_PERSISTENCE_MANAGER_H_
#define HAT_SERVER_PERSISTENCE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hat/common/result.h"
#include "hat/common/status.h"
#include "hat/storage/local_store.h"
#include "hat/version/types.h"

namespace hat::server {

/// Where a recovery's records came from — checkpoint vs WAL-tail vs pending.
/// Monotonic across RecoverShard calls; the recovery-time tests assert the
/// tail component stays proportional to writes-since-checkpoint, not total
/// history.
struct RecoverStats {
  uint64_t checkpoint_records = 0;
  uint64_t tail_records = 0;
  uint64_t pending_records = 0;
  /// Stored values under any record keyspace that did not decode as a
  /// WriteRecord; skipped, so each is a record recovery lost.
  uint64_t undecodable_records = 0;
};

/// The durable marker a completed checkpoint leaves behind.
struct CheckpointInfo {
  uint64_t epoch = 0;    ///< placement epoch the snapshot was taken under
  uint64_t records = 0;  ///< live versions written into the checkpoint
};

/// The durable layout descriptor guarding the per-shard keyspace.
struct PersistenceManifest {
  uint32_t shards_per_server = 1;
  uint32_t stride = 1;
  /// Placement epoch at the last ownership change (informational — a
  /// recovering server may lag the cluster's epoch, but a manifest from the
  /// future is refused as corruption).
  uint64_t epoch = 0;
  /// Logical shard ids this server's keyspace holds, in slot order.
  std::vector<uint32_t> owned;
};

class PersistenceManager {
 public:
  /// Opens (or creates) a LocalStore rooted at `dir`. Empty `dir` disables
  /// persistence entirely.
  explicit PersistenceManager(const std::string& dir);

  /// True when writes actually reach disk.
  bool enabled() const { return disk_ != nullptr; }

  /// Persists a revealed (good-set) version under `shard`'s prefix
  /// (`shard` is the key's logical shard id).
  void PersistGood(size_t shard, const WriteRecord& w);

  /// Persists a pending (MAV, not yet stable) version under `shard`'s
  /// prefix.
  void PersistPending(size_t shard, const WriteRecord& w);

  /// Runs `fn` under a single WAL group commit: every record persisted
  /// inside pays one shared durability point instead of one sync each —
  /// the batched wire path's discipline for shard-homogeneous anti-entropy
  /// batches and client envelope batches. A no-op wrapper (fn still runs)
  /// when persistence is disabled.
  void GroupCommit(const std::function<void()>& fn);

  /// GroupCommit scopes completed so far (0 when persistence is disabled).
  uint64_t group_commits() const;

  /// Removes the pending copy of `w` once its transaction promoted.
  void ErasePersistedPending(size_t shard, const WriteRecord& w);

  // ---- layout manifest -----------------------------------------------------

  /// Writes (or rewrites) the layout manifest.
  Status WriteManifest(const PersistenceManifest& m);

  /// Reads the layout manifest; kNotFound when none was ever written.
  Result<PersistenceManifest> ReadManifest() const;

  /// True when any shard record (good or pending) exists on disk — the
  /// guard distinguishing "reshaping an empty store" (safe, manifest is
  /// rewritten) from "reshaping live data" (refused).
  bool HasShardData() const;

  /// Deletes every persisted record (good, pending, checkpoint, and the
  /// checkpoint marker) of one logical shard's keyspace — the source-side
  /// tombstone after migration cutover.
  Status EraseShard(size_t shard);

  // ---- checkpoints ---------------------------------------------------------

  /// Replaces `shard`'s good-version history with a snapshot of its live
  /// versions, bounding recovery replay to checkpoint + tail instead of
  /// every version ever installed. `for_each_live` is called once with a
  /// sink and must stream every live version of the shard into it (it runs
  /// before any delete, so the callback may read but not write this store).
  ///
  /// Crash-safe by write ordering: (1) snapshot records land under the
  /// checkpoint prefix, (2) stale checkpoint records from the previous
  /// checkpoint are deleted, (3) the marker commits the checkpoint, (4) the
  /// good-history prefix is truncated, (5) the backing store flushes so its
  /// own WAL truncates. A crash between any two steps recovers correctly
  /// because replay applies checkpoint records *then* the good tail, and
  /// version insertion is idempotent per (key, ts): a half-written snapshot
  /// alongside the untruncated history folds to the same state — a GC-folded
  /// synthetic Put shares its timestamp with the newest version it folded,
  /// so whichever copy replays first shadows the other identically.
  Status CheckpointShard(
      size_t shard, uint64_t epoch,
      const std::function<
          void(const std::function<void(const WriteRecord&)>&)>& for_each_live);

  /// Reads `shard`'s checkpoint marker; kNotFound when the shard was never
  /// checkpointed.
  Result<CheckpointInfo> ReadCheckpointMarker(size_t shard) const;

  /// Source breakdown of everything replayed so far (see RecoverStats).
  const RecoverStats& recover_stats() const { return stats_; }

  // ---- recovery ------------------------------------------------------------

  /// Replays one shard's durable state: its checkpoint snapshot (if any) and
  /// then its good-version tail are streamed to `good` (mid-scan — the good
  /// callback must NOT write back to this store), then its pending versions
  /// are streamed to `pending` in storage-key order. Pending callbacks run
  /// after the scans complete, so they may persist again (the MAV pipeline
  /// re-persists re-entering writes). A stored value that does not decode
  /// as a WriteRecord is skipped and the rest still replay.
  Status RecoverShard(size_t shard,
                      const std::function<void(const WriteRecord&)>& good,
                      const std::function<void(const WriteRecord&)>& pending);

  /// Replays exactly the listed logical shards (the manifest's owned set):
  /// RecoverShard per shard, callbacks receiving the shard each record was
  /// persisted under.
  Status Recover(
      const std::vector<uint32_t>& shards,
      const std::function<void(size_t shard, const WriteRecord&)>& good,
      const std::function<void(size_t shard, const WriteRecord&)>& pending);

 private:
  void Persist(std::string_view kind, std::vector<std::string>& prefixes,
               size_t shard, const WriteRecord& w);
  /// The cached "<kind>/<shard>/" storage prefix (built once per shard —
  /// the persist path runs per installed write and must not re-format it).
  static const std::string& CachedPrefix(std::vector<std::string>& prefixes,
                                         std::string_view kind, size_t shard);

  std::unique_ptr<storage::LocalStore> disk_;
  std::vector<std::string> good_prefixes_;
  std::vector<std::string> pending_prefixes_;
  RecoverStats stats_;
};

}  // namespace hat::server

#endif  // HAT_SERVER_PERSISTENCE_MANAGER_H_
