#include "hat/server/persistence_manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "hat/common/codec.h"
#include "hat/net/codec.h"

namespace hat::server {

namespace {
constexpr std::string_view kCheckpointKind = "c";
constexpr std::string_view kGoodKind = "g";
constexpr std::string_view kPendingKind = "p";
// Sorts between the "g/" and "p/" keyspaces, so record scans never see it.
constexpr std::string_view kManifestKey = "manifest";
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kCheckpointMarkerVersion = 1;

/// "k/002a" — the marker committing shard 0x2a's checkpoint. The "k" kind
/// holds no records, so record scans never see markers.
std::string CheckpointMarkerKey(size_t shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k/%04zx", shard);
  return buf;
}

/// "g/002a/" — fixed-width hex keeps shard prefixes disjoint and ordered.
std::string ShardPrefix(std::string_view kind, size_t shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s/%04zx/", std::string(kind).c_str(),
                shard);
  return buf;
}

/// Exclusive upper bound for a shard-prefix scan ('/' + 1 == '0').
std::string ShardPrefixEnd(std::string_view kind, size_t shard) {
  std::string end = ShardPrefix(kind, shard);
  end.back() = '0';
  return end;
}

/// Appends the per-version suffix of a record's storage key: one distinct
/// key per (key, ts), grouped by key. Recovery never parses it (the stored
/// record carries its own key and timestamp); replay order within a key
/// does not matter because VersionedStore::Apply re-sorts.
void AppendStorageKey(const WriteRecord& w, std::string* sk) {
  PutLengthPrefixed(sk, w.key);
  PutFixed64(sk, w.ts.logical);
  PutFixed32(sk, w.ts.client_id);
  PutFixed32(sk, w.ts.seq);
}
}  // namespace

PersistenceManager::PersistenceManager(const std::string& dir) {
  if (dir.empty()) return;
  auto store = storage::LocalStore::Open(dir);
  if (store.ok()) disk_ = std::move(store).value();
}

const std::string& PersistenceManager::CachedPrefix(
    std::vector<std::string>& prefixes, std::string_view kind, size_t shard) {
  if (shard >= prefixes.size()) prefixes.resize(shard + 1);
  if (prefixes[shard].empty()) prefixes[shard] = ShardPrefix(kind, shard);
  return prefixes[shard];
}

void PersistenceManager::Persist(std::string_view kind,
                                 std::vector<std::string>& prefixes,
                                 size_t shard, const WriteRecord& w) {
  if (!disk_) return;
  std::string sk = CachedPrefix(prefixes, kind, shard);
  AppendStorageKey(w, &sk);
  std::string value;
  net::codec::EncodeWriteRecord(w, &value);
  (void)disk_->Put(sk, value);
}

void PersistenceManager::PersistGood(size_t shard, const WriteRecord& w) {
  Persist(kGoodKind, good_prefixes_, shard, w);
}

void PersistenceManager::PersistPending(size_t shard, const WriteRecord& w) {
  Persist(kPendingKind, pending_prefixes_, shard, w);
}

void PersistenceManager::GroupCommit(const std::function<void()>& fn) {
  if (!disk_) {
    fn();
    return;
  }
  (void)disk_->GroupCommit([&fn]() {
    fn();
    return Status::Ok();
  });
}

uint64_t PersistenceManager::group_commits() const {
  return disk_ ? disk_->stats().group_commits : 0;
}

void PersistenceManager::ErasePersistedPending(size_t shard,
                                               const WriteRecord& w) {
  if (!disk_) return;
  std::string sk = CachedPrefix(pending_prefixes_, kPendingKind, shard);
  AppendStorageKey(w, &sk);
  (void)disk_->Delete(sk);
}

Status PersistenceManager::WriteManifest(const PersistenceManifest& m) {
  if (!disk_) return Status::Ok();
  std::string encoded;
  PutFixed32(&encoded, kManifestVersion);
  PutFixed32(&encoded, m.shards_per_server);
  PutFixed32(&encoded, m.stride);
  PutFixed64(&encoded, m.epoch);
  PutVarint32(&encoded, static_cast<uint32_t>(m.owned.size()));
  for (uint32_t shard : m.owned) PutFixed32(&encoded, shard);
  return disk_->Put(kManifestKey, encoded);
}

Result<PersistenceManifest> PersistenceManager::ReadManifest() const {
  if (!disk_) return Status::Unsupported("server has no storage directory");
  auto raw = disk_->Get(kManifestKey);
  if (!raw.ok()) return raw.status();
  std::string_view in = raw.value();
  if (in.size() < 20 || DecodeFixed32(in.data()) != kManifestVersion) {
    return Status::Corruption("persistence manifest: bad header");
  }
  PersistenceManifest m;
  m.shards_per_server = DecodeFixed32(in.data() + 4);
  m.stride = DecodeFixed32(in.data() + 8);
  m.epoch = DecodeFixed64(in.data() + 12);
  in.remove_prefix(20);
  auto count = GetVarint32(&in);
  // Divide rather than multiply: `*count * 4` can wrap in 32 bits and let
  // a corrupt count through the guard.
  if (!count || in.size() / 4 < *count) {
    return Status::Corruption("persistence manifest: truncated owned set");
  }
  m.owned.reserve(*count);
  for (uint32_t i = 0; i < *count; i++) {
    m.owned.push_back(DecodeFixed32(in.data() + 4 * i));
  }
  return m;
}

bool PersistenceManager::HasShardData() const {
  if (!disk_) return false;
  bool found = false;
  for (std::string_view kind : {kCheckpointKind, kGoodKind, kPendingKind}) {
    std::string lo(kind);
    lo += '/';
    std::string hi(kind);
    hi += '0';  // '/' + 1: upper bound of every "<kind>/..." key
    (void)disk_->Scan(lo, hi, [&found](std::string_view, std::string_view) {
      found = true;  // LocalStore::Scan has no early exit; cheap enough here
    });
    if (found) return true;
  }
  return false;
}

Status PersistenceManager::EraseShard(size_t shard) {
  if (!disk_) return Status::Ok();
  for (std::string_view kind : {kCheckpointKind, kGoodKind, kPendingKind}) {
    // Collect first: deleting mutates the memtable mid-scan.
    std::vector<std::string> doomed;
    HAT_RETURN_IF_ERROR(disk_->Scan(
        ShardPrefix(kind, shard), ShardPrefixEnd(kind, shard),
        [&doomed](std::string_view sk, std::string_view) {
          doomed.emplace_back(sk);
        }));
    for (const auto& sk : doomed) HAT_RETURN_IF_ERROR(disk_->Delete(sk));
  }
  return disk_->Delete(CheckpointMarkerKey(shard));
}

Status PersistenceManager::CheckpointShard(
    size_t shard, uint64_t epoch,
    const std::function<void(const std::function<void(const WriteRecord&)>&)>&
        for_each_live) {
  if (!disk_) return Status::Ok();
  // (0) Remember the previous checkpoint's keys; any not re-written below
  // belongs to a version that has since been GC'd and must go.
  std::vector<std::string> stale;
  const std::string cp_prefix = ShardPrefix(kCheckpointKind, shard);
  HAT_RETURN_IF_ERROR(disk_->Scan(
      cp_prefix, ShardPrefixEnd(kCheckpointKind, shard),
      [&stale](std::string_view sk, std::string_view) {
        stale.emplace_back(sk);
      }));
  std::sort(stale.begin(), stale.end());
  // (1) Write the snapshot. Keys are deterministic per (key, ts), so
  // re-writing a surviving version overwrites its previous checkpoint copy
  // in place.
  uint64_t records = 0;
  Status write_status = Status::Ok();
  std::vector<std::string> survived;  // stale keys re-written by this snapshot
  for_each_live([&](const WriteRecord& w) {
    if (!write_status.ok()) return;
    std::string sk = cp_prefix;
    AppendStorageKey(w, &sk);
    if (std::binary_search(stale.begin(), stale.end(), sk)) {
      survived.push_back(sk);
    }
    std::string value;
    net::codec::EncodeWriteRecord(w, &value);
    write_status = disk_->Put(sk, value);
    records++;
  });
  HAT_RETURN_IF_ERROR(write_status);
  // (2) Drop checkpoint records whose versions died since the last one.
  std::sort(survived.begin(), survived.end());
  for (const std::string& sk : stale) {
    if (!std::binary_search(survived.begin(), survived.end(), sk)) {
      HAT_RETURN_IF_ERROR(disk_->Delete(sk));
    }
  }
  // (3) Commit: the marker is the only record recovery trusts to mean "the
  // snapshot under c/ is complete".
  std::string marker;
  PutFixed32(&marker, kCheckpointMarkerVersion);
  PutFixed64(&marker, epoch);
  PutFixed64(&marker, records);
  HAT_RETURN_IF_ERROR(disk_->Put(CheckpointMarkerKey(shard), marker));
  // (4) Truncate the good-version history the snapshot supersedes.
  std::vector<std::string> doomed;
  HAT_RETURN_IF_ERROR(disk_->Scan(
      ShardPrefix(kGoodKind, shard), ShardPrefixEnd(kGoodKind, shard),
      [&doomed](std::string_view sk, std::string_view) {
        doomed.emplace_back(sk);
      }));
  for (const auto& sk : doomed) HAT_RETURN_IF_ERROR(disk_->Delete(sk));
  // (5) Fold the deletes into the backing store's sorted runs so its own
  // recovery WAL truncates too — the on-disk footprint and the replay cost
  // both shrink to live data, not history.
  return disk_->Flush();
}

Result<CheckpointInfo> PersistenceManager::ReadCheckpointMarker(
    size_t shard) const {
  if (!disk_) return Status::Unsupported("server has no storage directory");
  auto raw = disk_->Get(CheckpointMarkerKey(shard));
  if (!raw.ok()) return raw.status();
  std::string_view in = raw.value();
  if (in.size() < 20 || DecodeFixed32(in.data()) != kCheckpointMarkerVersion) {
    return Status::Corruption("checkpoint marker: bad header");
  }
  CheckpointInfo info;
  info.epoch = DecodeFixed64(in.data() + 4);
  info.records = DecodeFixed64(in.data() + 12);
  return info;
}

Status PersistenceManager::RecoverShard(
    size_t shard, const std::function<void(const WriteRecord&)>& good,
    const std::function<void(const WriteRecord&)>& pending) {
  if (!disk_) return Status::Unsupported("server has no storage directory");
  // Streams every record of one "<kind>/<shard>/" keyspace to `sink`,
  // counting it in `*count`. A stored value that does not decode is
  // counted as undecodable and skipped: one corrupt record must not block
  // replay of the rest.
  auto scan = [this, shard](std::string_view kind, uint64_t* count,
                            auto&& sink) {
    return disk_->Scan(ShardPrefix(kind, shard), ShardPrefixEnd(kind, shard),
                       [this, count, &sink](std::string_view,
                                            std::string_view value) {
                         WriteRecord w;
                         if (!net::codec::DecodeWriteRecord(value, &w)) {
                           stats_.undecodable_records++;
                           return;
                         }
                         (*count)++;
                         sink(std::move(w));
                       });
  };
  // Checkpoint snapshot first, then the good tail written since it. Both
  // feed the same `good` sink: version insertion is idempotent per
  // (key, ts), so overlap from a crash mid-checkpoint is harmless.
  auto to_good = [&good](WriteRecord&& w) { good(w); };
  HAT_RETURN_IF_ERROR(
      scan(kCheckpointKind, &stats_.checkpoint_records, to_good));
  HAT_RETURN_IF_ERROR(scan(kGoodKind, &stats_.tail_records, to_good));
  // Buffer pending records: the callback typically re-enters the MAV
  // pipeline, which persists (writes to this store) — illegal mid-scan.
  std::vector<WriteRecord> buffered;
  HAT_RETURN_IF_ERROR(scan(kPendingKind, &stats_.pending_records,
                           [&buffered](WriteRecord&& w) {
                             buffered.push_back(std::move(w));
                           }));
  for (const auto& w : buffered) pending(w);
  return Status::Ok();
}

Status PersistenceManager::Recover(
    const std::vector<uint32_t>& shards,
    const std::function<void(size_t shard, const WriteRecord&)>& good,
    const std::function<void(size_t shard, const WriteRecord&)>& pending) {
  if (!disk_) return Status::Unsupported("server has no storage directory");
  stats_ = {};  // recover_stats() describes the most recent full recovery
  for (uint32_t s : shards) {
    HAT_RETURN_IF_ERROR(RecoverShard(
        s, [&good, s](const WriteRecord& w) { good(s, w); },
        [&pending, s](const WriteRecord& w) { pending(s, w); }));
  }
  return Status::Ok();
}

}  // namespace hat::server
