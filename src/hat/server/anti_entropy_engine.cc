#include "hat/server/anti_entropy_engine.h"

#include <algorithm>
#include <set>
#include <utility>

namespace hat::server {

namespace {
constexpr size_t kAppliedBatchMemory = 4096;
constexpr sim::Duration kMaxBackoff = 8 * sim::kSecond;

using version::VersionedStore;
}  // namespace

net::ShardDigest ShardDigestOf(const version::ShardedStore& store) {
  net::ShardDigest digest;
  for (size_t s = 0; s < store.shard_count(); s++) {
    uint32_t tag = store.LogicalTagOfSlot(s);
    if (tag == version::ShardedStore::kNoShard) continue;
    digest.shards.push_back(net::ShardHash{tag, store.ShardTopHash(s)});
  }
  return digest;
}

AntiEntropyEngine::AntiEntropyEngine(sim::Simulation& sim, net::NodeId id,
                                     const Partitioner* partitioner,
                                     const version::ShardedStore& good,
                                     Options options, SendFn send,
                                     InstallFn install)
    : sim_(sim),
      id_(id),
      partitioner_(partitioner),
      good_(good),
      options_(options),
      send_(std::move(send)),
      install_(std::move(install)),
      rng_(Fnv1a64(static_cast<uint64_t>(id)) ^ 0x5e53a11e) {}

void AntiEntropyEngine::Start() {
  // Stagger recurring timers per server so deterministic runs do not
  // synchronize every server's background work on the same tick.
  if (options_.push_enabled) {
    sim::Duration offset = (id_ * 97) % options_.flush_interval + 1;
    sim_.After(offset, [this]() { FlushTick(); });
  }
  if (options_.digest_sync_interval > 0) {
    sim::Duration doffset = (id_ * 173) % options_.digest_sync_interval + 1;
    sim_.After(doffset, [this]() { DigestSyncTick(); });
  }
}

void AntiEntropyEngine::Enqueue(const WriteRecord& w, net::PutMode mode,
                                net::NodeId except, obs::TraceContext trace) {
  if (!options_.push_enabled) return;
  // Each peer's outbox is split by the key's logical shard, so every flushed
  // batch is shard-homogeneous and tagged.
  uint32_t tag = good_.LogicalShardOfKey(w.key);
  for (net::NodeId peer : partitioner_->ReplicasOf(w.key)) {
    if (peer == id_ || peer == except) continue;
    outbox_[OutboxKey{peer, tag}].push_back(OutboxItem{w, mode, trace});
  }
}

void AntiEntropyEngine::FlushTick() {
  for (auto& [key, queue] : outbox_) {
    const auto& [peer, tag] = key;
    while (!queue.empty()) {
      net::AntiEntropyBatch batch;
      batch.batch_id = NextBatchId();
      batch.mode = queue.front().mode;
      batch.shard = tag;
      // The batch inherits the first traced item's context: one traced
      // write is enough to pull the whole batch flight into its span tree.
      obs::TraceContext trace;
      while (!queue.empty() && queue.front().mode == batch.mode &&
             batch.writes.size() < options_.batch_max) {
        if (!trace.active() && queue.front().trace.active()) {
          trace = queue.front().trace;
        }
        batch.writes.push_back(std::move(queue.front().write));
        queue.pop_front();
      }
      stats_.records_out += batch.writes.size();
      stats_.batches_out++;
      inflight_.emplace(batch.batch_id,
                        InFlightBatch{peer, batch, sim_.Now(),
                                      options_.retry_interval});
      send_(peer, std::move(batch), trace);
    }
  }
  // Retransmit stragglers (lost to partitions) with exponential backoff.
  // The retransmitted batch is the stored original — same id, same shard
  // tag — so a retry lands on the same executor lane as the first attempt.
  for (auto& [batch_id, flight] : inflight_) {
    if (sim_.Now() - flight.sent_at >= flight.backoff) {
      flight.sent_at = sim_.Now();
      flight.backoff = std::min(flight.backoff * 2, kMaxBackoff);
      stats_.retransmits++;
      send_(flight.peer, flight.batch, {});
    }
  }
  sim_.After(options_.flush_interval, [this]() { FlushTick(); });
}

void AntiEntropyEngine::HandleBatch(const net::AntiEntropyBatch& batch,
                                    net::NodeId from, obs::TraceContext trace) {
  stats_.batches_in++;
  send_(from, net::AntiEntropyAck{batch.batch_id}, {});
  if (applied_batches_.count(batch.batch_id) ||
      applied_batches_prev_.count(batch.batch_id)) {
    stats_.dupes_suppressed++;
    return;  // retransmit dupe
  }
  applied_batches_.insert(batch.batch_id);
  if (applied_batches_.size() >= kAppliedBatchMemory) {
    applied_batches_prev_ = std::move(applied_batches_);
    applied_batches_.clear();
    stats_.dedupe_rotations++;
  }
  for (const auto& w : batch.writes) {
    stats_.records_in++;
    install_(w, batch.mode, from, trace);
  }
}

std::vector<net::NodeId> AntiEntropyEngine::PeerReplicas() const {
  // Replicas share shards key-wise. With untouched cluster-per-copy
  // sharding every shard's peer set is the same, but once a shard migrated,
  // its replicas in other clusters differ from its host's other shards' —
  // so the peer pool is the union of each hosted shard's replica set (one
  // stored key per shard determines it). Ticks still pick one random peer;
  // shards it does not replicate simply drop out of that round's exchange.
  std::set<net::NodeId> peers;
  for (size_t s = 0; s < good_.shard_count(); s++) {
    if (const WriteRecord* w = good_.shard(s).AnyRecord()) {
      for (net::NodeId r : partitioner_->ReplicasOf(w->key)) {
        if (r != id_) peers.insert(r);
      }
    }
  }
  return std::vector<net::NodeId>(peers.begin(), peers.end());
}

void AntiEntropyEngine::DigestSyncTick() {
  auto peers = PeerReplicas();
  if (!peers.empty()) {
    net::NodeId peer = peers[rng_.NextBelow(peers.size())];
    stats_.digest_ticks++;
    // Round 0: one roll-up hash per hosted logical shard. A fully in-sync
    // peer answers with silence; a diff confined to one shard pulls bucket
    // hashes for that shard only.
    SendDigestMessage(peer, ShardDigestOf(good_), /*entries=*/0);
  }
  sim_.After(options_.digest_sync_interval, [this]() { DigestSyncTick(); });
}

void AntiEntropyEngine::SendDigestMessage(net::NodeId to, net::Message msg,
                                          size_t entries) {
  stats_.digest_entries_out += entries;
  stats_.digest_bytes_out += net::WireBytes(msg);
  send_(to, std::move(msg), {});
}

void AntiEntropyEngine::HandleShardDigest(const net::ShardDigest& digest,
                                          net::NodeId from) {
  // Round 0 -> round 1: answer with our bucket hashes for each shard whose
  // roll-up summary disagrees; matching shards drop out of the protocol
  // before any of their bucket hashes are even serialized. Shards the
  // sender advertises but we do not host (live migration moved them) are
  // skipped — their owner repairs them.
  for (const net::ShardHash& theirs : digest.shards) {
    auto slot = good_.SlotOfLogical(theirs.shard);
    if (!slot) continue;
    if (theirs.hash == good_.ShardTopHash(*slot)) continue;
    net::BucketDigest bd;
    bd.shard = theirs.shard;
    bd.hashes = good_.shard(*slot).BucketHashes();
    SendDigestMessage(from, std::move(bd), /*entries=*/0);
  }
}

void AntiEntropyEngine::HandleBucketDigest(const net::BucketDigest& digest,
                                           net::NodeId from) {
  // Round 1 -> round 2: advertise our per-key digests for the buckets whose
  // hashes disagree (either side missing or stale there); matching buckets
  // are in sync and drop out of the protocol entirely.
  auto slot = good_.SlotOfLogical(digest.shard);
  if (!slot) return;  // not hosted here (topology mismatch or migration)
  const VersionedStore& store = good_.shard(*slot);
  net::DigestRequest scoped;
  scoped.shard = digest.shard;
  size_t n = std::min(digest.hashes.size(), store.digest_buckets());
  for (size_t b = 0; b < n; b++) {
    if (digest.hashes[b] == store.BucketHash(b)) continue;
    scoped.buckets.push_back(static_cast<uint32_t>(b));
    store.ForEachLatestInBucket(b, [&](const Key& key, const Timestamp& ts) {
      scoped.latest.emplace_back(key, ts);
    });
  }
  if (scoped.buckets.empty()) return;  // shard fully in sync
  size_t entries = scoped.latest.size();
  SendDigestMessage(from, std::move(scoped), entries);
}

void AntiEntropyEngine::BackfillBucket(
    size_t shard, size_t bucket, const std::map<Key, Timestamp>& theirs,
    const std::function<void(const WriteRecord&)>& add) const {
  const VersionedStore& store = good_.shard(shard);
  store.ForEachLatestInBucket(
      bucket, [&](const Key& key, const Timestamp& ours) {
        auto it = theirs.find(key);
        if (it != theirs.end() && ours <= it->second) return;  // they have it
        Timestamp after = it == theirs.end() ? kInitialVersion : it->second;
        for (const WriteRecord& w : store.VersionsAfter(key, after)) add(w);
      });
}

void AntiEntropyEngine::HandleDigest(const net::DigestRequest& req,
                                     net::NodeId from) {
  // Send back every version the requester is missing in the request's
  // (shard, buckets), in bounded batches tagged with that shard
  // (unacknowledged one-shot batches: the requester's next digest will
  // re-trigger anything lost).
  if (req.buckets.empty()) return;  // names no buckets: nothing to compare
  auto slot = good_.SlotOfLogical(req.shard);
  if (!slot) return;  // not hosted (topology or migration)
  const VersionedStore& store = good_.shard(*slot);
  std::vector<uint32_t> buckets;  // the requested buckets that exist here
  std::vector<char> in_scope(store.digest_buckets(), 0);
  for (uint32_t b : req.buckets) {
    if (b >= in_scope.size()) continue;
    buckets.push_back(b);
    in_scope[b] = 1;
  }
  std::map<Key, Timestamp> theirs;
  for (const auto& [k, ts] : req.latest) theirs.emplace(k, ts);

  net::AntiEntropyBatch batch;
  batch.batch_id = NextBatchId();
  batch.shard = req.shard;
  size_t batch_bytes = 0;
  auto flush = [this, from, &req, &batch, &batch_bytes]() {
    if (batch.writes.empty()) return;
    stats_.records_out += batch.writes.size();
    stats_.batches_out++;
    send_(from, std::move(batch), {});
    batch = net::AntiEntropyBatch();
    batch.batch_id = NextBatchId();
    batch.shard = req.shard;
    batch_bytes = 0;
  };
  auto add = [this, &batch, &batch_bytes, &flush](const WriteRecord& w) {
    batch.writes.push_back(w);
    batch_bytes += net::WriteRecordWireBytes(w);
    if (batch.writes.size() >= options_.batch_max ||
        (options_.batch_max_bytes > 0 &&
         batch_bytes >= options_.batch_max_bytes)) {
      flush();
    }
  };
  for (uint32_t b : buckets) BackfillBucket(*slot, b, theirs, add);
  flush();

  // Reverse direction: if the requester advertises data we lack, answer
  // with our own digest for the same (shard, buckets) (one round only) so
  // it pushes the difference back.
  if (!req.reply_allowed) return;
  bool missing = false;
  for (const auto& [k, ts] : req.latest) {
    if (good_.TrySlotOfKey(k) != slot || !in_scope[store.BucketOf(k)]) {
      continue;
    }
    auto ours = store.LatestTimestamp(k);
    if (!ours || *ours < ts) {
      missing = true;
      break;
    }
  }
  if (!missing) return;
  net::DigestRequest mine;
  mine.reply_allowed = false;
  mine.shard = req.shard;
  mine.buckets = req.buckets;
  for (uint32_t b : buckets) {
    store.ForEachLatestInBucket(b, [&](const Key& key, const Timestamp& ts) {
      mine.latest.emplace_back(key, ts);
    });
  }
  size_t entries = mine.latest.size();
  SendDigestMessage(from, std::move(mine), entries);
}

void AntiEntropyEngine::Clear() {
  outbox_.clear();
  inflight_.clear();
  applied_batches_.clear();
  applied_batches_prev_.clear();
}

}  // namespace hat::server
