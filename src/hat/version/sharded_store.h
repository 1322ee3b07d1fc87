// ShardedStore: a server's data plane split into N independent
// VersionedStore shards.
//
// The paper's prototype is hash-partitioned (Section 6.3): each cluster
// holds a full copy of the database sharded across its servers. This type
// extends the same hash partitioning *into* a server, so one process can
// host several logical shards whose bookkeeping never couples: every shard
// keeps its own fold cache, digest buckets, and GC frontier, and scans,
// digest repair, and recovery walk only the shards they touch. That
// independence is what lets anti-entropy repair a hot shard without hashing
// cold ones, recovery replay shards separately, and (next) shards run
// concurrently.
//
// Every store has a slot -> logical-shard table. A key's logical shard is
// Fnv1a64(key) % L, L = num_logical_shards() (the cluster partitioner's
// modulus), and the key lives in the slot hosting that logical shard. A
// cluster::Deployment hands server j of n the logical shards
// {j, j + n, j + 2n, ...}, so the *server* owning a key (l % n) is
// independent of the shard count — raising shards_per_server never moves
// keys between servers, it only splits them locally. An empty
// Options::logical_shards is the identity layout of a standalone store:
// slot i hosts logical shard i, L = shards, and every key is owned.
// Replicas of the same keys must agree on L: shard identity is part of the
// digest-repair wire protocol.
//
// Keys of a logical shard this store does not host are detectable
// (TrySlotOfKey/OwnsKey), and live shard migration can AttachShard a
// logical shard this server is receiving or DetachShard one it handed
// away. Slots are never renumbered: a detached slot stays as an empty
// placeholder so slot indices (and the executor lanes derived from them)
// remain stable for the server's lifetime. While the layout matches the
// epoch-0 pattern {base + i*stride} (stride = L / shards), slot-of-key is
// arithmetic (l / stride) confirmed by one vector probe, so the
// non-migrated hot path stays O(1) with no hash-map lookup.

#ifndef HAT_VERSION_SHARDED_STORE_H_
#define HAT_VERSION_SHARDED_STORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hat/version/types.h"
#include "hat/version/versioned_store.h"

namespace hat::version {

class ShardedStore {
 public:
  struct Options {
    /// Number of local shards this store owns (>= 1).
    size_t shards = 1;
    /// Digest buckets *per shard* (see VersionedStore).
    size_t digest_buckets = VersionedStore::kDefaultDigestBuckets;
    /// The logical shard id each local slot hosts (size must equal
    /// `shards`). Empty selects the identity layout: slot i hosts logical
    /// shard i.
    std::vector<uint32_t> logical_shards;
    /// Logical shards per cluster copy (the key-hash modulus). 0 derives
    /// `shards`, which the identity layout requires. A server must pass the
    /// configured cluster-wide L: the modulus never depends on how many
    /// slots one server happens to host.
    size_t num_logical_shards = 0;
  };

  /// Tag of a detached (migrated-away) slot; never a valid logical shard.
  static constexpr uint32_t kNoShard = static_cast<uint32_t>(-1);

  ShardedStore() : ShardedStore(Options{}) {}
  explicit ShardedStore(Options options);

  // ---- shard topology ------------------------------------------------------

  size_t shard_count() const { return shards_.size(); }
  size_t ShardIndexOf(const Key& key) const;
  VersionedStore& shard(size_t i) { return shards_[i]; }
  const VersionedStore& shard(size_t i) const { return shards_[i]; }

  /// Logical shards per cluster copy this store partitions against (fixed
  /// across Attach/Detach).
  uint64_t num_logical_shards() const { return modulus_; }
  /// The logical shard `key` hashes to: Fnv1a64(key) % num_logical_shards().
  /// Defined for every key, owned or not.
  uint32_t LogicalShardOfKey(const Key& key) const;

  /// Slot hosting `key`, or nullopt when this store does not own the key's
  /// logical shard.
  std::optional<size_t> TrySlotOfKey(const Key& key) const;
  bool OwnsKey(const Key& key) const { return TrySlotOfKey(key).has_value(); }

  /// Logical shard id slot `i` hosts — kNoShard for a detached slot.
  uint32_t LogicalTagOfSlot(size_t i) const { return slot_logical_[i]; }
  /// Slot hosting logical shard `logical`, if any.
  std::optional<size_t> SlotOfLogical(uint32_t logical) const;

  /// Adds (or finds) a slot for `logical` and returns its index. Used by
  /// shard migration to stage an incoming shard; the new slot appends after
  /// all existing slots.
  size_t AttachShard(uint32_t logical);
  /// Empties `logical`'s slot and unmaps it. The slot itself remains
  /// (indices are stable); keys of that shard become unowned. No-op if the
  /// shard is not hosted.
  void DetachShard(uint32_t logical);

  /// One 64-bit roll-up hash per shard — round 0 of sharded digest repair
  /// compares these S summaries before any bucket hash crosses the wire.
  std::vector<uint64_t> ShardHashes() const;
  uint64_t ShardTopHash(size_t i) const { return shards_[i].TopHash(); }

  // ---- per-key operations (routed to the owning shard) ---------------------

  bool Apply(const WriteRecord& w) { return ShardFor(w.key).Apply(w); }

  ReadVersion Read(const Key& key,
                   std::optional<Timestamp> bound = std::nullopt) const {
    return ShardFor(key).Read(key, bound);
  }
  std::optional<ReadVersion> ReadAtLeast(const Key& key,
                                         const Timestamp& at_least) const {
    return ShardFor(key).ReadAtLeast(key, at_least);
  }
  std::optional<Timestamp> LatestTimestamp(const Key& key) const {
    return ShardFor(key).LatestTimestamp(key);
  }
  bool Contains(const Key& key, const Timestamp& ts) const {
    return ShardFor(key).Contains(key, ts);
  }
  std::vector<WriteRecord> Versions(const Key& key) const {
    return ShardFor(key).Versions(key);
  }
  std::optional<Timestamp> NthNewestTimestamp(const Key& key, size_t n) const {
    return ShardFor(key).NthNewestTimestamp(key, n);
  }
  std::vector<WriteRecord> VersionsAfter(const Key& key,
                                         const Timestamp& after) const {
    return ShardFor(key).VersionsAfter(key, after);
  }
  template <class Fn>
  void ForEachVersionOf(const Key& key, Fn&& fn) const {
    ShardFor(key).ForEachVersionOf(key, std::forward<Fn>(fn));
  }
  std::optional<Timestamp> NewestPutTimestamp(const Key& key) const {
    return ShardFor(key).NewestPutTimestamp(key);
  }
  std::optional<Timestamp> NewestPutWithin(const Key& key,
                                           size_t max_walk) const {
    return ShardFor(key).NewestPutWithin(key, max_walk);
  }
  size_t GarbageCollect(const Key& key, const Timestamp& before) {
    return ShardFor(key).GarbageCollect(key, before);
  }
  size_t DropVersionsBefore(const Key& key, const Timestamp& before) {
    return ShardFor(key).DropVersionsBefore(key, before);
  }
  size_t VersionCountFor(const Key& key) const {
    return ShardFor(key).VersionCountFor(key);
  }

  // ---- whole-store operations (fan out shard by shard) ---------------------

  /// Range scan over keys in [lo, hi), streamed in ascending key order
  /// across all shards (results are merged; per-shard order alone would
  /// interleave the hash-partitioned keyspaces).
  template <class Fn>
  void ScanVisit(const Key& lo, const Key& hi, std::optional<Timestamp> bound,
                 Fn&& fn) const {
    ScanVisitShardedImpl(lo, hi, bound,
                         [&fn](size_t, const Key& key, ReadVersion rv) {
                           fn(key, std::move(rv));
                         });
  }
  /// ScanVisit variant that also reports each item's owning shard index —
  /// the merge knows it anyway, so per-shard attribution (e.g. charging
  /// scan service time per lane) costs no extra key hashing.
  template <class Fn>
  void ScanVisitSharded(const Key& lo, const Key& hi,
                        std::optional<Timestamp> bound, Fn&& fn) const {
    ScanVisitShardedImpl(lo, hi, bound, fn);
  }
  std::vector<std::pair<Key, ReadVersion>> Scan(
      const Key& lo, const Key& hi,
      std::optional<Timestamp> bound = std::nullopt) const;

  template <class Fn>
  void ForEachLatest(Fn&& fn) const {
    for (const VersionedStore& s : shards_) s.ForEachLatest(fn);
  }
  template <class Fn>
  void ForEachVersion(Fn&& fn) const {
    for (const VersionedStore& s : shards_) s.ForEachVersion(fn);
  }

  /// An arbitrary stored record (first non-empty shard), or nullptr.
  const WriteRecord* AnyRecord() const;

  size_t KeyCount() const;
  size_t VersionCount() const;
  size_t ApproximateBytes() const;

 private:
  VersionedStore& ShardFor(const Key& key) {
    return shards_[ShardIndexOf(key)];
  }
  const VersionedStore& ShardFor(const Key& key) const {
    return shards_[ShardIndexOf(key)];
  }
  template <class Fn>
  void ScanVisitShardedImpl(const Key& lo, const Key& hi,
                            const std::optional<Timestamp>& bound,
                            Fn&& fn) const {
    if (shards_.size() == 1) {
      shards_[0].ScanVisit(lo, hi, bound,
                           [&fn](const Key& key, ReadVersion rv) {
                             fn(size_t{0}, key, std::move(rv));
                           });
      return;
    }
    // Hash partitioning interleaves the key space across shards, so a merged
    // in-order stream gathers each shard's (already key-ordered) results and
    // k-way merges them: O(n log k) comparisons, one comparison per emitted
    // item against the runner-up head. Keys are unique across shards.
    std::vector<std::vector<std::pair<Key, ReadVersion>>> runs(shards_.size());
    for (size_t s = 0; s < shards_.size(); s++) {
      shards_[s].ScanVisit(lo, hi, bound,
                           [&run = runs[s]](const Key& key, ReadVersion rv) {
                             run.emplace_back(key, std::move(rv));
                           });
    }
    // Min-heap of (next key, run index) over the non-exhausted runs.
    std::vector<size_t> pos(runs.size(), 0);
    auto greater = [&](size_t a, size_t b) {
      return runs[a][pos[a]].first > runs[b][pos[b]].first;
    };
    std::vector<size_t> heap;
    for (size_t s = 0; s < runs.size(); s++) {
      if (!runs[s].empty()) heap.push_back(s);
    }
    std::make_heap(heap.begin(), heap.end(), greater);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), greater);
      size_t s = heap.back();
      auto& [key, rv] = runs[s][pos[s]];
      fn(s, key, std::move(rv));
      if (++pos[s] < runs[s].size()) {
        std::push_heap(heap.begin(), heap.end(), greater);
      } else {
        heap.pop_back();
      }
    }
  }

  uint64_t modulus_;  // logical shards per cluster copy
  uint64_t stride_;   // modulus_ / slots at construction
  size_t digest_buckets_;
  bool stride_pattern_ = false;  // layout == {base + i*stride}
  std::vector<VersionedStore> shards_;
  std::vector<uint32_t> slot_logical_;  // tag per slot (kNoShard ok)
  std::unordered_map<uint32_t, size_t> slot_of_logical_;
};

}  // namespace hat::version

#endif  // HAT_VERSION_SHARDED_STORE_H_
