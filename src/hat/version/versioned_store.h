// Multi-version key-value state with last-writer-wins registers and
// commutative deltas.
//
// A replica's state for each key is a *set of versions* ordered by the
// globally-unique transaction timestamp. Because the fold over a version set
// is deterministic and insertion is a set-union, two replicas that receive
// the same writes in any order converge to the same value — this is the
// paper's convergence/eventual-consistency guarantee (Section 5.1.4) and its
// total order on writes per item (Read Uncommitted, Section 5.1.1).
//
// Storage layout (the raw-speed core). The hot path runs on integers and
// contiguous memory, never on string-keyed tree nodes:
//
//  * Key interning — a per-store open-addressing hash (KeyInterner) maps key
//    bytes to a dense uint32 id exactly once; per-key state lives in a plain
//    vector indexed by id. One FNV-1a hash per operation serves both the
//    interner probe and the digest bucket, replacing the former
//    O(log n)-string-compares std::map walk.
//
//  * Arena version chains — each key's versions are a sorted std::vector of
//    fixed-size VersionRec entries (timestamp + kind + payload span); the
//    variable-length payload (value bytes plus encoded sibling/dependency
//    metadata) lives in a chunked RecordArena. In-timestamp-order Apply (the
//    common case) is an amortized O(1) append; bounded reads binary-search
//    the contiguous chain. GC marks payload bytes dead and the arena is
//    compacted by copy once majority-dead.
//
//  * Ordered-scan index — scans and digests need byte-order key iteration,
//    which hashing destroys, so the store keeps a lazily re-sorted id index:
//    new ids append unsorted and the first ordered operation sorts the tail
//    and merges (amortized O(new·log new)); steady-state scans pay nothing.
//    Scan/digest enumeration order is byte-identical to the old map walk.
//
// Two structures keep the steady-state cost proportional to the *diff*, not
// the dataset:
//
//  * Fold cache — the folded ReadVersion over a key's full version set is
//    memoized per key. In-order Apply updates the memo incrementally in
//    O(1); out-of-order inserts and GC invalidate it. Bound-free Read /
//    ScanVisit / ReadAtLeast are then O(1) past the interner probe.
//
//  * Bucketed digest — every key hashes into one of digest_buckets() buckets;
//    each bucket maintains an order-independent XOR hash over its
//    (key, latest-timestamp) entries, patched incrementally on every
//    mutation, plus a key-ordered member list so mismatched buckets
//    enumerate in O(bucket size). The entry-hash and enumeration order are
//    unchanged from the map-based layout: digest wire bytes are identical.
//
// The hottest visitors (ScanVisit, ForEachLatest, ForEachLatestInBucket,
// ForEachVersion, ForEachVersionOf) take the callable as a template
// parameter so the per-element call inlines.

#ifndef HAT_VERSION_VERSIONED_STORE_H_
#define HAT_VERSION_VERSIONED_STORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hat/common/rng.h"
#include "hat/version/key_interner.h"
#include "hat/version/record_arena.h"
#include "hat/version/types.h"

namespace hat::version {

/// Per-key multi-version storage.
class VersionedStore {
 public:
  /// Default digest bucket count. Sized so a ~100k-key store keeps bucket
  /// populations around 100 keys: a small diff then touches few buckets and
  /// round 2 of digest repair ships ~(diff x bucket-size) entries instead of
  /// the whole keyspace.
  static constexpr size_t kDefaultDigestBuckets = 1024;

  /// `digest_buckets` must be > 0 and identical on every replica that
  /// exchanges digests with this store (bucket membership is part of the
  /// wire protocol).
  explicit VersionedStore(size_t digest_buckets = kDefaultDigestBuckets)
      : buckets_(digest_buckets == 0 ? 1 : digest_buckets) {}

  /// Inserts a version. Duplicate (key, ts) insertions are idempotent —
  /// required because anti-entropy may deliver a write many times. Returns
  /// true if the version was new.
  bool Apply(const WriteRecord& w);

  /// Reads the folded value at the newest version with ts <= bound (or the
  /// newest version overall if bound is nullopt). `found=false` with the
  /// initial version if no such version exists. Defined inline so the
  /// bound-free path (one interner probe + cached-fold copy) inlines into
  /// callers.
  ReadVersion Read(const Key& key,
                   std::optional<Timestamp> bound = std::nullopt) const {
    const KeyState* st = StateOf(key);
    if (!st) return ReadVersion{};
    if (!bound) return CachedFold(*st);
    return FoldVisible(*st, bound);
  }

  /// Reads the folded value at the *exact* base set ending at the newest
  /// version >= `at_least` (used by MAV pending reads). Returns nullopt if
  /// the store holds no version of `key` with ts >= at_least.
  std::optional<ReadVersion> ReadAtLeast(const Key& key,
                                         const Timestamp& at_least) const;

  /// Highest version timestamp stored for `key` (nullopt if none).
  std::optional<Timestamp> LatestTimestamp(const Key& key) const;

  /// True if the exact version (key, ts) is stored.
  bool Contains(const Key& key, const Timestamp& ts) const;

  /// All versions currently stored for `key`, ascending timestamp order.
  std::vector<WriteRecord> Versions(const Key& key) const;

  /// Timestamp of the n-th newest version of `key` (n=0 -> newest);
  /// nullopt when fewer than n+1 versions exist. O(1) on the chain vector.
  std::optional<Timestamp> NthNewestTimestamp(const Key& key, size_t n) const;

  /// Range scan over keys in [lo, hi): folded value of each present key,
  /// using the same bound semantics as Read(). Used for predicate reads.
  std::vector<std::pair<Key, ReadVersion>> Scan(
      const Key& lo, const Key& hi,
      std::optional<Timestamp> bound = std::nullopt) const;

  /// Visitor form of Scan(): streams each (key, folded version) without
  /// materializing an intermediate vector. Hot path for server-side scans.
  /// The callable is a template parameter so the per-element call inlines.
  template <class Fn>
  void ScanVisit(const Key& lo, const Key& hi, std::optional<Timestamp> bound,
                 Fn&& fn) const {
    ScanVisitImpl(lo, hi, bound, fn);
  }

  /// Versions of `key` with timestamp strictly greater than `after`; used by
  /// anti-entropy to ship missing versions.
  std::vector<WriteRecord> VersionsAfter(const Key& key,
                                         const Timestamp& after) const;

  /// Streams every (key, latest timestamp) pair in key order, without
  /// copying keys. Hot path for periodic digest-sync ticks.
  template <class Fn>
  void ForEachLatest(Fn&& fn) const {
    ForEachLatestImpl(fn);
  }

  /// Iterates every stored version in key order, ascending timestamp within
  /// a key (anti-entropy full sync, snapshot streaming, tests). The visited
  /// record is materialized into scratch storage that is reused between
  /// calls — copy it if it must outlive the visit.
  template <class Fn>
  void ForEachVersion(Fn&& fn) const {
    ForEachVersionImpl(fn);
  }

  /// Visitor form of Versions(): streams `key`'s versions in ascending
  /// timestamp order. Same scratch-reuse caveat as ForEachVersion.
  template <class Fn>
  void ForEachVersionOf(const Key& key, Fn&& fn) const {
    ForEachVersionOfImpl(key, fn);
  }

  /// An arbitrary stored record (the first in key order), or nullptr when
  /// the store is empty. Used to derive shard-wide facts (e.g. the
  /// peer-replica set) without walking every version. The record is
  /// materialized into store-owned scratch: valid until the next AnyRecord
  /// call.
  const WriteRecord* AnyRecord() const;

  // ---- bucketed digest -----------------------------------------------------

  /// Number of digest buckets this store was constructed with.
  size_t digest_buckets() const { return buckets_.size(); }

  /// Digest bucket a key belongs to in this store.
  size_t BucketOf(const Key& key) const {
    return DigestBucketOf(key, buckets_.size());
  }

  /// Incremental hash of one bucket: XOR over H(key, latest-ts) of every key
  /// in it. Two stores agree on a bucket's hash iff (modulo 64-bit
  /// collisions) they hold the same latest version for every key in it.
  uint64_t BucketHash(size_t bucket) const { return buckets_[bucket].hash; }

  /// All digest_buckets() bucket hashes (round 1 of bucketed digest repair).
  std::vector<uint64_t> BucketHashes() const;

  /// Roll-up hash over all bucket hashes — one 64-bit summary of the store's
  /// whole latest-version digest. Two stores with equal TopHash() hold the
  /// same latest version for every key (modulo hash collisions). O(buckets);
  /// the per-shard round-0 comparison of sharded digest repair.
  uint64_t TopHash() const;

  /// Streams (key, latest-ts) for the keys of one bucket only — round 2 of
  /// digest repair enumerates just the mismatched buckets. O(bucket size),
  /// in byte order of the keys (the digest wire order).
  template <class Fn>
  void ForEachLatestInBucket(size_t bucket, Fn&& fn) const {
    ForEachLatestInBucketImpl(bucket, fn);
  }

  /// Number of keys currently hashed into `bucket`.
  size_t BucketKeyCount(size_t bucket) const {
    return buckets_[bucket].members.size();
  }

  // --------------------------------------------------------------------------

  /// Drops all versions of `key` with ts < `before` except the newest Put at
  /// or below `before` (the fold below `before` collapses into one Put).
  /// Returns number of versions dropped. NOTE: folding deltas into a
  /// synthetic Put is only safe when no version below `before` can still
  /// arrive (e.g. single store, or a coordinated stability frontier);
  /// replicated servers should use DropVersionsBefore(NewestPutTimestamp)
  /// instead, which is unconditionally convergence-safe.
  size_t GarbageCollect(const Key& key, const Timestamp& before);

  /// Timestamp of the newest kPut version of `key` (nullopt if none).
  std::optional<Timestamp> NewestPutTimestamp(const Key& key) const;

  /// Like NewestPutTimestamp but inspects at most the newest `max_walk`
  /// versions (O(max_walk)); nullopt if no Put among them.
  std::optional<Timestamp> NewestPutWithin(const Key& key,
                                           size_t max_walk) const;

  /// Erases versions strictly older than `before` without folding. Safe for
  /// replicated stores when `before` is the newest Put's timestamp: any late
  /// write below a Put is shadowed by it on every replica, so dropping the
  /// prefix cannot change any replica's folded value.
  size_t DropVersionsBefore(const Key& key, const Timestamp& before);

  size_t KeyCount() const { return states_.size(); }
  size_t VersionCount() const;
  size_t VersionCountFor(const Key& key) const;

  /// Bytes of stored records (values + sibling metadata + fixed per-version
  /// overhead) plus currently-valid fold-cache copies. Record bytes and
  /// fold bytes are both added and removed symmetrically, so GC returns the
  /// figure to the same baseline a never-bloated store reports.
  size_t ApproximateBytes() const { return approx_bytes_ + fold_bytes_; }

 private:
  /// Digest bucket a key belongs to among `buckets` (stable hash of the key
  /// bytes).
  static size_t DigestBucketOf(const Key& key, size_t buckets);
  /// Hash contribution of one (key, latest-ts) digest entry.
  static uint64_t DigestEntryHash(const Key& key, const Timestamp& ts);

  /// One stored version: fixed-size, chains are contiguous vectors of these.
  /// The payload is [encoded sibs/deps meta][value bytes] in the arena;
  /// value_off > 0 iff sibling/dependency metadata is present.
  struct VersionRec {
    Timestamp ts;
    const char* payload = nullptr;
    uint32_t payload_len = 0;
    uint32_t value_off = 0;
    uint32_t charged = 0;  ///< bytes charged to approx_bytes_
    WriteKind kind = WriteKind::kPut;
  };

  struct KeyState {
    std::vector<VersionRec> versions;  // ascending timestamp
    // Memoized fold over the full version set (bound-free reads). `mutable`:
    // reads are const but warm the cache.
    mutable ReadVersion fold;
    mutable bool fold_valid = false;
  };

  // Per digest bucket: incremental XOR hash + the bucket's member ids kept
  // sorted by key bytes (so mismatched buckets enumerate in O(bucket size)
  // in the exact wire order the map-based layout produced).
  struct BucketState {
    uint64_t hash = 0;
    std::vector<uint32_t> members;
  };

  static std::string_view ValueOf(const VersionRec& r) {
    return {r.payload + r.value_off, r.payload_len - r.value_off};
  }

  /// Id of `key` if present, else KeyInterner::kNotFound.
  uint32_t IdOf(const Key& key) const { return keys_.Find(key); }
  const KeyState* StateOf(const Key& key) const {
    uint32_t id = IdOf(key);
    return id == KeyInterner::kNotFound ? nullptr : &states_[id];
  }

  /// First index with ts >= `ts` / ts > `ts` in st's (sorted) chain.
  static size_t LowerBoundIdx(const KeyState& st, const Timestamp& ts);
  static size_t UpperBoundIdx(const KeyState& st, const Timestamp& ts);

  static std::optional<Timestamp> LatestOf(const KeyState& st) {
    if (st.versions.empty()) return std::nullopt;
    return st.versions.back().ts;
  }

  /// Builds the arena-backed record for `w` (writes the payload).
  VersionRec MakeRec(const WriteRecord& w);
  /// Decodes r's sibling/dependency metadata (no-op when value_off == 0).
  static void DecodeMeta(const VersionRec& r, std::vector<Key>& sibs,
                         std::vector<Dependency>& deps);
  /// Rebuilds the full WriteRecord for a stored version into `out`,
  /// reusing out's existing heap capacity.
  static void MaterializeInto(std::string_view key, const VersionRec& r,
                              WriteRecord& out);

  /// Fold over st.versions[0, end): the newest Put overlaid with later
  /// Deltas, carrying the newest contributing record's ts/sibs/deps.
  ReadVersion FoldUpTo(const KeyState& st, size_t end) const;
  /// The memoized full fold for `st`, computing it on a cold cache.
  const ReadVersion& CachedFold(const KeyState& st) const {
    if (!st.fold_valid) SetFold(st, FoldUpTo(st, st.versions.size()));
    return st.fold;
  }
  /// Read()'s core: cached full fold, or a bounded partial fold.
  ReadVersion FoldVisible(const KeyState& st,
                          const std::optional<Timestamp>& bound) const;

  /// Fold-cache bookkeeping (keeps fold_bytes_ consistent).
  void SetFold(const KeyState& st, ReadVersion rv) const;
  void InvalidateFold(const KeyState& st) const;
  static size_t FoldBytes(const ReadVersion& rv);

  static uint64_t DigestEntryHashParts(uint64_t key_hash, const Timestamp& ts);
  /// Re-points `key`'s digest entry from latest-ts `was` to `now` (either
  /// may be nullopt for absent), XOR-patching the bucket hash in O(1) and
  /// the member list only on presence changes.
  void PatchDigest(uint32_t id, uint64_t key_hash,
                   const std::optional<Timestamp>& was,
                   const std::optional<Timestamp>& now);

  /// Erases versions [first, last) of `st` with byte accounting; returns
  /// the count. Caller patches digest + fold.
  size_t EraseRange(KeyState& st, size_t first, size_t last);
  void MaybeCompactArena();

  /// Sorts the ordered-id index's unsorted tail in (amortized; ordered
  /// operations only).
  void EnsureOrdered() const;

  // ---- template visitor bodies --------------------------------------------

  template <class Fn>
  void ScanVisitImpl(const Key& lo, const Key& hi,
                     const std::optional<Timestamp>& bound, Fn&& fn) const {
    EnsureOrdered();
    std::string_view lov(lo), hiv(hi);
    auto it = std::lower_bound(
        ordered_.begin(), ordered_.end(), lov,
        [this](uint32_t id, std::string_view k) { return keys_.KeyOf(id) < k; });
    Key scratch;
    for (; it != ordered_.end(); ++it) {
      std::string_view kv = keys_.KeyOf(*it);
      if (kv >= hiv) break;
      const KeyState& st = states_[*it];
      if (st.versions.empty()) continue;
      ReadVersion rv = FoldVisible(st, bound);
      if (!rv.found) continue;
      scratch.assign(kv);
      fn(scratch, std::move(rv));
    }
  }

  template <class Fn>
  void ForEachLatestImpl(Fn&& fn) const {
    EnsureOrdered();
    Key scratch;
    for (uint32_t id : ordered_) {
      const KeyState& st = states_[id];
      if (st.versions.empty()) continue;
      scratch.assign(keys_.KeyOf(id));
      fn(scratch, st.versions.back().ts);
    }
  }

  template <class Fn>
  void ForEachLatestInBucketImpl(size_t bucket, Fn&& fn) const {
    Key scratch;
    for (uint32_t id : buckets_[bucket].members) {
      // Invariant: a bucket member always has a non-empty chain.
      scratch.assign(keys_.KeyOf(id));
      fn(scratch, states_[id].versions.back().ts);
    }
  }

  template <class Fn>
  void ForEachVersionImpl(Fn&& fn) const {
    EnsureOrdered();
    WriteRecord scratch;
    for (uint32_t id : ordered_) {
      const KeyState& st = states_[id];
      std::string_view kv = keys_.KeyOf(id);
      for (const VersionRec& r : st.versions) {
        MaterializeInto(kv, r, scratch);
        fn(scratch);
      }
    }
  }

  template <class Fn>
  void ForEachVersionOfImpl(const Key& key, Fn&& fn) const {
    const KeyState* st = StateOf(key);
    if (!st) return;
    WriteRecord scratch;
    for (const VersionRec& r : st->versions) {
      MaterializeInto(key, r, scratch);
      fn(scratch);
    }
  }

  KeyInterner keys_;
  std::vector<KeyState> states_;  // indexed by key id
  std::vector<BucketState> buckets_;
  RecordArena arena_;
  // Ids sorted by key bytes; ids at [ordered_sorted_, end) are an unsorted
  // tail of newly interned keys, merged in by EnsureOrdered.
  mutable std::vector<uint32_t> ordered_;
  mutable size_t ordered_sorted_ = 0;
  mutable WriteRecord any_scratch_;  // AnyRecord materialization target
  size_t approx_bytes_ = 0;
  mutable size_t fold_bytes_ = 0;  // bytes held by valid fold-cache entries
};

}  // namespace hat::version

#endif  // HAT_VERSION_VERSIONED_STORE_H_
