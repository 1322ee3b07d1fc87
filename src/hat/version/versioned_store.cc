#include "hat/version/versioned_store.h"

#include "hat/common/codec.h"
#include "hat/common/rng.h"

namespace hat::version {

namespace {
/// Bytes charged to approx_bytes_ per stored version beyond its payload.
constexpr size_t kVersionOverhead = 16;

size_t RecordBytes(const WriteRecord& w) {
  return w.key.size() + w.value.size() + w.SibBytes() + kVersionOverhead;
}
}  // namespace

size_t VersionedStore::DigestBucketOf(const Key& key, size_t buckets) {
  return Fnv1a64(key.data(), key.size()) % buckets;
}

uint64_t VersionedStore::DigestEntryHashParts(uint64_t key_hash,
                                              const Timestamp& ts) {
  // Hash the key digest *through* the timestamp words (sequential FNV), not
  // beside them: an XOR-separable mix like H(key) ^ H(ts) makes the hash
  // delta of a ts change independent of the key, so two same-bucket keys
  // bumped between the same timestamps (common under batch preloads) cancel
  // and the bucket reads as in-sync while both replicas diverge.
  uint64_t parts[3] = {key_hash, ts.logical,
                       (static_cast<uint64_t>(ts.client_id) << 32) | ts.seq};
  return Fnv1a64(parts, sizeof(parts));
}

uint64_t VersionedStore::DigestEntryHash(const Key& key, const Timestamp& ts) {
  return DigestEntryHashParts(Fnv1a64(key.data(), key.size()), ts);
}

size_t VersionedStore::LowerBoundIdx(const KeyState& st, const Timestamp& ts) {
  auto it = std::lower_bound(
      st.versions.begin(), st.versions.end(), ts,
      [](const VersionRec& r, const Timestamp& t) { return r.ts < t; });
  return static_cast<size_t>(it - st.versions.begin());
}

size_t VersionedStore::UpperBoundIdx(const KeyState& st, const Timestamp& ts) {
  auto it = std::upper_bound(
      st.versions.begin(), st.versions.end(), ts,
      [](const Timestamp& t, const VersionRec& r) { return t < r.ts; });
  return static_cast<size_t>(it - st.versions.begin());
}

VersionedStore::VersionRec VersionedStore::MakeRec(const WriteRecord& w) {
  VersionRec r;
  r.ts = w.ts;
  r.kind = w.kind;
  r.charged = static_cast<uint32_t>(RecordBytes(w));
  if (w.sibs.empty() && w.deps.empty()) {
    // Hot path: the payload is exactly the value bytes, no temp buffer.
    r.value_off = 0;
    r.payload_len = static_cast<uint32_t>(w.value.size());
    r.payload = arena_.Store(w.value);
    return r;
  }
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(w.sibs.size()));
  for (const Key& s : w.sibs) PutLengthPrefixed(&payload, s);
  PutVarint32(&payload, static_cast<uint32_t>(w.deps.size()));
  for (const Dependency& d : w.deps) {
    PutLengthPrefixed(&payload, d.key);
    PutFixed64(&payload, d.ts.logical);
    PutFixed32(&payload, d.ts.client_id);
    PutFixed32(&payload, d.ts.seq);
  }
  r.value_off = static_cast<uint32_t>(payload.size());
  payload.append(w.value);
  r.payload_len = static_cast<uint32_t>(payload.size());
  r.payload = arena_.Store(payload);
  return r;
}

void VersionedStore::DecodeMeta(const VersionRec& r, std::vector<Key>& sibs,
                                std::vector<Dependency>& deps) {
  sibs.clear();
  deps.clear();
  if (r.value_off == 0) return;
  std::string_view in(r.payload, r.value_off);
  auto nsibs = GetVarint32(&in);
  if (!nsibs) return;
  sibs.reserve(*nsibs);
  for (uint32_t i = 0; i < *nsibs; i++) {
    auto s = GetLengthPrefixed(&in);
    if (!s) return;
    sibs.emplace_back(*s);
  }
  auto ndeps = GetVarint32(&in);
  if (!ndeps) return;
  deps.reserve(*ndeps);
  for (uint32_t i = 0; i < *ndeps; i++) {
    auto k = GetLengthPrefixed(&in);
    if (!k || in.size() < 16) return;
    Dependency d;
    d.key.assign(*k);
    d.ts.logical = DecodeFixed64(in.data());
    d.ts.client_id = DecodeFixed32(in.data() + 8);
    d.ts.seq = DecodeFixed32(in.data() + 12);
    in.remove_prefix(16);
    deps.push_back(std::move(d));
  }
}

void VersionedStore::MaterializeInto(std::string_view key, const VersionRec& r,
                                     WriteRecord& out) {
  out.key.assign(key);
  std::string_view v = ValueOf(r);
  out.value.assign(v);
  out.ts = r.ts;
  out.kind = r.kind;
  DecodeMeta(r, out.sibs, out.deps);
}

size_t VersionedStore::FoldBytes(const ReadVersion& rv) {
  // Mirrors WriteRecord::SibBytes weighting so cached-fold copies are charged
  // comparably to the records they shadow.
  size_t n = rv.value.size();
  for (const Key& s : rv.sibs) n += s.size() + 2;
  for (const Dependency& d : rv.deps) n += d.key.size() + 14;
  return n;
}

void VersionedStore::SetFold(const KeyState& st, ReadVersion rv) const {
  if (st.fold_valid) fold_bytes_ -= std::min(fold_bytes_, FoldBytes(st.fold));
  st.fold = std::move(rv);
  st.fold_valid = true;
  fold_bytes_ += FoldBytes(st.fold);
}

void VersionedStore::InvalidateFold(const KeyState& st) const {
  if (!st.fold_valid) return;
  fold_bytes_ -= std::min(fold_bytes_, FoldBytes(st.fold));
  st.fold_valid = false;
}

void VersionedStore::PatchDigest(uint32_t id, uint64_t key_hash,
                                 const std::optional<Timestamp>& was,
                                 const std::optional<Timestamp>& now) {
  if (was == now) return;
  BucketState& bucket = buckets_[key_hash % buckets_.size()];
  if (was) {
    bucket.hash ^= DigestEntryHashParts(key_hash, *was);
    if (!now) {
      auto it = std::lower_bound(
          bucket.members.begin(), bucket.members.end(), keys_.KeyOf(id),
          [this](uint32_t m, std::string_view k) { return keys_.KeyOf(m) < k; });
      if (it != bucket.members.end() && *it == id) bucket.members.erase(it);
    }
  }
  if (now) {
    bucket.hash ^= DigestEntryHashParts(key_hash, *now);
    if (!was) {
      auto it = std::lower_bound(
          bucket.members.begin(), bucket.members.end(), keys_.KeyOf(id),
          [this](uint32_t m, std::string_view k) { return keys_.KeyOf(m) < k; });
      bucket.members.insert(it, id);
    }
  }
}

bool VersionedStore::Apply(const WriteRecord& w) {
  uint32_t id = keys_.Intern(w.key);
  uint64_t h = keys_.HashOf(id);
  if (id >= states_.size()) {
    states_.emplace_back();
    ordered_.push_back(id);  // unsorted tail; EnsureOrdered merges lazily
  }
  KeyState& st = states_[id];
  // In-timestamp-order append is the common case; only fall back to a binary
  // search (and possible mid-chain insert) when the new ts is not the max.
  size_t pos = st.versions.size();
  if (!st.versions.empty() && !(st.versions.back().ts < w.ts)) {
    pos = LowerBoundIdx(st, w.ts);
    if (pos < st.versions.size() && st.versions[pos].ts == w.ts) return false;
  }
  std::optional<Timestamp> was = LatestOf(st);
  // Dedup is decided above, so the arena write happens exactly once per
  // accepted version (anti-entropy redelivery stores nothing).
  VersionRec rec = MakeRec(w);
  approx_bytes_ += rec.charged;
  st.versions.insert(st.versions.begin() + pos, rec);
  PatchDigest(id, h, was, st.versions.back().ts);
  // Fold-cache maintenance: an append (the common, in-timestamp-order case)
  // extends the memoized fold in O(1); an out-of-order insert can change any
  // part of the fold, so it invalidates.
  if (st.fold_valid) {
    if (pos + 1 != st.versions.size()) {
      InvalidateFold(st);
    } else if (w.kind == WriteKind::kPut) {
      SetFold(st, ReadVersion{w.ts, w.value, true, w.sibs, w.deps});
    } else {
      // Delta onto the cached fold. DecodeInt64Value mirrors FoldUpTo: a
      // non-numeric base (or none at all) contributes 0 to the sum.
      int64_t base =
          st.fold.found ? DecodeInt64Value(st.fold.value).value_or(0) : 0;
      int64_t delta = DecodeInt64Value(w.value).value_or(0);
      SetFold(st, ReadVersion{w.ts, EncodeInt64Value(base + delta), true,
                              w.sibs, w.deps});
    }
  }
  return true;
}

ReadVersion VersionedStore::FoldUpTo(const KeyState& st, size_t end) const {
  // Find the newest Put in [0, end); deltas after it are summed.
  ReadVersion out;
  if (end == 0) return out;  // initial state
  const std::vector<VersionRec>& v = st.versions;
  size_t base = end;  // sentinel: no Put found
  for (size_t i = end; i-- > 0;) {
    if (v[i].kind == WriteKind::kPut) {
      base = i;
      break;
    }
  }
  out.found = true;
  bool have_base_put = base != end;
  int64_t acc = 0;
  std::string_view base_value;
  size_t fold_from = 0;
  bool numeric = true;
  int64_t base_num = 0;
  if (have_base_put) {
    base_value = ValueOf(v[base]);
    fold_from = base + 1;
    auto decoded = DecodeInt64Value(base_value);
    if (decoded) {
      base_num = *decoded;
    } else {
      numeric = false;
    }
  }
  bool any_delta = false;
  for (size_t i = fold_from; i < end; i++) {
    // Everything after the newest Put is a Delta by construction.
    acc += DecodeInt64Value(ValueOf(v[i])).value_or(0);
    any_delta = true;
  }
  if (any_delta) {
    // Numeric fold; a non-numeric Put base is treated as 0 for the sum
    // (deltas on string registers are a caller bug but must not corrupt).
    out.value = EncodeInt64Value((numeric ? base_num : 0) + acc);
  } else {
    out.value.assign(base_value);
  }
  // The fold carries the newest contributing record's ts and metadata — with
  // a base Put and no deltas that record *is* v[end-1]; with deltas it is the
  // last delta, also v[end-1].
  out.ts = v[end - 1].ts;
  DecodeMeta(v[end - 1], out.sibs, out.deps);
  return out;
}

ReadVersion VersionedStore::FoldVisible(
    const KeyState& st, const std::optional<Timestamp>& bound) const {
  if (!bound) return CachedFold(st);
  size_t end = UpperBoundIdx(st, *bound);
  if (end == st.versions.size()) return CachedFold(st);
  return FoldUpTo(st, end);
}

std::optional<ReadVersion> VersionedStore::ReadAtLeast(
    const Key& key, const Timestamp& at_least) const {
  const KeyState* st = StateOf(key);
  if (!st) return std::nullopt;
  // Need at least one version with ts >= at_least; the chain is sorted so the
  // newest version decides.
  if (st->versions.empty() || st->versions.back().ts < at_least) {
    return std::nullopt;
  }
  // Fold everything (the newest state) — a pending read serves the newest
  // version that covers the requirement.
  return CachedFold(*st);
}

bool VersionedStore::Contains(const Key& key, const Timestamp& ts) const {
  const KeyState* st = StateOf(key);
  if (!st) return false;
  size_t i = LowerBoundIdx(*st, ts);
  return i < st->versions.size() && st->versions[i].ts == ts;
}

std::optional<Timestamp> VersionedStore::LatestTimestamp(
    const Key& key) const {
  const KeyState* st = StateOf(key);
  if (!st) return std::nullopt;
  return LatestOf(*st);
}

std::optional<Timestamp> VersionedStore::NthNewestTimestamp(const Key& key,
                                                            size_t n) const {
  const KeyState* st = StateOf(key);
  if (!st || st->versions.size() <= n) return std::nullopt;
  return st->versions[st->versions.size() - 1 - n].ts;
}

std::vector<WriteRecord> VersionedStore::Versions(const Key& key) const {
  std::vector<WriteRecord> out;
  const KeyState* st = StateOf(key);
  if (!st) return out;
  out.reserve(st->versions.size());
  for (const VersionRec& r : st->versions) {
    WriteRecord& w = out.emplace_back();
    MaterializeInto(key, r, w);
  }
  return out;
}

std::vector<std::pair<Key, ReadVersion>> VersionedStore::Scan(
    const Key& lo, const Key& hi, std::optional<Timestamp> bound) const {
  std::vector<std::pair<Key, ReadVersion>> out;
  ScanVisitImpl(lo, hi, bound, [&out](const Key& key, ReadVersion rv) {
    out.emplace_back(key, std::move(rv));
  });
  return out;
}

std::vector<WriteRecord> VersionedStore::VersionsAfter(
    const Key& key, const Timestamp& after) const {
  std::vector<WriteRecord> out;
  const KeyState* st = StateOf(key);
  if (!st) return out;
  for (size_t i = UpperBoundIdx(*st, after); i < st->versions.size(); i++) {
    WriteRecord& w = out.emplace_back();
    MaterializeInto(key, st->versions[i], w);
  }
  return out;
}

std::vector<uint64_t> VersionedStore::BucketHashes() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size());
  for (const BucketState& b : buckets_) out.push_back(b.hash);
  return out;
}

uint64_t VersionedStore::TopHash() const {
  // Position-sensitive roll-up (FNV over the hash array, not XOR) so two
  // stores differing in two buckets cannot cancel out.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const BucketState& b : buckets_) {
    h = (h ^ b.hash) * 0x100000001b3ull;
  }
  return h;
}

const WriteRecord* VersionedStore::AnyRecord() const {
  EnsureOrdered();
  for (uint32_t id : ordered_) {
    const KeyState& st = states_[id];
    if (st.versions.empty()) continue;
    MaterializeInto(keys_.KeyOf(id), st.versions.front(), any_scratch_);
    return &any_scratch_;
  }
  return nullptr;
}

size_t VersionedStore::EraseRange(KeyState& st, size_t first, size_t last) {
  for (size_t i = first; i < last; i++) {
    const VersionRec& r = st.versions[i];
    approx_bytes_ -= std::min(approx_bytes_, static_cast<size_t>(r.charged));
    arena_.NoteDead(r.payload_len);
  }
  st.versions.erase(st.versions.begin() + first, st.versions.begin() + last);
  return last - first;
}

void VersionedStore::MaybeCompactArena() {
  if (!arena_.ShouldCompact()) return;
  // Rewrite every live payload into a fresh arena and drop the old chunks.
  // O(live bytes), amortized against at least as many dead bytes.
  RecordArena fresh;
  for (KeyState& st : states_) {
    for (VersionRec& r : st.versions) {
      r.payload = fresh.Store({r.payload, r.payload_len});
    }
  }
  arena_ = std::move(fresh);
}

void VersionedStore::EnsureOrdered() const {
  if (ordered_sorted_ == ordered_.size()) return;
  auto by_key = [this](uint32_t a, uint32_t b) {
    return keys_.KeyOf(a) < keys_.KeyOf(b);
  };
  auto mid = ordered_.begin() + static_cast<ptrdiff_t>(ordered_sorted_);
  std::sort(mid, ordered_.end(), by_key);
  std::inplace_merge(ordered_.begin(), mid, ordered_.end(), by_key);
  ordered_sorted_ = ordered_.size();
}

size_t VersionedStore::GarbageCollect(const Key& key,
                                      const Timestamp& before) {
  uint32_t id = keys_.Find(key);
  if (id == KeyInterner::kNotFound) return 0;
  uint64_t h = keys_.HashOf(id);
  KeyState& st = states_[id];
  size_t horizon = LowerBoundIdx(st, before);
  if (horizon == 0) return 0;
  // Fold [0, horizon) into a single Put that preserves the visible value at
  // `before`, then drop the prefix.
  ReadVersion folded = FoldUpTo(st, horizon);
  Timestamp fold_ts = st.versions[horizon - 1].ts;
  std::optional<Timestamp> was = LatestOf(st);
  size_t dropped = EraseRange(st, 0, horizon);
  InvalidateFold(st);
  PatchDigest(id, h, was, LatestOf(st));
  if (folded.found) {
    WriteRecord base;
    base.key = key;
    base.value = folded.value;
    base.kind = WriteKind::kPut;
    base.ts = fold_ts;
    Apply(base);
    dropped--;  // one version re-inserted
  }
  MaybeCompactArena();
  return dropped;
}

std::optional<Timestamp> VersionedStore::NewestPutTimestamp(
    const Key& key) const {
  const KeyState* st = StateOf(key);
  if (!st) return std::nullopt;
  for (size_t i = st->versions.size(); i-- > 0;) {
    if (st->versions[i].kind == WriteKind::kPut) return st->versions[i].ts;
  }
  return std::nullopt;
}

std::optional<Timestamp> VersionedStore::NewestPutWithin(
    const Key& key, size_t max_walk) const {
  const KeyState* st = StateOf(key);
  if (!st) return std::nullopt;
  size_t walked = 0;
  for (size_t i = st->versions.size(); i-- > 0 && walked < max_walk;
       walked++) {
    if (st->versions[i].kind == WriteKind::kPut) return st->versions[i].ts;
  }
  return std::nullopt;
}

size_t VersionedStore::DropVersionsBefore(const Key& key,
                                          const Timestamp& before) {
  uint32_t id = keys_.Find(key);
  if (id == KeyInterner::kNotFound) return 0;
  uint64_t h = keys_.HashOf(id);
  KeyState& st = states_[id];
  size_t last = LowerBoundIdx(st, before);
  if (last == 0) return 0;
  std::optional<Timestamp> was = LatestOf(st);
  size_t dropped = EraseRange(st, 0, last);
  InvalidateFold(st);
  PatchDigest(id, h, was, LatestOf(st));
  MaybeCompactArena();
  return dropped;
}

size_t VersionedStore::VersionCount() const {
  size_t n = 0;
  for (const KeyState& st : states_) n += st.versions.size();
  return n;
}

size_t VersionedStore::VersionCountFor(const Key& key) const {
  const KeyState* st = StateOf(key);
  return st ? st->versions.size() : 0;
}

}  // namespace hat::version
