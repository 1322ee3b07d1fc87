#include "hat/version/sharded_store.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "hat/common/rng.h"

namespace hat::version {

ShardedStore::ShardedStore(Options options)
    : digest_buckets_(options.digest_buckets) {
  size_t shards = options.shards == 0 ? 1 : options.shards;
  modulus_ = options.num_logical_shards != 0 ? options.num_logical_shards
                                             : shards;
  stride_ = std::max<uint64_t>(1, modulus_ / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; i++) {
    shards_.emplace_back(options.digest_buckets);
  }
  slot_logical_ = std::move(options.logical_shards);
  if (slot_logical_.empty()) {
    assert(modulus_ == shards && "the identity layout owns every key");
    slot_logical_.resize(shards);
    std::iota(slot_logical_.begin(), slot_logical_.end(), 0u);
  }
  assert(slot_logical_.size() == shards && "one logical shard id per slot");
  for (size_t i = 0; i < slot_logical_.size(); i++) {
    assert(slot_logical_[i] < modulus_);
    slot_of_logical_.emplace(slot_logical_[i], i);
  }
  // Epoch-0 deployments hand slot i the logical shard base + i*stride
  // (base = the server's cluster slot); recognize the pattern so the
  // unmigrated hot path keeps a pure-arithmetic slot-of-key.
  stride_pattern_ = slot_logical_[0] < stride_;
  for (size_t i = 1; stride_pattern_ && i < slot_logical_.size(); i++) {
    stride_pattern_ = slot_logical_[i] == slot_logical_[0] + i * stride_;
  }
}

size_t ShardedStore::ShardIndexOf(const Key& key) const {
  auto slot = TrySlotOfKey(key);
  assert(slot && "ShardIndexOf on a key this store does not own");
  return *slot;
}

uint32_t ShardedStore::LogicalShardOfKey(const Key& key) const {
  return static_cast<uint32_t>(Fnv1a64(key.data(), key.size()) % modulus_);
}

std::optional<size_t> ShardedStore::TrySlotOfKey(const Key& key) const {
  // A single logical shard still in slot 0 owns every key: skip the hash.
  if (modulus_ == 1 && stride_pattern_) return 0;
  uint32_t logical = LogicalShardOfKey(key);
  if (stride_pattern_) {
    // Arithmetic fast path: candidate slot = l / stride, valid iff that slot
    // still hosts exactly this logical shard (one vector probe).
    size_t candidate = static_cast<size_t>(logical / stride_);
    if (candidate < slot_logical_.size() &&
        slot_logical_[candidate] == logical) {
      return candidate;
    }
    return std::nullopt;
  }
  return SlotOfLogical(logical);
}

std::optional<size_t> ShardedStore::SlotOfLogical(uint32_t logical) const {
  auto it = slot_of_logical_.find(logical);
  if (it == slot_of_logical_.end()) return std::nullopt;
  return it->second;
}

size_t ShardedStore::AttachShard(uint32_t logical) {
  assert(logical < modulus_);
  if (auto slot = SlotOfLogical(logical)) return *slot;
  shards_.emplace_back(digest_buckets_);
  slot_logical_.push_back(logical);
  size_t slot = shards_.size() - 1;
  slot_of_logical_.emplace(logical, slot);
  // An appended slot never matches the stride pattern.
  stride_pattern_ = false;
  return slot;
}

void ShardedStore::DetachShard(uint32_t logical) {
  auto slot = SlotOfLogical(logical);
  if (!slot) return;
  shards_[*slot] = VersionedStore(digest_buckets_);
  slot_logical_[*slot] = kNoShard;
  slot_of_logical_.erase(logical);
  stride_pattern_ = false;
}

std::vector<uint64_t> ShardedStore::ShardHashes() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const VersionedStore& s : shards_) out.push_back(s.TopHash());
  return out;
}

std::vector<std::pair<Key, ReadVersion>> ShardedStore::Scan(
    const Key& lo, const Key& hi, std::optional<Timestamp> bound) const {
  std::vector<std::pair<Key, ReadVersion>> out;
  ScanVisit(lo, hi, bound, [&out](const Key& key, ReadVersion rv) {
    out.emplace_back(key, std::move(rv));
  });
  return out;
}

const WriteRecord* ShardedStore::AnyRecord() const {
  for (const VersionedStore& s : shards_) {
    if (const WriteRecord* w = s.AnyRecord()) return w;
  }
  return nullptr;
}

size_t ShardedStore::KeyCount() const {
  size_t n = 0;
  for (const VersionedStore& s : shards_) n += s.KeyCount();
  return n;
}

size_t ShardedStore::VersionCount() const {
  size_t n = 0;
  for (const VersionedStore& s : shards_) n += s.VersionCount();
  return n;
}

size_t ShardedStore::ApproximateBytes() const {
  size_t n = 0;
  for (const VersionedStore& s : shards_) n += s.ApproximateBytes();
  return n;
}

}  // namespace hat::version
