// AntiEntropyEngine: replica-to-replica write propagation for one server.
//
// Two complementary mechanisms, both deterministic under the simulation:
//  * Reliable push — per-peer outboxes are flushed on a timer into
//    mode-homogeneous batches; unacknowledged batches retransmit with
//    exponential backoff, so partitions delay but never lose gossip.
//    Receivers dedupe batches by id (bounded generational memory).
//  * Digest pull — optionally, the engine periodically syncs with one random
//    peer. The protocol is *sharded + bucketed*, scoped tighter at each
//    round: round 0 ships one roll-up hash per hosted logical shard
//    (ShardDigest); the receiver answers with that shard's B bucket hashes
//    for mismatched shards only (BucketDigest); the initiator replies with
//    per-key digests for mismatched buckets only (DigestRequest); the
//    receiver back-fills just those keys from VersionsAfter. An in-sync
//    tick therefore costs S hashes, and a diff confined to one shard never
//    hashes or walks the cold shards.
//
// Push outboxes are keyed (peer, logical shard), so every push and repair
// batch is shard-homogeneous and tagged with its shard: the receiver
// charges its header and persistence group commit to that shard's lane.
//
// The engine owns no sockets and installs nothing itself: messages leave via
// a SendFn callback and incoming records are handed to an InstallFn, so the
// engine is constructible — and fully drivable — from a unit test without a
// ReplicaServer.

#ifndef HAT_SERVER_ANTI_ENTROPY_ENGINE_H_
#define HAT_SERVER_ANTI_ENTROPY_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "hat/common/rng.h"
#include "hat/net/message.h"
#include "hat/obs/trace_context.h"
#include "hat/server/partitioner.h"
#include "hat/sim/simulation.h"
#include "hat/version/sharded_store.h"

namespace hat::server {

struct AntiEntropyStats {
  uint64_t batches_in = 0;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Push batches sent (first transmissions, not retries) — records_out /
  /// batches_out is the achieved amortization factor.
  uint64_t batches_out = 0;
  /// Unacked inflight batches retransmitted (backoff expiries).
  uint64_t retransmits = 0;
  /// Incoming batches dropped as already-applied retransmit duplicates.
  uint64_t dupes_suppressed = 0;
  /// Times the applied-batch dedupe set filled and rotated generations.
  uint64_t dedupe_rotations = 0;
  /// Digest-sync rounds initiated.
  uint64_t digest_ticks = 0;
  /// Per-key digest entries shipped (both directions we sent); proportional
  /// to the populations of mismatched buckets, not to the keyspace.
  uint64_t digest_entries_out = 0;
  /// Wire bytes of digest-protocol messages sent (hashes + entries).
  uint64_t digest_bytes_out = 0;
};

/// Round 0 of sharded digest repair for `store`: the roll-up hash of every
/// hosted logical shard (detached slots drop out).
net::ShardDigest ShardDigestOf(const version::ShardedStore& store);

class AntiEntropyEngine {
 public:
  struct Options {
    /// Outbox flush cadence.
    sim::Duration flush_interval = 5 * sim::kMillisecond;
    /// Retransmit unacknowledged batches after this long (doubles per retry).
    sim::Duration retry_interval = 250 * sim::kMillisecond;
    /// Digest exchange cadence; 0 disables (push-only anti-entropy).
    sim::Duration digest_sync_interval = 0;
    /// Max writes per batch.
    size_t batch_max = 64;
    /// Max payload bytes per digest-repair reply batch (0 = uncapped).
    /// Batches flush when either cap is hit, so a repair of few huge values
    /// cannot emit one enormous message.
    size_t batch_max_bytes = 64 * 1024;
    /// False disables the push outboxes entirely (Enqueue becomes a no-op
    /// and no flush timer runs) — used to exercise digest repair alone.
    bool push_enabled = true;
  };
  /// Delivers a one-way message to a peer. The trace context is active only
  /// for first-transmission push batches seeded by a traced write (the
  /// batch inherits the first traced item's context); acks, retransmits,
  /// and digest traffic go untraced.
  using SendFn =
      std::function<void(net::NodeId, net::Message, obs::TraceContext)>;
  /// Installs one received record (dispatches on PutMode at the owner).
  /// `from` is the peer the enclosing batch arrived from, so the owner's
  /// re-gossip can exclude it (echo suppression). The trace context is the
  /// enclosing batch's (active only for traced batches) so installs keep
  /// propagating the sampled transaction's identity.
  using InstallFn = std::function<void(const WriteRecord&, net::PutMode,
                                       net::NodeId from, obs::TraceContext)>;

  AntiEntropyEngine(sim::Simulation& sim, net::NodeId id,
                    const Partitioner* partitioner,
                    const version::ShardedStore& good, Options options,
                    SendFn send, InstallFn install);

  /// Schedules the flush (and, if enabled, digest) timers, staggered by node
  /// id. Call once.
  void Start();

  /// Queues `w` for push to every replica of its key except this node and
  /// `except` (the node it came from). An active `trace` rides along so the
  /// flushed batch joins the sampled transaction's span tree.
  void Enqueue(const WriteRecord& w, net::PutMode mode, net::NodeId except,
               obs::TraceContext trace = {});

  /// Applies an incoming push batch (acks it, dedupes retransmits, installs
  /// each record through the InstallFn). `trace` is the arriving envelope's
  /// context, handed through to each install.
  void HandleBatch(const net::AntiEntropyBatch& batch, net::NodeId from,
                   obs::TraceContext trace = {});

  /// Retires the inflight batch an ack refers to.
  void HandleAck(const net::AntiEntropyAck& ack) {
    inflight_.erase(ack.batch_id);
  }

  /// Round 2 of sharded repair: answers a peer's per-key digest for some
  /// buckets of req.shard with the versions it is missing there, and — on
  /// the initiating round — with our own digest for the same buckets when
  /// the peer has data we lack. A request naming no buckets is ignored.
  void HandleDigest(const net::DigestRequest& req, net::NodeId from);

  /// Round 1 of sharded repair: compare the peer's bucket hashes for one
  /// shard with ours and reply with a bucket-scoped DigestRequest for
  /// mismatches.
  void HandleBucketDigest(const net::BucketDigest& digest, net::NodeId from);

  /// Round 0 of sharded repair: compare the initiator's per-shard roll-up
  /// hashes with ours and reply with our BucketDigest for each mismatched
  /// shard — cold shards drop out before any bucket hash is computed.
  void HandleShardDigest(const net::ShardDigest& digest, net::NodeId from);

  /// Drops all volatile gossip state (crash). Stats survive.
  void Clear();

  const AntiEntropyStats& stats() const { return stats_; }

  /// Test hook: position the batch-id counter (e.g. just below the 2^40
  /// wrap) to exercise id-composition edge cases without 2^40 flushes.
  void SetNextBatchIdForTest(uint64_t v) { next_batch_id_ = v; }

 private:
  void FlushTick();
  void DigestSyncTick();
  /// Sends `msg` to `from`, charging its wire size to the digest counters.
  void SendDigestMessage(net::NodeId to, net::Message msg, size_t entries);
  /// Streams every version the peer is missing within one (shard, bucket),
  /// given the peer's latest-ts entries, into `add`.
  void BackfillBucket(
      size_t shard, size_t bucket, const std::map<Key, Timestamp>& theirs,
      const std::function<void(const WriteRecord&)>& add) const;
  /// Batch ids are (node id << 40) | counter. The counter is masked to its
  /// 40-bit field: an unmasked increment past 2^40 would bleed into the
  /// node-id bits and collide with ANOTHER node's id space in the
  /// receivers' dedupe sets (silently dropping that node's fresh batches).
  /// Wrapping within our own field is harmless — a reused id only collides
  /// with one issued 2^40 batches ago, far outside the bounded generational
  /// dedupe memory (2 * kAppliedBatchMemory ids).
  static constexpr uint64_t kBatchCounterMask = (uint64_t{1} << 40) - 1;
  uint64_t NextBatchId() {
    return (static_cast<uint64_t>(id_) << 40) |
           (next_batch_id_++ & kBatchCounterMask);
  }
  /// All peer replicas this server shares any shard with.
  std::vector<net::NodeId> PeerReplicas() const;

  sim::Simulation& sim_;
  net::NodeId id_;
  const Partitioner* partitioner_;
  const version::ShardedStore& good_;
  Options options_;
  SendFn send_;
  InstallFn install_;
  AntiEntropyStats stats_;
  // Digest-sync peer selection. Seeded from the node id (not a shared
  // constant) so replicas pick different peers in lock-stepped runs, while
  // staying deterministic for a given topology.
  Rng rng_;

  struct OutboxItem {
    WriteRecord write;
    net::PutMode mode;
    obs::TraceContext trace;  // inactive unless the write was traced
  };
  /// Outboxes are keyed (peer, logical shard): each pair drains
  /// independently into shard-homogeneous tagged batches.
  using OutboxKey = std::pair<net::NodeId, uint32_t>;
  std::map<OutboxKey, std::deque<OutboxItem>> outbox_;
  struct InFlightBatch {
    net::NodeId peer;
    net::AntiEntropyBatch batch;
    sim::SimTime sent_at;
    /// Exponential backoff: doubles per retransmission (capped), so slow
    /// acks under load do not trigger duplicate-processing storms.
    sim::Duration backoff;
  };
  std::map<uint64_t, InFlightBatch> inflight_;
  uint64_t next_batch_id_ = 1;
  // Batch ids already applied, for O(1) retransmit dedupe. Bounded by
  // generational rotation: when the current set fills, it becomes the
  // previous generation and a fresh set starts — recent ids (the ones
  // retransmits actually target) always stay resident, with no ordered
  // container or parallel FIFO to maintain.
  std::unordered_set<uint64_t> applied_batches_;
  std::unordered_set<uint64_t> applied_batches_prev_;
};

}  // namespace hat::server

#endif  // HAT_SERVER_ANTI_ENTROPY_ENGINE_H_
