// Wire message types exchanged between hatkv clients and servers.
//
// All RPCs used by the isolation algorithms of Section 5 / Appendix B and by
// the non-HAT baselines of Section 6 (master, quorum, two-phase locking) are
// defined here as a std::variant, which keeps dispatch exhaustive and typed.

#ifndef HAT_NET_MESSAGE_H_
#define HAT_NET_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "hat/net/topology.h"
#include "hat/obs/trace_context.h"
#include "hat/version/types.h"

namespace hat::net {

/// Network-level ping (Table 1 / Figure 1 measurement traffic).
struct PingRequest {};
struct PingResponse {};

/// How a server should install a write.
enum class PutMode : uint8_t {
  /// Install immediately into the visible (good) set; last-writer-wins.
  /// Used by Read Uncommitted / eventual and by Read Committed (the client
  /// buffers until commit, so committed writes install directly).
  kEventual = 0,
  /// Appendix B two-phase installation: hold in `pending`, notify sibling
  /// replicas, reveal once pending-stable. Used by MAV.
  kMav = 1,
};

struct PutRequest {
  WriteRecord write;
  PutMode mode = PutMode::kEventual;
};
struct PutResponse {
  bool ok = false;
  /// The contacted server no longer hosts the key's logical shard (it
  /// migrated away under a newer placement epoch). The client should
  /// refresh its routing and retry at the new owner.
  bool wrong_shard = false;
};

/// Result codes for GetResponse.
enum class GetCode : uint8_t {
  kOk = 0,
  /// The server cannot yet satisfy the caller's `required` bound for this
  /// key (the sibling write has not arrived); the client should retry,
  /// possibly at another replica.
  kNotYet = 1,
  /// The contacted server is not the master for the key (master mode only).
  kNotMaster = 2,
  /// The server no longer hosts the key's logical shard (live migration
  /// moved it under a newer placement epoch): refresh routing and retry.
  kWrongShard = 3,
};

struct GetRequest {
  Key key;
  /// MAV lower bound: the client has observed a transaction that wrote this
  /// key at `required`; the response must reflect it (Appendix B).
  std::optional<Timestamp> required;
  /// Upper bound on versions read (snapshot-style reads; unused by default).
  std::optional<Timestamp> bound;
};
struct GetResponse {
  GetCode code = GetCode::kOk;
  bool found = false;
  Value value;
  Timestamp ts;
  /// Sibling keys of the transaction that wrote the returned version
  /// (propagates the MAV `required` vector).
  std::vector<Key> sibs;
  /// Causal dependencies of the returned version (session guarantees).
  std::vector<Dependency> deps;
};

/// Predicate (range) read over keys in [lo, hi).
struct ScanRequest {
  Key lo;
  Key hi;
  std::optional<Timestamp> bound;
};
struct ScanResponse {
  struct Item {
    Key key;
    Value value;
    Timestamp ts;
    std::vector<Key> sibs;
  };
  std::vector<Item> items;
};

/// MAV pending-stable acknowledgment (Appendix B NOTIFY).
struct NotifyRequest {
  Timestamp ts;
  NodeId sender = 0;
  /// Set on a promoted replica's answer to a late notify. A reply is never
  /// answered, so two promoted replicas cannot bounce acks back and forth.
  bool reply = false;
};

/// Anti-entropy push of committed versions between replicas. Reliable via
/// sender-side outbox retransmission until acked.
struct AntiEntropyBatch {
  uint64_t batch_id = 0;
  std::vector<WriteRecord> writes;
  PutMode mode = PutMode::kEventual;
  /// Logical shard every record in this batch belongs to. The receiver
  /// charges the batch header and the persistence group commit to the lane
  /// of the slot hosting it, or to the global lane if it hosts no such
  /// shard.
  uint32_t shard = 0;
};
struct AntiEntropyAck {
  uint64_t batch_id = 0;
};

/// Round 2 of digest-based repair: the sender advertises its latest version
/// per key within some digest buckets of one shard; the receiver responds
/// (via AntiEntropyBatch) with versions the sender is missing there. Used
/// to resynchronize after crashes/partitions independent of the push
/// outboxes.
struct DigestRequest {
  std::vector<std::pair<Key, Timestamp>> latest;
  /// True on the initiating round: the receiver may answer with its own
  /// digest (reply=false) when it notices the initiator has data it lacks,
  /// so repair works in both directions without recursing further.
  bool reply_allowed = true;
  /// The digest buckets of `shard` that `latest` covers exactly; the
  /// receiver's answer is scoped to them too. A request with no buckets
  /// covers nothing and is ignored.
  std::vector<uint32_t> buckets;
  /// Logical shard the request refers to.
  uint32_t shard = 0;
};

/// Per-bucket round of sharded digest repair: the sender's incremental
/// bucket hashes over (key, latest-ts) entries for one shard
/// (VersionedStore::digest_buckets() of them). The receiver compares with
/// its own buckets for that shard and answers with a bucket-scoped
/// DigestRequest for the mismatches only — so a shard whose round-0 summary
/// disagreed costs B hashes, not one digest entry per key.
struct BucketDigest {
  std::vector<uint64_t> hashes;
  /// Logical shard these bucket hashes describe.
  uint32_t shard = 0;
};

/// One entry of a ShardDigest: a hosted logical shard and its roll-up hash
/// (VersionedStore::TopHash()).
struct ShardHash {
  uint32_t shard = 0;
  uint64_t hash = 0;
};

/// Round 0 of sharded digest repair: one roll-up hash per hosted logical
/// shard. The receiver compares with its own shard summaries and answers
/// with a BucketDigest for each mismatched shard it also hosts — an in-sync
/// tick costs S hashes total, and a diff confined to one shard ships bucket
/// hashes for that shard only. Naming shards by logical id keeps peers
/// whose slot layouts diverged through live migration comparing the right
/// shards.
struct ShardDigest {
  std::vector<ShardHash> shards;
};

/// Kick-off of a live shard migration's bulk phase: the destination asks
/// the source for a snapshot of one logical shard's full version set. The
/// source freezes the shard's current contents and streams them back as
/// ShardSnapshotChunk requests; writes arriving after the freeze are
/// reconciled by the (shard, bucket)-scoped digest catch-up rounds.
struct ShardSnapshotRequest {
  uint64_t migration_id = 0;
  /// Logical shard being migrated.
  uint32_t shard = 0;
};

/// One bounded slice of a migrating shard's version set (chunked by the
/// same ae_batch_max / ae_batch_max_bytes discipline as anti-entropy
/// batches). Sent source -> destination as an RPC request so each chunk's
/// application is charged to the moving shard's executor lane; the
/// ShardSnapshotAck response is the flow-control window (stop-and-wait,
/// resent on timeout — chunk application is idempotent set-union).
struct ShardSnapshotChunk {
  uint64_t migration_id = 0;
  uint32_t shard = 0;
  uint32_t seq = 0;
  /// Last chunk of the snapshot: the destination has the full frozen set
  /// once this is applied.
  bool done = false;
  std::vector<WriteRecord> writes;
};

/// RPC response to a ShardSnapshotChunk. `ok=false` tells the source the
/// destination no longer runs this migration (crash/restart): stop sending.
struct ShardSnapshotAck {
  uint64_t migration_id = 0;
  uint32_t seq = 0;
  bool ok = true;
};

/// Client-side envelope batching: several consecutive operations bound for
/// the same server coalesced into one wire envelope. The server executes the
/// ops in order, pays one header charge and (for durable puts) one WAL group
/// commit, and answers with a ClientBatchResponse whose replies parallel
/// `ops` — per-op reply semantics (retries, wrong-shard redirects, session
/// guarantees) are preserved by demuxing at the client.
struct ClientBatchRequest {
  std::vector<std::variant<PutRequest, GetRequest>> ops;
};
struct ClientBatchResponse {
  std::vector<std::variant<PutResponse, GetResponse>> replies;
};

/// Two-phase-locking lock service (locks live at each key's master replica).
struct LockRequest {
  Key key;
  bool exclusive = false;
  /// Requesting transaction; doubles as wait-die priority (smaller = older).
  Timestamp txn;
};
struct LockResponse {
  bool granted = false;
  /// Wait-die: the requester is younger than the holder and must abort.
  bool must_abort = false;
};
struct UnlockRequest {
  std::vector<Key> keys;
  Timestamp txn;
};

using Message =
    std::variant<PingRequest, PingResponse, PutRequest, PutResponse,
                 GetRequest, GetResponse, ScanRequest, ScanResponse,
                 NotifyRequest, AntiEntropyBatch, AntiEntropyAck,
                 DigestRequest, BucketDigest, ShardDigest, LockRequest,
                 LockResponse, UnlockRequest, ShardSnapshotRequest,
                 ShardSnapshotChunk, ShardSnapshotAck, ClientBatchRequest,
                 ClientBatchResponse>;

/// A message in flight.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  /// Nonzero for request/response pairs; 0 for one-way messages.
  uint64_t rpc_id = 0;
  bool is_response = false;
  Message msg;
  /// Trace identity (observability); inactive by default and encoded as
  /// zero wire bytes when inactive. Deliberately last so the existing
  /// aggregate-init call sites keep compiling unchanged.
  obs::TraceContext trace;
};

/// Approximate serialized size, used for service-cost accounting and the
/// metadata-overhead measurements of Figure 4.
size_t WireBytes(const Message& msg);

/// Approximate serialized size of one replicated write — exposed so batch
/// builders (digest repair) can cap batches by bytes without constructing a
/// Message per probe.
size_t WriteRecordWireBytes(const WriteRecord& w);

}  // namespace hat::net

#endif  // HAT_NET_MESSAGE_H_
