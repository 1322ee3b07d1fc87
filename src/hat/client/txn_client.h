// TxnClient: the hatkv client library and the centre of this reproduction's
// public API.
//
// A TxnClient executes transactions (Begin / Read / Scan / Write / Increment
// / Commit / Abort) at a configurable point in the paper's taxonomy:
//
//   isolation:   Read Uncommitted, Read Committed, Item Cut (ANSI Repeatable
//                Read), Monotonic Atomic View (Appendix B algorithm)
//   sessions:    Monotonic Reads, Monotonic Writes (by construction), Read
//                Your Writes, Writes Follow Reads / causal (sticky)
//   mode:        HAT (any replica), master (per-key linearizable), quorum
//                (regular semantics), locking (serializable strict 2PL)
//
// All operations are asynchronous (the client is an actor on the simulated
// network); callers must issue at most one logical operation at a time per
// client. SyncClient (sync_client.h) provides a blocking facade for tests
// and examples.

#ifndef HAT_CLIENT_TXN_CLIENT_H_
#define HAT_CLIENT_TXN_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hat/client/observer.h"
#include "hat/client/options.h"
#include "hat/client/routing.h"
#include "hat/net/rpc.h"
#include "hat/obs/trace.h"
#include "hat/version/types.h"

namespace hat::client {

using ScanItem = net::ScanResponse::Item;

class TxnClient : public net::RpcNode {
 public:
  using ReadCallback = std::function<void(Status, ReadVersion)>;
  using ScanCallback = std::function<void(Status, std::vector<ScanItem>)>;
  using CommitCallback = std::function<void(Status)>;

  /// `id` must be a node registered with the network; `routing` must outlive
  /// the client.
  TxnClient(sim::Simulation& sim, net::Network& net, net::NodeId id,
            ClientOptions options, const Routing* routing);

  /// Starts a transaction. Must not already be in one.
  void Begin();

  /// Reads a key (sees the transaction's own buffered writes first).
  void Read(const Key& key, ReadCallback cb);

  /// Predicate read over [lo, hi).
  void Scan(const Key& lo, const Key& hi, ScanCallback cb);

  /// Buffers a put (Read Uncommitted sends immediately).
  void Write(const Key& key, Value value);

  /// Buffers a commutative numeric increment.
  void Increment(const Key& key, int64_t delta);

  /// Commits: installs buffered writes per the configured isolation/mode.
  void Commit(CommitCallback cb);

  /// Internal abort: discards buffered writes, releases locks.
  void Abort();

  /// Ends the session: session guarantee floors reset, session id advances.
  void NewSession();

  bool InTxn() const { return in_txn_; }
  const Timestamp& txn_ts() const { return txn_ts_; }
  const ClientOptions& options() const { return options_; }
  /// Options may be adjusted between transactions (not during one).
  ClientOptions& mutable_options() { return options_; }
  const ClientStats& stats() const { return stats_; }
  uint32_t session_id() const { return session_id_; }

  void set_observer(TxnObserver* observer) { observer_ = observer; }

  /// Attaches the deployment tracer. Transactions are sampled at Begin()
  /// (Tracer::Options::sample_every); a sampled transaction's envelopes all
  /// carry child contexts of its root span, so the whole distributed span
  /// tree shares one trace id.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 protected:
  void HandleMessage(net::Envelope env) override;

 private:
  struct BufferedWrite {
    WriteKind kind = WriteKind::kPut;
    Value value;        // Put payload
    int64_t delta = 0;  // accumulated increments (kDelta)
    bool has_put = false;
  };

  // --- timestamp/session helpers -----------------------------------------
  Timestamp NextTxnTimestamp();
  void BumpLamport(const Timestamp& observed) {
    if (observed.logical > lamport_) lamport_ = observed.logical;
  }
  std::optional<Timestamp> RequiredFor(const Key& key) const;
  void AbsorbReadMetadata(const Key& key, const Timestamp& ts,
                          const std::vector<Key>& sibs,
                          const std::vector<Dependency>& deps);

  // --- replica selection ---------------------------------------------------
  /// Candidate servers for an operation on `key`, in attempt order.
  std::vector<net::NodeId> TargetsFor(const Key& key) const;

  // --- envelope batching ---------------------------------------------------
  /// Issues one get/put RPC through the envelope batcher: with batching off
  /// (batch_max <= 1) this is exactly Call; with it on, consecutive ops
  /// bound for the same server coalesce into one ClientBatchRequest whose
  /// reply is demultiplexed back to each op's callback — so the retry /
  /// wrong-shard / session logic above the batcher is identical either way.
  void CallOp(net::NodeId target, net::Message msg, sim::Duration timeout,
              RpcCallback cb);
  /// Sends `target`'s queued ops now (size cap hit or wait timer fired).
  void FlushBatch(net::NodeId target);
  /// An envelope sent by FlushBatch completed (reply or timeout); drops the
  /// in-flight count the adaptive batcher uses as its idle-lane signal.
  void EnvelopeDone(net::NodeId target) {
    auto it = inflight_envelopes_.find(target);
    if (it != inflight_envelopes_.end() && --it->second == 0) {
      inflight_envelopes_.erase(it);
    }
  }

  // --- read paths ----------------------------------------------------------
  void ReadAttempt(Key key, std::vector<net::NodeId> targets, size_t attempt,
                   sim::SimTime deadline, ReadCallback cb);
  void QuorumRead(Key key, sim::SimTime deadline, ReadCallback cb);
  void LockingRead(Key key, sim::SimTime deadline, ReadCallback cb);
  void FinishRead(const Key& key, const net::GetResponse& resp,
                  ReadCallback cb);

  // --- write/commit paths ----------------------------------------------------
  WriteRecord MakeRecord(const Key& key, const BufferedWrite& bw,
                         const std::vector<Key>& sibs) const;
  void SendDirty(const Key& key, BufferedWrite bw);
  void PutWithRetry(WriteRecord w, net::PutMode mode,
                    std::vector<net::NodeId> targets, size_t attempt,
                    sim::SimTime deadline, std::function<void(Status)> done);
  void QuorumPut(WriteRecord w, sim::SimTime deadline,
                 std::function<void(Status)> done);
  void CommitWrites(CommitCallback cb);
  void LockingCommit(CommitCallback cb);
  void AcquireLock(Key key, bool exclusive, sim::SimTime deadline,
                   std::function<void(Status)> done);
  void ReleaseAllLocks();
  void FinishTxn(TxnOutcome outcome);

  ClientOptions options_;
  const Routing* routing_;
  TxnObserver* observer_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Active while the current transaction is sampled: the root (kTxn) span's
  /// identity, parent of every span the transaction causes anywhere.
  obs::TraceContext txn_trace_;
  sim::SimTime txn_start_us_ = 0;
  /// Commit() entry time of the sampled transaction (0 = not yet in commit);
  /// FinishTxn turns it into the kCommit span.
  sim::SimTime commit_start_us_ = 0;
  ClientStats stats_;
  // Randomized (non-sticky) cluster selection. Seeded from the node id in
  // the constructor so clients don't make lock-stepped routing choices.
  mutable Rng route_rng_;

  // session state
  uint32_t session_id_ = 1;
  uint64_t session_seq_ = 0;
  uint64_t lamport_ = 0;
  uint64_t last_logical_ = 0;
  std::map<Key, Timestamp> session_floor_;  // MR / RYW / WFR-deps floors

  // per-transaction state
  bool in_txn_ = false;
  Timestamp txn_ts_;     ///< begin timestamp: txn identity, wait-die priority
  /// Version timestamp for installed writes, assigned at commit time (after
  /// every read has bumped the Lamport clock). This keeps all dependency
  /// edges pointing forward in timestamp order — buffered-commit Read
  /// Committed then prohibits G1c, and locking-mode version order agrees
  /// with the lock serialization order.
  Timestamp commit_ts_;
  std::map<Key, BufferedWrite> write_buffer_;
  std::map<Key, ReadVersion> read_cache_;        // item cut isolation
  struct CachedRange {
    Key lo, hi;
    std::vector<ScanItem> items;
  };
  std::vector<CachedRange> range_cache_;         // predicate cut isolation
  std::map<Key, Timestamp> mav_required_;        // Appendix B required vector
  std::vector<Key> held_locks_;                  // locking mode
  std::vector<WriteRecord> dirty_writes_;        // RU writes already sent
  uint32_t outstanding_dirty_ = 0;
  uint32_t dirty_seq_ = 0;  // per-txn ordinal for RU same-key rewrites
  uint64_t txn_epoch_ = 0;  // invalidates in-flight callbacks of older txns

  // envelope batcher state (per target server)
  struct PendingOp {
    net::Message msg;  // PutRequest or GetRequest
    sim::Duration timeout;
    RpcCallback cb;
    /// Enqueue time, for the kBatchWait span of sampled transactions.
    sim::SimTime enqueued_us = 0;
    /// The enqueuing transaction's root context (inactive when unsampled).
    /// Captured at enqueue so a flush that fires after the transaction ends
    /// still attributes the op to the right trace.
    obs::TraceContext trace;
  };
  struct TargetBatch {
    std::vector<PendingOp> ops;
    /// Bumped at each flush; a scheduled wait timer only flushes the batch
    /// generation it was armed for (a size-cap flush in between starts a
    /// fresh generation the timer must not cut short).
    uint64_t gen = 0;
    bool flush_scheduled = false;
  };
  std::map<net::NodeId, TargetBatch> batcher_;
  /// Envelopes issued through the batcher still awaiting reply/timeout, per
  /// target. Absent key = idle: with adaptive_batch_wait the batcher then
  /// closes new envelopes at instant-end instead of the full wait window.
  std::map<net::NodeId, uint32_t> inflight_envelopes_;
};

}  // namespace hat::client

#endif  // HAT_CLIENT_TXN_CLIENT_H_
