// MavCoordinator: the Appendix B Monotonic Atomic View machinery of one
// replica — the pending/good two-set installation protocol.
//
// Writes of a MAV transaction are held in `pending` (indexed by key for
// required-bound reads and by transaction timestamp for promotion), sibling
// replicas exchange NOTIFY acks, and once every replica of every sibling key
// has acked — pending-stable — the transaction's writes are revealed into
// the good set atomically per replica. A renotify timer re-broadcasts acks
// for still-pending transactions so partitions only delay, never prevent,
// promotion; a replica that already promoted answers such a late ack once,
// with a reply that is itself never answered.
//
// The coordinator owns no network or disk: it reaches them through narrow
// callbacks (send a message, gossip a write, GC a key's versions) plus
// references to the shared ShardedStore and PersistenceManager, so it can
// be constructed and driven directly by unit tests. All of its good-set
// bookkeeping (duplicate suppression, pending invalidation, promotion) is
// per key and therefore shard-local: it consults only the owning shard's
// latest-timestamp index, never a cross-shard structure.

#ifndef HAT_SERVER_MAV_COORDINATOR_H_
#define HAT_SERVER_MAV_COORDINATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "hat/net/message.h"
#include "hat/obs/trace.h"
#include "hat/server/partitioner.h"
#include "hat/server/persistence_manager.h"
#include "hat/sim/simulation.h"
#include "hat/version/sharded_store.h"

namespace hat::server {

struct MavStats {
  uint64_t notifies = 0;  ///< NOTIFYs received
  uint64_t promotions = 0;
  uint64_t stale_pending_dropped = 0;
  uint64_t gets_from_pending = 0;
  // NOTIFYs sent, by path. Every reply answers one received non-reply
  // notify, so summed over servers notify_replies <= acks_sent + renotifies
  // (the MAV message budget).
  uint64_t acks_sent = 0;       ///< first ack broadcast (MaybeAck)
  uint64_t renotifies = 0;      ///< renotify-timer retransmits
  uint64_t notify_replies = 0;  ///< answers to late notifies when promoted
};

class MavCoordinator {
 public:
  struct Options {
    /// Drop pending writes older than the good version for their key
    /// (the "pending invalidation" optimization of Appendix B).
    bool gc_stale_pending = true;
    /// Re-broadcast pending-stable acks for still-pending transactions.
    sim::Duration renotify_interval = 500 * sim::kMillisecond;
  };
  /// Delivers a one-way message (NotifyRequest) to a peer replica. The
  /// trace context (inactive unless the triggering install was traced)
  /// stamps the outgoing envelope so ack fan-out stays on the span tree.
  using SendFn =
      std::function<void(net::NodeId, net::Message, obs::TraceContext)>;
  /// Hands a freshly accepted pending write to anti-entropy. `origin` is the
  /// peer the write arrived from (net::kNoPeer for local client writes), so
  /// re-gossip can exclude it instead of echoing the write straight back.
  using GossipFn = std::function<void(const WriteRecord&, net::NodeId origin,
                                      obs::TraceContext)>;
  /// Applies the owner's version-GC policy after a good-set insert.
  using GcFn = std::function<void(const Key&)>;

  MavCoordinator(sim::Simulation& sim, net::NodeId id,
                 const Partitioner* partitioner, version::ShardedStore& good,
                 PersistenceManager& persistence, Options options, SendFn send,
                 GossipFn gossip, GcFn gc_versions);

  /// Schedules the renotify timer (staggered by node id). Call once.
  void Start();

  /// Installs one MAV write: pending bookkeeping, ack broadcast, promotion
  /// check. `gossip` hands newly accepted writes to the GossipFn; every
  /// current caller (client puts, anti-entropy, recovery replay) passes true
  /// so re-entering writes keep propagating — pass false only from a path
  /// that provably must not re-enter anti-entropy. `origin` is forwarded to
  /// the GossipFn: the peer the write came from (net::kNoPeer otherwise).
  /// `trace`, when active, attaches the install to a sampled transaction:
  /// the txn's notify fan-out carries it and promotion records a
  /// kMavAckWait span covering install -> pending-stable.
  void Install(const WriteRecord& w, bool gossip,
               net::NodeId origin = net::kNoPeer,
               obs::TraceContext trace = {});

  /// Processes a NOTIFY ack from `req.sender` (Appendix B).
  void HandleNotify(const net::NotifyRequest& req);

  /// Exact pending version (key, ts), or nullptr. Counts a pending-read hit.
  const WriteRecord* PendingVersion(const Key& key, const Timestamp& ts);

  /// Number of pending writes held (promotion-indexed count). O(1).
  size_t PendingWriteCount() const { return pending_writes_; }

  /// Drops all volatile MAV state (crash). Stats survive.
  void Clear();

  const MavStats& stats() const { return stats_; }

  /// Observability: promotion spans record under this tracer. nullptr off.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct PendingTxn;
  /// Brings `txn`'s placement cache up to the partitioner's current epoch.
  void ResolvePlacement(PendingTxn& txn) const;
  void MaybeAck(const Timestamp& ts);
  void MaybePromote(const Timestamp& ts);
  void RenotifyTick();

  sim::Simulation& sim_;
  net::NodeId id_;
  const Partitioner* partitioner_;
  version::ShardedStore& good_;
  PersistenceManager& persistence_;
  Options options_;
  SendFn send_;
  GossipFn gossip_;
  GcFn gc_versions_;
  MavStats stats_;
  obs::Tracer* tracer_ = nullptr;

  // Pending, indexed two ways: by key (for required-bound reads) and by
  // transaction timestamp (for promotion).
  std::map<Key, std::map<Timestamp, WriteRecord>> pending_by_key_;
  static constexpr uint64_t kUnresolved = ~uint64_t{0};
  struct PendingTxn {
    std::vector<WriteRecord> writes;  // this server's sibling writes
    std::vector<Key> sibs;            // full txn key set
    std::set<net::NodeId> acks;       // distinct ack senders seen
    bool acked_by_self = false;       // we broadcast our ack already
    obs::TraceContext trace;          // set iff a traced install seeded it
    sim::SimTime installed_us = 0;    // first install time (ack-wait span)
    // Placement cache, filled by ResolvePlacement in one ReplicasOf pass
    // over `sibs` and valid only at `placement_epoch`: a live migration
    // bumps the partitioner's epoch, and the next read recomputes both.
    // A placement change under an unchanged epoch is not observed.
    uint64_t placement_epoch = kUnresolved;
    /// Servers that must ack before promotion: every replica of every
    /// sibling key, sorted and deduplicated (the notify send order).
    std::vector<net::NodeId> ack_set;
    /// Sibling keys this server replicates; it acks once all have arrived.
    std::vector<Key> local_keys;
  };
  std::map<Timestamp, PendingTxn> pending_txns_;
  size_t pending_writes_ = 0;  // sum of writes.size() over pending_txns_
  // Acks that arrived before the first write of their transaction.
  std::map<Timestamp, std::set<net::NodeId>> early_acks_;
  // Transactions this server already promoted (bounded FIFO). A late ack
  // for a promoted transaction is answered with our own ack, marked as a
  // reply, so replicas that received the writes after a partition heal can
  // still promote. A reply is never answered: two promoted replicas
  // exchange at most one answer per late notify.
  std::set<Timestamp> promoted_;
  std::deque<Timestamp> promoted_fifo_;
};

}  // namespace hat::server

#endif  // HAT_SERVER_MAV_COORDINATOR_H_
