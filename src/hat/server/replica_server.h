// ReplicaServer: one hatkv database server — a thin dispatcher over four
// composable subsystems:
//
//  * MavCoordinator     — the Appendix B MAV algorithm (pending/good sets,
//                         pending-stable notification, promotion, renotify),
//  * AntiEntropyEngine  — reliable push outboxes with retransmission plus
//                         optional digest-based repair,
//  * LockManager        — strict two-phase locking with wait-die (the
//                         "locking" baseline of Section 6.3),
//  * PersistenceManager — optional real durability via storage::LocalStore
//                         (replicas can be crashed and recovered in tests),
//  * ShardMigrator      — live logical-shard migration mechanics (snapshot
//                         streaming, digest catch-up, staging/promotion,
//                         detach + tombstone), driven by the cluster-level
//                         RebalanceCoordinator.
//
// Placement-aware serving: when ServerOptions::owned_logical_shards is set
// (deployments), the server knows exactly which logical shards it hosts.
// An operation for a shard that migrated away is answered kWrongShard so a
// stale-epoch client refreshes its routing and retries at the new owner;
// late anti-entropy records for such a shard are re-pushed ("forwarded")
// through the placement-aware outbox instead of being dropped.
//
// The server itself only routes envelopes, charges service demands
// (ServiceCosts — producing the saturation/overhead behaviour of
// Figures 3-6), answers reads from the shared data plane, and installs
// eventual/Read-Committed writes. The data plane is a ShardedStore: N
// independent VersionedStore shards (ServerOptions::shards_per_server),
// each with its own fold cache, digest buckets, GC frontier, and
// persistence keyspace — installs and reads route to the owning shard,
// anti-entropy digests repair shard by shard, and recovery replays shard
// by shard. Everything protocol-specific lives in the subsystems, which
// are independently constructible and unit-tested; future scenarios can
// swap an anti-entropy strategy or lock manager without touching the
// dispatcher.
//
// Service time runs on a ShardExecutor: each incoming message is classified
// into a plan of (lane, cost) units — gets/puts to the owning shard's lane,
// anti-entropy record application and batch overhead to the tagged
// shard's lane, locks / notifies / round-0 digests to the global lane — and
// the plan executes on ServerOptions::cores_per_server cores. Same-shard
// work serializes, cross-shard work overlaps up to the core count, and
// cores_per_server = 1 reproduces the old single-service-center model
// exactly (per-message demands are unchanged; only their lane routing is
// new). Recovery replay is charged shard by shard to the replayed shard's
// lane, so a multi-core server recovers its shards in parallel.

#ifndef HAT_SERVER_REPLICA_SERVER_H_
#define HAT_SERVER_REPLICA_SERVER_H_

#include <string>
#include <vector>

#include "hat/common/histogram.h"
#include "hat/net/rpc.h"
#include "hat/server/anti_entropy_engine.h"
#include "hat/server/lock_manager.h"
#include "hat/server/mav_coordinator.h"
#include "hat/server/partitioner.h"
#include "hat/server/persistence_manager.h"
#include "hat/server/service_costs.h"
#include "hat/server/shard_executor.h"
#include "hat/server/shard_migrator.h"
#include "hat/version/sharded_store.h"

namespace hat::server {

struct ServerOptions {
  ServiceCosts costs;
  /// Number of local data-plane shards (independent VersionedStore
  /// instances) this server hosts. Replicas exchanging digests must agree.
  size_t shards_per_server = 1;
  /// Execution slots of this server's ShardExecutor: how many lanes can be
  /// in service simultaneously. 1 (the default) reproduces the old
  /// single-service-center queueing exactly; C > 1 lets cross-shard work
  /// overlap, so a server with shards_per_server >= cores_per_server scales
  /// its saturation throughput near-linearly in C (Figure 6 cores sweep).
  size_t cores_per_server = 1;
  /// Digest buckets per shard (VersionedStore's round-1 granularity).
  /// Shrink for small per-shard stores so a bucket exchange stops paying
  /// the full default. Replicas exchanging digests must agree.
  size_t digest_buckets = version::VersionedStore::kDefaultDigestBuckets;
  /// Servers per cluster copy: the cluster holds shards_per_server x stride
  /// logical shards. Deployments set this to servers_per_cluster so server-
  /// and shard-level hash placement compose; standalone servers leave it
  /// at 1.
  size_t shard_placement_stride = 1;
  /// Logical-shard ownership (size shards_per_server, one logical shard id
  /// per local slot). Deployments fill it from the PlacementMap so servers
  /// can detect keys they do not own (kWrongShard after a live migration);
  /// empty (standalone servers, stride 1) selects the identity layout, under
  /// which every key is owned.
  std::vector<uint32_t> owned_logical_shards;
  /// Stop-and-wait resend timeout for migration snapshot chunks.
  sim::Duration migration_chunk_timeout = 500 * sim::kMillisecond;
  /// Cadence of source-side migration catch-up digest rounds.
  sim::Duration migration_catchup_interval = 50 * sim::kMillisecond;
  /// Charge WAL-sync service time on installs (the paper's servers write
  /// synchronously to LevelDB before responding).
  bool durable = true;
  /// Non-empty: persist installed writes to a LocalStore under this
  /// directory, enabling crash/recovery tests. Empty: modeled durability
  /// only (service-time charge, no real IO) — used by benchmarks.
  std::string storage_dir;
  /// Anti-entropy outbox flush cadence.
  sim::Duration ae_flush_interval = 5 * sim::kMillisecond;
  /// Retransmit unacknowledged anti-entropy batches after this long.
  sim::Duration ae_retry_interval = 250 * sim::kMillisecond;
  /// Re-broadcast MAV pending-stable acks for still-pending transactions
  /// (recovers promotions whose notifies were lost to a partition).
  sim::Duration renotify_interval = 500 * sim::kMillisecond;
  /// Digest-based repair: every interval, exchange digests with one random
  /// peer replica and back-fill whatever it is missing. Catches writes whose
  /// push outbox was lost to a crash. 0 disables (benchmarks use push-only
  /// anti-entropy).
  sim::Duration digest_sync_interval = 0;
  /// False disables the anti-entropy push outboxes (writes propagate via
  /// digest repair only) — used by tests that exercise repair in isolation.
  bool ae_push_enabled = true;
  /// Max payload bytes per digest-repair reply batch (0 = uncapped).
  size_t ae_batch_max_bytes = 64 * 1024;
  /// Drop pending MAV writes older than the good version for their key
  /// (the "pending invalidation" optimization of Appendix B).
  bool gc_stale_pending = true;
  /// Max writes per anti-entropy batch.
  size_t ae_batch_max = 64;
  /// Garbage-collect old versions beyond this many per key (0 = unlimited).
  /// Old versions fold into a single base Put, preserving visible values
  /// (Section 5.1.2: "older versions can be asynchronously garbage
  /// collected").
  size_t max_versions_per_key = 8;
};

/// Aggregate view over the dispatcher's own counters and every subsystem's
/// stats — the external monitoring surface (kept flat so tests and benches
/// sum servers field-wise).
struct ServerStats {
  uint64_t gets = 0;
  uint64_t gets_not_yet = 0;  ///< required-bound reads answered kNotYet
  uint64_t gets_from_pending = 0;
  uint64_t puts = 0;
  uint64_t scans = 0;
  uint64_t notifies = 0;
  uint64_t ae_batches_in = 0;
  uint64_t ae_records_in = 0;
  uint64_t ae_records_out = 0;
  uint64_t ae_batches_out = 0;      ///< push batches sent (first sends)
  uint64_t ae_retransmits = 0;      ///< unacked batches re-sent (backoff)
  uint64_t ae_dupes_suppressed = 0; ///< retransmit dupes dropped by dedupe
  uint64_t ae_dedupe_rotations = 0; ///< applied-batch set generation flips
  /// Anti-entropy batches whose header + group commit were charged to the
  /// tagged shard's lane; the rest named a shard this server does not host
  /// and were charged to the global lane.
  uint64_t ae_shard_lane_batches = 0;
  /// Client envelope batches executed, and the operations they carried
  /// (client_batch_ops / client_batches = achieved group-commit factor).
  uint64_t client_batches = 0;
  uint64_t client_batch_ops = 0;
  uint64_t ae_digest_ticks = 0;
  uint64_t ae_digest_entries_out = 0;  ///< per-key digest entries shipped
  uint64_t ae_digest_bytes_out = 0;    ///< digest-protocol wire bytes sent
  uint64_t mav_promotions = 0;
  uint64_t stale_pending_dropped = 0;
  /// NOTIFYs sent, by path (see MavStats): the MAV message budget is
  /// notifies <= 2 * (mav_acks_sent + mav_renotifies), summed over servers.
  uint64_t mav_acks_sent = 0;
  uint64_t mav_renotifies = 0;
  uint64_t mav_notify_replies = 0;
  uint64_t locks_granted = 0;
  uint64_t locks_queued = 0;
  uint64_t lock_deaths = 0;  ///< wait-die aborts issued
  /// Placement-epoch routing corrections and late-gossip handling:
  uint64_t wrong_shard_replies = 0;   ///< client ops answered kWrongShard
  uint64_t forwarded_records = 0;     ///< unowned gossip re-pushed to owner
  /// Durable WAL group commits: one per applied anti-entropy batch and per
  /// client envelope batch carrying at least one put (the single wal_sync_us
  /// the cost table charges those paths). Group-commit amortization =
  /// installs / wal_group_commits.
  uint64_t wal_group_commits = 0;
  // Live-migration counters (see MigratorStats):
  uint64_t mig_snapshot_records_out = 0;
  uint64_t mig_snapshot_records_in = 0;
  uint64_t mig_catchup_records_in = 0;
  double busy_us = 0;        ///< total service time consumed, all lanes
  // ShardExecutor counters (see ShardExecutorStats):
  uint64_t exec_tasks = 0;       ///< classified tasks submitted
  uint64_t exec_dispatches = 0;  ///< cross-core shard-lane handoffs charged
  /// Busy microseconds per lane: [0, shards_per_server) the construction-
  /// time shard lanes, [shards_per_server] the global lane, then one lane
  /// per shard attached by live migration. Divide by elapsed time for
  /// per-lane utilization (the saturation signal — a hot shard or a
  /// saturated global lane shows up here long before total utilization
  /// reaches 1).
  std::vector<double> lane_busy_us;
  /// Point-in-time booked backlog per lane (same indexing as
  /// lane_busy_us): tasks whose service has not completed yet. The
  /// migration coordinator treats depth 0 on the moving shard's lane as
  /// its drain point; benches print it as the queueing signal.
  std::vector<uint64_t> lane_queue_depth;
  /// Microseconds each task waited for its lane and a core before service.
  Histogram queue_wait_us;

  /// Field list for obs::Registry::AddStats / obs::MergeStats: one line per
  /// field, visited as (name, member pointer). The static_assert below
  /// pins sizeof(ServerStats) to exactly the visited fields, so adding a
  /// field without listing it here fails the build instead of silently
  /// dropping out of TotalServerStats-style merges.
  template <typename V>
  static void VisitFields(V&& v) {
    v("gets", &ServerStats::gets);
    v("gets_not_yet", &ServerStats::gets_not_yet);
    v("gets_from_pending", &ServerStats::gets_from_pending);
    v("puts", &ServerStats::puts);
    v("scans", &ServerStats::scans);
    v("notifies", &ServerStats::notifies);
    v("ae_batches_in", &ServerStats::ae_batches_in);
    v("ae_records_in", &ServerStats::ae_records_in);
    v("ae_records_out", &ServerStats::ae_records_out);
    v("ae_batches_out", &ServerStats::ae_batches_out);
    v("ae_retransmits", &ServerStats::ae_retransmits);
    v("ae_dupes_suppressed", &ServerStats::ae_dupes_suppressed);
    v("ae_dedupe_rotations", &ServerStats::ae_dedupe_rotations);
    v("ae_shard_lane_batches", &ServerStats::ae_shard_lane_batches);
    v("client_batches", &ServerStats::client_batches);
    v("client_batch_ops", &ServerStats::client_batch_ops);
    v("ae_digest_ticks", &ServerStats::ae_digest_ticks);
    v("ae_digest_entries_out", &ServerStats::ae_digest_entries_out);
    v("ae_digest_bytes_out", &ServerStats::ae_digest_bytes_out);
    v("mav_promotions", &ServerStats::mav_promotions);
    v("stale_pending_dropped", &ServerStats::stale_pending_dropped);
    v("mav_acks_sent", &ServerStats::mav_acks_sent);
    v("mav_renotifies", &ServerStats::mav_renotifies);
    v("mav_notify_replies", &ServerStats::mav_notify_replies);
    v("locks_granted", &ServerStats::locks_granted);
    v("locks_queued", &ServerStats::locks_queued);
    v("lock_deaths", &ServerStats::lock_deaths);
    v("wrong_shard_replies", &ServerStats::wrong_shard_replies);
    v("forwarded_records", &ServerStats::forwarded_records);
    v("wal_group_commits", &ServerStats::wal_group_commits);
    v("mig_snapshot_records_out", &ServerStats::mig_snapshot_records_out);
    v("mig_snapshot_records_in", &ServerStats::mig_snapshot_records_in);
    v("mig_catchup_records_in", &ServerStats::mig_catchup_records_in);
    v("busy_us", &ServerStats::busy_us);
    v("exec_tasks", &ServerStats::exec_tasks);
    v("exec_dispatches", &ServerStats::exec_dispatches);
    v("lane_busy_us", &ServerStats::lane_busy_us);
    v("lane_queue_depth", &ServerStats::lane_queue_depth);
    v("queue_wait_us", &ServerStats::queue_wait_us);
  }
};

/// Completeness guard for VisitFields: 36 8-byte scalars + 2 vectors + 1
/// Histogram, with no padding between 8-byte-aligned members. A new field
/// changes the size and trips this until VisitFields lists it.
static_assert(sizeof(ServerStats) ==
                  36 * sizeof(uint64_t) + 2 * sizeof(std::vector<double>) +
                      sizeof(Histogram),
              "ServerStats changed: update ServerStats::VisitFields (and the "
              "field count here) so generic merge/registration stay complete");

class ReplicaServer : public net::RpcNode {
 public:
  ReplicaServer(sim::Simulation& sim, net::Network& net, net::NodeId id,
                ServerOptions options, const Partitioner* partitioner);

  /// Loads previously persisted state (storage_dir mode). Call before the
  /// simulation starts or after a simulated crash.
  Status RecoverFromStorage();

  /// Simulates a crash: wipes all volatile state (good/pending/acks/locks/
  /// outboxes). Durable state on disk survives for RecoverFromStorage().
  void Crash();

  /// Snapshots every hosted shard's live versions into its durable
  /// checkpoint and truncates the superseded good-version history, so the
  /// next RecoverFromStorage replays checkpoint + tail instead of every
  /// version ever installed. No-op without a storage directory.
  Status CheckpointStorage();

  const ServerStats& stats() const;
  const version::ShardedStore& good() const { return good_; }
  size_t PendingCount() const { return mav_.PendingWriteCount(); }

  /// Subsystem views, for tests and diagnostics.
  const PersistenceManager& persistence() const { return persistence_; }
  const MavCoordinator& mav() const { return mav_; }
  const AntiEntropyEngine& anti_entropy() const { return anti_entropy_; }
  const LockManager& lock_manager() const { return locks_; }
  const ShardExecutor& executor() const { return executor_; }
  /// Live-migration mechanics; the RebalanceCoordinator's control surface.
  ShardMigrator& migrator() { return migrator_; }
  const ShardMigrator& migrator() const { return migrator_; }

  /// Executor lane of local slot `slot` (slots beyond the construction-time
  /// shard count skip over the global lane, which is pinned at index
  /// shards_per_server).
  size_t LaneOfSlot(size_t slot) const {
    return slot < options_.shards_per_server ? slot : slot + 1;
  }
  /// Booked backlog on the lane of logical shard `shard` (0 if not hosted)
  /// — the coordinator's drain-point probe.
  size_t ShardLaneQueueDepth(uint32_t shard) const {
    auto slot = good_.SlotOfLogical(shard);
    return slot ? executor_.QueueDepth(LaneOfSlot(*slot)) : 0;
  }

  /// Bootstrap/test hook: installs a version directly into the good set with
  /// no gossip, persistence, or service cost (dataset preloading).
  void InstallForTest(const WriteRecord& w) { good_.Apply(w); }

  /// Observability: attaches `tracer` to this server and its subsystems
  /// (executor queue-wait/execute spans, MAV ack-fan-in spans, WAL-commit /
  /// AE-apply / checkpoint events). nullptr detaches. Tracing records no
  /// simulation events and consumes no RNG, so attaching cannot perturb a
  /// deterministic run.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    executor_.set_tracer(tracer, id());
    mav_.set_tracer(tracer);
  }

  /// Fraction of this server's capacity (cores_per_server x elapsed)
  /// consumed so far. A saturated C-core server reads 1.0, not C.
  double UtilizationOver(sim::SimTime elapsed) const {
    return executor_.UtilizationOver(elapsed);
  }
  /// Fraction of elapsed time one lane (shard index, or shards_per_server
  /// for the global lane) was busy.
  double LaneUtilizationOver(size_t lane, sim::SimTime elapsed) const {
    return executor_.LaneUtilizationOver(lane, elapsed);
  }

 protected:
  void HandleMessage(net::Envelope env) override;

 private:
  void Process(const net::Envelope& env);
  /// Classifies one message into executor work: which lanes it occupies and
  /// for how long (the per-message-type ServiceCosts table). Returns a
  /// reference to `plan_scratch_`, reused per message so the dispatch hot
  /// path stays allocation-free at steady state.
  const std::vector<ShardExecutor::Work>& PlanFor(
      const net::Message& msg) const;
  /// Executor lane of `key`'s shard; the global lane for keys whose shard
  /// this server no longer hosts (their handling is a routing correction,
  /// not shard work).
  size_t LaneOf(const Key& key) const {
    auto slot = good_.TrySlotOfKey(key);
    return slot ? LaneOfSlot(*slot) : executor_.global_lane();
  }

  void HandleGet(const net::Envelope& env);
  void HandleScan(const net::Envelope& env);
  void HandlePut(const net::Envelope& env);
  void HandleClientBatch(const net::Envelope& env);

  /// Single-operation execution, shared by the plain RPC handlers and the
  /// batched envelope path so both count stats and route identically. An
  /// active `trace` threads the sampled transaction's context into the
  /// install pipeline (MAV notify fan-out, anti-entropy propagation).
  net::GetResponse DoGet(const net::GetRequest& req);
  net::PutResponse DoPut(const net::PutRequest& req,
                         const obs::TraceContext& trace = {});

  /// True when this server currently serves client operations on `key`: it
  /// owns the key's logical shard and the shard is not a migration staging
  /// copy.
  bool ServesKey(const Key& key) const {
    auto slot = good_.TrySlotOfKey(key);
    return slot.has_value() && !migrator_.IsStagingSlot(*slot);
  }
  /// Grows the executor so `slot` (a freshly attached staging shard) has a
  /// lane.
  void EnsureLaneForSlot(size_t slot);
  /// The logical shard tags the store currently hosts, in slot order.
  std::vector<uint32_t> CurrentOwned() const;
  /// Rewrites the durable placement manifest from the store's current
  /// ownership (no-op without a storage directory).
  void WriteManifestFromState();
  /// Builds the ShardedStore options for this server's configuration, with
  /// `owned` as the slot layout (empty = the identity layout).
  version::ShardedStore::Options StoreOptions(
      std::vector<uint32_t> owned) const;

  /// Installs into the good set (eventual / Read Committed path). `origin`
  /// is the peer the write arrived from (net::kNoPeer for client writes);
  /// re-gossip excludes it so a 2-replica exchange does not echo every write
  /// straight back to its sender. Returns true if the version was new
  /// (duplicate anti-entropy deliveries return false and do nothing).
  bool InstallEventual(const WriteRecord& w, bool gossip,
                       net::NodeId origin = net::kNoPeer,
                       obs::TraceContext trace = {});
  /// Routes a record received via anti-entropy to the right install path.
  void InstallFromPeer(const WriteRecord& w, net::PutMode mode,
                       net::NodeId from, obs::TraceContext trace = {});
  void MaybeGcVersions(const Key& key);

  ServerOptions options_;
  const Partitioner* partitioner_;
  obs::Tracer* tracer_ = nullptr;
  mutable ServerStats stats_;  // mutable: stats() assembles subsystem counts
  ShardExecutor executor_;
  // PlanFor scratch space (capacity retained across messages).
  mutable std::vector<ShardExecutor::Work> plan_scratch_;
  mutable std::vector<double> shard_cost_scratch_;

  version::ShardedStore good_;
  PersistenceManager persistence_;
  MavCoordinator mav_;
  AntiEntropyEngine anti_entropy_;
  LockManager locks_;
  ShardMigrator migrator_;
};

}  // namespace hat::server

#endif  // HAT_SERVER_REPLICA_SERVER_H_
