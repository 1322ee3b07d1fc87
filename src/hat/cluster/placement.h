// Epoch-versioned shard placement and the live-migration control plane.
//
// PlacementMap is the source of truth for logical-shard -> server
// assignment inside each cluster copy. Epoch 0 is the stride layout —
// logical shard l lives on server slot l % servers_per_cluster — so a
// deployment that never rebalances routes by pure key-hash arithmetic. Every reassignment bumps a single monotonically
// increasing epoch; routers (clients via client::Routing, servers via
// server::Partitioner) consult the live map, and a server that receives an
// operation for a shard it no longer hosts answers kWrongShard so stale
// routing self-corrects (the paper's HAT guarantees are unaffected:
// operations retry at the new owner, no coordination on the read/write
// path is introduced).
//
// RebalanceCoordinator drives one live migration of a logical shard
// between two servers of one cluster while the workload keeps running:
//
//   kSnapshot  destination attaches a staging slot and pulls the shard's
//              frozen version set in bounded ShardSnapshotChunk batches
//              (idempotent set-union: crash recovery just restarts the
//              stream);
//   kCatchup   the source re-runs the (shard, bucket)-scoped digest
//              protocol against the destination until the destination
//              holds a superset of the source's shard and the source's
//              shard lane has drained (ShardExecutor queue depth 0 — the
//              deterministic "quiet point");
//   cutover    destination's staging slot is promoted to serving, the
//              placement epoch bumps (routing flips atomically on the
//              simulation's virtual clock);
//   kDrain     stragglers that were in flight to the source keep applying
//              there and one more digest round ships them across; once the
//              source's shard is again a subset of the destination's, the
//              source detaches the slot, tombstones its on-disk keyspace,
//              and forwards any late anti-entropy records to the new
//              owner.
//
// The coordinator is control plane only: it schedules simulation events
// and calls in-process control hooks on the two servers (the moral
// equivalent of an operator's configuration service); all bulk data moves
// as real network messages whose service time is charged to the moving
// shard's executor lane.

#ifndef HAT_CLUSTER_PLACEMENT_H_
#define HAT_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "hat/sim/simulation.h"

namespace hat::cluster {

class Deployment;

/// Logical-shard -> server-slot assignment for every cluster copy, with a
/// deployment-wide epoch that bumps on every reassignment.
class PlacementMap {
 public:
  PlacementMap() : PlacementMap(1, 1, 1) {}
  /// Epoch-0 map: in every cluster, logical shard l is owned by slot
  /// l % servers_per_cluster (identical to the historical stride
  /// arithmetic).
  PlacementMap(int clusters, int servers_per_cluster, int shards_per_server);

  uint64_t epoch() const { return epoch_; }
  int clusters() const { return static_cast<int>(owner_.size()); }
  int servers_per_cluster() const { return servers_per_cluster_; }
  int num_logical_shards() const { return num_logical_shards_; }

  /// Server slot hosting `logical_shard` inside `cluster`.
  int Owner(int cluster, int logical_shard) const {
    return owner_[cluster][logical_shard];
  }

  /// All logical shards `slot` hosts in `cluster`, ascending. At epoch 0
  /// this is {slot, slot + spc, slot + 2*spc, ...} — the stride layout.
  std::vector<uint32_t> OwnedBy(int cluster, int slot) const;

  /// Reassigns one logical shard and bumps the epoch. Returns the new
  /// epoch. No-op (epoch unchanged) if `slot` already owns the shard.
  uint64_t SetOwner(int cluster, int logical_shard, int slot);

 private:
  int servers_per_cluster_;
  int num_logical_shards_;
  uint64_t epoch_ = 0;
  std::vector<std::vector<int>> owner_;  // [cluster][logical shard] -> slot
};

/// Progress counters of one migration, printed by the fig6 --migrate sweep.
struct MigrationStats {
  uint64_t snapshot_records = 0;   ///< records shipped in the bulk phase
  uint64_t catchup_records = 0;    ///< records shipped by digest catch-up
  uint64_t restarts = 0;           ///< crash-triggered stream restarts
  uint64_t cutover_epoch = 0;      ///< placement epoch after the flip
  sim::SimTime started_at = 0;
  sim::SimTime cutover_at = 0;     ///< routing flipped (0 until it happens)
  sim::SimTime finished_at = 0;    ///< source detached (0 until done)
};

/// Drives one live shard migration against a Deployment (see file comment
/// for the state machine). Construct, ScheduleMigration(), run the
/// simulation; Done() reports completion and stats() the shipped volumes.
class RebalanceCoordinator {
 public:
  struct Options {
    /// State-machine poll cadence.
    sim::Duration poll_interval = 20 * sim::kMillisecond;
    /// Catch-up phase bound: under sustained write traffic the source never
    /// quiesces, so after this long the cutover is forced with bounded lag
    /// — safe, because routing flips traffic away from the source and the
    /// drain phase still requires the destination to hold a superset
    /// before the source detaches (no operation is lost; reads at the
    /// destination may briefly trail by one catch-up round, which eventual
    /// consistency permits).
    sim::Duration max_catchup_wait = 600 * sim::kMillisecond;
  };

  explicit RebalanceCoordinator(Deployment& deployment)
      : RebalanceCoordinator(deployment, Options()) {}
  RebalanceCoordinator(Deployment& deployment, Options options);

  /// Migration state machine phases (see file comment); exposed for tests
  /// and diagnostics.
  enum class Phase { kIdle, kSnapshot, kCatchup, kDrain, kDone };
  Phase phase() const { return phase_; }

  /// Schedules `logical_shard` of `cluster` to move to server slot
  /// `to_slot` at virtual time `at`. One migration per coordinator.
  void ScheduleMigration(int cluster, uint32_t logical_shard, int to_slot,
                         sim::SimTime at);

  /// The logical shard with the highest executor-lane busy time across
  /// `cluster`'s servers — the natural pick for a hot-shard drain.
  uint32_t PickHottestShard(int cluster) const;

  bool Done() const { return phase_ == Phase::kDone; }
  const MigrationStats& stats() const { return stats_; }

 private:
  void Start();
  void Tick();
  /// Crash recovery: abandon the current stream and start a fresh one
  /// under a new migration id — a full snapshot pull (destination lost its
  /// staged copy) or catch-up rounds only (destination still holds the
  /// bulk; the source re-reconciles the diff).
  void RestartStream(bool full_snapshot);
  /// Every (key, ts) of the source's copy of the shard is present at the
  /// destination (the cutover / detach safety condition).
  bool SourceSubsetOfDest() const;

  Deployment& deployment_;
  Options options_;
  Phase phase_ = Phase::kIdle;
  MigrationStats stats_;

  int cluster_ = 0;
  uint32_t shard_ = 0;
  int from_slot_ = 0;
  int to_slot_ = 0;
  uint64_t migration_id_ = 0;
  uint64_t next_migration_id_ = 0;
  sim::SimTime catchup_started_ = 0;
  /// When the current stream (re)started — crash detection waits out a
  /// grace period from here before declaring a peer dead.
  sim::SimTime last_restart_ = 0;
};

}  // namespace hat::cluster

#endif  // HAT_CLUSTER_PLACEMENT_H_
