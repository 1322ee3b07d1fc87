// Deployment: builds a complete simulated hatkv installation.
//
// Mirrors the paper's experimental configuration (Section 6.3): the database
// is deployed in clusters — disjoint sets of servers each holding a single,
// fully replicated copy of the data, sharded across the cluster's servers —
// typically one cluster per datacenter. A key's replicas are the servers
// owning its hash shard, one per cluster; its master is a deterministically
// "random" cluster's replica.
//
// Each cluster's copy is split into L = servers_per_cluster x
// shards_per_server *logical shards*: a key's logical shard is
// Fnv1a64(key) % L, the server hosting it is logical_shard %
// servers_per_cluster (identical to the classic Fnv1a64(key) %
// servers_per_cluster — raising shards_per_server never moves keys between
// servers), and the hosting server stores it in local shard
// logical_shard / servers_per_cluster of its ShardedStore. The deployment
// wires ServerOptions::shard_placement_stride and owned_logical_shards so
// every server's local routing agrees with this placement.

#ifndef HAT_CLUSTER_DEPLOYMENT_H_
#define HAT_CLUSTER_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "hat/client/routing.h"
#include "hat/client/txn_client.h"
#include "hat/cluster/placement.h"
#include "hat/net/network.h"
#include "hat/obs/registry.h"
#include "hat/obs/sampler.h"
#include "hat/obs/trace.h"
#include "hat/server/replica_server.h"
#include "hat/sim/simulation.h"

namespace hat::cluster {

/// Opt-in observability for a deployment (EnableObservability). Both halves
/// default off: a deployment without them schedules no extra simulation
/// events and its runs stay figure-identical to an uninstrumented build.
struct ObsConfig {
  /// Distributed tracing: sample every trace_sample_every-th transaction
  /// per client into per-node span rings (export with obs::WriteChromeTrace).
  bool tracing = false;
  uint64_t trace_sample_every = 1;
  size_t trace_ring_capacity = 1 << 15;
  /// Metrics sampling: snapshot every registered metric each sample_period
  /// of sim time (export with obs::WriteMetricsJson). Scheduling the sampler
  /// adds simulation events, so this knob — not tracing — is what perturbs
  /// event interleaving-sensitive comparisons.
  bool sampling = false;
  sim::Duration sample_period = 10 * sim::kMillisecond;
};

struct ClusterSpec {
  net::Region region = net::Region::kVirginia;
  uint8_t az = 0;
};

struct DeploymentOptions {
  std::vector<ClusterSpec> clusters;
  int servers_per_cluster = 5;
  server::ServerOptions server;
  net::LatencyOptions latency;

  /// Paper configuration helpers ------------------------------------------

  /// Figure 3A: two clusters within a single datacenter region (distinct
  /// AZs of us-east).
  static DeploymentOptions SingleDatacenter();
  /// Figure 3B: clusters in Virginia and Oregon.
  static DeploymentOptions TwoRegions();
  /// Figure 3C: the five lowest-communication-cost EC2 regions.
  static DeploymentOptions FiveRegions();
};

class Deployment : public server::Partitioner, public client::Routing {
 public:
  Deployment(sim::Simulation& sim, DeploymentOptions options);
  ~Deployment();

  // --- Partitioner / Routing ----------------------------------------------
  std::vector<net::NodeId> ReplicasOf(const Key& key) const override;
  net::NodeId MasterOf(const Key& key) const override;
  int NumClusters() const override {
    return static_cast<int>(options_.clusters.size());
  }
  net::NodeId ReplicaInCluster(const Key& key, int cluster) const override;
  uint64_t PlacementEpoch() const override { return placement_.epoch(); }

  /// Epoch-versioned logical-shard -> server assignment, the routing source
  /// of truth (epoch 0 reproduces the classic stride arithmetic). The
  /// mutable accessor is the RebalanceCoordinator's cutover hook.
  const PlacementMap& placement() const { return placement_; }
  PlacementMap& placement() { return placement_; }

  // --- accessors ------------------------------------------------------------
  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return *network_; }
  int ServersPerCluster() const { return options_.servers_per_cluster; }
  int ShardsPerServer() const {
    return static_cast<int>(options_.server.shards_per_server);
  }
  int CoresPerServer() const {
    return static_cast<int>(options_.server.cores_per_server);
  }
  /// Logical shards per cluster copy (servers_per_cluster x
  /// shards_per_server).
  int NumLogicalShards() const {
    return options_.servers_per_cluster * ShardsPerServer();
  }
  /// The epoch-0 server-level shard of `key` within a cluster:
  /// LogicalShardOf(key) % ServersPerCluster(). Live routing goes through
  /// the PlacementMap (ReplicaInCluster); this hash slot only diverges from
  /// it for shards a migration has moved.
  int ShardOf(const Key& key) const;
  /// The logical shard of `key` within a cluster copy.
  int LogicalShardOf(const Key& key) const;
  /// The local shard index `key` occupies inside its hosting server's
  /// ShardedStore.
  int LocalShardOf(const Key& key) const {
    return LogicalShardOf(key) / options_.servers_per_cluster;
  }
  net::NodeId ServerId(int cluster, int shard) const;
  server::ReplicaServer& server(net::NodeId id) { return *servers_.at(id); }
  const server::ReplicaServer& server(net::NodeId id) const {
    return *servers_.at(id);
  }
  size_t ServerCount() const { return servers_.size(); }

  /// All node ids of one cluster's servers.
  std::vector<net::NodeId> ClusterServers(int cluster) const override;

  /// Creates a client colocated with `home_cluster` (same AZ). The client is
  /// owned by the deployment.
  client::TxnClient& AddClient(client::ClientOptions options);

  /// Aggregate server stats across the deployment.
  server::ServerStats TotalServerStats() const;
  /// Aggregate client stats across every AddClient'd client.
  client::ClientStats TotalClientStats() const;

  // --- observability --------------------------------------------------------
  /// Builds the tracer and/or metrics registry+sampler per `config` and
  /// wires them through the network, every server, and every client
  /// (including clients added later). Call once, before Run.
  void EnableObservability(const ObsConfig& config);
  /// Null until EnableObservability enables the corresponding half.
  obs::Tracer* tracer() { return tracer_.get(); }
  obs::Registry* registry() { return registry_.get(); }
  obs::Sampler* sampler() { return sampler_.get(); }

  // --- partition helpers ----------------------------------------------------
  /// Partitions cluster `a` away from cluster `b` (all links between them).
  void PartitionClusters(int a, int b);
  /// Splits the world into {cluster a (+its clients)} vs everyone else.
  void IsolateCluster(int a);
  void Heal();

 private:
  /// Registers one server's metrics (AddStats over ServerStats plus the
  /// per-lane vector fields, where the lane label is known).
  void RegisterServerMetrics(const server::ReplicaServer& srv);
  void RegisterClientMetrics(const client::TxnClient& cli);

  sim::Simulation& sim_;
  DeploymentOptions options_;
  PlacementMap placement_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<server::ReplicaServer>> servers_;  // by NodeId
  std::vector<std::unique_ptr<client::TxnClient>> clients_;
  std::vector<int> client_cluster_;  // home cluster per client, for partitions
  std::vector<net::NodeId> client_ids_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Sampler> sampler_;
};

}  // namespace hat::cluster

#endif  // HAT_CLUSTER_DEPLOYMENT_H_
