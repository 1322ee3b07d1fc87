// Shared helpers for subsystem-level unit tests that need a Partitioner but
// not a full Deployment.

#ifndef HAT_TESTS_TEST_UTIL_H_
#define HAT_TESTS_TEST_UTIL_H_

#include <map>
#include <vector>

#include "hat/server/partitioner.h"

namespace hat::server {

/// Every key is replicated on the same fixed set of nodes; the first node is
/// the master. Mirrors one shard of the paper's cluster-per-copy layout.
/// Tests that model a placement change override single keys with
/// SetReplicas and bump the epoch with set_epoch.
class FixedPartitioner : public Partitioner {
 public:
  explicit FixedPartitioner(std::vector<net::NodeId> replicas)
      : replicas_(std::move(replicas)) {}

  std::vector<net::NodeId> ReplicasOf(const Key& key) const override {
    auto it = overrides_.find(key);
    return it == overrides_.end() ? replicas_ : it->second;
  }
  net::NodeId MasterOf(const Key&) const override { return replicas_.front(); }
  uint64_t PlacementEpoch() const override { return epoch_; }

  void SetReplicas(const Key& key, std::vector<net::NodeId> replicas) {
    overrides_[key] = std::move(replicas);
  }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  std::vector<net::NodeId> replicas_;
  std::map<Key, std::vector<net::NodeId>> overrides_;
  uint64_t epoch_ = 0;
};

}  // namespace hat::server

#endif  // HAT_TESTS_TEST_UTIL_H_
