#include "hat/server/mav_coordinator.h"

#include <algorithm>
#include <utility>

namespace hat::server {

namespace {
constexpr size_t kPromotedMemory = 100000;
constexpr size_t kEarlyAckBackstop = 100000;
}  // namespace

MavCoordinator::MavCoordinator(sim::Simulation& sim, net::NodeId id,
                               const Partitioner* partitioner,
                               version::ShardedStore& good,
                               PersistenceManager& persistence, Options options,
                               SendFn send, GossipFn gossip, GcFn gc_versions)
    : sim_(sim),
      id_(id),
      partitioner_(partitioner),
      good_(good),
      persistence_(persistence),
      options_(options),
      send_(std::move(send)),
      gossip_(std::move(gossip)),
      gc_versions_(std::move(gc_versions)) {}

void MavCoordinator::Start() {
  // Stagger the recurring timer per server so deterministic runs do not
  // synchronize every server's background work on the same tick.
  sim::Duration offset = (id_ * 131) % options_.renotify_interval + 1;
  sim_.After(offset, [this]() { RenotifyTick(); });
}

const WriteRecord* MavCoordinator::PendingVersion(const Key& key,
                                                  const Timestamp& ts) {
  auto by_key = pending_by_key_.find(key);
  if (by_key == pending_by_key_.end()) return nullptr;
  auto exact = by_key->second.find(ts);
  if (exact == by_key->second.end()) return nullptr;
  stats_.gets_from_pending++;
  return &exact->second;
}

void MavCoordinator::Install(const WriteRecord& w, bool gossip,
                             net::NodeId origin, obs::TraceContext trace) {
  // A write for a shard this server no longer hosts (live migration) has
  // nothing to install here; the owner's copy runs the MAV protocol.
  if (!good_.OwnsKey(w.key)) return;
  // Duplicate suppression: already promoted or already pending.
  if (good_.Contains(w.key, w.ts)) return;
  auto& per_key = pending_by_key_[w.key];
  if (per_key.count(w.ts)) return;

  // Pending invalidation (Appendix B optimization): a good version newer
  // than this write supersedes it for every read path, so the write itself
  // can be dropped — but we still ack so siblings can promote elsewhere.
  auto latest_good = good_.LatestTimestamp(w.key);
  bool stale =
      options_.gc_stale_pending && latest_good && *latest_good > w.ts;
  if (stale) {
    stats_.stale_pending_dropped++;
  } else {
    per_key.emplace(w.ts, w);
  }
  if (per_key.empty()) pending_by_key_.erase(w.key);

  auto& txn = pending_txns_[w.ts];
  if (txn.sibs.empty()) {
    txn.sibs = w.sibs.empty() ? std::vector<Key>{w.key} : w.sibs;
    txn.installed_us = sim_.Now();
    auto early = early_acks_.find(w.ts);
    if (early != early_acks_.end()) {
      txn.acks = std::move(early->second);
      early_acks_.erase(early);
    }
  }
  if (trace.active() && !txn.trace.active()) txn.trace = trace;
  txn.writes.push_back(w);
  pending_writes_++;
  if (!stale) persistence_.PersistPending(good_.LogicalShardOfKey(w.key), w);
  if (gossip) gossip_(w, origin, trace);
  MaybeAck(w.ts);
  MaybePromote(w.ts);
}

void MavCoordinator::ResolvePlacement(PendingTxn& txn) const {
  uint64_t epoch = partitioner_->PlacementEpoch();
  if (txn.placement_epoch == epoch) return;
  txn.placement_epoch = epoch;
  txn.ack_set.clear();
  txn.local_keys.clear();
  for (const auto& k : txn.sibs) {
    std::vector<net::NodeId> replicas = partitioner_->ReplicasOf(k);
    if (std::find(replicas.begin(), replicas.end(), id_) != replicas.end()) {
      txn.local_keys.push_back(k);
    }
    txn.ack_set.insert(txn.ack_set.end(), replicas.begin(), replicas.end());
  }
  std::sort(txn.ack_set.begin(), txn.ack_set.end());
  txn.ack_set.erase(std::unique(txn.ack_set.begin(), txn.ack_set.end()),
                    txn.ack_set.end());
}

void MavCoordinator::MaybeAck(const Timestamp& ts) {
  auto it = pending_txns_.find(ts);
  if (it == pending_txns_.end() || it->second.acked_by_self) return;
  PendingTxn& txn = it->second;
  ResolvePlacement(txn);
  // Ack once every sibling key this server replicates has arrived.
  for (const auto& k : txn.local_keys) {
    bool have = false;
    for (const auto& w : txn.writes) {
      if (w.key == k) {
        have = true;
        break;
      }
    }
    if (!have) return;
  }
  txn.acked_by_self = true;
  for (net::NodeId peer : txn.ack_set) {
    if (peer == id_) {
      txn.acks.insert(id_);
    } else {
      stats_.acks_sent++;
      send_(peer, net::NotifyRequest{ts, id_}, txn.trace);
    }
  }
}

void MavCoordinator::HandleNotify(const net::NotifyRequest& req) {
  stats_.notifies++;
  auto it = pending_txns_.find(req.ts);
  if (it == pending_txns_.end()) {
    if (promoted_.count(req.ts)) {
      // We already promoted this transaction and dropped its ack state; the
      // sender is catching up after a partition — answer so it can promote.
      // A reply is not answered: the sender of a reply has promoted too.
      if (req.sender != id_ && !req.reply) {
        stats_.notify_replies++;
        send_(req.sender, net::NotifyRequest{req.ts, id_, /*reply=*/true},
              {});
      }
      return;
    }
    // The ack raced ahead of the write itself; remember it.
    if (early_acks_.size() > kEarlyAckBackstop) early_acks_.clear();
    early_acks_[req.ts].insert(req.sender);
    return;
  }
  it->second.acks.insert(req.sender);
  MaybePromote(req.ts);
}

void MavCoordinator::MaybePromote(const Timestamp& ts) {
  auto it = pending_txns_.find(ts);
  if (it == pending_txns_.end()) return;
  PendingTxn& txn = it->second;
  ResolvePlacement(txn);
  for (net::NodeId n : txn.ack_set) {
    if (!txn.acks.count(n)) return;
  }
  // Pending-stable everywhere: reveal. (Keys of a shard detached mid-flight
  // by live migration have no local copy to reveal into; their pending
  // entries are dropped with the shard.)
  for (const auto& w : txn.writes) {
    if (!good_.OwnsKey(w.key)) continue;
    size_t shard = good_.LogicalShardOfKey(w.key);
    if (good_.Apply(w)) persistence_.PersistGood(shard, w);
    gc_versions_(w.key);
    persistence_.ErasePersistedPending(shard, w);
    auto by_key = pending_by_key_.find(w.key);
    if (by_key != pending_by_key_.end()) {
      by_key->second.erase(w.ts);
      if (by_key->second.empty()) pending_by_key_.erase(by_key);
    }
  }
  stats_.promotions++;
  if (txn.trace.active() && tracer_ != nullptr && tracer_->enabled()) {
    // Ack fan-in: first install of the txn on this replica -> pending-stable.
    obs::Span s;
    s.trace_id = txn.trace.trace_id;
    s.span_id = tracer_->NewSpanId();
    s.parent_id = txn.trace.span_id;
    s.kind = obs::SpanKind::kMavAckWait;
    s.node = id_;
    s.start_us = txn.installed_us;
    s.end_us = sim_.Now();
    s.arg = txn.acks.size();
    tracer_->Record(s);
  }
  pending_writes_ -= txn.writes.size();
  pending_txns_.erase(it);
  promoted_.insert(ts);
  promoted_fifo_.push_back(ts);
  if (promoted_fifo_.size() > kPromotedMemory) {
    promoted_.erase(promoted_fifo_.front());
    promoted_fifo_.pop_front();
  }
}

void MavCoordinator::RenotifyTick() {
  // Liveness under partitions: keep re-broadcasting our ack for transactions
  // still pending so a healed network eventually promotes them.
  for (auto& [ts, txn] : pending_txns_) {
    if (!txn.acked_by_self) continue;
    ResolvePlacement(txn);
    for (net::NodeId peer : txn.ack_set) {
      if (peer != id_ && !txn.acks.count(peer)) {
        // Renotifies are background retransmits, not part of any one txn's
        // critical path; they go untraced.
        stats_.renotifies++;
        send_(peer, net::NotifyRequest{ts, id_}, {});
      }
    }
  }
  sim_.After(options_.renotify_interval, [this]() { RenotifyTick(); });
}

void MavCoordinator::Clear() {
  pending_by_key_.clear();
  pending_txns_.clear();
  pending_writes_ = 0;
  early_acks_.clear();
  promoted_.clear();
  promoted_fifo_.clear();
}

}  // namespace hat::server
