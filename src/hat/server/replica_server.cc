#include "hat/server/replica_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace hat::server {

using net::Envelope;
using net::Message;

version::ShardedStore::Options ReplicaServer::StoreOptions(
    std::vector<uint32_t> owned) const {
  version::ShardedStore::Options store;
  store.shards = owned.empty() ? options_.shards_per_server : owned.size();
  store.digest_buckets = options_.digest_buckets;
  // The modulus is the cluster-wide L, not a function of how many slots
  // this server holds (a post-migration shape can own more or fewer).
  store.num_logical_shards =
      options_.shards_per_server * options_.shard_placement_stride;
  store.logical_shards = std::move(owned);
  return store;
}

ReplicaServer::ReplicaServer(sim::Simulation& sim, net::Network& net,
                             net::NodeId id, ServerOptions options,
                             const Partitioner* partitioner)
    : net::RpcNode(sim, net, id),
      options_(std::move(options)),
      partitioner_(partitioner),
      executor_(sim_,
                ShardExecutor::Options{options_.shards_per_server,
                                       options_.cores_per_server,
                                       options_.costs.dispatch_us}),
      good_(StoreOptions(options_.owned_logical_shards)),
      persistence_(options_.storage_dir),
      mav_(sim_, id, partitioner_, good_, persistence_,
           MavCoordinator::Options{options_.gc_stale_pending,
                                   options_.renotify_interval},
           [this](net::NodeId to, Message m, obs::TraceContext t) {
             SendOneWay(to, std::move(m), t);
           },
           [this](const WriteRecord& w, net::NodeId origin,
                  obs::TraceContext t) {
             anti_entropy_.Enqueue(w, net::PutMode::kMav, origin, t);
           },
           [this](const Key& k) { MaybeGcVersions(k); }),
      anti_entropy_(
          sim_, id, partitioner_, good_,
          AntiEntropyEngine::Options{
              options_.ae_flush_interval, options_.ae_retry_interval,
              options_.digest_sync_interval, options_.ae_batch_max,
              options_.ae_batch_max_bytes, options_.ae_push_enabled},
          [this](net::NodeId to, Message m, obs::TraceContext t) {
            SendOneWay(to, std::move(m), t);
          },
          [this](const WriteRecord& w, net::PutMode mode, net::NodeId from,
                 obs::TraceContext t) {
            InstallFromPeer(w, mode, from, t);
          }),
      locks_(
          [this](const Envelope& env, const net::LockResponse& resp) {
            Reply(env, resp);
          }),
      migrator_(
          sim_, good_,
          ShardMigrator::Options{options_.ae_batch_max,
                                 options_.ae_batch_max_bytes,
                                 options_.migration_chunk_timeout,
                                 options_.migration_catchup_interval},
          [this](net::NodeId to, Message m) { SendOneWay(to, std::move(m)); },
          [this](net::NodeId to, Message m, sim::Duration timeout,
                 ShardMigrator::RpcCallback cb) {
            Call(to, std::move(m), timeout, std::move(cb));
          },
          [this](const WriteRecord& w) {
            // Snapshot-chunk install: set-union into the staged shard plus
            // persistence, with no gossip (the records are replicated
            // state the other clusters already hold).
            if (!good_.OwnsKey(w.key)) return false;
            if (!good_.Apply(w)) return false;
            persistence_.PersistGood(good_.LogicalShardOfKey(w.key), w);
            return true;
          },
          [this](size_t slot) { EnsureLaneForSlot(slot); },
          [this]() { WriteManifestFromState(); },
          [this](uint32_t shard) { (void)persistence_.EraseShard(shard); }) {
  assert(options_.owned_logical_shards.empty() ||
         options_.owned_logical_shards.size() == options_.shards_per_server);
  if (persistence_.enabled()) {
    // Fail-fast layout guard: adopt a matching manifest's owned set (a
    // restart after migrations). An absent manifest is written fresh; a
    // mismatched or unreadable one is rewritten only while the keyspace is
    // empty — over live data it is left in place so recovery refuses
    // instead of replaying under the wrong layout.
    auto manifest = persistence_.ReadManifest();
    if (manifest.ok() &&
        manifest->shards_per_server == options_.shards_per_server &&
        manifest->stride == options_.shard_placement_stride) {
      if (manifest->owned != CurrentOwned()) {
        good_ = version::ShardedStore(StoreOptions(manifest->owned));
        for (size_t s = options_.shards_per_server;
             s < good_.shard_count(); s++) {
          EnsureLaneForSlot(s);
        }
      }
    } else if (manifest.status().IsNotFound() ||
               !persistence_.HasShardData()) {
      WriteManifestFromState();
    }
  }
  mav_.Start();
  anti_entropy_.Start();
}

void ReplicaServer::EnsureLaneForSlot(size_t slot) {
  while (executor_.lane_count() <= LaneOfSlot(slot)) executor_.AddLane();
}

std::vector<uint32_t> ReplicaServer::CurrentOwned() const {
  std::vector<uint32_t> owned;
  for (size_t s = 0; s < good_.shard_count(); s++) {
    uint32_t tag = good_.LogicalTagOfSlot(s);
    if (tag != version::ShardedStore::kNoShard) owned.push_back(tag);
  }
  return owned;
}

void ReplicaServer::WriteManifestFromState() {
  if (!persistence_.enabled()) return;
  PersistenceManifest m;
  m.shards_per_server = static_cast<uint32_t>(options_.shards_per_server);
  m.stride = static_cast<uint32_t>(options_.shard_placement_stride);
  m.epoch = partitioner_ ? partitioner_->PlacementEpoch() : 0;
  m.owned = CurrentOwned();
  (void)persistence_.WriteManifest(m);
}

const ServerStats& ReplicaServer::stats() const {
  const MavStats& m = mav_.stats();
  stats_.gets_from_pending = m.gets_from_pending;
  stats_.notifies = m.notifies;
  stats_.mav_promotions = m.promotions;
  stats_.stale_pending_dropped = m.stale_pending_dropped;
  stats_.mav_acks_sent = m.acks_sent;
  stats_.mav_renotifies = m.renotifies;
  stats_.mav_notify_replies = m.notify_replies;
  const AntiEntropyStats& ae = anti_entropy_.stats();
  stats_.ae_batches_in = ae.batches_in;
  stats_.ae_records_in = ae.records_in;
  stats_.ae_records_out = ae.records_out;
  stats_.ae_batches_out = ae.batches_out;
  stats_.ae_retransmits = ae.retransmits;
  stats_.ae_dupes_suppressed = ae.dupes_suppressed;
  stats_.ae_dedupe_rotations = ae.dedupe_rotations;
  stats_.ae_digest_ticks = ae.digest_ticks;
  stats_.ae_digest_entries_out = ae.digest_entries_out;
  stats_.ae_digest_bytes_out = ae.digest_bytes_out;
  const LockStats& l = locks_.stats();
  stats_.locks_granted = l.granted;
  stats_.locks_queued = l.queued;
  stats_.lock_deaths = l.deaths;
  const MigratorStats& mig = migrator_.stats();
  stats_.mig_snapshot_records_out = mig.snapshot_records_out;
  stats_.mig_snapshot_records_in = mig.snapshot_records_in;
  stats_.mig_catchup_records_in = mig.catchup_records_in;
  const ShardExecutorStats& ex = executor_.stats();
  stats_.busy_us = ex.busy_us;
  stats_.exec_tasks = ex.tasks;
  stats_.exec_dispatches = ex.dispatches;
  stats_.lane_busy_us = ex.lane_busy_us;
  stats_.lane_queue_depth.resize(executor_.lane_count());
  for (size_t lane = 0; lane < executor_.lane_count(); lane++) {
    stats_.lane_queue_depth[lane] = executor_.QueueDepth(lane);
  }
  stats_.queue_wait_us = ex.queue_wait_us;
  return stats_;
}

// --------------------------------------------------------------------------
// Service-time classification (the per-message-type ServiceCosts table)
// --------------------------------------------------------------------------

namespace {
/// Exhaustive visitor: every message type must appear here. Adding a type
/// to net::Message without classifying it is a compile error, not a silent
/// 1µs default.
template <class... Ts>
struct CostTable : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
CostTable(Ts...) -> CostTable<Ts...>;
}  // namespace

const std::vector<ShardExecutor::Work>& ReplicaServer::PlanFor(
    const Message& msg) const {
  const ServiceCosts& c = options_.costs;
  const size_t global = executor_.global_lane();
  const double kb = static_cast<double>(net::WireBytes(msg)) / 1024.0;

  plan_scratch_.clear();
  auto add = [this](size_t lane, double cost) {
    plan_scratch_.push_back({lane, cost});
  };
  // Responses are consumed by RpcNode::OnMessage and never dispatched here.
  auto never = [&](const char* what) {
    (void)what;
    assert(!"response message reached the server cost table");
    add(global, 0);
  };

  std::visit(
      CostTable{
          [&](const net::PingRequest&) {
            add(global, c.ping_us);  // pings measure the network
          },
          [&](const net::GetRequest& get) {
            add(LaneOf(get.key), c.get_us + c.per_kb_us * kb);
          },
          [&](const net::ScanRequest&) {
            // Fixed cost only: the per-item charge is added by HandleScan,
            // to each contributing shard's lane, once the result size is
            // known — so it delays the reply (and large scans cannot hide
            // behind an already-scheduled response).
            add(global, c.scan_base_us + c.per_kb_us * kb);
          },
          [&](const net::PutRequest& put) {
            double cost = c.put_us + c.per_kb_us * kb;
            if (options_.durable) cost += c.wal_sync_us;
            if (put.mode == net::PutMode::kMav) {
              // Both backend puts (install into pending, promotion's
              // pending -> good reveal) touch the same key, so both are
              // charged here, to the key's shard lane — identical totals
              // to the single-service-center model, which keeps C = 1
              // reproducing its numbers exactly.
              cost += c.mav_extra_put_us;
              cost += c.mav_metadata_per_kb_us *
                      static_cast<double>(put.write.SibBytes()) / 1024.0;
              if (c.pending_contention_scale > 0) {
                cost *= 1.0 + static_cast<double>(mav_.PendingWriteCount()) /
                                  c.pending_contention_scale;
              }
            }
            add(LaneOf(put.write.key), cost);
          },
          [&](const net::NotifyRequest&) {
            add(global, c.notify_us + c.per_kb_us * kb);
          },
          [&](const net::AntiEntropyBatch& batch) {
            // Batch overhead (and the group-commit WAL sync) lands on the
            // lane of the shard the batch is tagged with (the whole batch IS
            // that shard's work), and on the global lane when this server
            // does not host that shard. Record application is charged to
            // each record's owning shard; the accumulation is per *lane*
            // (records of a shard this server no longer hosts are forwarding
            // work on the global lane).
            double overhead = c.ae_batch_us + c.per_kb_us * kb;
            if (options_.durable) overhead += c.wal_sync_us;
            size_t overhead_lane = global;
            if (auto slot = good_.SlotOfLogical(batch.shard)) {
              overhead_lane = LaneOfSlot(*slot);
              stats_.ae_shard_lane_batches++;
            }
            add(overhead_lane, overhead);
            shard_cost_scratch_.assign(executor_.lane_count(), 0);
            for (const auto& w : batch.writes) {
              double cost = c.ae_record_us;
              if (batch.mode == net::PutMode::kMav) {
                cost += c.mav_extra_put_us / 2;
                cost += c.mav_metadata_per_kb_us *
                        static_cast<double>(w.SibBytes()) / 1024.0;
              }
              shard_cost_scratch_[LaneOf(w.key)] += cost;
            }
            for (size_t lane = 0; lane < shard_cost_scratch_.size(); lane++) {
              if (shard_cost_scratch_[lane] > 0) {
                add(lane, shard_cost_scratch_[lane]);
              }
            }
          },
          [&](const net::AntiEntropyAck&) {
            add(global, c.ack_us + c.per_kb_us * kb);
          },
          [&](const net::DigestRequest& digest) {
            double cost = c.ae_batch_us + c.per_kb_us * kb +
                          0.2 * static_cast<double>(digest.latest.size());
            // A request walks (and back-fills from) one shard. digest.shard
            // is a logical shard tag — resolve it to the hosting slot's lane.
            auto slot = good_.SlotOfLogical(digest.shard);
            add(slot ? LaneOfSlot(*slot) : global, cost);
          },
          [&](const net::BucketDigest& bd) {
            // Comparing B hashes is far cheaper than per-key processing.
            double cost = c.ae_batch_us + c.per_kb_us * kb +
                          0.02 * static_cast<double>(bd.hashes.size());
            auto slot = good_.SlotOfLogical(bd.shard);
            add(slot ? LaneOfSlot(*slot) : global, cost);
          },
          [&](const net::ShardDigest& sd) {
            add(global, c.ae_batch_us + c.per_kb_us * kb +
                            0.02 * static_cast<double>(sd.shards.size()));
          },
          [&](const net::ShardSnapshotRequest& req) {
            // Freezing the outgoing shard's version set is a full shard
            // scan, charged to that shard's lane.
            auto slot = good_.SlotOfLogical(req.shard);
            double cost = c.ae_batch_us + c.per_kb_us * kb;
            if (slot) {
              cost += c.scan_item_us *
                      static_cast<double>(good_.shard(*slot).VersionCount());
              add(LaneOfSlot(*slot), cost);
            } else {
              add(global, cost);
            }
          },
          [&](const net::ShardSnapshotChunk& chunk) {
            // Chunk overhead like an anti-entropy batch; record application
            // charged to the staged (moving) shard's lane, so migration
            // work queues behind — and is queued behind by — that shard's
            // regular traffic instead of stalling the whole server.
            double overhead = c.ae_batch_us + c.per_kb_us * kb;
            if (options_.durable) overhead += c.wal_sync_us;
            add(global, overhead);
            if (!chunk.writes.empty()) {
              auto slot = good_.SlotOfLogical(chunk.shard);
              add(slot ? LaneOfSlot(*slot) : global,
                  c.ae_record_us * static_cast<double>(chunk.writes.size()));
            }
          },
          [&](const net::ClientBatchRequest& batch) {
            // One envelope header + (for durable installs) ONE WAL group
            // commit for the whole batch — the client-side amortization win.
            // Each op still pays its full get/put cost on its key's shard
            // lane, so batching shrinks per-op overhead, not per-op work.
            double overhead = c.client_batch_us + c.per_kb_us * kb;
            bool any_put = false;
            shard_cost_scratch_.assign(executor_.lane_count(), 0);
            for (const auto& op : batch.ops) {
              std::visit(
                  [&](const auto& o) {
                    using O = std::decay_t<decltype(o)>;
                    if constexpr (std::is_same_v<O, net::PutRequest>) {
                      any_put = true;
                      double cost = c.put_us;
                      if (o.mode == net::PutMode::kMav) {
                        cost += c.mav_extra_put_us;
                        cost += c.mav_metadata_per_kb_us *
                                static_cast<double>(o.write.SibBytes()) /
                                1024.0;
                        if (c.pending_contention_scale > 0) {
                          cost *= 1.0 +
                                  static_cast<double>(
                                      mav_.PendingWriteCount()) /
                                      c.pending_contention_scale;
                        }
                      }
                      shard_cost_scratch_[LaneOf(o.write.key)] += cost;
                    } else {
                      shard_cost_scratch_[LaneOf(o.key)] += c.get_us;
                    }
                  },
                  op);
            }
            if (options_.durable && any_put) overhead += c.wal_sync_us;
            add(global, overhead);
            for (size_t lane = 0; lane < shard_cost_scratch_.size(); lane++) {
              if (shard_cost_scratch_[lane] > 0) {
                add(lane, shard_cost_scratch_[lane]);
              }
            }
          },
          [&](const net::LockRequest&) {
            add(global, c.lock_us + c.per_kb_us * kb);
          },
          [&](const net::UnlockRequest&) {
            add(global, c.lock_us + c.per_kb_us * kb);
          },
          [&](const net::PingResponse&) { never("PingResponse"); },
          [&](const net::PutResponse&) { never("PutResponse"); },
          [&](const net::GetResponse&) { never("GetResponse"); },
          [&](const net::ScanResponse&) { never("ScanResponse"); },
          [&](const net::LockResponse&) { never("LockResponse"); },
          [&](const net::ShardSnapshotAck&) { never("ShardSnapshotAck"); },
          [&](const net::ClientBatchResponse&) {
            never("ClientBatchResponse");
          },
      },
      msg);
  return plan_scratch_;
}

void ReplicaServer::HandleMessage(Envelope env) {
  // env.trace (active only for sampled transactions) flows into the
  // executor so a traced request's queue-wait and execution are spans. The
  // plan and the trace are taken before the envelope moves into the
  // closure: argument evaluation order is unspecified.
  const std::vector<ShardExecutor::Work>& plan = PlanFor(env.msg);
  const obs::TraceContext trace = env.trace;
  executor_.SubmitAll(
      plan, [this, env = std::move(env)]() { Process(env); }, trace);
}

void ReplicaServer::Process(const Envelope& env) {
  if (std::holds_alternative<net::PingRequest>(env.msg)) {
    Reply(env, net::PingResponse{});
  } else if (std::holds_alternative<net::GetRequest>(env.msg)) {
    HandleGet(env);
  } else if (std::holds_alternative<net::ScanRequest>(env.msg)) {
    HandleScan(env);
  } else if (std::holds_alternative<net::PutRequest>(env.msg)) {
    HandlePut(env);
  } else if (std::holds_alternative<net::ClientBatchRequest>(env.msg)) {
    HandleClientBatch(env);
  } else if (const auto* notify = std::get_if<net::NotifyRequest>(&env.msg)) {
    mav_.HandleNotify(*notify);
  } else if (const auto* batch = std::get_if<net::AntiEntropyBatch>(&env.msg)) {
    // All of a batch's installs share one durable group commit (matching
    // the single wal_sync_us the cost table charges the batch).
    if (options_.durable) stats_.wal_group_commits++;
    persistence_.GroupCommit(
        [&]() { anti_entropy_.HandleBatch(*batch, env.from, env.trace); });
    if (env.trace.active() && tracer_ != nullptr && tracer_->enabled()) {
      obs::Span s;
      s.trace_id = env.trace.trace_id;
      s.span_id = tracer_->NewSpanId();
      s.parent_id = env.trace.span_id;
      s.kind = obs::SpanKind::kAeApply;
      s.node = id();
      s.start_us = sim_.Now();
      s.end_us = sim_.Now();
      s.arg = batch->writes.size();
      tracer_->Record(s);
    }
  } else if (const auto* ack = std::get_if<net::AntiEntropyAck>(&env.msg)) {
    anti_entropy_.HandleAck(*ack);
  } else if (const auto* digest = std::get_if<net::DigestRequest>(&env.msg)) {
    anti_entropy_.HandleDigest(*digest, env.from);
  } else if (const auto* bd = std::get_if<net::BucketDigest>(&env.msg)) {
    anti_entropy_.HandleBucketDigest(*bd, env.from);
  } else if (const auto* sd = std::get_if<net::ShardDigest>(&env.msg)) {
    anti_entropy_.HandleShardDigest(*sd, env.from);
  } else if (const auto* lock = std::get_if<net::LockRequest>(&env.msg)) {
    locks_.Acquire(env, *lock);
  } else if (const auto* unlock = std::get_if<net::UnlockRequest>(&env.msg)) {
    locks_.Release(*unlock);
  } else if (const auto* sreq =
                 std::get_if<net::ShardSnapshotRequest>(&env.msg)) {
    migrator_.HandleSnapshotRequest(*sreq, env.from);
  } else if (const auto* chunk =
                 std::get_if<net::ShardSnapshotChunk>(&env.msg)) {
    Reply(env, migrator_.HandleChunk(*chunk));
  }
}

// --------------------------------------------------------------------------
// Reads
// --------------------------------------------------------------------------

net::GetResponse ReplicaServer::DoGet(const net::GetRequest& req) {
  stats_.gets++;
  net::GetResponse resp;

  if (!ServesKey(req.key)) {
    // The key's shard migrated away (or is still staging here): a
    // stale-epoch client must refresh its routing and retry at the owner.
    stats_.wrong_shard_replies++;
    resp.code = net::GetCode::kWrongShard;
    return resp;
  }

  auto fill = [&resp](const ReadVersion& rv) {
    resp.found = rv.found;
    resp.value = rv.value;
    resp.ts = rv.ts;
    resp.sibs = rv.sibs;
    resp.deps = rv.deps;
  };

  if (!req.required) {
    fill(good_.Read(req.key, req.bound));
    return resp;
  }

  // Appendix B GET(k, ts_required): prefer a good version at or above the
  // bound; otherwise serve the exact pending version; otherwise ask the
  // client to retry (kNotYet).
  auto latest_good = good_.LatestTimestamp(req.key);
  if (latest_good && *latest_good >= *req.required) {
    fill(good_.Read(req.key, req.bound));
    return resp;
  }
  if (const WriteRecord* w = mav_.PendingVersion(req.key, *req.required)) {
    resp.found = true;
    resp.value = w->value;
    resp.ts = w->ts;
    resp.sibs = w->sibs;
    resp.deps = w->deps;
    return resp;
  }
  stats_.gets_not_yet++;
  resp.code = net::GetCode::kNotYet;
  return resp;
}

void ReplicaServer::HandleGet(const Envelope& env) {
  Reply(env, DoGet(std::get<net::GetRequest>(env.msg)));
}

void ReplicaServer::HandleScan(const Envelope& env) {
  const auto& req = std::get<net::ScanRequest>(env.msg);
  stats_.scans++;
  net::ScanResponse resp;
  // Scatter-gather scans take each server's owned slots; a migrating shard
  // must be served by exactly one side or the merged result double-counts
  // its keys. Pre-cutover that is the source (the destination's copy is
  // staging); post-cutover it is the destination (the source still holds
  // the shard until the drain detaches it, but is no longer its replica
  // under the live placement).
  std::vector<char> skip(good_.shard_count(), 0);
  for (size_t s = 0; s < good_.shard_count(); s++) {
    if (migrator_.IsStagingSlot(s)) {
      skip[s] = 1;
      continue;
    }
    const WriteRecord* w = good_.shard(s).AnyRecord();
    if (w == nullptr || partitioner_ == nullptr) continue;
    auto replicas = partitioner_->ReplicasOf(w->key);
    if (std::find(replicas.begin(), replicas.end(), id()) == replicas.end()) {
      skip[s] = 1;  // draining: the shard's new owner serves it now
    }
  }
  std::vector<uint64_t> items_per_shard(good_.shard_count(), 0);
  good_.ScanVisitSharded(req.lo, req.hi, req.bound,
                         [&](size_t shard, const Key& key, ReadVersion rv) {
                           if (skip[shard]) return;
                           items_per_shard[shard]++;
                           net::ScanResponse::Item item;
                           item.key = key;
                           item.value = std::move(rv.value);
                           item.ts = rv.ts;
                           item.sibs = std::move(rv.sibs);
                           resp.items.push_back(std::move(item));
                         });
  // The per-item cost is part of the task that produces the reply: each
  // contributing shard's lane is charged for its items, and the response
  // leaves only when the last shard finishes — a 1000-item scan replies
  // later than a 1-item scan (with multiple cores, shards stream in
  // parallel).
  std::vector<ShardExecutor::Work> plan;
  for (size_t s = 0; s < items_per_shard.size(); s++) {
    if (items_per_shard[s] == 0) continue;
    plan.push_back({LaneOfSlot(s), options_.costs.scan_item_us *
                                       static_cast<double>(items_per_shard[s])});
  }
  executor_.SubmitAll(plan, [this, env, resp = std::move(resp)]() mutable {
    Reply(env, std::move(resp));
  });
}

// --------------------------------------------------------------------------
// Writes
// --------------------------------------------------------------------------

net::PutResponse ReplicaServer::DoPut(const net::PutRequest& req,
                                      const obs::TraceContext& trace) {
  stats_.puts++;
  if (!ServesKey(req.write.key)) {
    stats_.wrong_shard_replies++;
    return net::PutResponse{false, /*wrong_shard=*/true};
  }
  if (trace.active() && options_.durable && tracer_ != nullptr &&
      tracer_->enabled()) {
    // The WAL sync this install pays (wal_sync_us in the cost table) has
    // already elapsed as executor service time; mark the commit point.
    obs::Span s;
    s.trace_id = trace.trace_id;
    s.span_id = tracer_->NewSpanId();
    s.parent_id = trace.span_id;
    s.kind = obs::SpanKind::kWalCommit;
    s.node = id();
    s.lane = static_cast<int32_t>(LaneOf(req.write.key));
    s.start_us = sim_.Now();
    s.end_us = sim_.Now();
    tracer_->Record(s);
  }
  if (req.mode == net::PutMode::kEventual) {
    InstallEventual(req.write, /*gossip=*/true, net::kNoPeer, trace);
  } else {
    mav_.Install(req.write, /*gossip=*/true, net::kNoPeer, trace);
  }
  return net::PutResponse{true};
}

void ReplicaServer::HandlePut(const Envelope& env) {
  Reply(env, DoPut(std::get<net::PutRequest>(env.msg), env.trace));
}

void ReplicaServer::HandleClientBatch(const Envelope& env) {
  // Ops execute in arrival order through the same DoGet/DoPut paths as
  // plain RPCs (stats, wrong-shard detection, gossip, session guarantees
  // all identical); one reply carries every op's response, parallel to the
  // request's op list, and the client demuxes back to per-op callbacks.
  const auto& req = std::get<net::ClientBatchRequest>(env.msg);
  stats_.client_batches++;
  stats_.client_batch_ops += req.ops.size();
  net::ClientBatchResponse resp;
  resp.replies.reserve(req.ops.size());
  // One durable group commit spans every install in the envelope (matching
  // the single wal_sync_us the cost table charges the batch).
  bool any_put = false;
  persistence_.GroupCommit([&]() {
    for (const auto& op : req.ops) {
      std::visit(
          [&](const auto& o) {
            using O = std::decay_t<decltype(o)>;
            if constexpr (std::is_same_v<O, net::PutRequest>) {
              any_put = true;
              resp.replies.emplace_back(DoPut(o, env.trace));
            } else {
              resp.replies.emplace_back(DoGet(o));
            }
          },
          op);
    }
  });
  if (options_.durable && any_put) stats_.wal_group_commits++;
  Reply(env, std::move(resp));
}

bool ReplicaServer::InstallEventual(const WriteRecord& w, bool gossip,
                                    net::NodeId origin,
                                    obs::TraceContext trace) {
  bool inserted = good_.Apply(w);
  if (!inserted) return false;  // duplicate delivery (anti-entropy redundancy)
  persistence_.PersistGood(good_.LogicalShardOfKey(w.key), w);
  MaybeGcVersions(w.key);
  if (gossip) anti_entropy_.Enqueue(w, net::PutMode::kEventual, origin, trace);
  return true;
}

void ReplicaServer::InstallFromPeer(const WriteRecord& w, net::PutMode mode,
                                    net::NodeId from, obs::TraceContext trace) {
  // `from` threads through to Enqueue's `except`: the sender already has the
  // write, so re-gossiping it back would only double anti-entropy traffic.
  auto slot = good_.TrySlotOfKey(w.key);
  if (!slot) {
    // Late gossip for a shard that migrated away: forward it to the new
    // owner through the placement-aware outbox (the current epoch's
    // ReplicasOf already routes to the destination) instead of dropping a
    // record the sender considers delivered.
    stats_.forwarded_records++;
    anti_entropy_.Enqueue(w, mode, from, trace);
    return;
  }
  if (mode == net::PutMode::kEventual) {
    // Records filling a staging (pre-cutover) copy are replicated state the
    // rest of the cluster already propagates — installing without re-gossip
    // avoids spraying the whole shard back out.
    bool staging = migrator_.IsStagingSlot(*slot);
    bool inserted = InstallEventual(w, /*gossip=*/!staging, from, trace);
    if (staging && inserted) migrator_.NoteStagingInstall();
  } else {
    mav_.Install(w, /*gossip=*/true, from, trace);
  }
}

void ReplicaServer::MaybeGcVersions(const Key& key) {
  size_t limit = options_.max_versions_per_key;
  if (limit == 0) return;
  if (good_.VersionCountFor(key) <= limit) return;
  // Convergence-safe GC: only versions older than the newest Put can be
  // dropped — a late write below a Put is shadowed by it on every replica,
  // so local pruning cannot make replicas diverge. Delta chains with no
  // newer Put are retained (a coordinated stability frontier would be
  // needed to fold them; Section 5.1.2's "asynchronously garbage
  // collected").
  //
  // Cost control: the common case (a Put within the newest `limit`
  // versions) is O(limit); deep scans of long delta chains are amortized.
  size_t count = good_.VersionCountFor(key);
  auto newest_put = good_.NewestPutWithin(key, limit);
  if (!newest_put) {
    if (count % 256 != 0) return;  // amortize deep walks on delta chains
    newest_put = good_.NewestPutTimestamp(key);
    if (!newest_put) return;
  }
  auto horizon = good_.NthNewestTimestamp(key, limit - 1);
  if (!horizon) return;
  good_.DropVersionsBefore(key, std::min(*horizon, *newest_put));
}

// --------------------------------------------------------------------------
// Durability / recovery
// --------------------------------------------------------------------------

void ReplicaServer::Crash() {
  // Ownership shape survives the crash — it is configuration, not data: a
  // migrated-in shard keeps its (now empty) slot so digest repair can
  // refill it even on a server with no durable storage, and routing (which
  // still points here) never strands the shard. The data itself is
  // restored by RecoverFromStorage or by anti-entropy.
  good_ = version::ShardedStore(StoreOptions(CurrentOwned()));
  mav_.Clear();
  anti_entropy_.Clear();
  locks_.Clear();
  migrator_.Clear();
  // Frees the busy frontiers only. Messages already in service keep their
  // completion events and are processed against the wiped state — the same
  // semantics the scalar busy_until_ reset had (network-level retransmits,
  // not the executor, are what re-deliver lost work after a crash).
  executor_.Reset();
}

Status ReplicaServer::CheckpointStorage() {
  if (!persistence_.enabled()) {
    return Status::Unsupported("server has no storage directory");
  }
  uint64_t epoch = partitioner_ ? partitioner_->PlacementEpoch() : 0;
  // Checkpoints are keyed by *logical* shard id, matching PersistGood's
  // keyspace; each slot holds exactly one logical shard.
  std::vector<uint32_t> owned = CurrentOwned();
  for (uint32_t shard : owned) {
    size_t slot = *good_.SlotOfLogical(shard);
    Status status = persistence_.CheckpointShard(
        shard, epoch,
        [this, slot](const std::function<void(const WriteRecord&)>& sink) {
          good_.shard(slot).ForEachVersion(sink);
        });
    if (!status.ok()) return status;
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Timeline annotation, not part of any sampled txn (trace_id 0): marks
    // when this server paused to write checkpoint files.
    obs::Span s;
    s.kind = obs::SpanKind::kCheckpoint;
    s.node = id();
    s.start_us = sim_.Now();
    s.end_us = sim_.Now();
    s.arg = owned.size();
    tracer_->Record(s);
  }
  return Status::Ok();
}

Status ReplicaServer::RecoverFromStorage() {
  if (!persistence_.enabled()) {
    return Status::Unsupported("server has no storage directory");
  }
  // Fail-fast layout guard: the manifest records the layout the keyspace
  // was written under. Replaying under a different shards_per_server or
  // stride would scramble records across shards, so recovery refuses
  // instead (reshard by wiping the directory, not by reinterpreting live
  // data). The owned set, however, is *adopted*: a server that migrated
  // shards in or out before the crash recovers at its post-migration
  // shape.
  auto manifest = persistence_.ReadManifest();
  std::vector<uint32_t> owned;
  if (manifest.ok()) {
    if (manifest->shards_per_server != options_.shards_per_server ||
        manifest->stride != options_.shard_placement_stride) {
      return Status::Corruption(
          "persistence manifest mismatch: keyspace written under " +
          std::to_string(manifest->shards_per_server) + " shards/server, " +
          "stride " + std::to_string(manifest->stride) + "; server runs " +
          std::to_string(options_.shards_per_server) + "/" +
          std::to_string(options_.shard_placement_stride));
    }
    // (manifest->epoch is informational: a recovering server may lag or —
    // across full-deployment restarts, where the in-memory PlacementMap is
    // reborn at 0 — lead the cluster's epoch; neither blocks replaying
    // data whose layout matches.)
    owned = manifest->owned;
    if (owned != CurrentOwned()) {
      good_ = version::ShardedStore(StoreOptions(owned));
      for (size_t s = 0; s < good_.shard_count(); s++) EnsureLaneForSlot(s);
    }
  } else if (manifest.status().IsNotFound()) {
    // Pre-manifest directory: its records were keyed by *local slot index*
    // (the historical keyspace), so replay those prefixes; records re-route
    // by key below.
    for (size_t s = 0; s < good_.shard_count(); s++) {
      owned.push_back(static_cast<uint32_t>(s));
    }
  } else {
    return manifest.status();  // unreadable manifest over live data: refuse
  }
  // Shard-by-shard replay of only the shards this server hosts. Good
  // (revealed) versions re-enter directly (re-routed by key, so records
  // land correctly even if the persisted shard tag ever disagrees);
  // pending (not yet stable) versions re-enter the MAV pipeline, whose
  // acks will be re-broadcast by MaybeAck/RenotifyTick.
  std::vector<uint64_t> replayed(executor_.lane_count(), 0);
  Status status = persistence_.Recover(
      owned,
      [this, &replayed](size_t, const WriteRecord& w) {
        if (!good_.OwnsKey(w.key)) return;  // stale record of a moved shard
        replayed[LaneOf(w.key)]++;
        good_.Apply(w);
      },
      [this, &replayed](size_t, const WriteRecord& w) {
        if (!good_.OwnsKey(w.key)) return;
        replayed[LaneOf(w.key)]++;
        mav_.Install(w, true);
      });
  if (!status.ok()) return status;
  // Replay is charged per shard lane: a recovering server is busy applying
  // its durable state, and with cores > 1 the shards replay in parallel, so
  // recovery time shrinks with the core count instead of serializing.
  for (size_t lane = 0; lane < replayed.size(); lane++) {
    if (replayed[lane] == 0) continue;
    executor_.Submit(lane,
                     static_cast<double>(replayed[lane]) * options_.costs.put_us,
                     nullptr);
  }
  return status;
}

}  // namespace hat::server
