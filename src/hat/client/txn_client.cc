#include "hat/client/txn_client.h"

#include <algorithm>
#include <cassert>

#include "hat/common/codec.h"

namespace hat::client {

namespace {
/// Aggregates N parallel sub-operations into one completion.
struct Barrier {
  int remaining = 0;
  Status first_error;
  std::function<void(Status)> done;

  void Arrive(const Status& s) {
    if (!s.ok() && first_error.ok()) first_error = s;
    if (--remaining == 0) done(first_error);
  }
};
}  // namespace

std::string_view IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadUncommitted: return "read-uncommitted";
    case IsolationLevel::kReadCommitted: return "read-committed";
    case IsolationLevel::kItemCut: return "item-cut";
    case IsolationLevel::kMonotonicAtomicView: return "mav";
  }
  return "?";
}

std::string_view SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kHat: return "hat";
    case SystemMode::kMaster: return "master";
    case SystemMode::kQuorum: return "quorum";
    case SystemMode::kLocking: return "locking";
  }
  return "?";
}

TxnClient::TxnClient(sim::Simulation& sim, net::Network& net, net::NodeId id,
                     ClientOptions options, const Routing* routing)
    : net::RpcNode(sim, net, id),
      options_(std::move(options)),
      routing_(routing),
      route_rng_(Fnv1a64(static_cast<uint64_t>(id)) ^ 0x9e3779b97f4a7c15ULL) {
}

void TxnClient::HandleMessage(net::Envelope env) {
  (void)env;  // Clients receive only RPC responses (handled by RpcNode).
}

// ---------------------------------------------------------------------------
// Timestamps, sessions, floors
// ---------------------------------------------------------------------------

Timestamp TxnClient::NextTxnTimestamp() {
  uint64_t logical =
      std::max({sim_.Now(), lamport_ + 1, last_logical_ + 1});
  last_logical_ = logical;
  return Timestamp{logical, id()};
}

std::optional<Timestamp> TxnClient::RequiredFor(const Key& key) const {
  // Non-HAT modes have their own recency story (master serializes per key).
  if (options_.mode != SystemMode::kHat) return std::nullopt;
  std::optional<Timestamp> req;
  auto mav = mav_required_.find(key);
  if (mav != mav_required_.end()) req = mav->second;
  auto floor = session_floor_.find(key);
  if (floor != session_floor_.end() &&
      (!req || floor->second > *req)) {
    req = floor->second;
  }
  return req;
}

void TxnClient::AbsorbReadMetadata(const Key& key, const Timestamp& ts,
                                   const std::vector<Key>& sibs,
                                   const std::vector<Dependency>& deps) {
  BumpLamport(ts);
  if (options_.monotonic_reads) {
    auto& floor = session_floor_[key];
    if (ts > floor) floor = ts;
  }
  if (options_.isolation == IsolationLevel::kMonotonicAtomicView) {
    for (const auto& sib : sibs) {
      auto& req = mav_required_[sib];
      if (ts > req) req = ts;
    }
  }
  if (options_.writes_follow_reads) {
    for (const auto& dep : deps) {
      auto& floor = session_floor_[dep.key];
      if (dep.ts > floor) floor = dep.ts;
    }
  }
}

void TxnClient::NewSession() {
  assert(!in_txn_);
  session_floor_.clear();
  session_id_++;
  session_seq_ = 0;
}

// ---------------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------------

void TxnClient::Begin() {
  assert(!in_txn_ && "one transaction at a time per client");
  in_txn_ = true;
  txn_epoch_++;
  txn_ts_ = NextTxnTimestamp();
  commit_ts_ = txn_ts_;  // re-assigned at commit time for buffered writes
  write_buffer_.clear();
  read_cache_.clear();
  range_cache_.clear();
  mav_required_.clear();
  dirty_writes_.clear();
  held_locks_.clear();
  outstanding_dirty_ = 0;
  dirty_seq_ = 0;
  session_seq_++;
  txn_trace_ = {};
  commit_start_us_ = 0;
  if (tracer_ != nullptr && tracer_->ShouldSampleTxn()) {
    txn_trace_ =
        obs::TraceContext{tracer_->NewTraceId(), tracer_->NewSpanId()};
    txn_start_us_ = sim_.Now();
  }
  if (observer_) observer_->OnBegin(txn_ts_, id(), session_id_, session_seq_);
}

void TxnClient::FinishTxn(TxnOutcome outcome) {
  in_txn_ = false;
  txn_epoch_++;
  switch (outcome) {
    case TxnOutcome::kCommitted:
      stats_.txns_committed++;
      break;
    case TxnOutcome::kAborted:
      stats_.txns_aborted_internal++;
      break;
    case TxnOutcome::kFailed:
      stats_.txns_unavailable++;
      break;
  }
  if (txn_trace_.active() && tracer_ != nullptr && tracer_->enabled()) {
    if (commit_start_us_ != 0) {
      obs::Span c;
      c.trace_id = txn_trace_.trace_id;
      c.span_id = tracer_->NewSpanId();
      c.parent_id = txn_trace_.span_id;
      c.kind = obs::SpanKind::kCommit;
      c.node = id();
      c.start_us = commit_start_us_;
      c.end_us = sim_.Now();
      c.arg = static_cast<uint64_t>(outcome);
      tracer_->Record(c);
    }
    // Root span last: it closes only once the outcome is known.
    obs::Span s;
    s.trace_id = txn_trace_.trace_id;
    s.span_id = txn_trace_.span_id;
    s.kind = obs::SpanKind::kTxn;
    s.node = id();
    s.start_us = txn_start_us_;
    s.end_us = sim_.Now();
    s.arg = static_cast<uint64_t>(outcome);
    tracer_->Record(s);
  }
  txn_trace_ = {};
  commit_start_us_ = 0;
}

void TxnClient::Abort() {
  if (!in_txn_) return;
  if (options_.mode == SystemMode::kLocking) ReleaseAllLocks();
  std::vector<WriteRecord> installed = dirty_writes_;  // RU leaks its writes
  FinishTxn(TxnOutcome::kAborted);
  if (observer_) observer_->OnFinish(txn_ts_, TxnOutcome::kAborted, installed);
}

// ---------------------------------------------------------------------------
// Replica selection
// ---------------------------------------------------------------------------

std::vector<net::NodeId> TxnClient::TargetsFor(const Key& key) const {
  switch (options_.mode) {
    case SystemMode::kMaster:
    case SystemMode::kLocking:
      return {routing_->MasterOf(key)};
    case SystemMode::kQuorum:
      return routing_->ReplicasOf(key);
    case SystemMode::kHat:
      break;
  }
  if (options_.sticky) {
    // Sticky availability: the session's continuity depends on staying with
    // its logical copy; never fail over.
    return {routing_->ReplicaInCluster(key, options_.home_cluster)};
  }
  // Non-sticky: rotate through clusters, starting from home (a locality-
  // aware balancer) or a random cluster (location-oblivious).
  std::vector<net::NodeId> targets;
  int n = routing_->NumClusters();
  int start = options_.home_cluster;
  if (options_.randomize_routing) {
    start = static_cast<int>(route_rng_.NextBelow(n));
  }
  for (int i = 0; i < n; i++) {
    targets.push_back(routing_->ReplicaInCluster(key, (start + i) % n));
  }
  return targets;
}

// ---------------------------------------------------------------------------
// Envelope batching
// ---------------------------------------------------------------------------

void TxnClient::CallOp(net::NodeId target, net::Message msg,
                       sim::Duration timeout, RpcCallback cb) {
  if (options_.batch_max <= 1) {
    obs::TraceContext env_trace;
    if (txn_trace_.active() && tracer_ != nullptr) {
      env_trace = tracer_->ChildOf(txn_trace_);
    }
    Call(target, std::move(msg), timeout, std::move(cb), env_trace);
    return;
  }
  TargetBatch& tb = batcher_[target];
  tb.ops.push_back(PendingOp{std::move(msg), timeout, std::move(cb),
                             sim_.Now(), txn_trace_});
  if (tb.ops.size() >= options_.batch_max) {
    FlushBatch(target);
    return;
  }
  if (!tb.flush_scheduled) {
    tb.flush_scheduled = true;
    // With batch_max_wait_us = 0 this still coalesces: equal-timestamp
    // events run in insertion order, so the flush fires after every op the
    // current synchronous burst enqueues (a commit's put loop, a quorum
    // fan-out) — batching them with zero added latency.
    sim::Duration wait = options_.batch_max_wait_us;
    if (wait > 0 && options_.adaptive_batch_wait &&
        inflight_envelopes_.find(target) == inflight_envelopes_.end()) {
      // Idle lane: this client has nothing outstanding at the target, so no
      // reply is due whose round-trip the wait could hide behind — holding
      // the envelope would convert the wait window straight into latency.
      // Close at instant-end (the synchronous burst still coalesces).
      wait = 0;
      stats_.adaptive_early_closes++;
    }
    sim_.After(wait, [this, target, gen = tb.gen]() {
      auto it = batcher_.find(target);
      if (it != batcher_.end() && it->second.gen == gen) {
        FlushBatch(target);
      }
    });
  }
}

void TxnClient::FlushBatch(net::NodeId target) {
  auto it = batcher_.find(target);
  if (it == batcher_.end() || it->second.ops.empty()) return;
  TargetBatch& tb = it->second;
  std::vector<PendingOp> ops = std::move(tb.ops);
  tb.ops.clear();
  tb.gen++;
  tb.flush_scheduled = false;

  inflight_envelopes_[target]++;

  // The envelope rides as a child of the first traced op's transaction; the
  // wait each op spent in the batcher becomes its own kBatchWait span.
  obs::TraceContext env_trace;
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (const PendingOp& op : ops) {
      if (!op.trace.active()) continue;
      if (!env_trace.active()) env_trace = tracer_->ChildOf(op.trace);
      obs::Span s;
      s.trace_id = op.trace.trace_id;
      s.span_id = tracer_->NewSpanId();
      s.parent_id = op.trace.span_id;
      s.kind = obs::SpanKind::kBatchWait;
      s.node = id();
      s.start_us = op.enqueued_us;
      s.end_us = sim_.Now();
      s.arg = ops.size();
      tracer_->Record(s);
    }
  }

  if (ops.size() == 1) {
    // A lone op gains nothing from the envelope; send it plain (and skip
    // the server's batch-header charge).
    Call(target, std::move(ops.front().msg), ops.front().timeout,
         [this, target, cb = std::move(ops.front().cb)](
             Status s, const net::Message* m) {
           EnvelopeDone(target);
           cb(s, m);
         },
         env_trace);
    return;
  }

  net::ClientBatchRequest req;
  req.ops.reserve(ops.size());
  sim::Duration timeout = ops.front().timeout;
  auto cbs = std::make_shared<std::vector<RpcCallback>>();
  cbs->reserve(ops.size());
  for (PendingOp& op : ops) {
    timeout = std::min(timeout, op.timeout);
    if (auto* put = std::get_if<net::PutRequest>(&op.msg)) {
      req.ops.emplace_back(std::move(*put));
    } else {
      req.ops.emplace_back(std::move(std::get<net::GetRequest>(op.msg)));
    }
    cbs->push_back(std::move(op.cb));
  }
  stats_.batches_sent++;
  stats_.batched_ops += ops.size();
  Call(
      target, std::move(req), timeout,
      [this, target, cbs](Status s, const net::Message* m) {
        EnvelopeDone(target);
        // Demux: reply i belongs to op i. Each saved callback sees exactly
        // the (Status, Message*) a plain Call would have produced, so the
        // per-op retry and session logic upstream is unchanged.
        const net::ClientBatchResponse* resp =
           s.ok() && m != nullptr
              ? std::get_if<net::ClientBatchResponse>(m)
              : nullptr;
        if (resp == nullptr || resp->replies.size() != cbs->size()) {
          Status err = s.ok() ? Status::Corruption(
                                "malformed client batch response")
                          : s;
          for (auto& cb : *cbs) cb(err, nullptr);
          return;
        }
        for (size_t i = 0; i < cbs->size(); i++) {
          net::Message sub = std::visit(
            [](const auto& r) { return net::Message(r); },
            resp->replies[i]);
          (*cbs)[i](Status::Ok(), &sub);
        }
      },
      env_trace);
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

void TxnClient::Read(const Key& key, ReadCallback cb) {
  assert(in_txn_);
  stats_.reads++;

  // Per-transaction read-your-writes from the write buffer (Appendix B
  // client pseudocode). Buffered full Puts satisfy the read locally;
  // buffered increments are layered onto the stored value after the fetch.
  auto buffered = write_buffer_.find(key);
  if (buffered != write_buffer_.end() && buffered->second.has_put &&
      buffered->second.kind == WriteKind::kPut) {
    stats_.cache_hits++;
    ReadVersion rv;
    rv.found = true;
    rv.ts = txn_ts_;
    rv.value = buffered->second.value;
    cb(Status::Ok(), std::move(rv));
    return;
  }

  // Cut isolation: repeated reads come from the transaction's cut.
  if (options_.isolation >= IsolationLevel::kItemCut) {
    auto cached = read_cache_.find(key);
    if (cached != read_cache_.end()) {
      stats_.cache_hits++;
      if (observer_) observer_->OnRead(txn_ts_, key, cached->second);
      cb(Status::Ok(), cached->second);
      return;
    }
  }

  sim::SimTime deadline = sim_.Now() + options_.op_timeout;
  if (options_.mode == SystemMode::kQuorum) {
    QuorumRead(key, deadline, std::move(cb));
    return;
  }
  if (options_.mode == SystemMode::kLocking) {
    LockingRead(key, deadline, std::move(cb));
    return;
  }
  ReadAttempt(key, TargetsFor(key), 0, deadline, std::move(cb));
}

void TxnClient::ReadAttempt(Key key, std::vector<net::NodeId> targets,
                            size_t attempt, sim::SimTime deadline,
                            ReadCallback cb) {
  if (sim_.Now() >= deadline) {
    cb(Status::Unavailable("no reachable replica could serve the read"),
       ReadVersion{});
    return;
  }
  net::GetRequest req;
  req.key = key;
  req.required = RequiredFor(key);
  net::NodeId target = targets[attempt % targets.size()];
  sim::Duration timeout =
      std::min<sim::Duration>(options_.rpc_timeout, deadline - sim_.Now());
  uint64_t epoch = txn_epoch_;
  CallOp(target, req, timeout,
         [this, key = std::move(key), targets = std::move(targets), attempt,
          deadline, cb = std::move(cb), epoch](Status s,
                                               const net::Message* m) mutable {
         if (epoch != txn_epoch_) return;  // transaction moved on
         if (s.ok()) {
           const auto& resp = std::get<net::GetResponse>(*m);
           if (resp.code == net::GetCode::kOk) {
             FinishRead(key, resp, std::move(cb));
             return;
           }
           if (resp.code == net::GetCode::kWrongShard) {
             // Stale placement epoch: the shard migrated away from this
             // replica. Refresh the target list from live routing and
             // restart from its head so the retry lands at the new owner
             // (not the next rotation slot).
             stats_.wrong_shard_retries++;
             targets = TargetsFor(key);
             attempt = static_cast<size_t>(-1);  // next attempt indexes 0
           }
           // kNotYet: the replica has not seen our required version.
         }
         stats_.read_retries++;
         sim_.After(options_.retry_backoff,
                    [this, key = std::move(key), targets = std::move(targets),
                     attempt, deadline, cb = std::move(cb), epoch]() mutable {
                      if (epoch != txn_epoch_) return;
                      ReadAttempt(std::move(key), std::move(targets),
                                  attempt + 1, deadline, std::move(cb));
                    });
       });
}

void TxnClient::FinishRead(const Key& key, const net::GetResponse& resp,
                           ReadCallback cb) {
  ReadVersion rv;
  rv.found = resp.found;
  rv.value = resp.value;
  rv.ts = resp.ts;
  rv.sibs = resp.sibs;
  rv.deps = resp.deps;
  AbsorbReadMetadata(key, resp.ts, resp.sibs, resp.deps);
  if (options_.isolation >= IsolationLevel::kItemCut) {
    read_cache_[key] = rv;
  }
  if (observer_) observer_->OnRead(txn_ts_, key, rv);
  // Overlay the transaction's own buffered increments.
  auto buffered = write_buffer_.find(key);
  if (buffered != write_buffer_.end() &&
      buffered->second.kind == WriteKind::kDelta) {
    int64_t base = DecodeInt64Value(rv.value).value_or(0);
    rv.value = EncodeInt64Value(base + buffered->second.delta);
    rv.found = true;
  }
  cb(Status::Ok(), std::move(rv));
}

void TxnClient::QuorumRead(Key key, sim::SimTime deadline, ReadCallback cb) {
  auto replicas = routing_->ReplicasOf(key);
  int n = static_cast<int>(replicas.size());
  int majority = n / 2 + 1;
  struct QState {
    int successes = 0;
    int failures = 0;
    bool done = false;
    net::GetResponse best;
  };
  auto state = std::make_shared<QState>();
  uint64_t epoch = txn_epoch_;
  sim::Duration timeout =
      std::min<sim::Duration>(options_.rpc_timeout,
                              deadline > sim_.Now() ? deadline - sim_.Now()
                                                    : 1);
  for (net::NodeId r : replicas) {
    net::GetRequest req;
    req.key = key;
    CallOp(r, req, timeout,
           [this, key, deadline, cb, state, epoch, n, majority](
               Status s, const net::Message* m) mutable {
           if (state->done || epoch != txn_epoch_) return;
           if (s.ok() && std::get<net::GetResponse>(*m).code !=
                             net::GetCode::kWrongShard) {
             const auto& resp = std::get<net::GetResponse>(*m);
             state->successes++;
             if (resp.found &&
                 (!state->best.found || resp.ts > state->best.ts)) {
               state->best = resp;
             }
             if (state->successes >= majority) {
               state->done = true;
               FinishRead(key, state->best, std::move(cb));
               return;
             }
           } else {
             state->failures++;
           }
           if (n - state->failures < majority) {
             state->done = true;
             // Majority unreachable: retry the whole quorum or give up.
             if (sim_.Now() >= deadline) {
               cb(Status::Unavailable("quorum unreachable"), ReadVersion{});
             } else {
               stats_.read_retries++;
               sim_.After(options_.retry_backoff,
                          [this, key, deadline, cb = std::move(cb),
                           epoch]() mutable {
                            if (epoch != txn_epoch_) return;
                            QuorumRead(key, deadline, std::move(cb));
                          });
             }
           }
         });
  }
}

void TxnClient::LockingRead(Key key, sim::SimTime deadline, ReadCallback cb) {
  AcquireLock(key, /*exclusive=*/false, deadline,
              [this, key, deadline, cb = std::move(cb)](Status s) mutable {
                if (!s.ok()) {
                  cb(s, ReadVersion{});
                  return;
                }
                ReadAttempt(key, {routing_->MasterOf(key)}, 0, deadline,
                            std::move(cb));
              });
}

// ---------------------------------------------------------------------------
// Predicate (range) reads
// ---------------------------------------------------------------------------

void TxnClient::Scan(const Key& lo, const Key& hi, ScanCallback cb) {
  assert(in_txn_);
  stats_.scans++;

  if (options_.predicate_cut) {
    // Fully covered by a cached range: serve the cut.
    for (const auto& cached : range_cache_) {
      if (cached.lo <= lo && hi <= cached.hi) {
        stats_.cache_hits++;
        std::vector<ScanItem> items;
        for (const auto& it : cached.items) {
          if (it.key >= lo && it.key < hi) items.push_back(it);
        }
        if (observer_) observer_->OnScan(txn_ts_, lo, hi, items);
        cb(Status::Ok(), std::move(items));
        return;
      }
    }
  }

  net::ScanRequest req;
  req.lo = lo;
  req.hi = hi;
  sim::SimTime deadline = sim_.Now() + options_.op_timeout;
  uint64_t epoch = txn_epoch_;

  // Keys are hash-sharded across a cluster's servers, so a predicate read
  // scatter-gathers over every server of one cluster and merges.
  auto attempt = std::make_shared<std::function<void(size_t)>>();
  *attempt = [this, req, deadline, cb = std::move(cb), epoch,
              attempt](size_t try_no) mutable {
    if (sim_.Now() >= deadline) {
      cb(Status::Unavailable("scan: no reachable replica"), {});
      return;
    }
    int n = routing_->NumClusters();
    int cluster = options_.sticky
                      ? options_.home_cluster
                      : (options_.home_cluster + static_cast<int>(try_no)) % n;
    auto servers = routing_->ClusterServers(cluster);
    sim::Duration timeout = std::min<sim::Duration>(options_.rpc_timeout,
                                                    deadline - sim_.Now());
    struct Gather {
      size_t remaining;
      bool failed = false;
      std::vector<ScanItem> items;
    };
    auto gather = std::make_shared<Gather>();
    gather->remaining = servers.size();
    auto finish_shard = [this, cb, epoch, attempt, try_no, req, gather](
                            Status s, const net::Message* m) mutable {
      if (epoch != txn_epoch_) return;
      if (!s.ok()) gather->failed = true;
      if (s.ok() && m != nullptr) {
        const auto& resp = std::get<net::ScanResponse>(*m);
        for (const auto& item : resp.items) gather->items.push_back(item);
      }
      if (--gather->remaining > 0) return;
      if (gather->failed) {
        stats_.read_retries++;
        sim_.After(options_.retry_backoff,
                   [attempt, try_no]() { (*attempt)(try_no + 1); });
        return;
      }
      std::vector<ScanItem> items = std::move(gather->items);
      std::sort(items.begin(), items.end(),
                [](const ScanItem& a, const ScanItem& b) {
                  return a.key < b.key;
                });

      if (options_.predicate_cut) {
             // Overlay intersections with previously scanned ranges: inside
             // an overlap the cut (both presence and absence) wins.
             for (const auto& cached : range_cache_) {
               Key olo = std::max(req.lo, cached.lo);
               Key ohi = std::min(req.hi, cached.hi);
               if (olo >= ohi) continue;
               items.erase(std::remove_if(items.begin(), items.end(),
                                          [&](const ScanItem& it) {
                                            return it.key >= olo &&
                                                   it.key < ohi;
                                          }),
                           items.end());
               for (const auto& it : cached.items) {
                 if (it.key >= olo && it.key < ohi) items.push_back(it);
               }
             }
             std::sort(items.begin(), items.end(),
                       [](const ScanItem& a, const ScanItem& b) {
                         return a.key < b.key;
                       });
             range_cache_.push_back(CachedRange{req.lo, req.hi, items});
           }
           for (const auto& it : items) {
             AbsorbReadMetadata(it.key, it.ts, it.sibs, {});
             if (options_.isolation >= IsolationLevel::kItemCut) {
               ReadVersion rv;
               rv.found = true;
               rv.ts = it.ts;
               rv.value = it.value;
               rv.sibs = it.sibs;
               read_cache_.emplace(it.key, std::move(rv));
             }
           }
           if (observer_) observer_->OnScan(txn_ts_, req.lo, req.hi, items);
           cb(Status::Ok(), std::move(items));
    };
    for (net::NodeId server : servers) {
      Call(server, req, timeout, finish_shard);
    }
  };
  (*attempt)(0);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

void TxnClient::Write(const Key& key, Value value) {
  assert(in_txn_);
  stats_.writes++;
  if (options_.isolation == IsolationLevel::kReadUncommitted) {
    BufferedWrite bw;
    bw.kind = WriteKind::kPut;
    bw.value = std::move(value);
    bw.has_put = true;
    SendDirty(key, std::move(bw));
    return;
  }
  BufferedWrite& bw = write_buffer_[key];
  bw.kind = WriteKind::kPut;
  bw.value = std::move(value);
  bw.has_put = true;
  bw.delta = 0;
}

void TxnClient::Increment(const Key& key, int64_t delta) {
  assert(in_txn_);
  stats_.writes++;
  if (options_.isolation == IsolationLevel::kReadUncommitted) {
    BufferedWrite bw;
    bw.kind = WriteKind::kDelta;
    bw.delta = delta;
    SendDirty(key, std::move(bw));
    return;
  }
  BufferedWrite& bw = write_buffer_[key];
  if (bw.has_put) {
    // Fold the increment into the buffered Put.
    int64_t base = DecodeInt64Value(bw.value).value_or(0);
    bw.value = EncodeInt64Value(base + delta);
  } else {
    bw.kind = WriteKind::kDelta;
    bw.delta += delta;
  }
}

WriteRecord TxnClient::MakeRecord(const Key& key, const BufferedWrite& bw,
                                  const std::vector<Key>& sibs) const {
  WriteRecord w;
  w.key = key;
  w.kind = bw.kind;
  w.value = bw.kind == WriteKind::kDelta ? EncodeInt64Value(bw.delta)
                                         : bw.value;
  w.ts = commit_ts_;
  w.sibs = sibs;
  if (options_.writes_follow_reads) {
    for (const auto& [k, ts] : session_floor_) {
      w.deps.push_back(Dependency{k, ts});
    }
  }
  return w;
}

void TxnClient::SendDirty(const Key& key, BufferedWrite bw) {
  // Read Uncommitted: writes install immediately with the *transaction's*
  // timestamp — the paper's G0-prevention mechanism ("marking each of a
  // transaction's writes with the same timestamp"). The seq ordinal keeps a
  // transaction's successive writes to one key distinct (observable as
  // Intermediate Reads, G1b) without perturbing cross-transaction order.
  WriteRecord w = MakeRecord(key, bw, /*sibs=*/{});
  w.ts = txn_ts_;
  w.ts.seq = ++dirty_seq_;
  dirty_writes_.push_back(w);
  outstanding_dirty_++;
  sim::SimTime deadline = sim_.Now() + options_.op_timeout;
  PutWithRetry(std::move(w), net::PutMode::kEventual, TargetsFor(key), 0,
               deadline, [this](Status) { outstanding_dirty_--; });
}

void TxnClient::PutWithRetry(WriteRecord w, net::PutMode mode,
                             std::vector<net::NodeId> targets, size_t attempt,
                             sim::SimTime deadline,
                             std::function<void(Status)> done) {
  if (sim_.Now() >= deadline) {
    done(Status::Unavailable("no reachable replica accepted the write"));
    return;
  }
  net::NodeId target = targets[attempt % targets.size()];
  sim::Duration timeout =
      std::min<sim::Duration>(options_.rpc_timeout, deadline - sim_.Now());
  stats_.metadata_bytes += w.SibBytes();
  net::PutRequest req;
  req.write = w;
  req.mode = mode;
  CallOp(target, std::move(req), timeout,
         [this, w = std::move(w), mode, targets = std::move(targets), attempt,
          deadline, done = std::move(done)](Status s,
                                            const net::Message* m) mutable {
         if (s.ok()) {
           const auto* resp = std::get_if<net::PutResponse>(m);
           if (resp == nullptr || resp->ok) {
             done(Status::Ok());
             return;
           }
           if (resp->wrong_shard) {
             // Stale placement epoch: refresh routing and retry from the
             // head of the new target list (the shard's new owner).
             stats_.wrong_shard_retries++;
             targets = TargetsFor(w.key);
             attempt = static_cast<size_t>(-1);  // next attempt indexes 0
           }
         }
         sim_.After(options_.retry_backoff,
                    [this, w = std::move(w), mode,
                     targets = std::move(targets), attempt, deadline,
                     done = std::move(done)]() mutable {
                      PutWithRetry(std::move(w), mode, std::move(targets),
                                   attempt + 1, deadline, std::move(done));
                    });
       });
}

void TxnClient::QuorumPut(WriteRecord w, sim::SimTime deadline,
                          std::function<void(Status)> done) {
  auto replicas = routing_->ReplicasOf(w.key);
  int n = static_cast<int>(replicas.size());
  int majority = n / 2 + 1;
  struct QState {
    int acks = 0;
    int failures = 0;
    bool done_flag = false;
  };
  auto state = std::make_shared<QState>();
  sim::Duration timeout =
      std::min<sim::Duration>(options_.rpc_timeout,
                              deadline > sim_.Now() ? deadline - sim_.Now()
                                                    : 1);
  stats_.metadata_bytes += w.SibBytes();
  for (net::NodeId r : replicas) {
    net::PutRequest req;
    req.write = w;
    req.mode = net::PutMode::kEventual;
    CallOp(r, std::move(req), timeout,
           [this, state, majority, n, w, deadline, done](
               Status s, const net::Message* m) mutable {
           if (state->done_flag) return;
           const auto* resp = s.ok() ? std::get_if<net::PutResponse>(m)
                                     : nullptr;
           if (s.ok() && (resp == nullptr || resp->ok)) {
             if (++state->acks >= majority) {
               state->done_flag = true;
               done(Status::Ok());
             }
           } else if (++state->failures > n - majority) {
             state->done_flag = true;
             if (sim_.Now() >= deadline) {
               done(Status::Unavailable("write quorum unreachable"));
             } else {
               sim_.After(options_.retry_backoff,
                          [this, w = std::move(w), deadline,
                           done = std::move(done)]() mutable {
                            QuorumPut(std::move(w), deadline,
                                      std::move(done));
                          });
             }
           }
         });
  }
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

void TxnClient::Commit(CommitCallback cb) {
  assert(in_txn_);
  if (txn_trace_.active()) commit_start_us_ = sim_.Now();
  if (options_.mode == SystemMode::kLocking) {
    LockingCommit(std::move(cb));
    return;
  }
  if (options_.isolation == IsolationLevel::kReadUncommitted) {
    // Writes are already out; wait for their acknowledgments.
    auto wait = std::make_shared<std::function<void()>>();
    uint64_t epoch = txn_epoch_;
    *wait = [this, cb = std::move(cb), wait, epoch]() mutable {
      if (epoch != txn_epoch_) return;
      if (outstanding_dirty_ > 0) {
        sim_.After(sim::kMillisecond, [wait]() { (*wait)(); });
        return;
      }
      std::vector<WriteRecord> installed = dirty_writes_;
      FinishTxn(TxnOutcome::kCommitted);
      if (observer_) {
        observer_->OnFinish(txn_ts_, TxnOutcome::kCommitted, installed);
      }
      cb(Status::Ok());
    };
    (*wait)();
    return;
  }
  CommitWrites(std::move(cb));
}

void TxnClient::CommitWrites(CommitCallback cb) {
  // Commit point: versions install at a timestamp later than everything the
  // transaction observed.
  commit_ts_ = NextTxnTimestamp();
  std::vector<Key> sibs;
  bool mav = options_.isolation == IsolationLevel::kMonotonicAtomicView;
  if (mav) {
    sibs.reserve(write_buffer_.size());
    for (const auto& [k, bw] : write_buffer_) sibs.push_back(k);
  }
  std::vector<WriteRecord> records;
  records.reserve(write_buffer_.size());
  for (const auto& [k, bw] : write_buffer_) {
    records.push_back(MakeRecord(k, bw, sibs));
  }

  auto finalize = [this, records, cb = std::move(cb)](Status s) {
    if (s.ok()) {
      if (options_.read_your_writes) {
        for (const auto& w : records) {
          auto& floor = session_floor_[w.key];
          if (w.ts > floor) floor = w.ts;
        }
      }
      BumpLamport(commit_ts_);
      FinishTxn(TxnOutcome::kCommitted);
      if (observer_) {
        observer_->OnFinish(txn_ts_, TxnOutcome::kCommitted, records);
      }
      cb(Status::Ok());
    } else {
      // Some writes may have been installed; report honestly.
      FinishTxn(TxnOutcome::kFailed);
      if (observer_) {
        observer_->OnFinish(txn_ts_, TxnOutcome::kFailed, records);
      }
      cb(s);
    }
  };

  if (records.empty()) {
    finalize(Status::Ok());
    return;
  }

  sim::SimTime deadline = sim_.Now() + options_.op_timeout;
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = static_cast<int>(records.size());
  barrier->done = std::move(finalize);
  net::PutMode mode = mav ? net::PutMode::kMav : net::PutMode::kEventual;
  for (auto& w : records) {
    if (options_.mode == SystemMode::kQuorum) {
      QuorumPut(w, deadline, [barrier](Status s) { barrier->Arrive(s); });
    } else {
      PutWithRetry(w, mode, TargetsFor(w.key), 0, deadline,
                   [barrier](Status s) { barrier->Arrive(s); });
    }
  }
}

// ---------------------------------------------------------------------------
// Two-phase locking mode
// ---------------------------------------------------------------------------

void TxnClient::AcquireLock(Key key, bool exclusive, sim::SimTime deadline,
                            std::function<void(Status)> done) {
  if (sim_.Now() >= deadline) {
    done(Status::Unavailable("lock service unreachable"));
    return;
  }
  net::LockRequest req;
  req.key = key;
  req.exclusive = exclusive;
  req.txn = txn_ts_;
  sim::Duration timeout =
      std::min<sim::Duration>(options_.rpc_timeout, deadline - sim_.Now());
  uint64_t epoch = txn_epoch_;
  // Resolve the target before Call: the lambda captures `key` by move and
  // argument evaluation order is unspecified.
  net::NodeId lock_server = routing_->MasterOf(key);
  Call(lock_server, std::move(req), timeout,
       [this, key = std::move(key), exclusive, deadline,
        done = std::move(done), epoch](Status s,
                                       const net::Message* m) mutable {
         if (epoch != txn_epoch_) return;
         if (s.ok()) {
           const auto& resp = std::get<net::LockResponse>(*m);
           if (resp.granted) {
             held_locks_.push_back(key);
             done(Status::Ok());
           } else if (held_locks_.empty()) {
             // Wait-die victim on our FIRST lock: we hold nothing, so no
             // deadlock cycle can pass through this transaction — retry
             // until the holder releases (bounded by the op deadline)
             // instead of aborting a lock-free transaction. Typically the
             // holder's unlock is simply still in flight. The no-locks-held
             // premise is re-checked when the retry fires: a concurrent
             // grant in the interim means waiting would now be
             // wait-while-holding, so the abort must surface after all.
             sim_.After(options_.retry_backoff,
                        [this, key = std::move(key), exclusive, deadline,
                         done = std::move(done), epoch]() mutable {
                          if (epoch != txn_epoch_) return;
                          if (!held_locks_.empty()) {
                            done(Status::Aborted("wait-die"));
                            return;
                          }
                          AcquireLock(std::move(key), exclusive, deadline,
                                      std::move(done));
                        });
           } else {
             // Wait-die victim: external abort, caller should retry txn.
             done(Status::Aborted("wait-die"));
           }
           return;
         }
         // Timeout: lock may be queued server-side; retrying is safe
         // (re-entrant grants) until the op deadline.
         sim_.After(options_.retry_backoff,
                    [this, key = std::move(key), exclusive, deadline,
                     done = std::move(done), epoch]() mutable {
                      if (epoch != txn_epoch_) return;
                      AcquireLock(std::move(key), exclusive, deadline,
                                  std::move(done));
                    });
       });
}

void TxnClient::ReleaseAllLocks() {
  if (held_locks_.empty()) return;
  // Group keys by lock server.
  std::map<net::NodeId, std::vector<Key>> by_server;
  for (const auto& k : held_locks_) {
    by_server[routing_->MasterOf(k)].push_back(k);
  }
  for (auto& [server, keys] : by_server) {
    net::UnlockRequest req;
    req.keys = std::move(keys);
    req.txn = txn_ts_;
    SendOneWay(server, std::move(req));
  }
  held_locks_.clear();
}

void TxnClient::LockingCommit(CommitCallback cb) {
  // Growing phase for writes: X locks in sorted key order, sequentially.
  auto keys = std::make_shared<std::vector<Key>>();
  for (const auto& [k, bw] : write_buffer_) keys->push_back(k);
  sim::SimTime deadline = sim_.Now() + options_.op_timeout;

  auto fail = [this, cb](Status s) {
    ReleaseAllLocks();
    std::vector<WriteRecord> none;
    TxnOutcome outcome =
        s.IsAborted() ? TxnOutcome::kAborted : TxnOutcome::kFailed;
    if (s.IsAborted()) {
      // External abort: count separately from internal aborts.
      stats_.txns_aborted_external++;
      in_txn_ = false;
      txn_epoch_++;
    } else {
      FinishTxn(TxnOutcome::kFailed);
    }
    if (observer_) observer_->OnFinish(txn_ts_, outcome, none);
    cb(s);
  };

  auto install = [this, cb, deadline, fail]() {
    // Commit point: reached only with every lock held, so the timestamp
    // order of conflicting writes matches the lock serialization order.
    commit_ts_ = NextTxnTimestamp();
    std::vector<WriteRecord> records;
    for (const auto& [k, bw] : write_buffer_) {
      records.push_back(MakeRecord(k, bw, /*sibs=*/{}));
    }
    auto finalize = [this, records, cb, fail](Status s) {
      if (!s.ok()) {
        fail(s);
        return;
      }
      ReleaseAllLocks();
      BumpLamport(commit_ts_);
      FinishTxn(TxnOutcome::kCommitted);
      if (observer_) {
        observer_->OnFinish(txn_ts_, TxnOutcome::kCommitted, records);
      }
      cb(Status::Ok());
    };
    if (records.empty()) {
      finalize(Status::Ok());
      return;
    }
    auto barrier = std::make_shared<Barrier>();
    barrier->remaining = static_cast<int>(records.size());
    barrier->done = finalize;
    for (auto& w : records) {
      PutWithRetry(w, net::PutMode::kEventual, {routing_->MasterOf(w.key)}, 0,
                   deadline, [barrier](Status s) { barrier->Arrive(s); });
    }
  };

  auto acquire_next = std::make_shared<std::function<void(size_t)>>();
  *acquire_next = [this, keys, deadline, install, fail,
                   acquire_next](size_t i) {
    if (i >= keys->size()) {
      install();
      return;
    }
    AcquireLock((*keys)[i], /*exclusive=*/true, deadline,
                [i, install, fail, acquire_next](Status s) {
                  if (!s.ok()) {
                    fail(s);
                    return;
                  }
                  (*acquire_next)(i + 1);
                });
  };
  (*acquire_next)(0);
}

}  // namespace hat::client
