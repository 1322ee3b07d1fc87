// Google-benchmark microbenchmarks for the core in-memory machinery:
// multi-version store apply/read/fold, ShardExecutor scheduling overhead,
// event-queue schedule/cancel, DSG construction + cycle search, history analysis, network latency
// sampling, zipfian generation.

#include <benchmark/benchmark.h>

#include <vector>

#include "hat/adya/phenomena.h"
#include "hat/common/codec.h"
#include "hat/common/crc32.h"
#include "hat/common/rng.h"
#include "hat/net/topology.h"
#include "hat/server/shard_executor.h"
#include "hat/version/versioned_store.h"

namespace hat {
namespace {

void BM_VersionedStoreApply(benchmark::State& state) {
  version::VersionedStore store;
  Rng rng(1);
  uint64_t logical = 1;
  for (auto _ : state) {
    WriteRecord w;
    w.key = "key" + std::to_string(rng.NextBelow(1000));
    w.value = "value";
    w.ts = {logical++, 1};
    benchmark::DoNotOptimize(store.Apply(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedStoreApply);

void BM_VersionedStoreRead(benchmark::State& state) {
  version::VersionedStore store;
  for (uint64_t i = 0; i < 1000; i++) {
    for (uint64_t v = 0; v < static_cast<uint64_t>(state.range(0)); v++) {
      WriteRecord w;
      w.key = "key" + std::to_string(i);
      w.value = "value" + std::to_string(v);
      w.ts = {v + 1, 1};
      store.Apply(w);
    }
  }
  Rng rng(2);
  for (auto _ : state) {
    auto rv = store.Read("key" + std::to_string(rng.NextBelow(1000)));
    benchmark::DoNotOptimize(rv);
  }
}
BENCHMARK(BM_VersionedStoreRead)->Arg(1)->Arg(8)->Arg(64);

/// Workload-shape overhead shared by the apply/read benches above: key
/// construction + RNG, no store call. Subtract this from
/// BM_VersionedStoreApply / BM_VersionedStoreRead to isolate the
/// store-side cost when comparing across revisions.
void BM_KeyConstructionBaseline(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.NextBelow(1000));
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_KeyConstructionBaseline);

/// Apply over a large keyspace (100k distinct keys, single version each):
/// the interned-key hot path — one FNV probe + vector append — under real
/// cache pressure, vs BM_VersionedStoreApply's 1k-key working set.
void BM_VersionedStoreApplyLarge(benchmark::State& state) {
  version::VersionedStore store;
  Rng rng(1);
  uint64_t logical = 1;
  for (auto _ : state) {
    WriteRecord w;
    w.key = "key" + std::to_string(rng.NextBelow(100000));
    w.value = "value";
    w.ts = {logical++, 1};
    benchmark::DoNotOptimize(store.Apply(w));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedStoreApplyLarge);

/// Bound-free reads over a large keyspace — the interner probe + cached
/// fold, with the 100k-key working set defeating the L2.
void BM_VersionedStoreReadLarge(benchmark::State& state) {
  version::VersionedStore store;
  for (uint64_t i = 0; i < 100000; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "value";
    w.ts = {i + 1, 1};
    store.Apply(w);
  }
  Rng rng(2);
  for (auto _ : state) {
    auto rv = store.Read("key" + std::to_string(rng.NextBelow(100000)));
    benchmark::DoNotOptimize(rv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VersionedStoreReadLarge);

/// Full-range streamed scan: per-item cost of the ordered-id index walk +
/// cached folds (the server-side predicate-read hot path).
void BM_VersionedStoreScanVisit(benchmark::State& state) {
  version::VersionedStore store;
  uint64_t n = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 0; i < n; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "value";
    w.ts = {i + 1, 1};
    store.Apply(w);
  }
  size_t seen = 0;
  for (auto _ : state) {
    seen = 0;
    store.ScanVisit("", "~", std::nullopt,
                    [&seen](const Key&, ReadVersion) { seen++; });
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_VersionedStoreScanVisit)->Arg(1000)->Arg(100000);

version::VersionedStore MakeDeltaChain(uint64_t deltas) {
  version::VersionedStore store;
  WriteRecord base;
  base.key = "ctr";
  base.value = EncodeInt64Value(0);
  base.ts = {1, 1};
  store.Apply(base);
  for (uint64_t i = 2; i < 2 + deltas; i++) {
    WriteRecord d;
    d.key = "ctr";
    d.kind = WriteKind::kDelta;
    d.value = EncodeInt64Value(1);
    d.ts = {i, 1};
    store.Apply(d);
  }
  return store;
}

/// Steady-state read of a delta chain: after the first fold the per-key
/// memo serves every repeat in O(1) — the paper-motivated common case
/// (replicas read far more often than version sets change).
void BM_DeltaFold(benchmark::State& state) {
  auto store = MakeDeltaChain(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Read("ctr"));
  }
}
BENCHMARK(BM_DeltaFold)->Arg(4)->Arg(32)->Arg(64)->Arg(256);

/// The same read forced through a cold fold every iteration (a bounded read
/// ending one version below the newest cannot use the full-fold memo), i.e.
/// the per-read cost the whole data plane paid before fold caching. The
/// BM_DeltaFold/64 : BM_DeltaFoldUncached/64 ratio is the cached-read
/// speedup (acceptance bar: >= 5x on a 64-version chain).
void BM_DeltaFoldUncached(benchmark::State& state) {
  uint64_t deltas = static_cast<uint64_t>(state.range(0));
  auto store = MakeDeltaChain(deltas);
  Timestamp second_newest{deltas, 1};  // newest is {deltas + 1, 1}
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Read("ctr", second_newest));
  }
}
BENCHMARK(BM_DeltaFoldUncached)->Arg(4)->Arg(32)->Arg(64)->Arg(256);

/// Digest-bucket snapshot (round 1 of bucketed repair): constant work
/// regardless of keyspace size.
void BM_BucketHashes(benchmark::State& state) {
  version::VersionedStore store;
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "value";
    w.ts = {i + 1, 1};
    store.Apply(w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.BucketHashes());
  }
}
BENCHMARK(BM_BucketHashes)->Arg(1000)->Arg(100000);

adya::History MakeHistory(int txns, int keys, uint64_t seed) {
  adya::HistoryBuilder b;
  Rng rng(seed);
  for (int t = 1; t <= txns; t++) {
    auto txn = b.Txn(static_cast<uint64_t>(t));
    for (int op = 0; op < 4; op++) {
      Key key = "k" + std::to_string(rng.NextBelow(keys));
      if (rng.NextBool(0.5)) {
        txn.Write(key);
      } else {
        txn.Read(key, rng.NextBelow(static_cast<uint64_t>(t)));
      }
    }
  }
  return b.Build();
}

void BM_DsgBuild(benchmark::State& state) {
  auto history = MakeHistory(static_cast<int>(state.range(0)), 32, 3);
  for (auto _ : state) {
    adya::Dsg dsg(history);
    benchmark::DoNotOptimize(dsg.edges().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DsgBuild)->Arg(100)->Arg(1000);

void BM_AnalyzeHistory(benchmark::State& state) {
  auto history = MakeHistory(static_cast<int>(state.range(0)), 32, 4);
  for (auto _ : state) {
    auto report = adya::Analyze(history);
    benchmark::DoNotOptimize(report.non_serializable);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnalyzeHistory)->Arg(100)->Arg(500);

/// ShardExecutor scheduling arithmetic alone (no completion events): the
/// fixed overhead every server message now pays to be placed on a lane and
/// a core. Arg is the core count (the core scan is the only O(C) part).
void BM_ShardExecutorBook(benchmark::State& state) {
  sim::Simulation sim(1);
  size_t cores = static_cast<size_t>(state.range(0));
  server::ShardExecutor ex(sim,
                           server::ShardExecutor::Options{16, cores, 2.0});
  size_t lane = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.Submit(lane, 1.0, nullptr));
    lane = (lane + 1) & 15;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardExecutorBook)->Arg(1)->Arg(8)->Arg(64);

/// The event-loop pattern of RPC traffic: each message delivery is a short
/// event, and each call arms a 2 s timeout that its reply cancels. Arg is the
/// number of timeouts outstanding, so the queue holds about that many live
/// events; a queue that kept cancelled entries until their deadline would
/// grow far past it.
void BM_SimScheduleCancel(benchmark::State& state) {
  sim::Simulation sim(1);
  std::vector<sim::EventId> timeouts(static_cast<size_t>(state.range(0)));
  for (auto& id : timeouts) id = sim.After(2 * sim::kSecond, [] {});
  size_t oldest = 0;
  for (auto _ : state) {
    sim.After(1, [] {});                                     // a delivery
    benchmark::DoNotOptimize(sim.Cancel(timeouts[oldest]));  // its reply
    timeouts[oldest] = sim.After(2 * sim::kSecond, [] {});   // the next call
    if (++oldest == timeouts.size()) oldest = 0;
    sim.Step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimScheduleCancel)->Arg(1 << 10)->Arg(100000);

/// End-to-end executor hot path: submit with a completion callback and
/// drain the simulator — scheduling arithmetic + event heap traffic, i.e.
/// what one HandleMessage costs before any protocol work.
void BM_ShardExecutorSubmitDrain(benchmark::State& state) {
  sim::Simulation sim(1);
  server::ShardExecutor ex(sim, server::ShardExecutor::Options{16, 8, 2.0});
  size_t lane = 0;
  size_t pending = 0;
  for (auto _ : state) {
    ex.Submit(lane, 1.0, []() {});
    lane = (lane + 1) & 15;
    if (++pending == 1024) {  // amortized drain keeps the heap bounded
      sim.Run();
      pending = 0;
    }
  }
  sim.Run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardExecutorSubmitDrain);

void BM_LatencySample(benchmark::State& state) {
  net::Topology topo;
  net::NodeId a = topo.AddNode({net::Region::kVirginia, 0, 0});
  net::NodeId b = topo.AddNode({net::Region::kTokyo, 0, 0});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.SampleOneWayUs(a, b, rng));
  }
}
BENCHMARK(BM_LatencySample);

void BM_Zipfian(benchmark::State& state) {
  ZipfianGenerator zipf(100000, 0.99);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_Zipfian);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'z');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

}  // namespace
}  // namespace hat

BENCHMARK_MAIN();
