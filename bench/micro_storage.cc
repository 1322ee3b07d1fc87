// Google-benchmark microbenchmarks for the storage engine substrate:
// WAL append/sync, table build/lookup, LocalStore put/get, recovery replay.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "hat/common/rng.h"
#include "hat/server/persistence_manager.h"
#include "hat/storage/local_store.h"
#include "hat/storage/wal.h"

namespace hat::storage {
namespace {

namespace fs = std::filesystem;

std::string BenchDir(const std::string& tag) {
  auto dir = fs::temp_directory_path() / ("hatkv_bench_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void BM_WalAppend(benchmark::State& state) {
  std::string dir = BenchDir("wal");
  auto wal = WalWriter::Open(dir + "/wal.log");
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->Append(payload));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024)->Arg(8192);

void BM_WalAppendSync(benchmark::State& state) {
  std::string dir = BenchDir("walsync");
  auto wal = WalWriter::Open(dir + "/wal.log");
  std::string payload(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->Append(payload));
    benchmark::DoNotOptimize(wal->Sync());
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppendSync);

void BM_WalReplay(benchmark::State& state) {
  std::string dir = BenchDir("walreplay");
  std::string path = dir + "/wal.log";
  {
    auto wal = WalWriter::Open(path);
    std::string payload(256, 'y');
    for (int i = 0; i < state.range(0); i++) {
      (void)wal->Append(payload);
    }
    (void)wal->Sync();
  }
  for (auto _ : state) {
    uint64_t n = 0;
    auto result = WalReplay(path, [&n](std::string_view) { n++; });
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_WalReplay)->Arg(1000)->Arg(10000);

void BM_LocalStorePut(benchmark::State& state) {
  std::string dir = BenchDir("put");
  LocalStoreOptions opts;
  opts.sync_writes = state.range(0) != 0;
  auto db = LocalStore::Open(dir, opts);
  Rng rng(1);
  std::string value(1024, 'v');
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*db)->Put("key" + std::to_string(i++ % 10000), value));
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_LocalStorePut)->Arg(0)->Arg(1);

void BM_LocalStoreGet(benchmark::State& state) {
  std::string dir = BenchDir("get");
  LocalStoreOptions opts;
  opts.sync_writes = false;
  auto db = LocalStore::Open(dir, opts);
  std::string value(1024, 'v');
  for (int i = 0; i < 10000; i++) {
    (void)(*db)->Put("key" + std::to_string(i), value);
  }
  (void)(*db)->Flush();
  Rng rng(2);
  for (auto _ : state) {
    auto r = (*db)->Get("key" + std::to_string(rng.NextBelow(10000)));
    benchmark::DoNotOptimize(r);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_LocalStoreGet);

void BM_LocalStoreScan(benchmark::State& state) {
  std::string dir = BenchDir("scan");
  LocalStoreOptions opts;
  opts.sync_writes = false;
  auto db = LocalStore::Open(dir, opts);
  for (int i = 0; i < 10000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    (void)(*db)->Put(key, "v");
  }
  (void)(*db)->Flush();
  for (auto _ : state) {
    int n = 0;
    (void)(*db)->Scan("key001000", "key002000",
                      [&n](std::string_view, std::string_view) { n++; });
    benchmark::DoNotOptimize(n);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_LocalStoreScan);

// --- Recovery replay: full history vs checkpoint + tail ------------------
//
// Both benches persist the same write history (range(0) total good records
// spread over 100 keys), then measure a full PersistenceManager::Recover.
// The checkpointed variant snapshots the live set (newest version per key)
// and truncates the good log first, so its replay cost is proportional to
// live + tail instead of the whole history. Their ratio is the recovery
// speedup a checkpoint buys at that history depth.

server::PersistenceManager MakeHistory(const std::string& dir,
                                       int64_t records) {
  server::PersistenceManager pm(dir);
  for (int64_t i = 0; i < records; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i % 100);
    w.value = "value" + std::to_string(i);
    w.ts = {static_cast<uint64_t>(i / 100 + 1), 1};
    pm.PersistGood(0, w);
  }
  return pm;
}

void BM_RecoverFullHistory(benchmark::State& state) {
  std::string dir = BenchDir("recover_full");
  auto pm = MakeHistory(dir, state.range(0));
  size_t replayed = 0;
  for (auto _ : state) {
    replayed = 0;
    auto s = pm.Recover(
        {0}, [&replayed](size_t, const WriteRecord&) { replayed++; },
        [](size_t, const WriteRecord&) {});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(replayed));
  state.counters["replayed"] = static_cast<double>(replayed);
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoverFullHistory)->Arg(1000)->Arg(10000);

void BM_RecoverCheckpointTail(benchmark::State& state) {
  std::string dir = BenchDir("recover_ckpt");
  auto pm = MakeHistory(dir, state.range(0));
  // Checkpoint the live set (newest version per key), then write a short
  // tail the way a server would keep accepting writes after checkpointing.
  uint64_t newest = static_cast<uint64_t>(state.range(0)) / 100;
  (void)pm.CheckpointShard(0, /*epoch=*/0, [&](const auto& sink) {
    for (int k = 0; k < 100; k++) {
      WriteRecord w;
      w.key = "key" + std::to_string(k);
      w.value = "live";
      w.ts = {newest, 1};
      sink(w);
    }
  });
  for (int i = 0; i < 100; i++) {
    WriteRecord w;
    w.key = "key" + std::to_string(i);
    w.value = "tail";
    w.ts = {newest + 1, 1};
    pm.PersistGood(0, w);
  }
  size_t replayed = 0;
  for (auto _ : state) {
    replayed = 0;
    auto s = pm.Recover(
        {0}, [&replayed](size_t, const WriteRecord&) { replayed++; },
        [](size_t, const WriteRecord&) {});
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(replayed));
  state.counters["replayed"] = static_cast<double>(replayed);
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoverCheckpointTail)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace hat::storage

BENCHMARK_MAIN();
