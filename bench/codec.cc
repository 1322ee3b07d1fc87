// Benchmarks the binary wire codec (net::codec) and gates its invariants.
//
// Three parts, all reported to stdout and (via HAT_BENCH_JSON) the CI
// artifact:
//   1. Encode / decode throughput (GB/s and Mmsgs/s) on the three envelope
//      shapes that dominate wire traffic: AntiEntropyBatch (replication),
//      ClientBatchRequest (group commit), ShardSnapshotChunk (migration).
//      Decode is owning: it materializes a full Envelope.
//   2. An allocation gate: the steady-state encode loop into a reused
//      buffer must perform ZERO heap allocations. Counted by overriding
//      global operator new.
//   3. A round-trip coverage gate: every Message alternative must encode,
//      decode, and re-encode byte-exactly, and corrupted / truncated /
//      overlong frames must be rejected without crashing.
// The process exits nonzero if any gate fails, so the CI perf job doubles
// as a codec conformance check.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_util.h"
#include "hat/common/rng.h"
#include "hat/net/codec.h"
#include "hat/net/message.h"

// ---------------------------------------------------------------------------
// Heap allocation counter: every path through global operator new bumps
// g_allocs, so a loop whose before/after delta is zero provably never
// touched the heap. (Aligned overloads are left at their defaults; nothing
// in the codec uses over-aligned types.)

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hat::bench {
namespace {

namespace codec = net::codec;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Realistic payloads. Values follow the paper's YCSB configuration (1 KiB);
// keys look like YCSB keys; a fraction of records carry MAV sibling and
// causal dependency metadata.

WriteRecord MakeRecord(Rng& rng, size_t value_bytes, bool with_meta) {
  WriteRecord w;
  w.key = "user" + std::to_string(10000000 + rng.NextBelow(90000000));
  w.value.resize(value_bytes);
  for (size_t i = 0; i < value_bytes; i += 61) {
    w.value[i] = static_cast<char>('a' + rng.NextBelow(26));
  }
  w.ts.logical = rng.NextUint64() >> 16;
  w.ts.client_id = static_cast<uint32_t>(rng.NextBelow(1024));
  w.ts.seq = static_cast<uint32_t>(rng.NextBelow(8));
  if (with_meta) {
    w.sibs = {w.key, "user" + std::to_string(rng.NextBelow(90000000))};
    Dependency d;
    d.key = "user" + std::to_string(rng.NextBelow(90000000));
    d.ts = Timestamp{w.ts.logical - 1, w.ts.client_id, 0};
    w.deps = {d};
  }
  return w;
}

net::Envelope Wrap(net::Message msg) {
  net::Envelope env;
  env.from = 1;
  env.to = 2;
  env.rpc_id = 77;
  env.msg = std::move(msg);
  return env;
}

net::Envelope MakeAntiEntropyEnvelope(Rng& rng, size_t records,
                                      size_t value_bytes) {
  net::AntiEntropyBatch b;
  b.batch_id = 424242;
  b.mode = net::PutMode::kEventual;
  b.shard = 5;
  for (size_t i = 0; i < records; i++) {
    b.writes.push_back(MakeRecord(rng, value_bytes, i % 4 == 0));
  }
  return Wrap(std::move(b));
}

net::Envelope MakeClientBatchEnvelope(Rng& rng, size_t ops,
                                      size_t value_bytes) {
  net::ClientBatchRequest cb;
  for (size_t i = 0; i < ops; i++) {
    if (i % 2 == 0) {
      net::PutRequest put;
      put.write = MakeRecord(rng, value_bytes, false);
      cb.ops.emplace_back(std::move(put));
    } else {
      net::GetRequest get;
      get.key = "user" + std::to_string(rng.NextBelow(90000000));
      if (i % 4 == 1) get.required = Timestamp{99, 3, 0};
      cb.ops.emplace_back(std::move(get));
    }
  }
  return Wrap(std::move(cb));
}

net::Envelope MakeSnapshotChunkEnvelope(Rng& rng, size_t records,
                                        size_t value_bytes) {
  net::ShardSnapshotChunk c;
  c.migration_id = 9;
  c.shard = 2;
  c.seq = 17;
  c.done = false;
  for (size_t i = 0; i < records; i++) {
    c.writes.push_back(MakeRecord(rng, value_bytes, false));
  }
  return Wrap(std::move(c));
}

// ---------------------------------------------------------------------------
// Throughput measurement.

struct LoopResult {
  double gbps = 0;
  double mmsgs = 0;
  uint64_t allocs = 0;  // heap allocations across the whole timed loop
};

template <typename Body>
LoopResult TimedLoop(size_t frame_bytes, double target_s, Body&& body) {
  // Untimed warmup pass populates buffer capacity and code caches.
  body();
  uint64_t iters = 0;
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  double elapsed;
  do {
    for (int i = 0; i < 16; i++) body();
    iters += 16;
    elapsed = SecondsSince(t0);
  } while (elapsed < target_s);
  LoopResult r;
  r.gbps = static_cast<double>(iters) * static_cast<double>(frame_bytes) /
           elapsed / 1e9;
  r.mmsgs = static_cast<double>(iters) / elapsed / 1e6;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  return r;
}

struct Scenario {
  const char* name;
  net::Envelope env;
};

// ---------------------------------------------------------------------------
// Round-trip / corruption coverage: one populated instance of every Message
// alternative. The static_assert pins the family size so adding an
// alternative without extending this list fails the build here too.

static_assert(std::variant_size_v<net::Message> == 22,
              "net::Message grew: add the new alternative to OneOfEach() "
              "so bench_codec keeps gating round-trip coverage");

std::vector<net::Envelope> OneOfEach(Rng& rng) {
  std::vector<net::Message> msgs;
  msgs.emplace_back(net::PingRequest{});
  msgs.emplace_back(net::PingResponse{});
  {
    net::PutRequest m;
    m.write = MakeRecord(rng, 48, true);
    m.mode = net::PutMode::kMav;
    msgs.emplace_back(std::move(m));
  }
  {
    net::PutResponse m;
    m.ok = true;
    msgs.emplace_back(m);
  }
  {
    net::GetRequest m;
    m.key = "k1";
    m.required = Timestamp{7, 1, 0};
    msgs.emplace_back(std::move(m));
  }
  {
    net::GetResponse m;
    m.found = true;
    m.value = "value";
    m.ts = Timestamp{9, 2, 1};
    m.sibs = {"a", "b"};
    Dependency d;
    d.key = "d";
    d.ts = Timestamp{3, 1, 0};
    m.deps = {d};
    msgs.emplace_back(std::move(m));
  }
  {
    net::ScanRequest m;
    m.lo = "a";
    m.hi = "z";
    m.bound = Timestamp{5, 0, 0};
    msgs.emplace_back(std::move(m));
  }
  {
    net::ScanResponse m;
    net::ScanResponse::Item item;
    item.key = "k";
    item.value = "v";
    item.ts = Timestamp{1, 2, 3};
    item.sibs = {"s"};
    m.items.push_back(std::move(item));
    msgs.emplace_back(std::move(m));
  }
  for (bool reply : {false, true}) {
    net::NotifyRequest m;
    m.ts = Timestamp{11, 4, 0};
    m.sender = 6;
    m.reply = reply;
    msgs.emplace_back(m);
  }
  {
    net::AntiEntropyBatch m;
    m.batch_id = 3;
    m.writes = {MakeRecord(rng, 32, true), MakeRecord(rng, 32, false)};
    msgs.emplace_back(std::move(m));
  }
  msgs.emplace_back(net::AntiEntropyAck{42});
  {
    net::DigestRequest m;
    m.latest = {{"k", Timestamp{8, 1, 0}}};
    m.reply_allowed = false;
    m.buckets = {1, 2};
    m.shard = 3;
    msgs.emplace_back(std::move(m));
  }
  {
    net::BucketDigest m;
    m.hashes = {1, 2, 3};
    m.shard = 7;
    msgs.emplace_back(std::move(m));
  }
  {
    net::ShardDigest m;
    m.shards = {{0, 11}, {1, 22}};
    msgs.emplace_back(std::move(m));
  }
  {
    net::LockRequest m;
    m.key = "k";
    m.exclusive = true;
    m.txn = Timestamp{13, 5, 0};
    msgs.emplace_back(std::move(m));
  }
  {
    net::LockResponse m;
    m.granted = true;
    msgs.emplace_back(m);
  }
  {
    net::UnlockRequest m;
    m.keys = {"k1", "k2"};
    m.txn = Timestamp{13, 5, 0};
    msgs.emplace_back(std::move(m));
  }
  {
    net::ShardSnapshotRequest m;
    m.migration_id = 9;
    m.shard = 2;
    msgs.emplace_back(m);
  }
  {
    net::ShardSnapshotChunk m;
    m.migration_id = 9;
    m.shard = 2;
    m.seq = 1;
    m.done = true;
    m.writes = {MakeRecord(rng, 32, false)};
    msgs.emplace_back(std::move(m));
  }
  {
    net::ShardSnapshotAck m;
    m.migration_id = 9;
    m.seq = 3;
    msgs.emplace_back(m);
  }
  {
    net::ClientBatchRequest m;
    net::PutRequest put;
    put.write = MakeRecord(rng, 32, false);
    m.ops.emplace_back(std::move(put));
    net::GetRequest get;
    get.key = "g";
    m.ops.emplace_back(std::move(get));
    msgs.emplace_back(std::move(m));
  }
  {
    net::ClientBatchResponse m;
    net::PutResponse pr;
    pr.ok = true;
    m.replies.emplace_back(pr);
    net::GetResponse gr;
    gr.found = true;
    gr.value = "v";
    gr.ts = Timestamp{4, 4, 0};
    m.replies.emplace_back(std::move(gr));
    msgs.emplace_back(std::move(m));
  }

  std::vector<net::Envelope> envs;
  for (auto& m : msgs) {
    net::Envelope env = Wrap(std::move(m));
    env.is_response = envs.size() % 2 == 1;
    envs.push_back(std::move(env));
  }
  return envs;
}

int g_failures = 0;

void Expect(bool cond, const char* what, size_t alt) {
  if (!cond) {
    g_failures++;
    std::fprintf(stderr, "FAIL (alternative %zu): %s\n", alt, what);
  }
}

void RunCoverageGate(bool quick) {
  Rng rng(0xf22);
  auto envs = OneOfEach(rng);
  std::set<size_t> seen;
  const int flips = quick ? 32 : 256;

  for (const auto& env : envs) {
    const size_t alt = env.msg.index();
    seen.insert(alt);

    std::string frame;
    codec::EncodeEnvelope(env, &frame);
    Expect(frame.size() == codec::EncodedFrameSize(env),
           "EncodedFrameSize disagrees with EncodeEnvelope", alt);

    // Round trip, byte-exact: canonical varints make re-encode equality
    // equivalent to field equality, with no operator== needed.
    net::Envelope out;
    Expect(codec::DecodeEnvelope(frame, &out), "decode of valid frame", alt);
    Expect(out.msg.index() == alt, "decoded alternative mismatch", alt);
    std::string again;
    codec::EncodeEnvelope(out, &again);
    Expect(again == frame, "re-encode not byte-exact", alt);

    // Every truncation must be rejected (and must not crash).
    for (size_t n = 0; n < frame.size(); n++) {
      net::Envelope sink;
      if (codec::DecodeEnvelope(std::string_view(frame.data(), n), &sink)) {
        Expect(false, "truncated frame accepted", alt);
        break;
      }
    }

    // Any single flipped byte must be rejected: payload flips are caught by
    // CRC, header flips by length/CRC mismatch.
    for (int i = 0; i < flips; i++) {
      std::string bad = frame;
      const size_t pos = rng.NextBelow(bad.size());
      bad[pos] = static_cast<char>(
          static_cast<unsigned char>(bad[pos]) ^
          static_cast<unsigned char>(1u << rng.NextBelow(8)));
      net::Envelope sink;
      if (codec::DecodeEnvelope(bad, &sink)) {
        Expect(false, "corrupted frame accepted", alt);
        break;
      }
    }

    // Overlong: trailing garbage after the frame, and a declared length
    // pointing past the available bytes, must both be rejected.
    {
      std::string padded = frame + '\x00';
      net::Envelope sink;
      Expect(!codec::DecodeEnvelope(padded, &sink),
             "trailing garbage accepted", alt);
      std::string stretched = frame;
      stretched[0] = static_cast<char>(
          static_cast<unsigned char>(stretched[0]) + 1);
      std::string_view stream = stretched;
      std::string_view payload;
      Expect(codec::ExtractFrame(&stream, &payload) != codec::FrameStatus::kOk,
             "overlong declared length accepted", alt);
    }
  }

  Expect(seen.size() == std::variant_size_v<net::Message>,
         "not every Message alternative was exercised", seen.size());
  std::printf("round-trip coverage: %zu/%zu alternatives, %d flips each: %s\n",
              seen.size(), std::variant_size_v<net::Message>, flips,
              g_failures == 0 ? "ok" : "FAILED");
}

}  // namespace
}  // namespace hat::bench

int main() {
  using namespace hat::bench;
  namespace codec = hat::net::codec;

  const bool quick = QuickBench();
  const double target_s = quick ? 0.05 : 0.4;
  hat::Rng rng(0x10a7);

  hat::harness::Banner("Wire codec throughput (net::codec)");
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"AntiEntropyBatch 64x1KiB", MakeAntiEntropyEnvelope(rng, 64, 1024)});
  scenarios.push_back(
      {"ClientBatchRequest 8 ops", MakeClientBatchEnvelope(rng, 8, 1024)});
  scenarios.push_back({"ShardSnapshotChunk 128x1KiB",
                       MakeSnapshotChunkEnvelope(rng, 128, 1024)});

  hat::harness::FigureSeries gbps;
  gbps.title =
      "Codec throughput, GB/s (scenarios: 1=AntiEntropyBatch 64x1KiB, "
      "2=ClientBatchRequest 8 ops, 3=ShardSnapshotChunk 128x1KiB)";
  gbps.x_label = "scenario";
  hat::harness::FigureSeries mmsgs;
  mmsgs.title = "Codec throughput, million envelopes/s (same scenarios)";
  mmsgs.x_label = "scenario";
  for (size_t i = 0; i < scenarios.size(); i++) {
    gbps.x.push_back(static_cast<double>(i + 1));
    mmsgs.x.push_back(static_cast<double>(i + 1));
  }

  std::vector<double> enc_gbps, dec_gbps, enc_mmsgs, dec_mmsgs;
  for (const Scenario& sc : scenarios) {
    const size_t frame_bytes = codec::EncodedFrameSize(sc.env);

    // Encode into one reused buffer — the hot path a sender runs. Must not
    // allocate once the buffer has reached capacity.
    std::string buf;
    LoopResult enc = TimedLoop(frame_bytes, target_s, [&] {
      buf.clear();
      codec::EncodeEnvelope(sc.env, &buf);
    });
    if (enc.allocs != 0) {
      g_failures++;
      std::fprintf(stderr,
                   "FAIL: steady-state encode of %s performed %llu heap "
                   "allocations (expected 0)\n",
                   sc.name, static_cast<unsigned long long>(enc.allocs));
    }

    // Owning decode: materializes strings/vectors; allocations expected.
    std::string frame = buf;
    uint64_t sink = 0;
    LoopResult dec = TimedLoop(frame_bytes, target_s, [&] {
      hat::net::Envelope out;
      if (!codec::DecodeEnvelope(frame, &out)) g_failures++;
      sink += out.msg.index();
    });

    if (sink == 0xdeadbeef) std::printf(" ");  // defeat dead-code elimination

    std::printf(
        "%-28s frame=%6zu B  encode %6.2f GB/s (%5.2f Mmsg/s, 0 allocs)  "
        "decode %6.2f GB/s\n",
        sc.name, frame_bytes, enc.gbps, enc.mmsgs, dec.gbps);
    enc_gbps.push_back(enc.gbps);
    dec_gbps.push_back(dec.gbps);
    enc_mmsgs.push_back(enc.mmsgs);
    dec_mmsgs.push_back(dec.mmsgs);
  }
  gbps.series.emplace_back("encode", enc_gbps);
  gbps.series.emplace_back("decode_owning", dec_gbps);
  mmsgs.series.emplace_back("encode", enc_mmsgs);
  mmsgs.series.emplace_back("decode_owning", dec_mmsgs);

  hat::harness::Banner("Round-trip and corruption coverage gate");
  RunCoverageGate(quick);

  JsonSummary json;
  json.Add("codec_gbps", gbps);
  json.Add("codec_mmsgs", mmsgs);
  if (const char* path = json.Flush()) {
    std::printf("\nWrote JSON throughput summary to %s\n", path);
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "\nbench_codec: %d gate failure(s)\n", g_failures);
    return 1;
  }
  std::printf("\nbench_codec: all gates passed\n");
  return 0;
}
