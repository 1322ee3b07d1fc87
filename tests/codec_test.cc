// Wire codec tests: every net::Message alternative round-trips byte-exact
// through encode/decode (randomized contents including empty and max-size
// strings), WireBytes() equals the real encoded frame size, frame-level
// corruption (flipped CRC, truncated length prefix, trailing garbage, bad
// enum bytes, reserved flags) is rejected without crashing, and the
// standalone WriteRecord encoding (the durable record format) round-trips
// and rejects truncated, out-of-range, and overlong input.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <variant>

#include "hat/common/crc32.h"
#include "hat/common/rng.h"
#include "hat/net/codec.h"
#include "hat/net/message.h"

namespace hat::net {
namespace {

using codec::FrameStatus;

// ------------------------- randomized message data -------------------------

Key RandKey(Rng& rng) {
  // Bias toward short keys, include empty and long ones.
  const size_t lens[] = {0, 1, 8, 24, 200};
  size_t len = lens[rng.NextBelow(5)];
  Key k;
  for (size_t i = 0; i < len; i++) {
    k.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return k;
}

Value RandValue(Rng& rng) {
  const size_t lens[] = {0, 1, 64, 1024, 64 * 1024};
  size_t len = lens[rng.NextBelow(5)];
  Value v;
  v.reserve(len);
  for (size_t i = 0; i < len; i++) {
    v.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return v;
}

Timestamp RandTs(Rng& rng) {
  Timestamp t;
  t.logical = rng.NextBool(0.2) ? rng.NextUint64() : rng.NextBelow(1 << 20);
  t.client_id = static_cast<uint32_t>(rng.NextBelow(1 << 16));
  t.seq = static_cast<uint32_t>(rng.NextBelow(4));
  return t;
}

std::optional<Timestamp> RandOptTs(Rng& rng) {
  if (rng.NextBool(0.5)) return std::nullopt;
  return RandTs(rng);
}

std::vector<Key> RandSibs(Rng& rng) {
  std::vector<Key> sibs;
  size_t n = rng.NextBelow(5);
  for (size_t i = 0; i < n; i++) sibs.push_back(RandKey(rng));
  return sibs;
}

std::vector<Dependency> RandDeps(Rng& rng) {
  std::vector<Dependency> deps;
  size_t n = rng.NextBelow(4);
  for (size_t i = 0; i < n; i++) {
    deps.push_back(Dependency{RandKey(rng), RandTs(rng)});
  }
  return deps;
}

WriteRecord RandRecord(Rng& rng) {
  WriteRecord w;
  w.key = RandKey(rng);
  w.value = RandValue(rng);
  w.kind = rng.NextBool(0.2) ? WriteKind::kDelta : WriteKind::kPut;
  w.ts = RandTs(rng);
  w.sibs = RandSibs(rng);
  w.deps = RandDeps(rng);
  return w;
}

std::vector<WriteRecord> RandRecords(Rng& rng, size_t max) {
  std::vector<WriteRecord> v;
  size_t n = rng.NextBelow(max + 1);
  for (size_t i = 0; i < n; i++) v.push_back(RandRecord(rng));
  return v;
}

// One Fill overload per alternative: a new Message type without a filler
// fails this test's build, mirroring the codec's own exhaustive dispatch.
void Fill(PingRequest&, Rng&) {}
void Fill(PingResponse&, Rng&) {}
void Fill(PutRequest& m, Rng& rng) {
  m.write = RandRecord(rng);
  m.mode = rng.NextBool(0.5) ? PutMode::kMav : PutMode::kEventual;
}
void Fill(PutResponse& m, Rng& rng) {
  m.ok = rng.NextBool(0.5);
  m.wrong_shard = rng.NextBool(0.2);
}
void Fill(GetRequest& m, Rng& rng) {
  m.key = RandKey(rng);
  m.required = RandOptTs(rng);
  m.bound = RandOptTs(rng);
}
void Fill(GetResponse& m, Rng& rng) {
  m.code = static_cast<GetCode>(rng.NextBelow(4));
  m.found = rng.NextBool(0.7);
  m.value = RandValue(rng);
  m.ts = RandTs(rng);
  m.sibs = RandSibs(rng);
  m.deps = RandDeps(rng);
}
void Fill(ScanRequest& m, Rng& rng) {
  m.lo = RandKey(rng);
  m.hi = RandKey(rng);
  m.bound = RandOptTs(rng);
}
void Fill(ScanResponse& m, Rng& rng) {
  size_t n = rng.NextBelow(6);
  for (size_t i = 0; i < n; i++) {
    ScanResponse::Item it;
    it.key = RandKey(rng);
    it.value = RandValue(rng);
    it.ts = RandTs(rng);
    it.sibs = RandSibs(rng);
    m.items.push_back(std::move(it));
  }
}
void Fill(NotifyRequest& m, Rng& rng) {
  m.ts = RandTs(rng);
  m.sender = static_cast<NodeId>(rng.NextBelow(1 << 20));
  m.reply = rng.NextBool(0.5);
}
void Fill(AntiEntropyBatch& m, Rng& rng) {
  m.batch_id = rng.NextUint64();
  m.writes = RandRecords(rng, 8);
  m.mode = rng.NextBool(0.3) ? PutMode::kMav : PutMode::kEventual;
  // Full 32-bit range: the tag is a fixed-width field.
  m.shard = static_cast<uint32_t>(rng.NextUint64());
}
void Fill(AntiEntropyAck& m, Rng& rng) { m.batch_id = rng.NextUint64(); }
void Fill(DigestRequest& m, Rng& rng) {
  size_t n = rng.NextBelow(6);
  for (size_t i = 0; i < n; i++) m.latest.emplace_back(RandKey(rng), RandTs(rng));
  m.reply_allowed = rng.NextBool(0.5);
  size_t b = rng.NextBelow(4);
  for (size_t i = 0; i < b; i++) {
    m.buckets.push_back(static_cast<uint32_t>(rng.NextBelow(1024)));
  }
  m.shard = static_cast<uint32_t>(rng.NextBelow(64));
}
void Fill(BucketDigest& m, Rng& rng) {
  size_t n = rng.NextBelow(1025);
  for (size_t i = 0; i < n; i++) m.hashes.push_back(rng.NextUint64());
  m.shard = static_cast<uint32_t>(rng.NextBelow(64));
}
void Fill(ShardDigest& m, Rng& rng) {
  size_t n = rng.NextBelow(17);
  for (size_t i = 0; i < n; i++) {
    m.shards.push_back(ShardHash{static_cast<uint32_t>(rng.NextBelow(256)),
                                 rng.NextUint64()});
  }
}
void Fill(LockRequest& m, Rng& rng) {
  m.key = RandKey(rng);
  m.exclusive = rng.NextBool(0.5);
  m.txn = RandTs(rng);
}
void Fill(LockResponse& m, Rng& rng) {
  m.granted = rng.NextBool(0.5);
  m.must_abort = rng.NextBool(0.2);
}
void Fill(UnlockRequest& m, Rng& rng) {
  m.keys = RandSibs(rng);
  m.txn = RandTs(rng);
}
void Fill(ShardSnapshotRequest& m, Rng& rng) {
  m.migration_id = rng.NextUint64();
  m.shard = static_cast<uint32_t>(rng.NextBelow(64));
}
void Fill(ShardSnapshotChunk& m, Rng& rng) {
  m.migration_id = rng.NextUint64();
  m.shard = static_cast<uint32_t>(rng.NextBelow(64));
  m.seq = static_cast<uint32_t>(rng.NextBelow(1 << 16));
  m.done = rng.NextBool(0.3);
  m.writes = RandRecords(rng, 8);
}
void Fill(ShardSnapshotAck& m, Rng& rng) {
  m.migration_id = rng.NextUint64();
  m.seq = static_cast<uint32_t>(rng.NextBelow(1 << 16));
  m.ok = rng.NextBool(0.9);
}
void Fill(ClientBatchRequest& m, Rng& rng) {
  size_t n = rng.NextBelow(6);
  for (size_t i = 0; i < n; i++) {
    if (rng.NextBool(0.5)) {
      PutRequest p;
      Fill(p, rng);
      m.ops.emplace_back(std::move(p));
    } else {
      GetRequest g;
      Fill(g, rng);
      m.ops.emplace_back(std::move(g));
    }
  }
}
void Fill(ClientBatchResponse& m, Rng& rng) {
  size_t n = rng.NextBelow(6);
  for (size_t i = 0; i < n; i++) {
    if (rng.NextBool(0.5)) {
      PutResponse p;
      Fill(p, rng);
      m.replies.emplace_back(std::move(p));
    } else {
      GetResponse g;
      Fill(g, rng);
      m.replies.emplace_back(std::move(g));
    }
  }
}

template <size_t... Is>
Message RandomMessageOfAltImpl(size_t index, Rng& rng,
                               std::index_sequence<Is...>) {
  Message out;
  (
      [&] {
        if (index != Is) return;
        std::variant_alternative_t<Is, Message> m{};
        Fill(m, rng);
        out = std::move(m);
      }(),
      ...);
  return out;
}

Message RandomMessageOfAlt(size_t index, Rng& rng) {
  return RandomMessageOfAltImpl(
      index, rng, std::make_index_sequence<std::variant_size_v<Message>>{});
}

Envelope RandomEnvelope(size_t alt, Rng& rng) {
  Envelope env;
  env.from = static_cast<NodeId>(rng.NextBelow(1 << 16));
  env.to = static_cast<NodeId>(rng.NextBelow(1 << 16));
  env.rpc_id = rng.NextBool(0.3) ? 0 : rng.NextUint64();
  env.is_response = rng.NextBool(0.5);
  env.msg = RandomMessageOfAlt(alt, rng);
  return env;
}

std::string EncodeToString(const Envelope& env) {
  std::string buf;
  codec::EncodeEnvelope(env, &buf);
  return buf;
}

// Re-frames a tampered payload with a correct CRC and length so body-level
// validation (not the CRC) is what rejects it.
std::string ReframePayload(std::string payload) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, MaskCrc(Crc32c(payload)));
  frame += payload;
  return frame;
}

std::string PayloadOf(const std::string& frame) {
  return frame.substr(codec::kFrameHeaderBytes);
}

// ----------------------------- round-trip ----------------------------------

TEST(WireCodecTest, EveryAlternativeRoundTripsByteExact) {
  Rng rng(0xc0dec);
  for (size_t alt = 0; alt < std::variant_size_v<Message>; alt++) {
    for (int iter = 0; iter < 40; iter++) {
      Envelope env = RandomEnvelope(alt, rng);
      std::string frame = EncodeToString(env);
      ASSERT_EQ(frame.size(), codec::EncodedFrameSize(env)) << "alt " << alt;

      Envelope back;
      ASSERT_TRUE(codec::DecodeEnvelope(frame, &back))
          << "alt " << alt << " iter " << iter;
      EXPECT_EQ(back.from, env.from);
      EXPECT_EQ(back.to, env.to);
      EXPECT_EQ(back.rpc_id, env.rpc_id);
      EXPECT_EQ(back.is_response, env.is_response);
      ASSERT_EQ(back.msg.index(), env.msg.index());
      // Byte-exact: canonical encoding makes re-encode equality equivalent
      // to field equality without requiring operator== on every struct.
      EXPECT_EQ(EncodeToString(back), frame) << "alt " << alt;
    }
  }
}

TEST(WireCodecTest, WireBytesEqualsRealEncodedSize) {
  Rng rng(0xb17e5);
  for (size_t alt = 0; alt < std::variant_size_v<Message>; alt++) {
    for (int iter = 0; iter < 20; iter++) {
      Envelope env = RandomEnvelope(alt, rng);
      EXPECT_EQ(WireBytes(env.msg), EncodeToString(env).size())
          << "alt " << alt;
    }
  }
}

TEST(WireCodecTest, WriteRecordWireBytesMatchesEmbeddedEncoding) {
  Rng rng(0x33);
  for (int iter = 0; iter < 50; iter++) {
    AntiEntropyBatch batch;
    batch.batch_id = 7;
    batch.writes.push_back(RandRecord(rng));
    AntiEntropyBatch empty = batch;
    empty.writes.clear();
    Envelope env{1, 2, 0, false, batch};
    Envelope env0{1, 2, 0, false, empty};
    // Adding one record grows the frame by exactly that record's bytes
    // (modulo the count varint, which grows 0->1 by 0 bytes here).
    EXPECT_EQ(EncodeToString(env).size() - EncodeToString(env0).size(),
              WriteRecordWireBytes(batch.writes[0]));
  }
}

TEST(WireCodecTest, ReusedBufferAccumulatesFrames) {
  Rng rng(0x99);
  std::string buf;
  std::vector<size_t> sizes;
  for (int i = 0; i < 5; i++) {
    Envelope env = RandomEnvelope(9 /* AntiEntropyBatch */, rng);
    sizes.push_back(codec::EncodedFrameSize(env));
    codec::EncodeEnvelope(env, &buf);
  }
  std::string_view stream(buf);
  for (int i = 0; i < 5; i++) {
    std::string_view payload;
    ASSERT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kOk);
    EXPECT_EQ(payload.size() + codec::kFrameHeaderBytes, sizes[i]);
  }
  EXPECT_TRUE(stream.empty());
}

// ----------------------------- framing -------------------------------------

TEST(WireCodecTest, PartialFramesNeedMore) {
  Rng rng(0x77);
  std::string frame = EncodeToString(RandomEnvelope(5, rng));
  for (size_t cut = 0; cut < frame.size(); cut++) {
    std::string_view stream(frame.data(), cut);
    std::string_view payload;
    EXPECT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(stream.size(), cut) << "stream must be unchanged";
  }
}

TEST(WireCodecTest, FlippedByteAnywhereIsRejectedNeverCrashes) {
  Rng rng(0x1234);
  for (size_t alt = 0; alt < std::variant_size_v<Message>; alt++) {
    Envelope env = RandomEnvelope(alt, rng);
    std::string frame = EncodeToString(env);
    // Flip one byte at a sample of positions (every position for small
    // frames); decode must fail cleanly or — only if the flip landed in a
    // way that still forms a valid frame — never corrupt state.
    size_t step = frame.size() < 200 ? 1 : frame.size() / 97;
    for (size_t pos = 0; pos < frame.size(); pos += step) {
      std::string bad = frame;
      bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
      Envelope out;
      codec::DecodeEnvelope(bad, &out);  // must not crash or throw
    }
  }
}

TEST(WireCodecTest, FlippedCrcByteRejected) {
  Rng rng(0x55);
  std::string frame = EncodeToString(RandomEnvelope(3, rng));
  frame[5] = static_cast<char>(frame[5] ^ 0x01);  // inside the CRC field
  std::string_view stream(frame);
  std::string_view payload;
  EXPECT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kBad);
}

TEST(WireCodecTest, TruncatedLengthPrefixRejectedOrStarved) {
  Rng rng(0x56);
  std::string frame = EncodeToString(RandomEnvelope(3, rng));
  // Length claims more than the stream will ever hold — kNeedMore from the
  // reader's perspective; an over-limit length is kBad outright.
  std::string bloated = frame;
  uint32_t huge = static_cast<uint32_t>(codec::kMaxFramePayloadBytes + 1);
  std::memcpy(bloated.data(), &huge, 4);
  std::string_view stream(bloated);
  std::string_view payload;
  EXPECT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kBad);

  uint32_t shy = 10;  // below the envelope-header minimum
  std::memcpy(bloated.data(), &shy, 4);
  stream = bloated;
  EXPECT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kBad);
}

TEST(WireCodecTest, TrailingGarbageAfterFrameRejectedByWholeFrameDecode) {
  Rng rng(0x57);
  std::string frame = EncodeToString(RandomEnvelope(0, rng));
  std::string extra = frame + "garbage";
  Envelope out;
  EXPECT_FALSE(codec::DecodeEnvelope(extra, &out));
  // The streaming API still peels the valid frame and leaves the garbage.
  std::string_view stream(extra);
  std::string_view payload;
  EXPECT_EQ(codec::ExtractFrame(&stream, &payload), FrameStatus::kOk);
  EXPECT_EQ(stream, "garbage");
}

TEST(WireCodecTest, TrailingBodyBytesInsidePayloadRejected) {
  Rng rng(0x58);
  std::string payload = PayloadOf(EncodeToString(RandomEnvelope(4, rng)));
  payload += '\0';  // overlong body
  Envelope out;
  EXPECT_FALSE(codec::DecodePayload(payload, &out));
  std::string frame = ReframePayload(payload);  // valid CRC over bad body
  EXPECT_FALSE(codec::DecodeEnvelope(frame, &out));
}

TEST(WireCodecTest, UnknownTagRejected) {
  Rng rng(0x59);
  std::string payload = PayloadOf(EncodeToString(RandomEnvelope(0, rng)));
  payload[0] = static_cast<char>(0xee);
  Envelope out;
  EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(payload), &out));
}

TEST(WireCodecTest, ReservedFlagBitsRejected) {
  Rng rng(0x5a);
  std::string payload = PayloadOf(EncodeToString(RandomEnvelope(0, rng)));
  payload[1] = static_cast<char>(payload[1] | 0x80);
  Envelope out;
  EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(payload), &out));
}

TEST(WireCodecTest, OutOfRangeEnumByteRejected) {
  PutRequest req;
  req.write.key = "k";
  req.write.value = "v";
  Envelope env{1, 2, 3, false, req};
  std::string payload = PayloadOf(EncodeToString(env));
  // Body starts after the envelope header; first body byte is the PutMode.
  payload[codec::kEnvelopeHeaderBytes] = 2;
  Envelope out;
  EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(payload), &out));
}

TEST(WireCodecTest, NonCanonicalNotifyReplyByteRejected) {
  for (bool reply : {false, true}) {
    Envelope env{1, 2, 0, false, NotifyRequest{{5, 6, 7}, 8, reply}, {}};
    std::string payload = PayloadOf(EncodeToString(env));
    // The reply flag is the last body byte: 0 or 1 decodes, 2 does not.
    ASSERT_EQ(payload.back(), reply ? 1 : 0);
    Envelope back;
    ASSERT_TRUE(codec::DecodeEnvelope(ReframePayload(payload), &back));
    EXPECT_EQ(std::get<NotifyRequest>(back.msg).reply, reply);
    payload.back() = 2;
    Envelope out;
    EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(payload), &out));
  }
}

TEST(WireCodecTest, TruncationFuzzNeverCrashes) {
  Rng rng(0xf22);
  for (size_t alt = 0; alt < std::variant_size_v<Message>; alt++) {
    std::string payload = PayloadOf(EncodeToString(RandomEnvelope(alt, rng)));
    for (size_t cut = 0; cut <= payload.size();
         cut += payload.size() < 100 ? 1 : payload.size() / 61) {
      Envelope out;
      // A truncated body re-framed with a matching CRC: the body decoder
      // itself must reject it (except cut == full size, which is valid).
      bool decoded = codec::DecodeEnvelope(
          ReframePayload(payload.substr(0, cut)), &out);
      EXPECT_EQ(decoded, cut == payload.size()) << "cut " << cut;
    }
  }
}

// ------------------------ standalone WriteRecord ---------------------------

std::string EncodeRecord(const WriteRecord& w) {
  std::string out;
  codec::EncodeWriteRecord(w, &out);
  return out;
}

TEST(WireTest, WriteRecordRoundTrip) {
  WriteRecord w;
  w.key = "the-key";
  w.value = std::string("payload with \0 byte", 19);
  w.kind = WriteKind::kDelta;
  w.ts = {123456789, 42};
  w.sibs = {"a", "b", "the-key"};
  w.deps = {{"x", {9, 9}}, {"y", {8, 8}}};
  std::string enc = EncodeRecord(w);
  EXPECT_EQ(enc.size(), codec::EncodedWriteRecordSize(w));
  WriteRecord decoded;
  ASSERT_TRUE(codec::DecodeWriteRecord(enc, &decoded));
  EXPECT_EQ(decoded.key, w.key);
  EXPECT_EQ(decoded.value, w.value);
  EXPECT_EQ(decoded.kind, w.kind);
  EXPECT_EQ(decoded.ts, w.ts);
  EXPECT_EQ(decoded.sibs, w.sibs);
  EXPECT_EQ(decoded.deps, w.deps);
}

TEST(WireTest, DecodeRejectsTruncation) {
  WriteRecord w;
  w.key = "k";
  w.value = "v";
  w.ts = {1, 1};
  w.sibs = {"k", "other"};
  std::string enc = EncodeRecord(w);
  for (size_t cut = 0; cut < enc.size(); cut++) {
    WriteRecord out;
    EXPECT_FALSE(codec::DecodeWriteRecord(enc.substr(0, cut), &out))
        << "cut " << cut;
  }
}

TEST(WireTest, DecodeRejectsOutOfRangeKind) {
  WriteRecord w;
  w.key = "k";
  w.value = "v";
  w.ts = {1, 1};
  std::string enc = EncodeRecord(w);
  // Layout: len("k") 'k' len("v") 'v' kind ...: the kind byte is at 4.
  ASSERT_EQ(enc[4], static_cast<char>(WriteKind::kPut));
  enc[4] = 7;
  WriteRecord out;
  EXPECT_FALSE(codec::DecodeWriteRecord(enc, &out));
}

TEST(WireTest, DecodeRejectsTrailingByte) {
  WriteRecord w;
  w.key = "k";
  w.value = "v";
  w.ts = {1, 1};
  std::string enc = EncodeRecord(w);
  WriteRecord out;
  ASSERT_TRUE(codec::DecodeWriteRecord(enc, &out));
  enc.push_back('\0');
  EXPECT_FALSE(codec::DecodeWriteRecord(enc, &out));
}

// --------------------------- traced envelopes ------------------------------

TEST(WireCodecTest, TracedEnvelopeRoundTripsContext) {
  Rng rng(0x7ace);
  for (size_t alt = 0; alt < std::variant_size_v<Message>; alt++) {
    Envelope env = RandomEnvelope(alt, rng);
    env.trace = obs::TraceContext{rng.NextUint64() | 1, rng.NextUint64()};
    std::string frame = EncodeToString(env);
    ASSERT_EQ(frame.size(), codec::EncodedFrameSize(env)) << "alt " << alt;

    Envelope back;
    ASSERT_TRUE(codec::DecodeEnvelope(frame, &back)) << "alt " << alt;
    EXPECT_EQ(back.trace.trace_id, env.trace.trace_id);
    EXPECT_EQ(back.trace.span_id, env.trace.span_id);
    EXPECT_EQ(back.rpc_id, env.rpc_id);
    EXPECT_EQ(EncodeToString(back), frame) << "alt " << alt;
  }
}

TEST(WireCodecTest, TraceBlockCostsExactlySixteenBytesAndOnlyWhenActive) {
  Rng rng(0x7acf);
  Envelope env = RandomEnvelope(2, rng);
  env.trace = {};
  std::string untraced = EncodeToString(env);

  Envelope traced_env = env;
  traced_env.trace = obs::TraceContext{42, 7};
  std::string traced = EncodeToString(traced_env);
  EXPECT_EQ(traced.size(), untraced.size() + codec::kTraceBlockBytes);

  // An inactive context leaves the frame byte-identical to the pre-trace
  // wire format — the figure-identity guarantee at the wire level.
  Envelope inactive = env;
  inactive.trace = obs::TraceContext{0, 99};  // trace_id 0 => inactive
  EXPECT_EQ(EncodeToString(inactive), untraced);

  Envelope back;
  ASSERT_TRUE(codec::DecodeEnvelope(untraced, &back));
  EXPECT_FALSE(back.trace.active());
}

TEST(WireCodecTest, TruncatedTraceBlockRejected) {
  Rng rng(0x7ad0);
  Envelope env = RandomEnvelope(0, rng);
  env.trace = obs::TraceContext{11, 22};
  std::string payload = PayloadOf(EncodeToString(env));
  // Keep the traced flag but cut the payload off inside the 16-byte trace
  // block: the header parser must reject it, never read past the end.
  for (size_t keep = 0; keep < codec::kTraceBlockBytes; keep += 5) {
    std::string cut = payload.substr(0, codec::kEnvelopeHeaderBytes + keep);
    Envelope out;
    EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(cut), &out))
        << "trace block cut to " << keep << " bytes";
  }
}

TEST(WireCodecTest, TracedFlagWithZeroTraceIdRejected) {
  Rng rng(0x7ad1);
  Envelope env = RandomEnvelope(0, rng);
  env.trace = obs::TraceContext{11, 22};
  std::string payload = PayloadOf(EncodeToString(env));
  // Zero the trace_id inside the trace block: flagged-but-inactive is a
  // malformed frame (an encoder never produces it).
  for (size_t i = 0; i < 8; i++) payload[codec::kEnvelopeHeaderBytes + i] = 0;
  Envelope out;
  EXPECT_FALSE(codec::DecodeEnvelope(ReframePayload(payload), &out));
}

}  // namespace
}  // namespace hat::net
