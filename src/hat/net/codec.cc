#include "hat/net/codec.h"

#include <cassert>
#include <cstring>
#include <utility>
#include <variant>

#include "hat/common/crc32.h"

namespace hat::net::codec {
namespace {

// --------------------------------------------------------------------------
// Wire type tags — stable across reordering of the Message variant; never
// reuse a retired value.
// --------------------------------------------------------------------------

template <typename>
inline constexpr bool kAlwaysFalse = false;

template <typename T>
constexpr uint8_t TagOf() {
  if constexpr (std::is_same_v<T, PingRequest>) return 1;
  else if constexpr (std::is_same_v<T, PingResponse>) return 2;
  else if constexpr (std::is_same_v<T, PutRequest>) return 3;
  else if constexpr (std::is_same_v<T, PutResponse>) return 4;
  else if constexpr (std::is_same_v<T, GetRequest>) return 5;
  else if constexpr (std::is_same_v<T, GetResponse>) return 6;
  else if constexpr (std::is_same_v<T, ScanRequest>) return 7;
  else if constexpr (std::is_same_v<T, ScanResponse>) return 8;
  else if constexpr (std::is_same_v<T, NotifyRequest>) return 9;
  else if constexpr (std::is_same_v<T, AntiEntropyBatch>) return 10;
  else if constexpr (std::is_same_v<T, AntiEntropyAck>) return 11;
  else if constexpr (std::is_same_v<T, DigestRequest>) return 12;
  else if constexpr (std::is_same_v<T, BucketDigest>) return 13;
  else if constexpr (std::is_same_v<T, ShardDigest>) return 14;
  else if constexpr (std::is_same_v<T, LockRequest>) return 15;
  else if constexpr (std::is_same_v<T, LockResponse>) return 16;
  else if constexpr (std::is_same_v<T, UnlockRequest>) return 17;
  else if constexpr (std::is_same_v<T, ShardSnapshotRequest>) return 18;
  else if constexpr (std::is_same_v<T, ShardSnapshotChunk>) return 19;
  else if constexpr (std::is_same_v<T, ShardSnapshotAck>) return 20;
  else if constexpr (std::is_same_v<T, ClientBatchRequest>) return 21;
  else if constexpr (std::is_same_v<T, ClientBatchResponse>) return 22;
  else static_assert(kAlwaysFalse<T>, "Message alternative has no wire tag");
}

template <size_t... Is>
constexpr bool TagsUniqueAndNonzero(std::index_sequence<Is...>) {
  const uint8_t tags[] = {TagOf<std::variant_alternative_t<Is, Message>>()...};
  for (size_t i = 0; i < sizeof...(Is); i++) {
    if (tags[i] == 0) return false;
    for (size_t j = i + 1; j < sizeof...(Is); j++) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return true;
}
static_assert(TagsUniqueAndNonzero(
                  std::make_index_sequence<std::variant_size_v<Message>>{}),
              "wire tags must be unique and nonzero");

// --------------------------------------------------------------------------
// Field lists — each wire struct is described exactly once as an ordered
// sequence of visitor calls. The size / encode / decode drivers below
// interpret the same list, so the three passes agree by construction.
//
// Visitor vocabulary:
//   U32/U64  varint integer (counts, shard ids, timestamps)
//   F32/F64  fixed-width integer (batch shard tags at a fixed offset, batch
//            ids whose high bits hold the node id, digest hashes)
//   B        one validated byte (bool / uint8-backed enum), max legal value
//   S        length-prefixed byte string
//   Opt      optional<T>: presence byte + T
//   Vec      varint count + elements
//   Sub      nested wire struct (its own VisitFields) or variant
//            (alternative index byte + active alternative)
// --------------------------------------------------------------------------

template <typename F, typename T>
void VisitTimestamp(F& f, T& t) {
  f.U64(t.logical);
  f.U32(t.client_id);
  f.U32(t.seq);
}

template <typename F, typename T>
void VisitMessageFields(F& f, T& m) {
  using M = std::remove_const_t<T>;
  if constexpr (std::is_same_v<M, Timestamp>) {
    VisitTimestamp(f, m);
  } else if constexpr (std::is_same_v<M, Dependency>) {
    f.S(m.key);
    f.Sub(m.ts);
  } else if constexpr (std::is_same_v<M, std::pair<Key, Timestamp>>) {
    f.S(m.first);
    f.Sub(m.second);
  } else if constexpr (std::is_same_v<M, WriteRecord>) {
    f.S(m.key);
    f.S(m.value);
    f.B(m.kind, 1);
    f.Sub(m.ts);
    f.Vec(m.sibs);
    f.Vec(m.deps);
  } else if constexpr (std::is_same_v<M, ScanResponse::Item>) {
    f.S(m.key);
    f.S(m.value);
    f.Sub(m.ts);
    f.Vec(m.sibs);
  } else if constexpr (std::is_same_v<M, PingRequest> ||
                       std::is_same_v<M, PingResponse>) {
    // Empty body.
  } else if constexpr (std::is_same_v<M, PutRequest>) {
    f.B(m.mode, 1);
    f.Sub(m.write);
  } else if constexpr (std::is_same_v<M, PutResponse>) {
    f.B(m.ok, 1);
    f.B(m.wrong_shard, 1);
  } else if constexpr (std::is_same_v<M, GetRequest>) {
    f.S(m.key);
    f.Opt(m.required);
    f.Opt(m.bound);
  } else if constexpr (std::is_same_v<M, GetResponse>) {
    f.B(m.code, 3);
    f.B(m.found, 1);
    f.S(m.value);
    f.Sub(m.ts);
    f.Vec(m.sibs);
    f.Vec(m.deps);
  } else if constexpr (std::is_same_v<M, ScanRequest>) {
    f.S(m.lo);
    f.S(m.hi);
    f.Opt(m.bound);
  } else if constexpr (std::is_same_v<M, ScanResponse>) {
    f.Vec(m.items);
  } else if constexpr (std::is_same_v<M, NotifyRequest>) {
    f.Sub(m.ts);
    f.U32(m.sender);
    f.B(m.reply, 1);
  } else if constexpr (std::is_same_v<M, AntiEntropyBatch>) {
    f.F64(m.batch_id);  // high bits hold the node id — varint would bloat
    f.B(m.mode, 1);
    f.F32(m.shard);
    f.Vec(m.writes);
  } else if constexpr (std::is_same_v<M, AntiEntropyAck>) {
    f.F64(m.batch_id);
  } else if constexpr (std::is_same_v<M, DigestRequest>) {
    f.B(m.reply_allowed, 1);
    f.U32(m.shard);
    f.Vec(m.buckets);
    f.Vec(m.latest);
  } else if constexpr (std::is_same_v<M, BucketDigest>) {
    f.U32(m.shard);
    f.Vec(m.hashes);
  } else if constexpr (std::is_same_v<M, ShardHash>) {
    f.U32(m.shard);
    f.F64(m.hash);
  } else if constexpr (std::is_same_v<M, ShardDigest>) {
    f.Vec(m.shards);
  } else if constexpr (std::is_same_v<M, LockRequest>) {
    f.S(m.key);
    f.B(m.exclusive, 1);
    f.Sub(m.txn);
  } else if constexpr (std::is_same_v<M, LockResponse>) {
    f.B(m.granted, 1);
    f.B(m.must_abort, 1);
  } else if constexpr (std::is_same_v<M, UnlockRequest>) {
    f.Sub(m.txn);
    f.Vec(m.keys);
  } else if constexpr (std::is_same_v<M, ShardSnapshotRequest>) {
    f.F64(m.migration_id);
    f.U32(m.shard);
  } else if constexpr (std::is_same_v<M, ShardSnapshotChunk>) {
    f.F64(m.migration_id);
    f.U32(m.shard);
    f.U32(m.seq);
    f.B(m.done, 1);
    f.Vec(m.writes);
  } else if constexpr (std::is_same_v<M, ShardSnapshotAck>) {
    f.F64(m.migration_id);
    f.U32(m.seq);
    f.B(m.ok, 1);
  } else if constexpr (std::is_same_v<M, ClientBatchRequest>) {
    f.Vec(m.ops);
  } else if constexpr (std::is_same_v<M, ClientBatchResponse>) {
    f.Vec(m.replies);
  } else {
    static_assert(kAlwaysFalse<M>, "wire struct has no field list");
  }
}

// ------------------------------- size pass --------------------------------

struct SizeVisitor {
  size_t n = 0;

  void U32(uint32_t v) { n += VarintLength(v); }
  void U64(uint64_t v) { n += VarintLength(v); }
  void F32(uint32_t) { n += 4; }
  void F64(uint64_t) { n += 8; }
  template <typename E>
  void B(const E&, uint8_t) {
    n += 1;
  }
  void S(const std::string& s) { n += VarintLength(s.size()) + s.size(); }
  template <typename T>
  void Opt(const std::optional<T>& v) {
    n += 1;
    if (v) Sub(*v);
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) {
      if constexpr (std::is_same_v<T, std::string>) S(e);
      else if constexpr (std::is_same_v<T, uint32_t>) U32(e);
      else if constexpr (std::is_same_v<T, uint64_t>) F64(e);
      else Sub(e);
    }
  }
  template <typename... Ts>
  void Sub(const std::variant<Ts...>& v) {
    n += 1;  // alternative index byte
    std::visit([this](const auto& alt) { Sub(alt); }, v);
  }
  template <typename T>
  void Sub(const T& e) {
    VisitMessageFields(*this, e);
  }
};

// ------------------------------ encode pass -------------------------------

struct EncodeVisitor {
  std::string* out;

  void U32(uint32_t v) { PutVarint32(out, v); }
  void U64(uint64_t v) { PutVarint64(out, v); }
  void F32(uint32_t v) { PutFixed32(out, v); }
  void F64(uint64_t v) { PutFixed64(out, v); }
  template <typename E>
  void B(const E& e, uint8_t) {
    out->push_back(static_cast<char>(static_cast<uint8_t>(e)));
  }
  void S(const std::string& s) { PutLengthPrefixed(out, s); }
  template <typename T>
  void Opt(const std::optional<T>& v) {
    out->push_back(v ? 1 : 0);
    if (v) Sub(*v);
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) {
      if constexpr (std::is_same_v<T, std::string>) S(e);
      else if constexpr (std::is_same_v<T, uint32_t>) U32(e);
      else if constexpr (std::is_same_v<T, uint64_t>) F64(e);
      else Sub(e);
    }
  }
  template <typename... Ts>
  void Sub(const std::variant<Ts...>& v) {
    out->push_back(static_cast<char>(v.index()));
    std::visit([this](const auto& alt) { Sub(alt); }, v);
  }
  template <typename T>
  void Sub(const T& e) {
    VisitMessageFields(*this, e);
  }
};

// ------------------------------ decode pass -------------------------------

struct DecodeVisitor {
  std::string_view* in;
  bool ok = true;

  bool TakeByte(uint8_t* b) {
    if (!ok || in->empty()) return (ok = false);
    *b = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    return true;
  }

  void U32(uint32_t& v) {
    if (!ok) return;
    auto r = GetVarint32(in);
    if (r) v = *r;
    else ok = false;
  }
  void U64(uint64_t& v) {
    if (!ok) return;
    auto r = GetVarint64(in);
    if (r) v = *r;
    else ok = false;
  }
  void F32(uint32_t& v) {
    if (!ok || in->size() < 4) {
      ok = false;
      return;
    }
    v = DecodeFixed32(in->data());
    in->remove_prefix(4);
  }
  void F64(uint64_t& v) {
    if (!ok || in->size() < 8) {
      ok = false;
      return;
    }
    v = DecodeFixed64(in->data());
    in->remove_prefix(8);
  }
  template <typename E>
  void B(E& e, uint8_t max) {
    uint8_t b;
    if (!TakeByte(&b)) return;
    if (b > max) {
      ok = false;
      return;
    }
    e = static_cast<E>(b);
  }
  void S(std::string& s) {
    if (!ok) return;
    auto r = GetLengthPrefixed(in);
    if (r) s.assign(r->data(), r->size());
    else ok = false;
  }
  template <typename T>
  void Opt(std::optional<T>& v) {
    uint8_t present;
    if (!TakeByte(&present)) return;
    if (present > 1) {
      ok = false;
      return;
    }
    if (present) {
      v.emplace();
      Sub(*v);
    } else {
      v.reset();
    }
  }
  template <typename T>
  void Vec(std::vector<T>& v) {
    uint32_t count = 0;
    U32(count);
    // Every element costs at least one input byte, which bounds a hostile
    // count before the reserve.
    if (!ok || count > in->size()) {
      ok = false;
      return;
    }
    v.clear();
    v.reserve(count);
    for (uint32_t i = 0; i < count && ok; i++) {
      T& e = v.emplace_back();
      if constexpr (std::is_same_v<T, std::string>) S(e);
      else if constexpr (std::is_same_v<T, uint32_t>) U32(e);
      else if constexpr (std::is_same_v<T, uint64_t>) F64(e);
      else Sub(e);
    }
  }
  template <typename... Ts>
  void Sub(std::variant<Ts...>& v) {
    uint8_t index;
    if (!TakeByte(&index)) return;
    if (index >= sizeof...(Ts)) {
      ok = false;
      return;
    }
    EmplaceAlt(v, index, std::index_sequence_for<Ts...>{});
  }
  template <typename... Ts, size_t... Is>
  void EmplaceAlt(std::variant<Ts...>& v, uint8_t index,
                  std::index_sequence<Is...>) {
    ((index == Is ? Sub(v.template emplace<Is>()) : void()), ...);
  }
  template <typename T>
  void Sub(T& e) {
    VisitMessageFields(*this, e);
  }
};

template <size_t... Is>
bool DecodeBodyByTag(uint8_t tag, std::string_view* in, Message* out,
                     std::index_sequence<Is...>) {
  bool matched = false;
  bool ok = false;
  (
      [&] {
        using T = std::variant_alternative_t<Is, Message>;
        if (matched || tag != TagOf<T>()) return;
        matched = true;
        T m{};
        DecodeVisitor dv{in};
        VisitMessageFields(dv, m);
        ok = dv.ok;
        if (ok) *out = std::move(m);
      }(),
      ...);
  return matched && ok;
}

/// Wire type tag of the active alternative.
uint8_t MessageTag(const Message& msg) {
  return std::visit(
      [](const auto& m) { return TagOf<std::decay_t<decltype(m)>>(); }, msg);
}

}  // namespace

// --------------------------------------------------------------------------
// Public API
// --------------------------------------------------------------------------

size_t EncodedBodySize(const Message& msg) {
  SizeVisitor sv;
  std::visit([&sv](const auto& m) { VisitMessageFields(sv, m); }, msg);
  return sv.n;
}

size_t EncodedWriteRecordSize(const WriteRecord& w) {
  SizeVisitor sv;
  VisitMessageFields(sv, w);
  return sv.n;
}

void EncodeWriteRecord(const WriteRecord& w, std::string* buf) {
  EncodeVisitor ev{buf};
  VisitMessageFields(ev, w);
}

void EncodeEnvelope(const Envelope& env, std::string* buf) {
  const bool traced = env.trace.active();
  const size_t payload = kEnvelopeHeaderBytes +
                         (traced ? kTraceBlockBytes : 0) +
                         EncodedBodySize(env.msg);
  assert(payload <= kMaxFramePayloadBytes);
  buf->reserve(buf->size() + kFrameHeaderBytes + payload);
  PutFixed32(buf, static_cast<uint32_t>(payload));
  const size_t crc_pos = buf->size();
  PutFixed32(buf, 0);  // patched once the payload bytes exist
  const size_t payload_pos = buf->size();
  buf->push_back(static_cast<char>(MessageTag(env.msg)));
  buf->push_back(static_cast<char>((env.is_response ? kFlagResponse : 0) |
                                   (traced ? kFlagTraced : 0)));
  PutFixed32(buf, env.from);
  PutFixed32(buf, env.to);
  PutFixed64(buf, env.rpc_id);
  if (traced) {
    PutFixed64(buf, env.trace.trace_id);
    PutFixed64(buf, env.trace.span_id);
  }
  EncodeVisitor ev{buf};
  std::visit([&ev](const auto& m) { VisitMessageFields(ev, m); }, env.msg);
  assert(buf->size() - payload_pos == payload &&
         "size pass and encode pass disagree");
  const uint32_t crc =
      MaskCrc(Crc32c(buf->data() + payload_pos, buf->size() - payload_pos));
  char crc_bytes[4];
  std::memcpy(crc_bytes, &crc, 4);  // little-endian host, as PutFixed32
  buf->replace(crc_pos, 4, crc_bytes, 4);
}

FrameStatus ExtractFrame(std::string_view* stream, std::string_view* payload) {
  if (stream->size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const uint32_t len = DecodeFixed32(stream->data());
  if (len < kEnvelopeHeaderBytes || len > kMaxFramePayloadBytes) {
    return FrameStatus::kBad;
  }
  if (stream->size() - kFrameHeaderBytes < len) return FrameStatus::kNeedMore;
  const uint32_t want = UnmaskCrc(DecodeFixed32(stream->data() + 4));
  std::string_view p = stream->substr(kFrameHeaderBytes, len);
  if (Crc32c(p) != want) return FrameStatus::kBad;
  *payload = p;
  stream->remove_prefix(kFrameHeaderBytes + len);
  return FrameStatus::kOk;
}

bool GetPayloadHeader(std::string_view* payload, PayloadHeader* out) {
  if (payload->size() < kEnvelopeHeaderBytes) return false;
  const char* p = payload->data();
  out->tag = static_cast<uint8_t>(p[0]);
  const uint8_t flags = static_cast<uint8_t>(p[1]);
  if ((flags & ~(kFlagResponse | kFlagTraced)) != 0) {
    return false;  // reserved flag bits must be zero
  }
  out->is_response = (flags & kFlagResponse) != 0;
  out->from = DecodeFixed32(p + 2);
  out->to = DecodeFixed32(p + 6);
  out->rpc_id = DecodeFixed64(p + 10);
  out->trace = {};
  payload->remove_prefix(kEnvelopeHeaderBytes);
  if ((flags & kFlagTraced) != 0) {
    if (payload->size() < kTraceBlockBytes) return false;  // truncated block
    out->trace.trace_id = DecodeFixed64(payload->data());
    out->trace.span_id = DecodeFixed64(payload->data() + 8);
    payload->remove_prefix(kTraceBlockBytes);
    if (!out->trace.active()) return false;  // flagged but trace_id == 0
  }
  return true;
}

bool DecodePayload(std::string_view payload, Envelope* out) {
  PayloadHeader hdr;
  if (!GetPayloadHeader(&payload, &hdr)) return false;
  if (!DecodeBodyByTag(hdr.tag, &payload, &out->msg,
                       std::make_index_sequence<std::variant_size_v<Message>>{})) {
    return false;
  }
  if (!payload.empty()) return false;  // overlong frame: trailing body bytes
  out->from = hdr.from;
  out->to = hdr.to;
  out->rpc_id = hdr.rpc_id;
  out->is_response = hdr.is_response;
  out->trace = hdr.trace;
  return true;
}

bool DecodeEnvelope(std::string_view frame, Envelope* out) {
  std::string_view stream = frame;
  std::string_view payload;
  if (ExtractFrame(&stream, &payload) != FrameStatus::kOk) return false;
  if (!stream.empty()) return false;  // exactly one frame expected
  return DecodePayload(payload, out);
}

bool DecodeWriteRecord(std::string_view in, WriteRecord* out) {
  DecodeVisitor dv{&in};
  VisitMessageFields(dv, *out);
  return dv.ok && in.empty();
}

}  // namespace hat::net::codec
