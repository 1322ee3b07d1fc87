// net::codec — the binary wire format for Envelope and every Message
// alternative: the byte layer under the (future) socket transport, the
// single source of truth for WireBytes() byte accounting, and the durable
// WriteRecord format the PersistenceManager stores on disk.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     fixed32  payload length N (everything after the CRC)
//   4       4     fixed32  masked CRC-32C over the payload
//   8       1     u8       message type tag (one per Message alternative)
//   9       1     u8       flags (bit 0: is_response; bit 1: trace block
//                          present; other bits reserved, rejected on decode)
//   10      4     fixed32  from (NodeId)
//   14      4     fixed32  to (NodeId)
//   18      8     fixed64  rpc_id
//   [26     8     fixed64  trace_id   -- only when flags bit 1 is set
//    34     8     fixed64  span_id ]
//   ...     ...   body     per-alternative field encoding
//
// The optional 16-byte trace block carries the obs::TraceContext of a
// sampled transaction. Untraced envelopes (the default) encode byte-for-byte
// identically to the pre-trace format; the CRC covers the trace block like
// any other payload bytes.
//
// Body encodings use the common/codec primitives: length-prefixed byte
// strings for keys/values, varints for counts/ids/timestamps, fixed64 for
// full-entropy digest hashes. Each alternative's field list is written once
// (VisitFields in codec.cc); the size-only pass, the encoder, and the
// owning decoder interpret the same list, so the three cannot drift — and
// dispatch is an exhaustive std::visit, so adding a Message alternative
// without a codec entry fails the build.
//
// Encode appends complete frames into a caller-owned buffer that is reused
// across a batch: the hot path performs no allocation beyond the buffer's
// amortized growth (asserted by bench_codec's allocation counter).
//
// Decode never trusts the input: truncated frames, bad CRCs, unknown tags,
// out-of-range enum bytes, overlong varints, and trailing garbage are all
// rejected (never a crash, never a partially-applied message). There is one
// decode flavour, the owning one: DecodeEnvelope / DecodePayload materialize
// a full Envelope, and DecodeWriteRecord a full WriteRecord (strings copied,
// so the result outlives the input buffer).
//
// A replicated write has one byte format, on the wire and on disk:
// EncodeWriteRecord writes exactly the bytes a WriteRecord occupies inside
// a message body (PutRequest, AntiEntropyBatch, ...), and DecodeWriteRecord
// runs the same validating field-list decoder the message path uses.

#ifndef HAT_NET_CODEC_H_
#define HAT_NET_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "hat/common/codec.h"
#include "hat/net/message.h"
#include "hat/version/types.h"

namespace hat::net::codec {

/// Frame header: length + masked CRC.
inline constexpr size_t kFrameHeaderBytes = 8;
/// Envelope header inside the payload: tag, flags, from, to, rpc_id.
inline constexpr size_t kEnvelopeHeaderBytes = 18;
/// Fixed per-message overhead: frame header + envelope header.
inline constexpr size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kEnvelopeHeaderBytes;
/// Optional trace block (trace_id + span_id), present iff flags bit 1.
inline constexpr size_t kTraceBlockBytes = 16;
/// Flags byte bits.
inline constexpr uint8_t kFlagResponse = 0x01;
inline constexpr uint8_t kFlagTraced = 0x02;
/// Upper bound on the payload length field; larger values are rejected
/// before any allocation (a corrupt length must not OOM the receiver).
inline constexpr size_t kMaxFramePayloadBytes = size_t{1} << 30;

// --------------------------------------------------------------------------
// Encode
// --------------------------------------------------------------------------

/// Size-only pass over the body field list: the exact number of body bytes
/// EncodeEnvelope will produce for `msg`. WireBytes() = this + overhead.
size_t EncodedBodySize(const Message& msg);

/// Exact encoded size of one WriteRecord as embedded in a batch body —
/// WriteRecordWireBytes() without constructing a Message (batch builders
/// call this per candidate record while packing against a byte cap).
size_t EncodedWriteRecordSize(const WriteRecord& w);

/// Exact total frame size EncodeEnvelope appends for `env`. Traced
/// envelopes cost kTraceBlockBytes extra; untraced ones are unchanged.
inline size_t EncodedFrameSize(const Envelope& env) {
  return kFrameOverheadBytes + (env.trace.active() ? kTraceBlockBytes : 0) +
         EncodedBodySize(env.msg);
}

/// Appends one complete frame to *buf. The buffer is caller-owned and meant
/// to be reused across a batch of messages (clear() keeps capacity), so the
/// steady-state encode path allocates nothing.
void EncodeEnvelope(const Envelope& env, std::string* buf);

/// Appends the body encoding of one WriteRecord to *buf (no frame, no CRC):
/// EncodedWriteRecordSize(w) bytes, the same bytes a batch body holds.
void EncodeWriteRecord(const WriteRecord& w, std::string* buf);

// --------------------------------------------------------------------------
// Frame extraction (stream reassembly)
// --------------------------------------------------------------------------

enum class FrameStatus : uint8_t {
  kOk = 0,
  /// The stream does not yet hold a complete frame; read more bytes.
  kNeedMore = 1,
  /// Corrupt framing (impossible length or CRC mismatch); the connection
  /// cannot be resynchronized and should be dropped.
  kBad = 2,
};

/// Peels one frame off the front of *stream (as a TCP reader would): on kOk,
/// *payload references the CRC-verified payload (tag..body) inside the
/// stream's buffer and *stream advances past the frame. On kNeedMore /
/// kBad, *stream is unchanged.
FrameStatus ExtractFrame(std::string_view* stream, std::string_view* payload);

/// Decoded envelope header of a payload.
struct PayloadHeader {
  uint8_t tag = 0;
  bool is_response = false;
  NodeId from = 0;
  NodeId to = 0;
  uint64_t rpc_id = 0;
  obs::TraceContext trace;  ///< inactive unless the trace flag bit was set
};

/// Reads the envelope header (and the trace block, when flagged) off the
/// front of *payload, advancing it to the body. False on truncation,
/// reserved flag bits, or a flagged-but-truncated trace block.
bool GetPayloadHeader(std::string_view* payload, PayloadHeader* out);

// --------------------------------------------------------------------------
// Owning decode
// --------------------------------------------------------------------------

/// Decodes a CRC-verified payload (from ExtractFrame) into an owning
/// Envelope. False on any malformation, including body bytes left over
/// after the last field (overlong frames are rejected, not ignored).
bool DecodePayload(std::string_view payload, Envelope* out);

/// Convenience: `frame` holds exactly one complete frame (header + payload,
/// no trailing bytes). The inverse of EncodeEnvelope on an empty buffer.
bool DecodeEnvelope(std::string_view frame, Envelope* out);

/// Decodes exactly one WriteRecord from `in` (the EncodeWriteRecord bytes).
/// False on any malformation, including bytes left over after the record;
/// *out is then partially overwritten and must not be used.
bool DecodeWriteRecord(std::string_view in, WriteRecord* out);

}  // namespace hat::net::codec

#endif  // HAT_NET_CODEC_H_
