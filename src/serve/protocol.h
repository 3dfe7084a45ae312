// RSRV — the relspecd wire protocol (docs/DAEMON.md).
//
// Length-prefixed binary frames over a byte stream (Unix-domain or TCP
// socket), little-endian throughout. Requests flow client -> server,
// responses server -> client; each side therefore knows which frame kind to
// expect and the two kinds share the magic/version/length prefix so one
// incremental reassembler serves both.
//
//   Request frame (header = 40 bytes):
//     off  0  u8[4]  magic "RSRV"
//     off  4  u32    protocol version (currently 1)
//     off  8  u32    request type (RequestType)
//     off 12  u32    payload length (<= kMaxPayload)
//     off 16  u64    request id (echoed verbatim in the response)
//     off 24  u64    deadline_ms  (0 = no per-request deadline)
//     off 32  u64    max_tuples   (0 = no per-request tuple budget)
//     off 40  u8[payload length]  payload
//
//   Response frame (header = 24 bytes):
//     off  0  u8[4]  magic "RSRV"
//     off  4  u32    protocol version (currently 1)
//     off  8  u32    status (StatusCode numeric; 0 = OK)
//     off 12  u32    payload length (<= kMaxPayload)
//     off 16  u64    request id (copied from the request; 0 when the
//                    request header itself was unreadable)
//     off 24  u8[payload length]  payload (result on OK, the status
//                    message text on error)
//
// Decoding is pure and total: malformed bytes yield a Status, never UB —
// the decoders are routed through tests/fuzz_parser.cc like the RSNP/RWAL
// decoders. The deadline/tuple budgets in the request header become a
// per-request ResourceGovernor server-side; a breach is reported through
// the response status (kResourceExhausted / kDeadlineExceeded /
// kCancelled — the CLI's exit-7 taxonomy), never by killing the daemon.

#ifndef RELSPEC_SERVE_PROTOCOL_H_
#define RELSPEC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/core/query.h"

namespace relspec {
namespace serve {

inline constexpr char kMagic[4] = {'R', 'S', 'R', 'V'};
inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kRequestHeaderSize = 40;
inline constexpr size_t kResponseHeaderSize = 24;
/// Hard ceiling on a single frame's payload; a larger advertised length is
/// rejected before any buffering happens (forged-length defense).
inline constexpr uint32_t kMaxPayload = 1u << 20;

enum class RequestType : uint32_t {
  kPing = 0,        // payload: none      -> u64 engine fingerprint
  kMembership = 1,  // payload: fact text -> u8 0/1
  kQuery = 2,       // payload: query text -> QueryResult
  kUpdate = 3,      // payload: delta text -> UpdateResult
  kStats = 4,       // payload: none or "prometheus" -> metrics text
  kTraceDump = 5,   // payload: none      -> Chrome trace JSON text
  kSlowlogDump = 6,  // payload: none     -> slow-log JSONL text
  kHealth = 7,       // payload: none     -> HealthResult
};
inline constexpr uint32_t kMaxRequestType =
    static_cast<uint32_t>(RequestType::kHealth);

const char* RequestTypeName(RequestType type);

struct RequestHeader {
  uint32_t version = kProtocolVersion;
  RequestType type = RequestType::kPing;
  uint64_t request_id = 0;
  uint64_t deadline_ms = 0;  // 0 = ungoverned (server default applies)
  uint64_t max_tuples = 0;   // 0 = unbounded (server default applies)
};

struct ResponseHeader {
  uint32_t version = kProtocolVersion;
  uint32_t status = 0;  // StatusCode numeric
  uint64_t request_id = 0;
};

/// Serializes a complete frame (header + payload).
std::string EncodeRequest(const RequestHeader& header,
                          std::string_view payload);
std::string EncodeResponse(const ResponseHeader& header,
                           std::string_view payload);

/// Incremental stream reassembly: the total size of the frame at the head
/// of `buffer`, or 0 if more bytes are needed to tell. Validates the
/// magic/version/length prefix as soon as 16 bytes are present, so a
/// malformed or forged-length frame is rejected without waiting for (or
/// allocating) its advertised payload.
StatusOr<size_t> RequestFrameSize(std::string_view buffer);
StatusOr<size_t> ResponseFrameSize(std::string_view buffer);

/// Decodes one complete frame. `frame` must be exactly the frame's bytes —
/// a size disagreeing with the advertised payload length is rejected
/// (truncated or forged length). On success `*payload` views into `frame`.
Status DecodeRequest(std::string_view frame, RequestHeader* header,
                     std::string_view* payload);
Status DecodeResponse(std::string_view frame, ResponseHeader* header,
                      std::string_view* payload);

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

/// kQuery response payload: u64 spec_tuples | u8 functional |
/// u32 text_len | text.
struct QueryResult {
  uint64_t spec_tuples = 0;
  bool functional = false;
  std::string text;  // RenderAnswerText of the answer
};
std::string EncodeQueryResult(const QueryResult& result);
StatusOr<QueryResult> DecodeQueryResult(std::string_view payload);

/// kUpdate response payload: u64 fingerprint | u64 inserted | u64 deleted |
/// u64 noops | u64 deleted_bits | u8 rebuilt | u8 durable. `deleted_bits`
/// is always 0: updates rebuild rather than retract bits, and the field is
/// kept so the wire format does not change. `durable` means the batch went
/// through LogAndApplyDeltas: the ack implies the update survives a crash
/// under the server's fsync policy.
struct UpdateResult {
  uint64_t fingerprint = 0;
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t noops = 0;
  uint64_t deleted_bits = 0;  // always 0; kept for the wire format
  bool rebuilt = false;
  bool durable = false;
};
std::string EncodeUpdateResult(const UpdateResult& result);
StatusOr<UpdateResult> DecodeUpdateResult(std::string_view payload);

/// kHealth response payload: u8 ready | u8 live | u64 fingerprint |
/// u64 uptime_ms | u64 wal_seq | u64 served (exactly 34 bytes).
/// `live` is 1 whenever the daemon answered at all; `ready` is 1 once the
/// engine is built and the listener accepts work. `wal_seq` is the sequence
/// number the next durably logged batch will use (0 when the engine is not
/// durable); it advances per acked update and restarts after a checkpoint
/// rotation, so a change signals WAL-generation movement. See
/// docs/OPERATIONS.md for the health semantics table.
struct HealthResult {
  bool ready = false;
  bool live = false;
  uint64_t fingerprint = 0;
  uint64_t uptime_ms = 0;
  uint64_t wal_seq = 0;
  uint64_t served = 0;
};
std::string EncodeHealthResult(const HealthResult& result);
StatusOr<HealthResult> DecodeHealthResult(std::string_view payload);

/// The canonical text rendering of a query answer used on the wire: the
/// answer's ToString() followed by a bounded deterministic enumeration
/// (depth <= 3, at most 32 concrete answers, one per "  "-indented line).
/// Exported so the conformance tests can assert byte-identity between a
/// daemon reply and an in-process AnswerQueryCached answer.
///
/// `elapsed_ns >= 0` appends one trailing "  -- elapsed N ns\n" summary
/// line (the daemon's `--reply-timing` flag); the default -1 renders the
/// canonical byte-stable text, keeping the golden vectors and the
/// daemon-vs-in-process identity contract valid.
std::string RenderAnswerText(const QueryAnswer& answer,
                             int64_t elapsed_ns = -1);

}  // namespace serve
}  // namespace relspec

#endif  // RELSPEC_SERVE_PROTOCOL_H_
