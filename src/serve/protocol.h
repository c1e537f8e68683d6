// Wire protocol for the network serving front-end (DESIGN.md, "Network
// serving"): a small length-prefixed binary framing, encoded and decoded
// by pure functions with no socket dependency, so the codec is unit- and
// fuzz-testable in complete isolation from the event loop.
//
// Frame layout, version 2 (all integers little-endian):
//
//   offset size  field
//   0      4     magic            'E' 'M' 'A' 'F'
//   4      1     version          kProtocolVersion (currently 2)
//   5      1     type             FrameType
//   6      2     tenant id length (u16)
//   8      4     payload length   (u32)
//   12     8     request id       (u64, echoed verbatim in every reply)
//   20     1     flags            (bit 0 = HAS_DEADLINE; others reserved,
//                                  must be zero)
//   21     8     deadline         (u64 virtual-clock ticks, relative to
//                                  server-side arrival; meaningful only
//                                  with HAS_DEADLINE, else must be zero)
//   29     ...   tenant id bytes
//   ...    ...   payload bytes
//   last   4     CRC-32 (IEEE; common/journal.h's Crc32)
//                over every preceding byte of the frame
//
// v2 appends the flags byte and the deadline to the v1 header, so every
// v1 field keeps its offset. The deadline travels in *virtual-clock
// ticks* (see serve/clock.h), not milliseconds: the server's batching
// clock is the only time base deadline expiry is judged against, which
// keeps shed/execute decisions reproducible under a test's ManualClock.
//
// Decode validates each field as soon as its bytes are available, in
// wire order — magic, version, type, lengths against the frame-size
// ceiling, flags, deadline consistency, completeness, CRC — and every
// rejection is a Status whose message names the offending field, so a
// conformance suite can pin the exact failure for each corruption.
// Version negotiation is deliberately minimal: a server rejects any
// version other than its own with a message naming both versions (a v1
// frame dies on its version byte, before the v2 decoder could misread
// its shorter header, and before any CRC check), and the client surfaces
// that message; there is no downgrade path.
//
// Payload conventions per frame type:
//   kForecastRequest   tensor payload — the window [B, L, V]
//   kForecastResponse  tensor payload — the forecast [B, V]; doubles travel
//                      as raw IEEE-754 bytes, so a served forecast is
//                      bitwise identical to the in-process tensor
//   kError             status payload — u32 StatusCode + message bytes
//   kPing / kPong      empty
//   kHealth            empty (a readiness probe)
//   kHealthReply       health payload — u8 ServeState + u64 resident
//                      models + u64 known models + u64 queue depth +
//                      u64 max published snapshot version (0 until a
//                      hot-swap Publish lands; lets a client detect a
//                      completed swap without side channels)
//   kAppend            tensor payload — one observation row [V] appended
//                      to the tenant's streaming log (DESIGN.md, "Online
//                      ingestion & hot-swap"); same header, same framing,
//                      so the v2 protocol grows the streaming-ingestion
//                      direction without a version bump
//   kAppendReply       append-reply payload — u64 sequence number the log
//                      assigned to the appended observation
//
// FrameDecoder is the incremental flavor for byte streams: feed it
// whatever read() returned (1 byte at a time is fine) and it yields
// complete frames, or a terminal error on a corrupt stream.

#ifndef EMAF_SERVE_PROTOCOL_H_
#define EMAF_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "tensor/tensor.h"

namespace emaf::serve {

inline constexpr char kFrameMagic[4] = {'E', 'M', 'A', 'F'};
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 29;
inline constexpr size_t kFrameTrailerBytes = 4;  // CRC-32

// Header flags byte (offset 20). Unknown bits are rejected by name.
inline constexpr uint8_t kFrameFlagHasDeadline = 0x01;
inline constexpr uint8_t kFrameFlagMask = kFrameFlagHasDeadline;
// Ceiling on one whole frame (header + tenant + payload + CRC). A peer
// announcing a larger frame is rejected from the header alone, before any
// payload bytes are buffered.
inline constexpr size_t kDefaultMaxFrameBytes = 1 << 20;

enum class FrameType : uint8_t {
  kForecastRequest = 1,
  kForecastResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kHealth = 6,
  kHealthReply = 7,
  kAppend = 8,
  kAppendReply = 9,
};

// "FORECAST_REQUEST", ...; "UNKNOWN" for values outside the enum.
const char* FrameTypeName(FrameType type);
bool IsKnownFrameType(uint8_t type);

struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  // kFrameFlag* bits. Encode checks consistency: deadline_ticks != 0
  // requires kFrameFlagHasDeadline (use SetDeadline to keep them in sync).
  uint8_t flags = 0;
  // Relative deadline in virtual-clock ticks; meaningful only when
  // kFrameFlagHasDeadline is set (0 is treated as no deadline).
  uint64_t deadline_ticks = 0;
  std::string tenant_id;  // empty for ping/pong/error/health
  std::string payload;

  void SetDeadline(uint64_t ticks) {
    flags = static_cast<uint8_t>(flags | kFrameFlagHasDeadline);
    deadline_ticks = ticks;
  }
  bool has_deadline() const { return (flags & kFrameFlagHasDeadline) != 0; }

  bool operator==(const Frame& other) const = default;
};

// Total encoded size of `frame` on the wire.
size_t EncodedFrameBytes(const Frame& frame);

// Serializes one frame. Checked failure if the tenant id exceeds the u16
// length field or the whole frame exceeds kDefaultMaxFrameBytes — both are
// caller bugs, not runtime conditions.
std::string EncodeFrame(const Frame& frame);

// Decodes exactly one frame occupying all of `bytes`. Rejections (all
// messages name the offending field):
//   kInvalidArgument — truncated header/frame, bad magic, unsupported
//                      version, unknown frame type, tenant/payload length
//                      exceeding `max_frame_bytes`, reserved flag bits,
//                      a deadline without its flag, trailing bytes;
//   kDataLoss        — CRC mismatch (frame bytes corrupted in flight).
Result<Frame> DecodeFrame(std::string_view bytes,
                          size_t max_frame_bytes = kDefaultMaxFrameBytes);

// --- Typed payloads --------------------------------------------------------

// u32 rank | u32 dim[rank] | raw little-endian IEEE-754 doubles. The raw
// bytes make the tensor round-trip bitwise exact.
std::string EncodeTensorPayload(const tensor::Tensor& tensor);
// kInvalidArgument when the payload is malformed (rank > 8, dim overflow,
// byte count not matching the announced shape).
Result<tensor::Tensor> DecodeTensorPayload(std::string_view payload);

// u32 StatusCode | message bytes. Encoding an OK status is a checked
// failure: error frames carry errors.
std::string EncodeStatusPayload(const Status& status);
// Fills `decoded` with the carried (error) status; the return value is the
// decode outcome itself — kInvalidArgument when the payload is malformed.
// (Not Result<Status>: Result's value/error constructors would collide.)
Status DecodeStatusPayload(std::string_view payload, Status* decoded);

// Lifecycle state a server reports in kHealthReply frames. A load
// balancer (or the bench) gates traffic on kServing; kDraining means
// finish what you have in flight and go elsewhere.
enum class ServeState : uint8_t {
  kStarting = 0,
  kServing = 1,
  kDraining = 2,
};

// "STARTING", "SERVING", "DRAINING"; "UNKNOWN" outside the enum.
const char* ServeStateName(ServeState state);

struct HealthInfo {
  ServeState state = ServeState::kStarting;
  uint64_t resident_models = 0;  // pinned or idle in the ModelStore
  uint64_t known_models = 0;     // registered snapshot ids
  uint64_t queue_depth = 0;      // scheduler admission queue
  // Highest snapshot version the store has hot-swapped in via Publish
  // (0 = nothing published since Open). Monotonic, so a client polling
  // health can tell exactly when a fine-tuned snapshot went live.
  uint64_t max_published_version = 0;

  bool operator==(const HealthInfo& other) const = default;
};

// u8 ServeState | u64 resident | u64 known | u64 queue depth |
// u64 max published version.
std::string EncodeHealthPayload(const HealthInfo& info);
// kInvalidArgument when truncated, oversized, or carrying an unknown
// state value; messages name the offending field.
Result<HealthInfo> DecodeHealthPayload(std::string_view payload);

// u64 sequence number assigned by the observation log — the kAppendReply
// payload.
std::string EncodeAppendReplyPayload(uint64_t sequence);
// kInvalidArgument when the payload is not exactly 8 bytes.
Result<uint64_t> DecodeAppendReplyPayload(std::string_view payload);

// --- Incremental decoding --------------------------------------------------

// Reassembles frames from an arbitrary chunking of the byte stream.
// Malformed input is detected as early as its field arrives (bad magic
// after 4 bytes, oversized length after the header) and is terminal: the
// stream has lost framing, so the caller should surface the error and
// close the connection. Buffering is bounded by one max-size frame.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes);

  void Feed(std::string_view bytes);

  // One decoded frame, nullopt when more bytes are needed, or the terminal
  // stream error (returned again on every later call).
  std::optional<Result<Frame>> Next();

  size_t buffered_bytes() const { return buffer_.size() - offset_; }
  bool failed() const { return failed_; }

 private:
  // Validates what is decodable from the buffered prefix without waiting
  // for the full frame. Sets `total_` once the header is complete.
  Status Precheck();

  size_t max_frame_bytes_;
  std::string buffer_;
  size_t offset_ = 0;  // consumed prefix, compacted periodically
  size_t total_ = 0;   // full size of the in-progress frame (0 = unknown)
  bool failed_ = false;
  Status error_;
};

}  // namespace emaf::serve

#endif  // EMAF_SERVE_PROTOCOL_H_
