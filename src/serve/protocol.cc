#include "serve/protocol.h"

#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/journal.h"
#include "common/string_util.h"
#include "tensor/shape.h"

namespace emaf::serve {

namespace {

// Little-endian scalar append/read. memcpy keeps this well-defined on any
// alignment; the host is little-endian (x86-64), matching the wire order.
template <typename T>
void AppendLe(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

template <typename T>
T ReadLe(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

std::string CrcHex(uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string hex(8, '0');
  for (int i = 7; i >= 0; --i) {
    hex[static_cast<size_t>(i)] = digits[crc & 0xF];
    crc >>= 4;
  }
  return hex;
}

// Shared prefix validation for the one-shot and streaming decoders: each
// field is checked as soon as its bytes are available, in wire order, so
// a v1 frame (whose 20-byte header is shorter than ours) dies on its
// version byte — before the decoder could misread its layout, and before
// any CRC check. Once the full header is present, fills the announced
// tenant/payload lengths and sets *header_done.
Status ValidatePrefix(std::string_view bytes, size_t max_frame_bytes,
                      size_t* tenant_len, size_t* payload_len,
                      bool* header_done) {
  *header_done = false;
  const size_t magic_avail = std::min(bytes.size(), sizeof(kFrameMagic));
  if (std::memcmp(bytes.data(), kFrameMagic, magic_avail) != 0) {
    std::string got;
    for (size_t i = 0; i < magic_avail; ++i) {
      if (i > 0) got += ' ';
      got += StrCat(static_cast<int>(static_cast<unsigned char>(bytes[i])));
    }
    return Status::InvalidArgument(StrCat(
        "bad magic: frame does not start with \"EMAF\" (got bytes ", got,
        ")"));
  }
  if (bytes.size() < 5) return Status::Ok();
  const uint8_t version = static_cast<uint8_t>(bytes[4]);
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported protocol version ", static_cast<int>(version),
               ": this endpoint speaks version ",
               static_cast<int>(kProtocolVersion), " only"));
  }
  if (bytes.size() < 6) return Status::Ok();
  const uint8_t type = static_cast<uint8_t>(bytes[5]);
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument(StrCat(
        "unknown frame type ", static_cast<int>(type),
        " (known types: 1=FORECAST_REQUEST .. 9=APPEND_REPLY)"));
  }
  if (bytes.size() < kFrameHeaderBytes) return Status::Ok();
  *tenant_len = ReadLe<uint16_t>(bytes.data() + 6);
  *payload_len = ReadLe<uint32_t>(bytes.data() + 8);
  const size_t total =
      kFrameHeaderBytes + *tenant_len + *payload_len + kFrameTrailerBytes;
  if (total > max_frame_bytes) {
    return Status::InvalidArgument(StrCat(
        "payload length too large: tenant id length ", *tenant_len,
        " + payload length ", *payload_len, " gives a ", total,
        "-byte frame, over the ", max_frame_bytes, "-byte ceiling"));
  }
  const uint8_t flags = static_cast<uint8_t>(bytes[20]);
  if ((flags & static_cast<uint8_t>(~kFrameFlagMask)) != 0) {
    return Status::InvalidArgument(StrCat(
        "reserved flags bits set: flags byte is ", static_cast<int>(flags),
        ", known bits are ", static_cast<int>(kFrameFlagMask)));
  }
  const uint64_t deadline = ReadLe<uint64_t>(bytes.data() + 21);
  if ((flags & kFrameFlagHasDeadline) == 0 && deadline != 0) {
    return Status::InvalidArgument(StrCat(
        "deadline field is ", deadline,
        " ticks but the HAS_DEADLINE flag is not set"));
  }
  *header_done = true;
  return Status::Ok();
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kForecastRequest:
      return "FORECAST_REQUEST";
    case FrameType::kForecastResponse:
      return "FORECAST_RESPONSE";
    case FrameType::kError:
      return "ERROR";
    case FrameType::kPing:
      return "PING";
    case FrameType::kPong:
      return "PONG";
    case FrameType::kHealth:
      return "HEALTH";
    case FrameType::kHealthReply:
      return "HEALTH_REPLY";
    case FrameType::kAppend:
      return "APPEND";
    case FrameType::kAppendReply:
      return "APPEND_REPLY";
  }
  return "UNKNOWN";
}

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kForecastRequest) &&
         type <= static_cast<uint8_t>(FrameType::kAppendReply);
}

size_t EncodedFrameBytes(const Frame& frame) {
  return kFrameHeaderBytes + frame.tenant_id.size() + frame.payload.size() +
         kFrameTrailerBytes;
}

std::string EncodeFrame(const Frame& frame) {
  EMAF_CHECK(frame.tenant_id.size() <= std::numeric_limits<uint16_t>::max())
      << "tenant id does not fit the u16 length field: "
      << frame.tenant_id.size() << " bytes";
  EMAF_CHECK(EncodedFrameBytes(frame) <= kDefaultMaxFrameBytes)
      << "frame exceeds kDefaultMaxFrameBytes: " << EncodedFrameBytes(frame);
  EMAF_CHECK((frame.flags & static_cast<uint8_t>(~kFrameFlagMask)) == 0)
      << "frame sets reserved flag bits: " << static_cast<int>(frame.flags);
  EMAF_CHECK(frame.deadline_ticks == 0 || frame.has_deadline())
      << "deadline_ticks set without kFrameFlagHasDeadline; use SetDeadline";
  std::string out;
  out.reserve(EncodedFrameBytes(frame));
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(frame.type));
  AppendLe<uint16_t>(&out, static_cast<uint16_t>(frame.tenant_id.size()));
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(frame.payload.size()));
  AppendLe<uint64_t>(&out, frame.request_id);
  out.push_back(static_cast<char>(frame.flags));
  AppendLe<uint64_t>(&out, frame.deadline_ticks);
  out.append(frame.tenant_id);
  out.append(frame.payload);
  AppendLe<uint32_t>(&out, Crc32(out));
  return out;
}

Result<Frame> DecodeFrame(std::string_view bytes, size_t max_frame_bytes) {
  size_t tenant_len = 0;
  size_t payload_len = 0;
  bool header_done = false;
  EMAF_RETURN_IF_ERROR(ValidatePrefix(bytes, max_frame_bytes, &tenant_len,
                                      &payload_len, &header_done));
  if (!header_done) {
    return Status::InvalidArgument(
        StrCat("truncated header: got ", bytes.size(),
               " byte(s), need the ", kFrameHeaderBytes, "-byte frame header"));
  }
  const size_t total =
      kFrameHeaderBytes + tenant_len + payload_len + kFrameTrailerBytes;
  if (bytes.size() < total) {
    return Status::InvalidArgument(
        StrCat("truncated frame: header announces ", total,
               " bytes (tenant id ", tenant_len, ", payload ", payload_len,
               "), got ", bytes.size()));
  }
  if (bytes.size() > total) {
    return Status::InvalidArgument(
        StrCat("trailing bytes after frame: frame is ", total, " bytes, got ",
               bytes.size()));
  }
  const uint32_t stored_crc =
      ReadLe<uint32_t>(bytes.data() + total - kFrameTrailerBytes);
  const uint32_t actual_crc =
      Crc32(bytes.substr(0, total - kFrameTrailerBytes));
  if (stored_crc != actual_crc) {
    return Status::DataLoss(StrCat("crc mismatch: frame carries 0x",
                                   CrcHex(stored_crc), ", computed 0x",
                                   CrcHex(actual_crc)));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(bytes[5]);
  frame.request_id = ReadLe<uint64_t>(bytes.data() + 12);
  frame.flags = static_cast<uint8_t>(bytes[20]);
  frame.deadline_ticks = ReadLe<uint64_t>(bytes.data() + 21);
  frame.tenant_id.assign(bytes.data() + kFrameHeaderBytes, tenant_len);
  frame.payload.assign(bytes.data() + kFrameHeaderBytes + tenant_len,
                       payload_len);
  return frame;
}

// --- Typed payloads --------------------------------------------------------

std::string EncodeTensorPayload(const tensor::Tensor& tensor) {
  const tensor::Shape& shape = tensor.shape();
  EMAF_CHECK(shape.rank() <= 8) << "tensor rank over the wire limit of 8";
  std::string out;
  out.reserve(4 + 4 * static_cast<size_t>(shape.rank()) +
              8 * static_cast<size_t>(tensor.NumElements()));
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(shape.rank()));
  for (int64_t dim : shape.dims()) {
    EMAF_CHECK(dim >= 0 && dim <= std::numeric_limits<uint32_t>::max());
    AppendLe<uint32_t>(&out, static_cast<uint32_t>(dim));
  }
  out.append(reinterpret_cast<const char*>(tensor.data()),
             8 * static_cast<size_t>(tensor.NumElements()));
  return out;
}

Result<tensor::Tensor> DecodeTensorPayload(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::InvalidArgument(
        StrCat("tensor payload truncated: ", payload.size(),
               " byte(s), need the 4-byte rank"));
  }
  const uint32_t rank = ReadLe<uint32_t>(payload.data());
  if (rank > 8) {
    return Status::InvalidArgument(
        StrCat("tensor payload rank ", rank, " over the wire limit of 8"));
  }
  if (payload.size() < 4 + 4 * static_cast<size_t>(rank)) {
    return Status::InvalidArgument(
        StrCat("tensor payload truncated: rank ", rank, " needs ",
               4 + 4 * static_cast<size_t>(rank), " header bytes, got ",
               payload.size()));
  }
  std::vector<int64_t> dims(rank);
  uint64_t numel = 1;
  // The payload itself bounds any decodable shape: every element needs 8
  // data bytes, so the announced product can never exceed payload/8 —
  // whatever frame ceiling the transport was configured with. The
  // division form keeps the running product overflow-free.
  const uint64_t max_numel = payload.size() / 8;
  for (uint32_t i = 0; i < rank; ++i) {
    dims[i] = ReadLe<uint32_t>(payload.data() + 4 + 4 * i);
    const uint64_t dim = static_cast<uint64_t>(dims[i]);
    if (dim != 0 && numel > max_numel / dim) {
      return Status::InvalidArgument(
          StrCat("tensor payload dims announce more than ", max_numel,
                 " elements, over what the ", payload.size(),
                 "-byte payload can hold"));
    }
    numel *= dim;
  }
  const size_t data_offset = 4 + 4 * static_cast<size_t>(rank);
  const size_t data_bytes = payload.size() - data_offset;
  if (data_bytes != 8 * numel) {
    return Status::InvalidArgument(
        StrCat("tensor payload data length ", data_bytes,
               " does not match the announced shape (", numel,
               " doubles = ", 8 * numel, " bytes)"));
  }
  std::vector<double> values(numel);
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes (a B = 0 window decodes to no values).
  if (data_bytes != 0) {
    std::memcpy(values.data(), payload.data() + data_offset, data_bytes);
  }
  return tensor::Tensor::FromVector(tensor::Shape(std::move(dims)),
                                    std::move(values));
}

std::string EncodeStatusPayload(const Status& status) {
  EMAF_CHECK(!status.ok()) << "error frames carry errors, not OK";
  std::string out;
  AppendLe<uint32_t>(&out, static_cast<uint32_t>(status.code()));
  out.append(status.message());
  return out;
}

Status DecodeStatusPayload(std::string_view payload, Status* decoded) {
  EMAF_CHECK(decoded != nullptr);
  if (payload.size() < 4) {
    return Status::InvalidArgument(
        StrCat("status payload truncated: ", payload.size(),
               " byte(s), need the 4-byte status code"));
  }
  const uint32_t code = ReadLe<uint32_t>(payload.data());
  if (code == 0 ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument(
        StrCat("status payload carries invalid status code ", code));
  }
  *decoded = Status(static_cast<StatusCode>(code),
                    std::string(payload.substr(4)));
  return Status::Ok();
}

const char* ServeStateName(ServeState state) {
  switch (state) {
    case ServeState::kStarting:
      return "STARTING";
    case ServeState::kServing:
      return "SERVING";
    case ServeState::kDraining:
      return "DRAINING";
  }
  return "UNKNOWN";
}

namespace {
// u8 state | u64 resident | u64 known | u64 queue depth | u64 max
// published version.
constexpr size_t kHealthPayloadBytes = 1 + 8 + 8 + 8 + 8;
}  // namespace

std::string EncodeHealthPayload(const HealthInfo& info) {
  std::string out;
  out.reserve(kHealthPayloadBytes);
  out.push_back(static_cast<char>(info.state));
  AppendLe<uint64_t>(&out, info.resident_models);
  AppendLe<uint64_t>(&out, info.known_models);
  AppendLe<uint64_t>(&out, info.queue_depth);
  AppendLe<uint64_t>(&out, info.max_published_version);
  return out;
}

Result<HealthInfo> DecodeHealthPayload(std::string_view payload) {
  if (payload.size() != kHealthPayloadBytes) {
    return Status::InvalidArgument(
        StrCat("health payload is ", payload.size(), " byte(s), expected ",
               kHealthPayloadBytes));
  }
  const uint8_t state = static_cast<uint8_t>(payload[0]);
  if (state > static_cast<uint8_t>(ServeState::kDraining)) {
    return Status::InvalidArgument(StrCat(
        "health payload carries unknown serve state ",
        static_cast<int>(state), " (known states: 0=STARTING .. 2=DRAINING)"));
  }
  HealthInfo info;
  info.state = static_cast<ServeState>(state);
  info.resident_models = ReadLe<uint64_t>(payload.data() + 1);
  info.known_models = ReadLe<uint64_t>(payload.data() + 9);
  info.queue_depth = ReadLe<uint64_t>(payload.data() + 17);
  info.max_published_version = ReadLe<uint64_t>(payload.data() + 25);
  return info;
}

std::string EncodeAppendReplyPayload(uint64_t sequence) {
  std::string out;
  out.reserve(8);
  AppendLe<uint64_t>(&out, sequence);
  return out;
}

Result<uint64_t> DecodeAppendReplyPayload(std::string_view payload) {
  if (payload.size() != 8) {
    return Status::InvalidArgument(
        StrCat("append-reply payload is ", payload.size(),
               " byte(s), expected the 8-byte sequence number"));
  }
  return ReadLe<uint64_t>(payload.data());
}

// --- FrameDecoder ----------------------------------------------------------

FrameDecoder::FrameDecoder(size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Feed(std::string_view bytes) {
  if (failed_) return;  // stream already dead; don't grow the buffer
  // Compact once the consumed prefix dominates, keeping Feed amortized O(n).
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  buffer_.append(bytes);
}

Status FrameDecoder::Precheck() {
  const std::string_view pending =
      std::string_view(buffer_).substr(offset_);
  // ValidatePrefix rejects each field as soon as it arrives — garbage
  // magic after 4 bytes, a foreign protocol version after 5 — so broken
  // streams die before buffering anything.
  size_t tenant_len = 0;
  size_t payload_len = 0;
  bool header_done = false;
  EMAF_RETURN_IF_ERROR(ValidatePrefix(pending, max_frame_bytes_, &tenant_len,
                                      &payload_len, &header_done));
  if (header_done) {
    total_ =
        kFrameHeaderBytes + tenant_len + payload_len + kFrameTrailerBytes;
  }
  return Status::Ok();
}

std::optional<Result<Frame>> FrameDecoder::Next() {
  if (failed_) return Result<Frame>(error_);
  if (buffer_.size() == offset_) return std::nullopt;
  if (total_ == 0) {
    Status header = Precheck();
    if (!header.ok()) {
      failed_ = true;
      error_ = header;
      buffer_.clear();
      offset_ = 0;
      return Result<Frame>(error_);
    }
    if (total_ == 0) return std::nullopt;  // header still incomplete
  }
  if (buffer_.size() - offset_ < total_) return std::nullopt;
  Result<Frame> frame = DecodeFrame(
      std::string_view(buffer_).substr(offset_, total_), max_frame_bytes_);
  offset_ += total_;
  total_ = 0;
  if (!frame.ok()) {
    // CRC or payload-level failure: framing may look intact but the bytes
    // are untrustworthy, so the stream is terminal like any other error.
    failed_ = true;
    error_ = frame.status();
    buffer_.clear();
    offset_ = 0;
  }
  return frame;
}

}  // namespace emaf::serve
