// Conformance suite for the serve/protocol.h wire format (ISSUE PR-6):
// every frame type round-trips bit-exactly through the pure codec, and a
// byte-surgery battery — bad magic, bad version, truncated header,
// truncated frame, oversized lengths, CRC flip, unknown type, trailing
// bytes — is rejected with the documented StatusCode and a message naming
// the offending field. The incremental FrameDecoder is driven byte by
// byte, in random chunkings, and on garbage streams.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/journal.h"
#include "common/rng.h"
#include "serve/protocol.h"
#include "tensor/tensor.h"

namespace emaf::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

Frame MakeFrame(FrameType type, uint64_t request_id,
                const std::string& tenant, const std::string& payload) {
  Frame frame;
  frame.type = type;
  frame.request_id = request_id;
  frame.tenant_id = tenant;
  frame.payload = payload;
  return frame;
}

// All frame types with representative tenant/payload shapes, including a
// deadline-carrying request (flags byte + deadline field exercised).
std::vector<Frame> AllFrameKinds() {
  Tensor window = Tensor::FromVector(Shape{1, 2, 3},
                                     {0.5, -1.25, 3.0, 0.0, -0.0, 42.0});
  Frame with_deadline = MakeFrame(FrameType::kForecastRequest, 6, "tenant-09",
                                  EncodeTensorPayload(window));
  with_deadline.SetDeadline(12345);
  HealthInfo health;
  health.state = ServeState::kDraining;
  health.resident_models = 3;
  health.known_models = 12;
  health.queue_depth = 7;
  health.max_published_version = 42;
  Tensor row = Tensor::FromVector(Shape{3}, {0.25, -1.5, 1.0 / 3.0});
  return {
      MakeFrame(FrameType::kForecastRequest, 1, "tenant-07",
                EncodeTensorPayload(window)),
      MakeFrame(FrameType::kForecastResponse, 2, "",
                EncodeTensorPayload(window)),
      MakeFrame(FrameType::kError, 3, "",
                EncodeStatusPayload(Status::Unavailable("queue full"))),
      MakeFrame(FrameType::kPing, 4, "", ""),
      MakeFrame(FrameType::kPong, 0xFFFFFFFFFFFFFFFFull, "", ""),
      with_deadline,
      MakeFrame(FrameType::kHealth, 8, "", ""),
      MakeFrame(FrameType::kHealthReply, 8, "", EncodeHealthPayload(health)),
      MakeFrame(FrameType::kAppend, 9, "tenant-07", EncodeTensorPayload(row)),
      MakeFrame(FrameType::kAppendReply, 9, "",
                EncodeAppendReplyPayload(0x0123456789ABCDEFull)),
  };
}

// Re-stamps the trailing CRC after byte surgery so a test can corrupt one
// header field without also tripping the CRC check.
void RestampCrc(std::string* bytes) {
  ASSERT_GE(bytes->size(), kFrameTrailerBytes);
  const uint32_t crc = Crc32(
      std::string_view(*bytes).substr(0, bytes->size() - kFrameTrailerBytes));
  std::memcpy(bytes->data() + bytes->size() - kFrameTrailerBytes, &crc, 4);
}

TEST(ProtocolTest, EveryFrameTypeRoundTrips) {
  for (const Frame& frame : AllFrameKinds()) {
    std::string bytes = EncodeFrame(frame);
    EXPECT_EQ(bytes.size(), EncodedFrameBytes(frame));
    Result<Frame> decoded = DecodeFrame(bytes);
    ASSERT_TRUE(decoded.ok())
        << FrameTypeName(frame.type) << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), frame) << FrameTypeName(frame.type);
  }
}

TEST(ProtocolTest, TensorPayloadRoundTripsBitwise) {
  // Values chosen so any float32 detour or text formatting would change
  // bits: signed zero, subnormal, huge magnitude, many-digit fraction.
  std::vector<double> values = {-0.0, 5e-324, 1.7976931348623157e308,
                                0.1, -1.0 / 3.0, 123456789.123456789};
  Tensor tensor = Tensor::FromVector(Shape{2, 3}, values);
  Result<Tensor> decoded = DecodeTensorPayload(EncodeTensorPayload(tensor));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().shape().dims(), tensor.shape().dims());
  std::vector<double> round = decoded.value().ToVector();
  ASSERT_EQ(round.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t a = 0, b = 0;
    std::memcpy(&a, &values[i], 8);
    std::memcpy(&b, &round[i], 8);
    EXPECT_EQ(a, b) << "element " << i << " changed bits";
  }
}

// A B = 0 window carries a shape and no values: it round-trips to an empty
// tensor of the same shape (the decoder copies nothing into the empty
// vector, whose data() may be null).
TEST(ProtocolTest, ZeroElementTensorPayloadRoundTrips) {
  Tensor empty = Tensor::Zeros(Shape{0, 5, 3});
  std::string payload = EncodeTensorPayload(empty);
  EXPECT_EQ(payload.size(), 4u + 3u * 4u);
  Result<Tensor> decoded = DecodeTensorPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().shape().dims(), empty.shape().dims());
  EXPECT_EQ(decoded.value().NumElements(), 0);
}

// The payload itself, not any frame ceiling, bounds the announced shape:
// a tensor larger than kDefaultMaxFrameBytes still decodes when handed to
// the codec directly, so a transport configured with a larger frame
// ceiling never has valid tensors rejected by the payload decoder.
TEST(ProtocolTest, TensorPayloadLargerThanTheDefaultFrameCeilingDecodes) {
  const int64_t elements =
      static_cast<int64_t>(kDefaultMaxFrameBytes / 8) + 16;
  Tensor big = Tensor::FromVector(
      Shape{elements},
      std::vector<double>(static_cast<size_t>(elements), 0.5));
  std::string payload = EncodeTensorPayload(big);
  ASSERT_GT(payload.size(), kDefaultMaxFrameBytes);
  Result<Tensor> decoded = DecodeTensorPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().shape().dims(), big.shape().dims());
}

// Announced dims whose product dwarfs the payload (rank 8, every dim
// 0xFFFFFFFF — a product that would overflow u64 many times over) are
// rejected from the payload size alone, without overflow and without
// allocating.
TEST(ProtocolTest, TensorPayloadDimsOverThePayloadAreRejected) {
  std::string payload(4 + 4 * 8, '\0');
  const uint32_t rank = 8;
  std::memcpy(payload.data(), &rank, 4);
  for (size_t i = 0; i < 8; ++i) {
    const uint32_t dim = 0xFFFFFFFFu;
    std::memcpy(payload.data() + 4 + 4 * i, &dim, 4);
  }
  Result<Tensor> decoded = DecodeTensorPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("payload can hold"),
            std::string::npos);
}

TEST(ProtocolTest, StatusPayloadRoundTrips) {
  Status original = Status::NotFound("no snapshot for tenant x");
  Status decoded = Status::Ok();
  ASSERT_TRUE(DecodeStatusPayload(EncodeStatusPayload(original), &decoded)
                  .ok());
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(ProtocolTest, StatusPayloadRejectsTruncationAndBadCode) {
  Status decoded = Status::Ok();
  Status truncated = DecodeStatusPayload("ab", &decoded);
  EXPECT_EQ(truncated.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.message().find("status payload truncated"),
            std::string::npos);
  std::string bad_code(4, '\0');
  bad_code[0] = static_cast<char>(99);
  Status rejected = DecodeStatusPayload(bad_code, &decoded);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("invalid status code"),
            std::string::npos);
}

TEST(ProtocolTest, HealthPayloadRoundTripsEveryState) {
  for (ServeState state :
       {ServeState::kStarting, ServeState::kServing, ServeState::kDraining}) {
    HealthInfo info;
    info.state = state;
    info.resident_models = 5;
    info.known_models = 0xFFFFFFFFFFFFFFFFull;
    info.queue_depth = 256;
    Result<HealthInfo> decoded = DecodeHealthPayload(EncodeHealthPayload(info));
    ASSERT_TRUE(decoded.ok())
        << ServeStateName(state) << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), info) << ServeStateName(state);
  }
}

TEST(ProtocolTest, HealthPayloadRejectsWrongSizeAndUnknownState) {
  std::string good = EncodeHealthPayload(HealthInfo{});
  Result<HealthInfo> truncated =
      DecodeHealthPayload(std::string_view(good).substr(0, good.size() - 1));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  Result<HealthInfo> oversized = DecodeHealthPayload(good + "x");
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  std::string bad_state = good;
  bad_state[0] = static_cast<char>(9);
  Result<HealthInfo> rejected = DecodeHealthPayload(bad_state);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("state"), std::string::npos)
      << rejected.status().ToString();
}

TEST(ProtocolTest, AppendReplyPayloadRoundTripsAndRejectsWrongSize) {
  for (uint64_t sequence : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40,
                            uint64_t{0xFFFFFFFFFFFFFFFFull}}) {
    Result<uint64_t> decoded =
        DecodeAppendReplyPayload(EncodeAppendReplyPayload(sequence));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), sequence);
  }
  const std::string good = EncodeAppendReplyPayload(7);
  ASSERT_EQ(good.size(), 8u);
  Result<uint64_t> truncated =
      DecodeAppendReplyPayload(std::string_view(good).substr(0, 7));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  Result<uint64_t> oversized = DecodeAppendReplyPayload(good + "x");
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, HealthPayloadCarriesThePublishedVersionWatermark) {
  HealthInfo info;
  info.state = ServeState::kServing;
  info.max_published_version = 0xFFFFFFFFFFFFFFFFull;
  Result<HealthInfo> decoded = DecodeHealthPayload(EncodeHealthPayload(info));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().max_published_version, 0xFFFFFFFFFFFFFFFFull);
}

// --- Byte-surgery conformance ----------------------------------------------

std::string GoodBytes() {
  return EncodeFrame(MakeFrame(FrameType::kPing, 7, "", ""));
}

TEST(ProtocolConformanceTest, BadMagicNamesTheMagic) {
  std::string bytes = GoodBytes();
  bytes[0] = 'X';
  RestampCrc(&bytes);  // isolate the magic check from the CRC check
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("bad magic"), std::string::npos);
}

TEST(ProtocolConformanceTest, BadVersionNamesBothVersions) {
  std::string bytes = GoodBytes();
  bytes[4] = 9;
  RestampCrc(&bytes);
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported protocol version 9"),
            std::string::npos);
  EXPECT_NE(decoded.status().message().find("speaks version 2"),
            std::string::npos);
}

// Version negotiation against a *v1* peer: a v1 frame is 20-byte-header
// (24 bytes total for a ping) — shorter than the v2 header — and its CRC
// sits where v2 expects header bytes. The v2 decoder must reject it on
// the version byte, naming both versions, before any completeness or CRC
// logic could misfire on the foreign layout.
TEST(ProtocolConformanceTest, V1FrameIsRejectedOnItsVersionByteBeforeCrc) {
  // Hand-build a v1 ping frame: magic, version=1, type=kPing, tenant len
  // 0, payload len 0, request id, CRC over the 20 header bytes.
  std::string v1;
  v1.append("EMAF", 4);
  v1.push_back(1);  // version 1
  v1.push_back(static_cast<char>(FrameType::kPing));
  v1.append(2, '\0');  // tenant id length
  v1.append(4, '\0');  // payload length
  const uint64_t request_id = 42;
  v1.append(reinterpret_cast<const char*>(&request_id), 8);
  ASSERT_EQ(v1.size(), 20u);  // the v1 header size
  const uint32_t crc = Crc32(v1);
  v1.append(reinterpret_cast<const char*>(&crc), 4);

  // One-shot decode: version named, both versions in the message. The
  // 24-byte frame is shorter than the v2 header, so reaching the version
  // check at all proves validation is per-field, not full-header-first.
  Result<Frame> decoded = DecodeFrame(v1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unsupported protocol version 1"),
            std::string::npos)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("speaks version 2"),
            std::string::npos);

  // Streaming decode dies on the same field from the first 5 bytes —
  // before the v1 frame's CRC bytes have even arrived.
  FrameDecoder decoder;
  decoder.Feed(std::string_view(v1).substr(0, 5));
  std::optional<Result<Frame>> got = decoder.Next();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_NE(got->status().message().find("unsupported protocol version 1"),
            std::string::npos);
  EXPECT_NE(got->status().message().find("speaks version 2"),
            std::string::npos);
  EXPECT_TRUE(decoder.failed());
}

TEST(ProtocolConformanceTest, ReservedFlagBitsAreRejectedByName) {
  std::string bytes = GoodBytes();
  bytes[20] = static_cast<char>(0x80 | kFrameFlagHasDeadline);
  RestampCrc(&bytes);
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("reserved flags bits"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ProtocolConformanceTest, DeadlineWithoutItsFlagIsRejectedByName) {
  std::string bytes = GoodBytes();
  bytes[21] = 5;  // deadline low byte, but the flags byte stays 0
  RestampCrc(&bytes);
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("HAS_DEADLINE"),
            std::string::npos)
      << decoded.status().ToString();
}

TEST(ProtocolConformanceTest, UnknownTypeNamesTheType) {
  std::string bytes = GoodBytes();
  bytes[5] = 77;
  RestampCrc(&bytes);
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("unknown frame type 77"),
            std::string::npos);
}

TEST(ProtocolConformanceTest, TruncatedHeaderNamesTheHeader) {
  std::string bytes = GoodBytes();
  for (size_t keep : {size_t{0}, size_t{4}, kFrameHeaderBytes - 1}) {
    Result<Frame> decoded = DecodeFrame(bytes.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "kept " << keep;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("truncated header"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(ProtocolConformanceTest, TruncatedFrameNamesTheAnnouncedLengths) {
  std::string bytes =
      EncodeFrame(MakeFrame(FrameType::kForecastRequest, 1, "t0", "pppp"));
  Result<Frame> decoded = DecodeFrame(bytes.substr(0, bytes.size() - 1));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("truncated frame"),
            std::string::npos);
  EXPECT_NE(decoded.status().message().find("tenant id 2"), std::string::npos);
  EXPECT_NE(decoded.status().message().find("payload 4"), std::string::npos);
}

TEST(ProtocolConformanceTest, OversizedLengthIsRejectedFromTheHeader) {
  // A small decode-side ceiling rejects the frame from the header alone —
  // the announced payload is never buffered or required to be present.
  std::string bytes =
      EncodeFrame(MakeFrame(FrameType::kForecastRequest, 1, "tenant",
                            std::string(512, 'p')));
  Result<Frame> decoded = DecodeFrame(bytes, /*max_frame_bytes=*/128);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("payload length too large"),
            std::string::npos);
  EXPECT_NE(decoded.status().message().find("128-byte ceiling"),
            std::string::npos);
}

TEST(ProtocolConformanceTest, CrcFlipIsDataLossNamingBothCrcs) {
  std::string bytes =
      EncodeFrame(MakeFrame(FrameType::kForecastRequest, 1, "t0", "payload"));
  bytes[kFrameHeaderBytes] ^= 0x40;  // flip a tenant-id bit, keep the CRC
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("crc mismatch"),
            std::string::npos);
}

TEST(ProtocolConformanceTest, TrailingBytesAreRejected) {
  std::string bytes = GoodBytes() + "x";
  Result<Frame> decoded = DecodeFrame(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("trailing bytes"),
            std::string::npos);
}

// --- FrameDecoder streaming -------------------------------------------------

TEST(FrameDecoderTest, ReassemblesOneByteAtATime) {
  std::vector<Frame> frames = AllFrameKinds();
  std::string stream;
  for (const Frame& frame : frames) stream += EncodeFrame(frame);
  FrameDecoder decoder;
  size_t next = 0;
  for (char byte : stream) {
    decoder.Feed(std::string_view(&byte, 1));
    while (std::optional<Result<Frame>> got = decoder.Next()) {
      ASSERT_TRUE(got->ok()) << got->status().ToString();
      ASSERT_LT(next, frames.size());
      EXPECT_EQ(got->value(), frames[next]) << "frame " << next;
      ++next;
    }
  }
  EXPECT_EQ(next, frames.size());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_FALSE(decoder.failed());
}

TEST(FrameDecoderTest, GarbageStreamFailsFromTheFirstBytes) {
  FrameDecoder decoder;
  decoder.Feed("GET / HTTP/1.1\r\n");
  std::optional<Result<Frame>> got = decoder.Next();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_EQ(got->status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got->status().message().find("bad magic"), std::string::npos);
  EXPECT_TRUE(decoder.failed());
  // Terminal: the same error comes back forever, nothing is buffered.
  decoder.Feed("more bytes");
  std::optional<Result<Frame>> again = decoder.Next();
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->ok());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, OversizedHeaderFailsBeforeThePayloadArrives) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  Frame big = MakeFrame(FrameType::kForecastRequest, 1, "t",
                        std::string(4096, 'p'));
  std::string bytes = EncodeFrame(big);
  // Feed just the header: the announced size alone kills the stream.
  decoder.Feed(std::string_view(bytes).substr(0, kFrameHeaderBytes));
  std::optional<Result<Frame>> got = decoder.Next();
  ASSERT_TRUE(got.has_value());
  ASSERT_FALSE(got->ok());
  EXPECT_NE(got->status().message().find("payload length too large"),
            std::string::npos);
}

TEST(FrameDecoderTest, CrcFailureMidStreamIsTerminal) {
  std::string good = GoodBytes();
  std::string corrupt = good;
  corrupt[12] ^= 0x01;  // request id bit flip; CRC now mismatches
  FrameDecoder decoder;
  decoder.Feed(good);
  decoder.Feed(corrupt);
  decoder.Feed(good);  // never reached: the stream died at frame 2
  std::optional<Result<Frame>> first = decoder.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok());
  std::optional<Result<Frame>> second = decoder.Next();
  ASSERT_TRUE(second.has_value());
  ASSERT_FALSE(second->ok());
  EXPECT_EQ(second->status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameDecoderTest, RandomChunkingNeverChangesTheFrames) {
  std::vector<Frame> frames;
  for (int i = 0; i < 16; ++i) {
    frames.push_back(MakeFrame(FrameType::kForecastRequest,
                               static_cast<uint64_t>(i),
                               "tenant-" + std::to_string(i),
                               std::string(static_cast<size_t>(i) * 7, 'x')));
  }
  std::string stream;
  for (const Frame& frame : frames) stream += EncodeFrame(frame);
  Rng rng(20240808);
  for (int trial = 0; trial < 20; ++trial) {
    FrameDecoder decoder;
    size_t next = 0;
    size_t offset = 0;
    while (offset < stream.size()) {
      size_t chunk = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(stream.size() - offset)));
      decoder.Feed(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      while (std::optional<Result<Frame>> got = decoder.Next()) {
        ASSERT_TRUE(got->ok()) << got->status().ToString();
        EXPECT_EQ(got->value(), frames[next]);
        ++next;
      }
    }
    EXPECT_EQ(next, frames.size()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace emaf::serve
