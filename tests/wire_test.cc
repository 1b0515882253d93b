// The serve wire codec: the slice-by-8 CRC against a byte-at-a-time
// reference, the block-copy f32 codec's bit exactness, and the frame
// writers' bytes over a real socket pair against golden frames.
#include "serve/wire.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/rng.h"

namespace serenity::serve::wire {
namespace {

// The textbook one-byte-per-step CRC-32 the slice-by-8 loop must match.
std::uint32_t ReferenceCrc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextU64() & 0xFFu);
  return bytes;
}

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xFu];
  }
  return out;
}

TEST(Crc32, MatchesByteAtATimeReferenceAtEveryLengthAndOffset) {
  const std::string bytes = RandomBytes(1024 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view slice(bytes.data() + offset, len);
      ASSERT_EQ(util::Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
  const std::string mib = RandomBytes(1u << 20, 11);
  EXPECT_EQ(util::Crc32(mib), ReferenceCrc32(mib));
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(util::Crc32(""), 0x00000000u);
  EXPECT_EQ(util::Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(util::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, ChainingEqualsOnePass) {
  const std::string bytes = RandomBytes(300, 3);
  for (std::size_t split = 0; split <= bytes.size(); split += 37) {
    const std::string_view a(bytes.data(), split);
    const std::string_view b(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(util::Crc32(b, util::Crc32(a)), util::Crc32(bytes))
        << "split at " << split;
  }
}

TEST(F32Codec, RoundTripIsBitExactForSpecialValues) {
  const std::vector<std::uint32_t> patterns = {
      0x00000000u,  // +0
      0x80000000u,  // -0
      0x7F800000u,  // +inf
      0xFF800000u,  // -inf
      0x7FC00000u,  // canonical quiet NaN
      0x7FC12345u,  // quiet NaN with payload
      0xFFE5A5A5u,  // negative quiet NaN with payload
      0x7F800001u,  // signaling NaN
      0x00000001u,  // smallest denormal
      0x807FFFFFu,  // largest negative denormal
      0x3F800000u,  // 1.0
      0xC2F6E979u,  // -123.456
  };
  std::vector<float> values;
  for (const std::uint32_t bits : patterns) {
    values.push_back(std::bit_cast<float>(bits));
  }
  std::string encoded = "x";  // appends after existing bytes
  AppendF32Array(&encoded, values.data(),
                 static_cast<std::uint32_t>(values.size()));
  ASSERT_EQ(encoded.size(), 1 + 4 * values.size());
  // Little-endian words on the wire: 1.0f is 00 00 80 3f.
  EXPECT_EQ(Hex(encoded.substr(1 + 4 * 10, 4)), "0000803f");

  ByteReader reader(encoded);
  std::uint8_t marker = 0;
  ASSERT_TRUE(reader.ReadU8(&marker).ok());
  std::vector<float> decoded(values.size());
  ASSERT_TRUE(reader
                  .ReadF32Array(decoded.data(),
                                static_cast<std::uint32_t>(decoded.size()))
                  .ok());
  EXPECT_TRUE(reader.exhausted());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded[i]), patterns[i])
        << "value " << i;
  }
}

TEST(F32Codec, TruncatedArrayIsInvalidArgument) {
  const std::vector<float> values = {1.0f, 2.0f, 3.0f};
  std::string encoded;
  AppendF32Array(&encoded, values.data(), 3);
  encoded.pop_back();  // one byte short of three floats
  ByteReader reader(encoded);
  std::vector<float> decoded(3, 0.0f);
  const util::Status status = reader.ReadF32Array(decoded.data(), 3);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.remaining(), encoded.size());  // nothing consumed
}

TEST(F32Codec, ChannelWindowEncodesLikeItsContiguousCopy) {
  // Backing tensor 1x2x3x5; the window is channels [1, 4).
  std::vector<float> backing(30);
  for (std::size_t i = 0; i < backing.size(); ++i) {
    backing[i] = static_cast<float>(i) * 0.5f - 3.0f;
  }
  const runtime::Tensor window = runtime::Tensor::ChannelView(
      backing.data(), backing.size(), graph::TensorShape{1, 2, 3, 3}, 5, 1);
  const runtime::Tensor copy = window;  // owning, contiguous snapshot
  std::string from_window, from_copy;
  AppendTensor(&from_window, window);
  AppendTensor(&from_copy, copy);
  EXPECT_EQ(from_window, from_copy);
  EXPECT_EQ(from_copy.size(), 16 + 4 * 18u);
}

TEST(Codec, DecodedBodiesViewTheirPayload) {
  Request request;
  request.verb = Verb::kPlan;
  request.body = "graph text";
  const std::string payload = EncodeRequest(request);
  util::StatusOr<RequestView> decoded = DecodeRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->body, "graph text");
  EXPECT_EQ(decoded->body.data(), payload.data() + 6);

  Reply reply;
  reply.code = util::StatusCode::kFailedPrecondition;
  reply.message = "busy";
  reply.body = "xy";
  const std::string reply_payload = EncodeReply(reply);
  util::StatusOr<ReplyView> decoded_reply = DecodeReply(reply_payload);
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->message, "busy");
  EXPECT_EQ(decoded_reply->body, "xy");
  EXPECT_EQ(decoded_reply->body.data(), reply_payload.data() + 13);
}

class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  // Reads exactly `n` raw bytes from the receiving end.
  std::string Receive(std::size_t n) {
    std::string bytes(n, '\0');
    const util::Status got = RecvAll(fds_[1], bytes.data(), n, 5.0);
    EXPECT_TRUE(got.ok()) << got.ToString();
    return bytes;
  }
  int writer() const { return fds_[0]; }
  int reader() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

// verb infer | deadline 251 ms | flags allow_degraded | body "abc", framed
// with zlib's CRC-32 of the payload.
constexpr char kGoldenRequestFrame[] =
    "0900000081cb271802fb00000001616263";
// status kFailedPrecondition | retry 40 | message "busy" | body "xy".
constexpr char kGoldenReplyFrame[] =
    "0f000000dddc198b052800000004000000627573797879";

Request GoldenRequest() {
  Request request;
  request.verb = Verb::kInfer;
  request.deadline_seconds = 0.25;
  request.allow_degraded = true;
  request.body = "abc";
  return request;
}

Reply GoldenReply() {
  Reply reply;
  reply.code = util::StatusCode::kFailedPrecondition;
  reply.retry_after_millis = 40;
  reply.message = "busy";
  reply.body = "xy";
  return reply;
}

TEST_F(SocketPair, FramesAreGoldenByteForByte) {
  const std::size_t request_bytes = sizeof(kGoldenRequestFrame) / 2;
  const std::size_t reply_bytes = sizeof(kGoldenReplyFrame) / 2;

  ASSERT_TRUE(WriteFrame(writer(), EncodeRequest(GoldenRequest()), 5.0).ok());
  EXPECT_EQ(Hex(Receive(request_bytes)), kGoldenRequestFrame);
  ASSERT_TRUE(WriteRequest(writer(), GoldenRequest(), 5.0).ok());
  EXPECT_EQ(Hex(Receive(request_bytes)), kGoldenRequestFrame);

  ASSERT_TRUE(WriteFrame(writer(), EncodeReply(GoldenReply()), 5.0).ok());
  EXPECT_EQ(Hex(Receive(reply_bytes)), kGoldenReplyFrame);
  ASSERT_TRUE(WriteReply(writer(), GoldenReply(), 5.0).ok());
  EXPECT_EQ(Hex(Receive(reply_bytes)), kGoldenReplyFrame);
}

TEST_F(SocketPair, WriteFrameReadFrameRoundTrip) {
  // Larger than the socket buffer, so the gathered send resumes mid-piece
  // while a second thread drains the other end.
  Request request = GoldenRequest();
  request.body = RandomBytes(1u << 20, 5);
  util::StatusOr<std::string> frame = util::InternalError("not read");
  std::thread receiver([&] {
    frame = ReadFrame(reader(), kMaxFrameBytesDefault, 5.0, 5.0);
  });
  const util::Status wrote = WriteRequest(writer(), request, 5.0);
  receiver.join();
  ASSERT_TRUE(wrote.ok()) << wrote.ToString();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, EncodeRequest(request));
  util::StatusOr<RequestView> decoded = DecodeRequest(*frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verb, Verb::kInfer);
  EXPECT_EQ(decoded->body, request.body);
}

TEST_F(SocketPair, FlippedPayloadBitIsDataLoss) {
  const std::string payload = EncodeRequest(GoldenRequest());
  std::string frame;
  AppendU32(&frame, static_cast<std::uint32_t>(payload.size()));
  AppendU32(&frame, util::Crc32(payload));
  frame += payload;
  frame[8 + 7] = static_cast<char>(frame[8 + 7] ^ 0x04);  // body 'b' -> 'f'
  ASSERT_TRUE(SendAll(writer(), frame.data(), frame.size(), 5.0).ok());
  util::StatusOr<std::string> read =
      ReadFrame(reader(), kMaxFrameBytesDefault, 5.0, 5.0);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(SocketPair, OversizeAndEmptyPayloadsWriteNothing) {
  EXPECT_EQ(WriteFrame(writer(), "", 5.0).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteFrame(writer(), "12345", 5.0, /*max_frame_bytes=*/4).code(),
            util::StatusCode::kInvalidArgument);
  Reply reply = GoldenReply();
  EXPECT_EQ(WriteReply(writer(), reply, 5.0, /*max_frame_bytes=*/14).code(),
            util::StatusCode::kInvalidArgument);
  // Nothing reached the peer.
  util::StatusOr<bool> readable = WaitReadable(reader(), 0.05);
  ASSERT_TRUE(readable.ok());
  EXPECT_FALSE(*readable);
}

}  // namespace
}  // namespace serenity::serve::wire
