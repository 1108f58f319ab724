#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace whisper {
namespace {

// A Reader views its buffer: it binds to lvalues and views, never to a
// temporary that dies before the first read.
static_assert(!std::is_constructible_v<Reader, Bytes&&>);
static_assert(std::is_constructible_v<Reader, const Bytes&>);
static_assert(std::is_constructible_v<Reader, BytesView>);

TEST(Serialize, RoundTripScalars) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.25);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, RoundTripIds) {
  Writer w;
  w.node_id(NodeId{99});
  w.group_id(GroupId{7});
  w.endpoint(Endpoint{0x0a000001, 4242});

  Reader r(w.data());
  EXPECT_EQ(r.node_id(), NodeId{99});
  EXPECT_EQ(r.group_id(), GroupId{7});
  Endpoint ep = r.endpoint();
  EXPECT_EQ(ep.ip, 0x0a000001u);
  EXPECT_EQ(ep.port, 4242);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, RoundTripBytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  w.bytes(Bytes{});

  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), Bytes{});
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncatedReadSetsError) {
  Writer w;
  w.u32(5);
  Reader r(w.data());
  r.u64();  // reads past the end
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, OversizedLengthPrefixSetsError) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes follow, but none do
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), Bytes{});
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, RestConsumesRemaining) {
  Writer w;
  w.u8(1);
  w.raw(Bytes{9, 9, 9});
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.rest(), (Bytes{9, 9, 9}));
  EXPECT_TRUE(r.done());
}

TEST(Serialize, DoneFalseWhenBytesRemain) {
  Writer w;
  w.u16(1);
  w.u16(2);
  Reader r(w.data());
  r.u16();
  EXPECT_FALSE(r.done());
}

TEST(Serialize, FailedReadReturnsZero) {
  const Bytes empty;
  Reader r(empty);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.node_id(), kNilNode);
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, EndpointStrFormatting) {
  Endpoint ep{(192u << 24) | (168u << 16) | (1u << 8) | 5u, 8080};
  EXPECT_EQ(ep.str(), "192.168.1.5:8080");
}

TEST(Serialize, HexRoundTrip) {
  Bytes b{0x00, 0xff, 0x12, 0xab};
  EXPECT_EQ(to_hex(b), "00ff12ab");
  EXPECT_EQ(from_hex("00ff12ab"), b);
}

// --- DecodeError taxonomy. ---

TEST(DecodeErrors, TruncatedFixedWidthRead) {
  Bytes b{0x01, 0x02};
  Reader r(b);
  EXPECT_EQ(r.u32(), 0u);  // zero-filled
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), DecodeError::kTruncated);
}

TEST(DecodeErrors, LengthPrefixBeyondInputIsBadLength) {
  Writer w;
  w.u32(100);  // claims 100 bytes; none follow
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_EQ(r.error(), DecodeError::kBadLength);
}

TEST(DecodeErrors, LengthPrefixOverProtocolBoundIsOversized) {
  Writer w;
  w.u32(1 << 20);
  w.raw(Bytes(8, 0xaa));
  Reader r(w.data());
  // The bound is checked before the remaining-input check and before any
  // allocation: a forged prefix cannot drive memory growth.
  EXPECT_TRUE(r.bytes(/*max_len=*/256).empty());
  EXPECT_EQ(r.error(), DecodeError::kOversized);
}

TEST(DecodeErrors, Count16OverBoundIsOversizedAndReturnsZero) {
  Writer w;
  w.u16(5000);
  Reader r(w.data());
  EXPECT_EQ(r.count16(/*max_count=*/32), 0u);
  EXPECT_EQ(r.error(), DecodeError::kOversized);
}

TEST(DecodeErrors, ExpectDoneStampsTrailingBytes) {
  Writer w;
  w.u16(7);
  w.u8(0xcc);  // trailing garbage after a complete frame
  Reader r(w.data());
  EXPECT_EQ(r.u16(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.reject_reason(), DecodeError::kTrailingBytes);  // pre-stamp view
  EXPECT_FALSE(r.expect_done());
  EXPECT_EQ(r.error(), DecodeError::kTrailingBytes);
}

TEST(DecodeErrors, FirstErrorWins) {
  Bytes b{0x01};
  Reader r(b);
  (void)r.u32();                   // kTruncated
  r.fail(DecodeError::kBadValue);  // later failure must not overwrite it
  EXPECT_EQ(r.error(), DecodeError::kTruncated);
}

TEST(DecodeErrors, CallerFlaggedBadValue) {
  Writer w;
  w.u8(99);
  Reader r(w.data());
  (void)r.u8();
  r.fail(DecodeError::kBadValue);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), DecodeError::kBadValue);
}

TEST(DecodeErrors, NamesAreStableTelemetryKeys) {
  // drop_frame() reasons embed these names; renaming breaks dashboards.
  EXPECT_STREQ(decode_error_name(DecodeError::kNone), "none");
  EXPECT_STREQ(decode_error_name(DecodeError::kTruncated), "truncated");
  EXPECT_STREQ(decode_error_name(DecodeError::kBadLength), "badlength");
  EXPECT_STREQ(decode_error_name(DecodeError::kOversized), "oversized");
  EXPECT_STREQ(decode_error_name(DecodeError::kTrailingBytes), "trailing");
  EXPECT_STREQ(decode_error_name(DecodeError::kBadValue), "badvalue");
}

}  // namespace
}  // namespace whisper
