// Binary serialization used by every protocol message in the stack.
//
// Bandwidth accounting in the simulator counts serialized bytes, so all
// protocol messages go through Writer/Reader instead of being passed as
// in-memory objects. Encoding is little-endian, length-prefixed for
// variable-size fields. Reader is non-throwing: failed reads set an error
// flag and return zero values; callers check ok() once at the end.
//
// Hostile-input hardening: every failure is classified by a DecodeError so
// protocol layers can reject malformed frames deterministically and count
// them by reason. Length prefixes are validated against both the remaining
// input (kBadLength) and the caller-declared protocol bound (kOversized),
// so a forged prefix can never drive an oversized allocation. Frame
// handlers finish with expect_done(): a valid frame followed by trailing
// garbage is rejected (kTrailingBytes), not silently accepted.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace whisper {

/// Why an inbound frame failed to decode. First failure wins: a Reader
/// records the error of the first read that went wrong and zero-fills
/// everything after it, so one frame maps to exactly one reason.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  /// A fixed-width read ran past the end of the input.
  kTruncated = 1,
  /// A length prefix exceeded the bytes actually present.
  kBadLength = 2,
  /// A length or element count exceeded the declared protocol bound.
  kOversized = 3,
  /// Input continued after a complete frame.
  kTrailingBytes = 4,
  /// A field decoded but was semantically invalid (flagged by the caller).
  kBadValue = 5,
};

inline const char* decode_error_name(DecodeError e) {
  switch (e) {
    case DecodeError::kNone: return "none";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadLength: return "badlength";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kTrailingBytes: return "trailing";
    case DecodeError::kBadValue: return "badvalue";
  }
  return "unknown";
}

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, 2); }
  void u32(std::uint32_t v) { append(&v, 4); }
  void u64(std::uint64_t v) { append(&v, 8); }
  void f64(double v) { append(&v, 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void node_id(NodeId id) { u64(id.value); }
  void group_id(GroupId id) { u64(id.value); }
  void endpoint(Endpoint ep) {
    u32(ep.ip);
    u16(ep.port);
  }

  /// Length-prefixed byte string (u32 length).
  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Raw append without a length prefix.
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}
  /// A Reader only views its buffer, which must outlive it: a temporary
  /// would be destroyed before the first read.
  Reader(Bytes&&) = delete;

  std::uint8_t u8() {
    std::uint8_t v = 0;
    extract(&v, 1);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    extract(&v, 2);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    extract(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    extract(&v, 8);
    return v;
  }
  double f64() {
    double v = 0;
    extract(&v, 8);
    return v;
  }
  bool boolean() { return u8() != 0; }

  NodeId node_id() { return NodeId{u64()}; }
  GroupId group_id() { return GroupId{u64()}; }
  Endpoint endpoint() {
    Endpoint ep;
    ep.ip = u32();
    ep.port = u16();
    return ep;
  }

  /// Length-prefixed byte string, bounded by `max_len` (protocol limit).
  /// The prefix is validated before any allocation happens.
  Bytes bytes(std::size_t max_len = std::numeric_limits<std::uint32_t>::max()) {
    std::uint32_t n = u32();
    if (!ok_) return {};
    if (n > max_len) {
      fail(DecodeError::kOversized);
      return {};
    }
    if (n > remaining()) {
      fail(DecodeError::kBadLength);
      return {};
    }
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str(std::size_t max_len = std::numeric_limits<std::uint32_t>::max()) {
    Bytes b = bytes(max_len);
    return std::string(b.begin(), b.end());
  }

  /// u16 element count validated against a protocol bound. Returns 0 on
  /// failure so `for (i < count)` loops are safe without extra checks.
  std::uint32_t count16(std::size_t max_count) {
    const std::uint32_t n = u16();
    if (!ok_) return 0;
    if (n > max_count) {
      fail(DecodeError::kOversized);
      return 0;
    }
    return n;
  }

  /// Raw byte run of exactly `n` bytes (length known from context, no
  /// prefix on the wire — e.g. a CRC-framed health record's payload).
  Bytes raw(std::size_t n) {
    if (n > remaining()) {
      fail(DecodeError::kTruncated);
      return {};
    }
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Consume all remaining bytes.
  Bytes rest() {
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_), data_.end());
    pos_ = data_.size();
    return out;
  }

  /// Record a semantic failure spotted by the caller (bad kind byte,
  /// id mismatch, invalid flag...). First error wins.
  void fail(DecodeError e) {
    if (error_ == DecodeError::kNone) error_ = e;
    ok_ = false;
  }

  /// Frame-final check: every read succeeded AND the input is fully
  /// consumed. Trailing bytes after a valid frame are a decode error —
  /// handlers must call this (or done()) before acting on the frame.
  bool expect_done() {
    if (ok_ && pos_ != data_.size()) fail(DecodeError::kTrailingBytes);
    return ok_;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return ok_; }
  /// True iff all input was consumed and no read failed.
  bool done() const { return ok_ && pos_ == data_.size(); }
  /// Why the first failed read failed (kNone while ok()).
  DecodeError error() const { return error_; }
  /// Like error(), but reports kTrailingBytes for an unconsumed tail even
  /// before expect_done() has stamped it — for counters at reject sites.
  DecodeError reject_reason() const {
    if (error_ != DecodeError::kNone) return error_;
    return pos_ != data_.size() ? DecodeError::kTrailingBytes : DecodeError::kNone;
  }

 private:
  void extract(void* p, std::size_t n) {
    if (pos_ + n > data_.size()) {
      fail(DecodeError::kTruncated);
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  DecodeError error_ = DecodeError::kNone;
};

}  // namespace whisper
