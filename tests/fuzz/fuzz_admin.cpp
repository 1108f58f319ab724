// Fuzz harness for the observability-plane codecs: the CRC-framed health/
// stats record (rendezvous stats.N files and admin-socket replies) and the
// fixed 4-byte admin request.
//
// These decoders face the most hostile inputs in the system: the stats file
// is world-readable and scraped mid-write by independent processes, and the
// admin UDP socket accepts datagrams from anything that can reach loopback.
// The harness asserts nothing about the result — any input must decode or
// reject without crashing, over-allocating (kMaxHealthPayloadBytes /
// kMaxHealthMetrics / kMaxHealthNameBytes caps), or tripping ASan/UBSan.
// Every record that decodes is also rendered by health_to_json, as the
// tools do with what they read, so any f64 a record carries (NaN, the
// infinities, values past every integer type) goes through the formatter.
//
// The first input byte selects the codec (even: health record, odd: admin
// request); the remainder is the datagram.
#include <cstddef>
#include <cstdint>

#include "telemetry/health.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const whisper::BytesView body(data + 1, size - 1);
  whisper::DecodeError err = whisper::DecodeError::kNone;
  if (data[0] % 2 == 0) {
    if (const auto snap = whisper::telemetry::decode_health_record(body, &err)) {
      (void)whisper::telemetry::health_to_json(*snap, "fuzz");
    }
  } else {
    (void)whisper::telemetry::decode_admin_request(body, &err);
  }
  return 0;
}
