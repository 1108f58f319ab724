// Structure-aware libFuzzer harness over the durable-store decoders
// (DESIGN.md §14): the snapshot (NodeState) deserializer and the group and
// keypair decoders inside it — the paths that parse bytes a crash may have
// torn or a hostile filesystem may have doctored.
//
// Same selector-byte scheme as fuzz_codecs: the first input byte picks the
// decoder, the remainder is the payload, so one corpus covers the whole
// surface while mutation stays within one format's grammar.
//
// Unlike the wire harness this one also asserts an INVARIANT (via
// __builtin_trap, which the fuzzer reports as a crash): a snapshot that
// decodes re-encodes to bytes that decode again — the store never writes
// what it cannot read back.
#include <cstddef>
#include <cstdint>

#include "common/serialize.hpp"
#include "store/state.hpp"

namespace {

using whisper::BytesView;
using whisper::Reader;

void check(bool ok) {
  if (!ok) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const BytesView body(data + 1, size - 1);
  switch (data[0] % 3) {
    case 0:
      if (auto st = whisper::store::NodeState::deserialize(body)) {
        check(whisper::store::NodeState::deserialize(st->serialize()).has_value());
      }
      break;
    case 1: {
      Reader r(body);
      if (auto g = whisper::store::StoredGroup::deserialize(r)) (void)r.expect_done();
      (void)r.reject_reason();
      break;
    }
    case 2: {
      Reader r(body);
      if (auto kp = whisper::store::deserialize_keypair(r)) (void)r.expect_done();
      (void)r.reject_reason();
      break;
    }
  }
  return 0;
}
