// Per-node CPU accounting with wall-clock measurement of crypto work.
//
// The paper's Table II reports average CPU time per PPSS cycle spent in AES
// vs RSA, split by node class. Because our AES/RSA are real implementations,
// we measure actual wall-clock time per operation and accumulate it per node
// and category; Table II and Fig. 7's per-operation crypto means read these
// totals. charge() also returns the measurement: on a wall clock WCL
// puts it in its flight `crypto` slices, so the live Fig. 7 split is
// measured. The simulator's virtual clock never sees it; there WCL uses
// fixed modeled costs, because measured time would make runs irreproducible
// (DESIGN.md §6.6).
#pragma once

#include <chrono>
#include <cstdint>

#include "net/time.hpp"

namespace whisper::net {

enum class CpuCategory : std::uint8_t {
  kAes = 0,        // symmetric content encryption/decryption
  kRsaEncrypt = 1, // onion path preparation (seal operations)
  kRsaDecrypt = 2, // onion peeling / envelope opening
  kRsaSign = 3,    // passport issuance & verification
  // Subsystem handler time: wall-clock spent dispatching one inbound frame
  // into the named layer, crypto included. PPSS handling nests inside the
  // WCL handler (confidential payloads surface through the onion exit), so
  // kPpssHandler is a subset of kWclHandler, and the crypto categories
  // above overlap every handler bucket — report them side by side, never
  // sum them.
  kPssHandler = 4,
  kKeysHandler = 5,
  kWclHandler = 6,
  kPpssHandler = 7,
  kCount = 8,
};

/// Stable lower-case label for a category ("aes", "pss_handler", ...).
inline const char* cpu_category_name(CpuCategory cat) {
  switch (cat) {
    case CpuCategory::kAes: return "aes";
    case CpuCategory::kRsaEncrypt: return "rsa_encrypt";
    case CpuCategory::kRsaDecrypt: return "rsa_decrypt";
    case CpuCategory::kRsaSign: return "rsa_sign";
    case CpuCategory::kPssHandler: return "pss_handler";
    case CpuCategory::kKeysHandler: return "keys_handler";
    case CpuCategory::kWclHandler: return "wcl_handler";
    case CpuCategory::kPpssHandler: return "ppss_handler";
    case CpuCategory::kCount: break;
  }
  return "unknown";
}

class CpuMeter {
 public:
  /// Run `fn`, measure its wall-clock duration, account it under `cat` to
  /// the nanosecond, and return the elapsed time as microseconds (>= 1).
  template <typename Fn>
  Time charge(CpuCategory cat, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
    spent_ns_[static_cast<std::size_t>(cat)] += ns;
    ++ops_[static_cast<std::size_t>(cat)];
    return ns >= 1000 ? ns / 1000 : 1;
  }

  /// Wall time accumulated under `cat`, in whole microseconds.
  Time spent(CpuCategory cat) const { return spent_ns_[static_cast<std::size_t>(cat)] / 1000; }
  std::uint64_t ops(CpuCategory cat) const { return ops_[static_cast<std::size_t>(cat)]; }
  /// Sum of spent() over every category.
  Time total() const {
    Time t = 0;
    for (std::size_t c = 0; c < static_cast<std::size_t>(CpuCategory::kCount); ++c) {
      t += spent(static_cast<CpuCategory>(c));
    }
    return t;
  }
  void reset() {
    for (auto& v : spent_ns_) v = 0;
    for (auto& v : ops_) v = 0;
  }

 private:
  std::uint64_t spent_ns_[static_cast<std::size_t>(CpuCategory::kCount)] = {};
  std::uint64_t ops_[static_cast<std::size_t>(CpuCategory::kCount)] = {};
};

}  // namespace whisper::net
