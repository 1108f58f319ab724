// Canonical time types for the transport SPI.
//
// `Time` is microseconds on whatever clock the active backend provides: the
// simulator's virtual clock (deterministic, starts at 0) or the UDP
// backend's monotonic wall clock (CLOCK_MONOTONIC, rebased to 0 at backend
// construction so timestamps stay small and comparable across backends).
// Protocol code never learns which one it is running on.
#pragma once

#include <cstdint>

namespace whisper::net {

/// Microseconds on the active backend's clock.
using Time = std::uint64_t;

inline constexpr Time kMicrosecond = 1;
inline constexpr Time kMillisecond = 1000;
inline constexpr Time kSecond = 1'000'000;
inline constexpr Time kMinute = 60 * kSecond;

/// Handle for cancelling a scheduled timer. Encodes (generation << 32 |
/// slot); generations start at 1, so a valid id is never 0 — protocol code
/// uses 0 as a "no timer armed" sentinel. Both backends mint ids from the
/// same net::TimerQueue.
using TimerId = std::uint64_t;

}  // namespace whisper::net
