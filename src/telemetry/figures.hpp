// Paper figures as functions of flight data. Each reads only what a run
// exports, the raw event log or the records assembled from it, so the same
// function makes a figure from the simulator's recorder, from a
// `--flight=` export or from a live fleet's `.events.jsonl` files.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/flight.hpp"

namespace whisper::telemetry {

/// The mark ScaleTestbed::kill_node writes on a node's timeline while
/// recording is on. Table I reads it for the paper's footnote 3.
inline constexpr std::string_view kNodeStopMark = "node.stop";

/// Closed interval [from_us, to_us] of event timestamps. The default holds
/// every event.
struct TimeWindow {
  std::uint64_t from_us = 0;
  std::uint64_t to_us = std::numeric_limits<std::uint64_t>::max();

  bool contains(std::uint64_t ts) const { return ts >= from_us && ts <= to_us; }
};

/// Table I: WCL sends sorted by how many paths they built and whether one
/// delivered.
struct RouteAvailability {
  std::uint64_t first_try = 0;       // delivered over the first path built
  std::uint64_t alternative = 0;     // delivered over a later path
  std::uint64_t no_alternative = 0;  // built at least one path, none delivered
  std::uint64_t no_path = 0;         // never built a path
  std::uint64_t dest_failures = 0;   // not delivered, destination stopped: excluded

  /// Sends that built at least one path: the denominator of Table I's
  /// Success, Alt. and No alt. shares.
  std::uint64_t routed() const { return first_try + alternative + no_alternative; }
};

/// Table I over an event log, read in stream order (one recorder's log is
/// in execution order). A send is a WCL trace; it counts when its `kEnd`
/// falls in `window`. The rule:
///   - a send whose source has a `node.stop` mark earlier in the stream is
///     skipped: a stopped node's leftover timers are not route attempts;
///   - a send that was not delivered and whose destination has a
///     `node.stop` mark earlier in the stream is a destination failure,
///     excluded from every share (the paper's footnote 3);
///   - the rest sort by the kEnd's attempt count: delivered at attempt 1
///     is first-try, delivered later is alternative, not delivered after
///     at least one attempt is no-alternative, and a send that built no
///     path at all (0 attempts, outcome `no_path`) is counted apart, so
///     nothing is dropped silently.
/// Success, Alt. and No alt. are shares of routed().
RouteAvailability route_availability(const std::vector<FlightEventRec>& events,
                                     TimeWindow window = {});

/// Fig. 7: completed PPSS view exchanges and the WCL messages that
/// carried them.
struct ExchangeDelays {
  /// RTT of each completed exchange root (layer ppss, outcome `completed`)
  /// whose end falls in the window, in input order.
  std::vector<std::uint64_t> rtt_us;
  /// Delivered WCL records parented by those roots, and their records'
  /// decomposition summed. Crypto is the modeled cost on a virtual clock
  /// and the measured time on a wall clock (DESIGN.md §6 item 6).
  std::uint64_t messages = 0;
  std::uint64_t zero_crypto = 0;  // of `messages`, those with no crypto time
  std::uint64_t rtt_sum_us = 0;
  std::uint64_t crypto_us = 0;
  std::uint64_t network_us = 0;  // propagation + queueing
  std::uint64_t retry_us = 0;
  std::uint64_t proc_us = 0;
};

/// Fig. 7 over assembled records. Children whose root is not in `records`
/// (or is not a completed exchange in the window) are not counted.
ExchangeDelays exchange_delays(const std::vector<FlightRecord>& records,
                               TimeWindow window = {});

/// "crypto 0.705 + network 1.210 + retry 0.000 + proc 0.000 = rtt 1.915 ms
/// per message (1632 delivered)": the per-message means of `d`.
std::string format_message_split(const ExchangeDelays& d);

}  // namespace whisper::telemetry
