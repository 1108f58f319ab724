// Exporters: registry state as JSONL (one JSON object per line, trivially
// grep/jq-able), and the flight log rendered as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. Sampled timelines are health
// records (telemetry/health.hpp), which print numbers with json_number too.
//
// Determinism contract: output depends only on registry/flight-log
// *content* (itself deterministic under the virtual clock) — iteration is
// ordered, numbers are printed with fixed formats, nothing derives from
// pointers or wall-clock time. Golden tests diff two same-seed runs
// byte-for-byte.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"

namespace whisper::telemetry {

/// One line per metric:
///   {"name":"net.bytes","labels":{"dir":"up"},"type":"counter","value":123}
/// Histogram lines add count/sum/min/max/p50/p90/p99 and bucket arrays.
std::string to_jsonl(const Registry& registry);

/// {"displayTimeUnit":"ms","traceEvents":[...]} — the trace-event JSON
/// object form of a flight log (one recorder's events, or several
/// concatenated). ts/dur are the recorder's microseconds; tid is the node
/// id; every event names its flight trace in args.trace when it has one.
/// The log renders as:
///   - crypto charges: "X" slices wcl.onion.build / .peel / .open;
///   - PPSS and T-Chord root outcomes: "X" slices ppss.exchange and
///     chord.lookup spanning the measured RTT, "i" instants
///     ppss.exchange.timeout and chord.lookup.timeout;
///   - a WCL send that found no path: "i" instant wcl.send.no_path;
///   - marks: an "X" slice when they carry a duration, else an "i" instant,
///     named by the mark, category = the name up to its first dot, args
///     from the mark's key=value;
///   - each delivered wire copy (a wire_out with a matching wire_in): one
///     "s"/"f" flow pair named net.hop, sharing an id. A lost copy draws no
///     arrow.
/// Every other event kind is left to the flight records.
std::string to_chrome_trace(const std::vector<FlightEventRec>& events);

/// JSON string escaping for the exporters (exposed for tests).
std::string json_escape(std::string_view s);

/// A metric value as a JSON number: integral values below 1e15 print
/// without a fraction, others as the shortest round-tripping %.17g, and a
/// NaN or infinity, which JSON cannot spell, as null. %.17g is
/// deterministic for a given libc, which is all the golden tests (same
/// binary, two runs) require.
std::string json_number(double v);

/// Write `content` to `path`; false on I/O failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace whisper::telemetry
