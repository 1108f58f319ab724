#include "telemetry/figures.hpp"

#include <cstdio>
#include <unordered_map>
#include <unordered_set>

namespace whisper::telemetry {

RouteAvailability route_availability(const std::vector<FlightEventRec>& events,
                                     TimeWindow window) {
  struct Send {
    std::uint64_t src;
    std::uint64_t dst;
  };
  std::unordered_map<std::uint64_t, Send> sends;  // WCL traces by id
  std::unordered_set<std::uint64_t> stopped;
  RouteAvailability out;
  for (const FlightEventRec& ev : events) {
    switch (ev.kind) {
      case FlightKind::kBegin:
        if (ev.layer == TraceLayer::kWcl) sends[ev.trace] = Send{ev.node, ev.peer};
        break;
      case FlightKind::kMark:
        if (ev.detail == kNodeStopMark) stopped.insert(ev.node);
        break;
      case FlightKind::kEnd: {
        const auto it = sends.find(ev.trace);
        if (it == sends.end() || !window.contains(ev.ts)) break;
        const Send send = it->second;
        sends.erase(it);
        if (stopped.contains(send.src)) break;
        if (ev.detail == "delivered" && ev.attempt <= 1) {
          ++out.first_try;
        } else if (ev.detail == "delivered") {
          ++out.alternative;
        } else if (stopped.contains(send.dst)) {
          ++out.dest_failures;
        } else if (ev.attempt == 0) {
          ++out.no_path;
        } else {
          ++out.no_alternative;
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

ExchangeDelays exchange_delays(const std::vector<FlightRecord>& records, TimeWindow window) {
  ExchangeDelays out;
  std::unordered_set<std::uint64_t> completed;
  for (const FlightRecord& r : records) {
    if (r.layer != TraceLayer::kPpss || r.root != 0 || r.outcome != "completed" ||
        !window.contains(r.end_ts)) {
      continue;
    }
    completed.insert(r.trace_id);
    out.rtt_us.push_back(r.rtt_us);
  }
  for (const FlightRecord& r : records) {
    if (r.layer != TraceLayer::kWcl || r.outcome != "delivered" || !completed.contains(r.root)) {
      continue;
    }
    ++out.messages;
    if (r.crypto_us == 0) ++out.zero_crypto;
    out.rtt_sum_us += r.rtt_us;
    out.crypto_us += r.crypto_us;
    out.network_us += r.prop_us + r.queue_us;
    out.retry_us += r.retry_us;
    out.proc_us += r.proc_us;
  }
  return out;
}

std::string format_message_split(const ExchangeDelays& d) {
  const double n = d.messages > 0 ? static_cast<double>(d.messages) : 1.0;
  auto ms = [n](std::uint64_t us) { return static_cast<double>(us) / n / 1000.0; };
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "crypto %.3f + network %.3f + retry %.3f + proc %.3f = rtt %.3f ms per "
                "message (%llu delivered)",
                ms(d.crypto_us), ms(d.network_us), ms(d.retry_us), ms(d.proc_us),
                ms(d.rtt_sum_us), static_cast<unsigned long long>(d.messages));
  return buf;
}

}  // namespace whisper::telemetry
