#include "net/traffic.hpp"

namespace whisper::net {

TrafficMetrics::TrafficMetrics(telemetry::Registry& registry)
    : sent_(&registry.counter("net.packets.sent")),
      delivered_(&registry.counter("net.packets.delivered")),
      duplicated_(&registry.counter("net.packets.duplicated")) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Proto::kCount); ++i) {
    const char* proto = proto_name(static_cast<Proto>(i));
    up_[i] = &registry.counter("net.bytes", {{"proto", proto}, {"dir", "up"}});
    down_[i] = &registry.counter("net.bytes", {{"proto", proto}, {"dir", "down"}});
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(DropReason::kCount); ++i) {
    dropped_[i] = &registry.counter(
        "net.packets.dropped", {{"reason", drop_reason_name(static_cast<DropReason>(i))}});
  }
}

std::uint64_t TrafficMetrics::packets_dropped() const {
  std::uint64_t total = 0;
  for (const auto* c : dropped_) total += c->value();
  return total;
}

}  // namespace whisper::net
