// The traffic counters every backend keeps under one set of names, so a
// simulated and a live run export the same `net.*` metrics:
//
//   net.bytes{proto,dir}         payload bytes sent ("up") and delivered
//                                ("down"), by protocol tag
//   net.packets.sent             datagrams a node emitted
//   net.packets.delivered        datagrams handed to a receive handler
//   net.packets.duplicated       extra copies a fault injected
//   net.packets.dropped{reason}  datagrams known lost, by DropReason
//
// Payload bytes, not wire bytes: the UDP frame header is the backend's own
// overhead (UdpBackend::bytes_sent() counts it), and the simulator has
// none. sim::Network and net::UdpBackend each hold one TrafficMetrics.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/datagram.hpp"
#include "telemetry/registry.hpp"

namespace whisper::net {

class TrafficMetrics {
 public:
  /// Registers every counter above in `registry`, which must outlive this.
  explicit TrafficMetrics(telemetry::Registry& registry);

  void sent(Proto proto, std::size_t bytes) {
    up_[static_cast<std::size_t>(proto)]->add(bytes);
    sent_->add(1);
  }
  void delivered(Proto proto, std::size_t bytes) {
    down_[static_cast<std::size_t>(proto)]->add(bytes);
    delivered_->add(1);
  }
  void duplicated() { duplicated_->add(1); }
  void dropped(DropReason reason) { dropped_[static_cast<std::size_t>(reason)]->add(1); }

  std::uint64_t packets_sent() const { return sent_->value(); }
  std::uint64_t packets_delivered() const { return delivered_->value(); }
  std::uint64_t packets_duplicated() const { return duplicated_->value(); }
  std::uint64_t packets_dropped(DropReason reason) const {
    return dropped_[static_cast<std::size_t>(reason)]->value();
  }
  /// Over every reason.
  std::uint64_t packets_dropped() const;

 private:
  telemetry::Counter* up_[static_cast<std::size_t>(Proto::kCount)] = {};
  telemetry::Counter* down_[static_cast<std::size_t>(Proto::kCount)] = {};
  telemetry::Counter* sent_;
  telemetry::Counter* delivered_;
  telemetry::Counter* duplicated_;
  telemetry::Counter* dropped_[static_cast<std::size_t>(DropReason::kCount)] = {};
};

}  // namespace whisper::net
