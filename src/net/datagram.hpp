// The datagram as protocol code sees it, independent of the backend that
// carried it: the same struct flows through the deterministic simulator and
// the real UDP/epoll stack, and so do the protocol tags and drop reasons
// that label their traffic metrics (net/traffic.hpp).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "telemetry/flight.hpp"

namespace whisper::net {

/// Protocol tags for traffic accounting.
enum class Proto : std::uint8_t {
  kPss = 0,      // peer sampling gossip
  kKeys = 1,     // public key piggyback share
  kWcl = 2,      // onion-routed confidential traffic
  kPpss = 3,     // private peer sampling payloads (inside WCL accounting)
  kControl = 4,  // NAT rendezvous / hole punching control traffic
  kApp = 5,      // application traffic
  kCount = 6,
};

/// Telemetry label value for a protocol tag ("pss", "keys", ...).
const char* proto_name(Proto p);

/// A datagram as observed on the wire (addresses are *public* ones when NAT
/// devices are on the path).
///
/// `trace` is backend-side metadata only — it never serializes into
/// `payload`, so the wire bytes an attacker (or the wiretap) sees are
/// byte-identical with tracing on or off. The UDP backend carries the proto
/// tag in a 4-byte frame header (see udp.cpp) but never the trace context:
/// causal flight traces stay per-process observability, costing zero
/// protocol wire bytes on both backends.
struct Datagram {
  Endpoint src;
  Endpoint dst;
  Bytes payload;
  Proto proto = Proto::kApp;
  telemetry::TraceContext trace;
};

/// Why a packet never reached its destination handler. Labels the
/// "net.packets.dropped" counter instances.
enum class DropReason : std::uint8_t {
  kLoss = 0,          // latency model declared it lost in transit / send syscall failed
  kFilter = 1,        // destination NAT device filtered it out
  kDetach = 2,        // destination departed (no handler bound)
  kFault = 3,         // fault fabric dropped it (partition, loss episode, ...)
  kBackpressure = 4,  // transient local resource exhaustion (ENOBUFS/EAGAIN/ENOMEM)
  kRefused = 5,       // destination refused/unreachable (ICMP-driven ECONNREFUSED etc.)
  kCount = 6,
};
const char* drop_reason_name(DropReason r);

/// Classify a failed sendto() errno into the drop taxonomy. Transient
/// kernel-side pressure and ICMP-driven refusals are ordinary datagram
/// loss to the protocol stack (the WCL RTO / PSS cycles retry), but they
/// are *counted* separately so an operator can tell "my socket buffers are
/// too small" from "the peer is gone" from genuine wire loss.
DropReason classify_sendto_errno(int err);

}  // namespace whisper::net
