// Transport SPI: the seam between WHISPER's protocol stack and whatever
// carries its datagrams and drives its timers.
//
// Protocol code (nylon transport, PSS, key service, WCL, PPSS, T-Chord)
// is written exclusively against `Clock` and `Stack`. Two backends exist:
//
//   the simulator    — the deterministic discrete-event simulator
//                      (sim::Simulator is-a Clock, sim::Network is-a
//                      Stack), assembled into deployments by
//                      whisper::ScaleTestbed.
//   net::UdpBackend  — a real UDP/epoll event loop (level-triggered,
//                      non-blocking sockets) with timers on the monotonic
//                      clock. One backend instance can host one node
//                      (whisper_noded) or a whole in-process mesh on
//                      loopback ports (UdpMesh: tests, perfbench's
//                      onion-live).
//
// The fault fabric and the observability layers plug into the same seam:
// `FaultInterposer` is consulted by any backend that supports fault
// injection, and `clock_fn` adapts a Clock into the timestamp callback the
// FlightRecorder expects, so traces carry virtual micros under the sim and
// monotonic wall micros under UDP without the telemetry layer knowing the
// difference.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/datagram.hpp"
#include "net/time.hpp"

namespace whisper::telemetry {
class FlightRecorder;
}  // namespace whisper::telemetry

namespace whisper::net {

/// Timer service: now / schedule / cancel. Implemented by sim::Simulator
/// (virtual time) and UdpBackend (monotonic wall time).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds on this backend's clock.
  virtual Time now() const = 0;
  /// Whether time passes while code runs. False on the simulator's virtual
  /// clock, which moves only between events: work there takes the modeled
  /// cost a layer schedules for it. True on a wall clock, where the work
  /// already took its real time and a modeled cost would count it twice.
  virtual bool wall_clock() const = 0;

  /// Schedule `fn` to run at absolute time `at` (>= now). Returns a
  /// non-zero id usable with cancel().
  virtual TimerId schedule_at(Time at, std::function<void()> fn) = 0;
  /// Schedule `fn` to run `delay` from now.
  virtual TimerId schedule_after(Time delay, std::function<void()> fn) = 0;
  /// Cancel a pending timer; no-op if already fired or cancelled.
  virtual void cancel(TimerId id) = 0;
};

/// Fault interposition hook (implemented by faults::FaultFabric). Consulted
/// on the sender side after NAT source rewriting (wire vantage point) and
/// again on the receiver side before the handler runs, so fault targeting
/// works on *internal* endpoints — stable node identities — while
/// corruption mutates the wire bytes. Backend-agnostic: the sim network
/// honors every verdict; the UDP backend honors drops, duplicates and
/// delays for the copies it originates locally.
class FaultInterposer {
 public:
  virtual ~FaultInterposer() = default;

  /// Sender-side verdict. `copies == 0` drops the packet before it reaches
  /// the wire (counted as a fault drop); `copies > 1` injects duplicates,
  /// each with an independently sampled network delay. `extra_delay` is
  /// added to every copy's delay (delay spikes, reordering). The payload
  /// may be mutated in place (single-bit corruption).
  struct WireVerdict {
    std::size_t copies = 1;
    Time extra_delay = 0;
  };
  virtual WireVerdict on_wire(Endpoint internal_src, Datagram& dgram) = 0;

  /// Receiver-side gate, after NAT resolution but before the handler runs.
  enum class Gate {
    kDeliver,  // pass through
    kDrop,     // drop (partition / loss episode): counted as a fault drop
    kQueue,    // consumed: destination is paused, interposer queued the packet
  };
  virtual Gate on_deliver(Endpoint internal_src, Endpoint internal_dst,
                          const Datagram& dgram) = 0;
};

/// Datagram service: a set of locally-hosted endpoints, each with a receive
/// handler, plus send. Implemented by sim::Network (the whole simulated
/// internet lives in one Stack) and UdpBackend (every attached endpoint is
/// a bound, non-blocking UDP socket on this host).
class Stack {
 public:
  virtual ~Stack() = default;

  using Handler = std::function<void(const Datagram&)>;

  /// Bind a node's receive handler at its internal endpoint.
  virtual void attach(Endpoint internal_ep, Handler handler) = 0;
  /// Remove a node (e.g. churn departure). Packets in flight are dropped on
  /// arrival.
  virtual void detach(Endpoint internal_ep) = 0;
  virtual bool attached(Endpoint internal_ep) const = 0;

  /// Send a datagram from a locally-hosted internal endpoint to a *public*
  /// destination endpoint. Returns false if the sender could not even emit
  /// the packet (no NAT mapping possible / endpoint not attached). Delivery
  /// itself is asynchronous and silently subject to loss and filtering.
  virtual bool send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
                    Proto proto) = 0;

  /// Hand back a datagram the fault interposer claimed with Gate::kQueue:
  /// deliver it to the destination's handler now, bypassing the fault gate
  /// (the interposer already ruled on it once).
  virtual void redeliver(Endpoint internal_dst, Datagram dgram) = 0;

  /// Total datagrams handed to the wire / delivered to local handlers.
  virtual std::uint64_t packets_sent() const = 0;
  virtual std::uint64_t packets_delivered() const = 0;

  // --- Interposition / observability hooks. Default no-ops so a backend
  // opts into each capability it can honor. ---

  /// Install the fault fabric. May be null (no faults; zero overhead).
  virtual void set_fault_interposer(FaultInterposer* /*faults*/) {}

  /// Install the flight recorder for causal tracing (per-hop latency
  /// decomposition). Null or disabled costs one branch per packet.
  virtual void set_flight(telemetry::FlightRecorder* /*flight*/) {}
};

/// Adapt a Clock into the `std::function<uint64_t()>` timestamp source the
/// telemetry layer takes (FlightRecorder::set_clock).
/// This is the wall-clock adapter that makes traces and `whisper_trace`
/// work unchanged on the UDP backend. `clock` must outlive the returned
/// callable.
inline std::function<std::uint64_t()> clock_fn(const Clock& clock) {
  return [&clock] { return clock.now(); };
}

}  // namespace whisper::net
