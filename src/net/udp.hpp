// Real-network backend: non-blocking UDP sockets on a level-triggered
// epoll loop, timers on the monotonic clock (net::TimerQueue). Between
// deadlines the loop sleeps on a timerfd; it polls without sleeping only in
// the last 50 µs before each one (poll(), DESIGN.md §12).
//
// One UdpBackend is one single-threaded event loop, exactly like the
// simulator: it can host a single node (whisper_noded) or a whole
// in-process mesh with one socket per node on distinct loopback ports
// (the cross-backend equivalence test, perfbench's onion-live).
// bench_net_micro times the loop itself.
// Handlers and timer callbacks run on the thread inside poll()/run_for()/
// run(); the backend is not thread-safe and does not need to be.
//
// Wire format: each protocol datagram travels as one UDP datagram with a
// 4-byte frame header [0x57 'W', 0x50 'P', version, proto] so the receiver
// can restore the traffic-accounting tag and discard stray packets. By
// default (version 1) the causal TraceContext does NOT travel — flight
// tracing keeps its zero-wire-bytes contract (tap-digest-asserted), so each
// process records its own side of a flight and wire_in hop pairing is a
// sim-only luxury. Opting in with UdpConfig::trace_wire emits version-2
// frames whose header is followed by the 27-byte TraceContext
// (root u64 | trace u64 | hop u32 | seq u32 | attempt u16 | layer u8,
// little-endian), letting receivers log paired wire_in events so
// whisper_trace can merge per-process event exports into cross-process
// per-hop RTT decompositions (DESIGN.md §15). Receivers accept both
// versions regardless of the local flag; anonymity-sensitive deployments
// simply never enable the flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "net/spi.hpp"
#include "net/timer_queue.hpp"
#include "net/traffic.hpp"
#include "telemetry/registry.hpp"

namespace whisper::telemetry {
class FlightRecorder;
}  // namespace whisper::telemetry

namespace whisper::net {

struct UdpConfig {
  /// Opt-in cross-process flight tracing: emit version-2 frames carrying
  /// the sender's TraceContext (27 extra wire bytes per traced datagram).
  /// OFF by default — the zero-wire-bytes anonymity contract holds unless
  /// the operator explicitly trades it for observability.
  bool trace_wire = false;
  /// Shared CLOCK_MONOTONIC epoch (nanoseconds) for now(). Negative =
  /// sample at construction (each backend gets its own zero). A supervisor
  /// passes one epoch to every process it forks so cross-process flight
  /// timestamps are directly comparable (CLOCK_MONOTONIC is boot-relative,
  /// hence machine-wide).
  std::int64_t epoch_ns = -1;
  /// Test-only: consulted before each sendto(). A nonzero return simulates
  /// that errno from the syscall (the datagram is not sent); 0 sends for
  /// real. Unit tests inject ENOBUFS/ECONNREFUSED here — there is no
  /// portable way to make a real loopback socket produce them on demand.
  std::function<int(Endpoint dst)> send_error_hook;
  /// Test-only: observes every framed datagram exactly as it hits / left
  /// the wire (header included). The zero-wire-bytes test digests tapped
  /// frames from a traced and an untraced run and asserts byte equality.
  std::function<void(BytesView frame, bool outbound)> frame_tap;
};

class UdpBackend final : public Clock, public Stack {
 public:
  using Config = UdpConfig;

  /// `registry` hosts the traffic metrics: the `net.*` names the simulator
  /// exports (net::TrafficMetrics, payload bytes) plus `udp.frame_rejects`
  /// and `udp.rx_kernel_drops`. When null the backend owns a private one,
  /// so the counters below are always registry-backed.
  explicit UdpBackend(Config config = {}, telemetry::Registry* registry = nullptr);
  ~UdpBackend() override;

  UdpBackend(const UdpBackend&) = delete;
  UdpBackend& operator=(const UdpBackend&) = delete;

  // --- Clock (monotonic, microseconds since backend construction). ---
  Time now() const override;
  bool wall_clock() const override { return true; }
  TimerId schedule_at(Time at, std::function<void()> fn) override;
  TimerId schedule_after(Time delay, std::function<void()> fn) override;
  void cancel(TimerId id) override;

  // --- Stack. ---
  /// Bind a socket at `internal_ep` (or claim one previously handed out by
  /// reserve_endpoint()) and deliver its datagrams to `handler`. On bind
  /// failure the endpoint stays unattached (attached() == false) and
  /// last_error() describes why.
  void attach(Endpoint internal_ep, Handler handler) override;
  void detach(Endpoint internal_ep) override;
  bool attached(Endpoint internal_ep) const override;
  bool send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
            Proto proto) override;
  void redeliver(Endpoint internal_dst, Datagram dgram) override;
  std::uint64_t packets_sent() const override { return traffic_.packets_sent(); }
  std::uint64_t packets_delivered() const override { return traffic_.packets_delivered(); }
  void set_fault_interposer(FaultInterposer* faults) override { faults_ = faults; }
  void set_flight(telemetry::FlightRecorder* flight) override { flight_ = flight; }

  /// Bind a fresh socket on an OS-assigned port of 127.0.0.1 and return its
  /// endpoint without installing a handler yet; a later attach() with the
  /// same endpoint claims the already-bound socket. This is how tools and
  /// tests get collision-free ports: the endpoint that goes into a node's
  /// ContactCard is the port the OS actually assigned. Returns nullopt on
  /// socket/bind failure (see last_error()).
  std::optional<Endpoint> reserve_endpoint();

  /// reserve_endpoint() on an explicit bind address instead of 127.0.0.1.
  /// The NAT shim allocates its per-device mapping sockets here: each
  /// emulated device owns a distinct loopback IP (all of 127/8 is local), so
  /// IP-based restricted-cone filtering is real.
  std::optional<Endpoint> reserve_endpoint_on(std::uint32_t bind_ip);

  // --- Event loop. ---
  /// One iteration: wait for I/O or the earliest of the next timer
  /// deadline, `max_wait` and the 250 ms ceiling, then drain ready sockets
  /// and fire due timers. The wait sleeps on the timerfd until 50 µs before
  /// that bound and polls with a zero timeout only inside those 50 µs, so a
  /// timer never fires before its deadline and the loop never spins for
  /// longer than the margin. The timerfd is re-armed only when the bound
  /// is earlier than its expiry or that expiry has passed; a stale, earlier
  /// expiry costs one early wake-up. EINTR is absorbed (treated as a
  /// zero-event wakeup).
  void poll(Time max_wait);
  /// Pump the loop for `duration` of wall time.
  void run_for(Time duration);
  /// Pump the loop until request_stop() is called.
  void run();
  /// Make run() return at the next loop iteration. Safe to call from a
  /// signal handler (a lock-free atomic store; the signal's EINTR wakes
  /// the epoll sleep).
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_requested_.load(std::memory_order_relaxed); }

  // --- Introspection. ---
  std::uint64_t packets_dropped(DropReason r) const { return traffic_.packets_dropped(r); }
  /// Stray/garbage datagrams rejected by the frame-header check.
  std::uint64_t frame_rejects() const { return frame_rejects_->value(); }
  /// Datagrams the kernel dropped on our receive queues (SO_RXQ_OVFL),
  /// summed across sockets. Distinguishes kernel overflow from shim/network
  /// loss in fleet stats: this counter moving means the event loop is not
  /// draining fast enough, not that the (emulated) network is lossy.
  std::uint64_t rx_kernel_drops() const { return rx_kernel_drops_->value(); }
  /// Framed wire bytes: payloads plus the frame header (and trace context).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::size_t pending_timers() const { return timers_.pending(); }
  const std::string& last_error() const { return last_error_; }

 private:
  struct SocketState {
    int fd = -1;
    Endpoint ep;
    Handler handler;  // null while only reserved
    // Last SO_RXQ_OVFL counter seen on this socket (kernel drop count since
    // socket creation, attached per-datagram as a cmsg).
    std::uint32_t rxq_ovfl = 0;
  };

  /// Create + bind a non-blocking socket at `ep` (port 0 = OS-assigned) and
  /// register it with epoll. Returns the bound endpoint, nullopt on error.
  std::optional<Endpoint> open_socket(Endpoint ep);
  void close_socket(Endpoint ep);
  void drain_socket(int fd);
  void deliver(SocketState& sock, Datagram dgram);
  /// Emit one framed UDP datagram; counts and classifies failures. `trace`
  /// non-null emits a version-2 frame carrying the context (trace_wire).
  void emit(int fd, Endpoint src, Endpoint dst, const Bytes& payload, Proto proto,
            const telemetry::TraceContext* trace = nullptr);

  Config config_;
  std::unique_ptr<telemetry::Registry> owned_registry_;  // when none injected
  telemetry::Registry* registry_;                        // never null
  TrafficMetrics traffic_;
  telemetry::Counter* frame_rejects_;
  telemetry::Counter* rx_kernel_drops_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;  // CLOCK_MONOTONIC timerfd in the epoll set: poll()'s wake-up
  std::uint64_t armed_ns_ = 0;  // timer_fd_'s expiry (CLOCK_MONOTONIC ns); 0 = idle
  std::uint64_t epoch_ns_ = 0;  // CLOCK_MONOTONIC at construction
  TimerQueue timers_;
  std::unordered_map<Endpoint, SocketState> sockets_;
  std::unordered_map<int, Endpoint> fd_to_ep_;
  /// drain_socket()'s receive buffer, one per backend.
  std::vector<std::uint8_t> rx_buf_;
  FaultInterposer* faults_ = nullptr;
  telemetry::FlightRecorder* flight_ = nullptr;
  std::atomic<bool> stop_requested_{false};
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::string last_error_;
};

}  // namespace whisper::net
