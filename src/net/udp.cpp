#include "net/udp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>

#include "telemetry/flight.hpp"

namespace whisper::net {

namespace {

// Frame header on every UDP datagram: magic "WP", version, proto tag.
// Version 1 = bare header; version 2 = header + 27-byte TraceContext
// extension (trace_wire opt-in). Receivers accept both.
constexpr std::uint8_t kMagic0 = 0x57;  // 'W'
constexpr std::uint8_t kMagic1 = 0x50;  // 'P'
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kVersionTraced = 2;
constexpr std::size_t kHeaderLen = 4;
constexpr std::size_t kTraceCtxLen = 8 + 8 + 4 + 4 + 2 + 1;  // 27

constexpr int kMaxEpollEvents = 64;

/// Address new sockets bind to when reserve_endpoint() picks the port.
constexpr std::uint32_t kBindIp = (127u << 24) | 1;  // 127.0.0.1
/// Largest datagram accepted off the wire (frame header included).
constexpr std::size_t kMaxDatagram = 64 * 1024 + 64;
/// Ceiling on one poll() wait, so stop requests and run_for deadlines are
/// honored promptly even with no timers armed.
constexpr Time kMaxPollWait = 250 * kMillisecond;
/// How long before the wait's bound the timerfd wakes the loop; the rest is
/// polled with a zero timeout. It covers the p90 of the timerfd's wake-up
/// lag measured on a 4-vCPU x86-64 host (p50 8-19 µs, p90 8-51 µs for sleeps
/// of 50-800 µs), so a wake from idle rarely makes a timer late (DESIGN.md
/// §12).
constexpr Time kWakeMargin = 50;

void put_le(Bytes& out, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void append_trace_ctx(Bytes& frame, const telemetry::TraceContext& ctx) {
  put_le(frame, ctx.root, 8);
  put_le(frame, ctx.trace_id, 8);
  put_le(frame, ctx.hop, 4);
  put_le(frame, ctx.seq, 4);
  put_le(frame, ctx.attempt, 2);
  frame.push_back(static_cast<std::uint8_t>(ctx.layer));
}

telemetry::TraceContext parse_trace_ctx(const std::uint8_t* p) {
  telemetry::TraceContext ctx;
  ctx.root = get_le(p, 8);
  ctx.trace_id = get_le(p + 8, 8);
  ctx.hop = static_cast<std::uint32_t>(get_le(p + 16, 4));
  ctx.seq = static_cast<std::uint32_t>(get_le(p + 20, 4));
  ctx.attempt = static_cast<std::uint16_t>(get_le(p + 24, 2));
  ctx.layer = static_cast<telemetry::TraceLayer>(p[26]);
  return ctx;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

}  // namespace

UdpBackend::UdpBackend(Config config, telemetry::Registry* registry)
    : config_(config),
      owned_registry_(registry == nullptr ? std::make_unique<telemetry::Registry>()
                                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      traffic_(*registry_),
      frame_rejects_(&registry_->counter("udp.frame_rejects")),
      rx_kernel_drops_(&registry_->counter("udp.rx_kernel_drops")),
      rx_buf_(kMaxDatagram) {
  epoch_ns_ = config_.epoch_ns >= 0 ? static_cast<std::uint64_t>(config_.epoch_ns)
                                    : monotonic_ns();
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    last_error_ = std::string("epoll_create1: ") + std::strerror(errno);
    return;
  }
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_;
  if (timer_fd_ < 0 || epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
    last_error_ = std::string("timerfd: ") + std::strerror(errno);
  }
}

UdpBackend::~UdpBackend() {
  for (auto& [ep, sock] : sockets_) {
    if (sock.fd >= 0) ::close(sock.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Time UdpBackend::now() const {
  return (monotonic_ns() - epoch_ns_) / 1000;
}

TimerId UdpBackend::schedule_at(Time at, std::function<void()> fn) {
  return timers_.schedule(at, std::move(fn));
}

TimerId UdpBackend::schedule_after(Time delay, std::function<void()> fn) {
  return timers_.schedule(now() + delay, std::move(fn));
}

void UdpBackend::cancel(TimerId id) { timers_.cancel(id); }

std::optional<Endpoint> UdpBackend::open_socket(Endpoint ep) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    last_error_ = std::string("socket: ") + std::strerror(errno);
    return std::nullopt;
  }
#ifdef SO_RXQ_OVFL
  // Ask the kernel to report receive-queue overflow (drops since socket
  // creation) as a per-datagram cmsg; best-effort, the counter just stays
  // zero where unsupported.
  {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof one);
  }
#endif
  sockaddr_in sa = to_sockaddr(ep);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    last_error_ = "bind " + ep.str() + ": " + std::strerror(errno);
    ::close(fd);
    return std::nullopt;
  }
  // Learn the OS-assigned port when the caller asked for port 0.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    last_error_ = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return std::nullopt;
  }
  const Endpoint actual = from_sockaddr(bound);
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    last_error_ = std::string("epoll_ctl(ADD): ") + std::strerror(errno);
    ::close(fd);
    return std::nullopt;
  }
  sockets_[actual] = SocketState{fd, actual, nullptr};
  fd_to_ep_[fd] = actual;
  return actual;
}

std::optional<Endpoint> UdpBackend::reserve_endpoint() {
  return open_socket(Endpoint{kBindIp, 0});
}

std::optional<Endpoint> UdpBackend::reserve_endpoint_on(std::uint32_t bind_ip) {
  return open_socket(Endpoint{bind_ip, 0});
}

void UdpBackend::attach(Endpoint internal_ep, Handler handler) {
  auto it = sockets_.find(internal_ep);
  if (it == sockets_.end()) {
    if (!open_socket(internal_ep)) return;  // last_error() has the reason
    it = sockets_.find(internal_ep);
  }
  it->second.handler = std::move(handler);
}

void UdpBackend::close_socket(Endpoint ep) {
  auto it = sockets_.find(ep);
  if (it == sockets_.end()) return;
  if (it->second.fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    fd_to_ep_.erase(it->second.fd);
    ::close(it->second.fd);
  }
  sockets_.erase(it);
}

void UdpBackend::detach(Endpoint internal_ep) { close_socket(internal_ep); }

bool UdpBackend::attached(Endpoint internal_ep) const {
  auto it = sockets_.find(internal_ep);
  return it != sockets_.end() && it->second.handler != nullptr;
}

void UdpBackend::emit(int fd, Endpoint src, Endpoint dst, const Bytes& payload,
                      Proto proto, const telemetry::TraceContext* trace) {
  Bytes frame;
  frame.reserve(kHeaderLen + (trace != nullptr ? kTraceCtxLen : 0) + payload.size());
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  frame.push_back(trace != nullptr ? kVersionTraced : kVersion);
  frame.push_back(static_cast<std::uint8_t>(proto));
  if (trace != nullptr) append_trace_ctx(frame, *trace);
  frame.insert(frame.end(), payload.begin(), payload.end());

  if (config_.send_error_hook) {
    if (const int injected = config_.send_error_hook(dst); injected != 0) {
      traffic_.dropped(classify_sendto_errno(injected));
      return;
    }
  }

  const sockaddr_in sa = to_sockaddr(dst);
  const ssize_t n = ::sendto(fd, frame.data(), frame.size(), 0,
                             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n < 0) {
    // Best-effort datagram semantics: every sendto failure is ordinary
    // datagram loss to the protocol stack — the retry machinery (WCL RTO,
    // PSS cycles) already covers it, and a blocking retry loop in the hot
    // path would be worse than one lost datagram. But the *cause* is
    // counted: transient kernel backpressure (ENOBUFS/EAGAIN/ENOMEM) and
    // ICMP-driven refusals (a crashed peer's port answering with
    // port-unreachable) are operationally different from random loss, and
    // none of them may kill the loop.
    traffic_.dropped(classify_sendto_errno(errno));
    return;
  }
  bytes_sent_ += static_cast<std::uint64_t>(n);
  if (config_.frame_tap) config_.frame_tap(BytesView(frame), /*outbound=*/true);
  (void)src;
}

bool UdpBackend::send(Endpoint internal_src, Endpoint public_dst, Bytes payload,
                      Proto proto) {
  auto it = sockets_.find(internal_src);
  if (it == sockets_.end()) return false;
  const int fd = it->second.fd;
  traffic_.sent(proto, payload.size());

  Datagram dgram{internal_src, public_dst, std::move(payload), proto, {}};
  const bool tracing_flight = flight_ != nullptr && flight_->enabled();
  if (tracing_flight) dgram.trace = flight_->context();

  std::size_t copies = 1;
  Time extra_delay = 0;
  if (faults_ != nullptr) {
    const auto verdict = faults_->on_wire(internal_src, dgram);
    copies = verdict.copies;
    extra_delay = verdict.extra_delay;
  }
  if (copies == 0) {
    traffic_.dropped(DropReason::kFault);
    return true;  // the sender emitted it; it died on the wire
  }

  for (std::size_t i = 0; i < copies; ++i) {
    if (i > 0) traffic_.duplicated();
    if (tracing_flight && dgram.trace.valid()) {
      // Without trace_wire the context cannot travel inside the datagram
      // (zero wire bytes), so this backend records only the sender's side
      // of each hop; with trace_wire the same context rides the frame and
      // the receiving process logs the paired wire_in.
      dgram.trace.seq = flight_->next_wire_seq();
      flight_->wire_out(dgram.trace, flight_->node_of(internal_src), now(), extra_delay);
    }
    const bool carry_ctx =
        config_.trace_wire && tracing_flight && dgram.trace.valid();
    if (extra_delay == 0) {
      emit(fd, internal_src, public_dst, dgram.payload, proto,
           carry_ctx ? &dgram.trace : nullptr);
    } else {
      // Fault-injected delay: hold the bytes on the timer queue, then emit.
      // The socket may be gone by then (detach); that drop is the same loss
      // the real network would produce.
      schedule_after(extra_delay, [this, internal_src, public_dst,
                                   payload = dgram.payload, proto, carry_ctx,
                                   trace = dgram.trace] {
        auto sit = sockets_.find(internal_src);
        if (sit == sockets_.end()) {
          traffic_.dropped(DropReason::kLoss);
          return;
        }
        emit(sit->second.fd, internal_src, public_dst, payload, proto,
             carry_ctx ? &trace : nullptr);
      });
    }
  }
  return true;
}

void UdpBackend::redeliver(Endpoint internal_dst, Datagram dgram) {
  auto it = sockets_.find(internal_dst);
  if (it == sockets_.end() || it->second.handler == nullptr) {
    traffic_.dropped(DropReason::kDetach);
    return;
  }
  traffic_.delivered(dgram.proto, dgram.payload.size());
  it->second.handler(dgram);
}

void UdpBackend::deliver(SocketState& sock, Datagram dgram) {
  if (faults_ != nullptr) {
    switch (faults_->on_deliver(dgram.src, sock.ep, dgram)) {
      case FaultInterposer::Gate::kDrop:
        traffic_.dropped(DropReason::kFault);
        return;
      case FaultInterposer::Gate::kQueue:
        return;  // interposer owns it now
      case FaultInterposer::Gate::kDeliver:
        break;
    }
  }
  if (sock.handler == nullptr) {
    traffic_.dropped(DropReason::kDetach);
    return;
  }
  traffic_.delivered(dgram.proto, dgram.payload.size());
  // A context parsed off a version-2 frame (trace_wire sender) pairs the
  // remote wire_out with a local wire_in and arms the ambient context —
  // exactly what the sim network does on delivery — so the causal chain
  // continues across the process boundary.
  if (flight_ != nullptr && flight_->enabled() && dgram.trace.valid()) {
    const std::uint64_t dst_node = flight_->node_of(sock.ep);
    flight_->wire_in(dgram.trace, dst_node, now());
    telemetry::ScopedTraceContext guard(flight_, dgram.trace.next_hop());
    sock.handler(dgram);
    return;
  }
  sock.handler(dgram);
}

void UdpBackend::drain_socket(int fd) {
  // Reused for every datagram: each is copied out before its handler runs.
  std::uint8_t* const buf = rx_buf_.data();
  for (;;) {
    // The socket may have been detached by a handler run earlier in this
    // drain; stop touching the fd the moment it leaves the table.
    auto eit = fd_to_ep_.find(fd);
    if (eit == fd_to_ep_.end()) return;
    const Endpoint ep = eit->second;

    sockaddr_in from{};
    iovec iov{buf, rx_buf_.size()};
    alignas(cmsghdr) char cmsg_buf[CMSG_SPACE(sizeof(std::uint32_t))];
    msghdr msg{};
    msg.msg_name = &from;
    msg.msg_namelen = sizeof(from);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = cmsg_buf;
    msg.msg_controllen = sizeof cmsg_buf;
    const ssize_t n = ::recvmsg(fd, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN/EWOULDBLOCK: drained
    }
    bytes_received_ += static_cast<std::uint64_t>(n);
#ifdef SO_RXQ_OVFL
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SO_RXQ_OVFL) continue;
      std::uint32_t dropped = 0;
      std::memcpy(&dropped, CMSG_DATA(c), sizeof dropped);
      if (auto sit = sockets_.find(ep); sit != sockets_.end()) {
        // The cmsg carries a cumulative per-socket counter; fold the delta
        // into the backend-wide total (the counter can wrap at 2^32).
        rx_kernel_drops_->add(dropped - sit->second.rxq_ovfl);
        sit->second.rxq_ovfl = dropped;
      }
    }
#endif
    if (static_cast<std::size_t>(n) < kHeaderLen || buf[0] != kMagic0 ||
        buf[1] != kMagic1 ||
        (buf[2] != kVersion && buf[2] != kVersionTraced) ||
        buf[3] >= static_cast<std::uint8_t>(Proto::kCount)) {
      frame_rejects_->add(1);  // stray or hostile datagram; not ours
      continue;
    }
    std::size_t payload_off = kHeaderLen;
    if (buf[2] == kVersionTraced) {
      if (static_cast<std::size_t>(n) < kHeaderLen + kTraceCtxLen) {
        frame_rejects_->add(1);  // truncated trace extension
        continue;
      }
      payload_off += kTraceCtxLen;
    }
    auto sit = sockets_.find(ep);
    if (sit == sockets_.end()) return;
    if (config_.frame_tap) {
      config_.frame_tap(BytesView(buf, static_cast<std::size_t>(n)),
                        /*outbound=*/false);
    }
    Datagram dgram;
    dgram.src = from_sockaddr(from);
    dgram.dst = ep;
    dgram.proto = static_cast<Proto>(buf[3]);
    if (buf[2] == kVersionTraced) {
      dgram.trace = parse_trace_ctx(buf + kHeaderLen);
    }
    dgram.payload.assign(buf + payload_off, buf + n);
    deliver(sit->second, std::move(dgram));
  }
}

void UdpBackend::poll(Time max_wait) {
  const Time start = now();
  Time budget = std::min(max_wait, kMaxPollWait);
  if (auto deadline = timers_.next_deadline()) {
    budget = *deadline > start ? std::min(budget, *deadline - start) : 0;
  }
  // Sleep on the timerfd until kWakeMargin before the bound; epoll_wait's
  // millisecond timeout, rounded up, only backstops it (it can make a wake
  // late, never early). Inside the margin, poll without sleeping.
  int timeout_ms = 0;
  if (budget > kWakeMargin) {
    const std::uint64_t wake_ns = epoch_ns_ + (start + budget - kWakeMargin) * 1000;
    // A timerfd still armed for no later than wake_ns is left alone: waking
    // early costs one more pass, while re-arming on every poll of a busy
    // loop costs a syscall (and a clock reprogram) per datagram.
    if (wake_ns < armed_ns_ || armed_ns_ <= epoch_ns_ + start * 1000) {
      itimerspec its{};
      its.it_value.tv_sec = static_cast<time_t>(wake_ns / 1'000'000'000);
      its.it_value.tv_nsec = static_cast<long>(wake_ns % 1'000'000'000);
      timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
      armed_ns_ = wake_ns;
    }
    timeout_ms = static_cast<int>((budget + kMillisecond - 1) / kMillisecond);
  }

  epoll_event events[kMaxEpollEvents];
  const int n = epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  if (n < 0) {
    if (errno != EINTR) {
      last_error_ = std::string("epoll_wait: ") + std::strerror(errno);
    }
    // EINTR: a signal woke us (request_stop from a handler, SIGALRM, ...).
    // Fall through to the timer pass — due timers must still fire.
  }
  for (int i = 0; i < std::max(n, 0); ++i) {
    const int fd = events[i].data.fd;
    if (fd == timer_fd_) {
      // Reading clears the level-triggered readiness; the count is unused.
      std::uint64_t expirations = 0;
      [[maybe_unused]] const ssize_t r = ::read(timer_fd_, &expirations, sizeof expirations);
      armed_ns_ = 0;
      continue;
    }
    drain_socket(fd);
  }
  timers_.advance(now());
}

void UdpBackend::run_for(Time duration) {
  const Time deadline = now() + duration;
  while (!stop_requested()) {
    const Time t = now();
    if (t >= deadline) break;
    poll(deadline - t);
  }
}

void UdpBackend::run() {
  while (!stop_requested()) {
    poll(kMaxPollWait);
  }
}

}  // namespace whisper::net
