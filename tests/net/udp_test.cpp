// UDP/epoll backend tests: loopback datagram exchange, timer-queue
// timers inside the event loop (which sleeps between sub-millisecond
// deadlines instead of spinning), frame validation against stray packets,
// EINTR handling under a signal storm, and the trace-wire contract
// (version-2 frames carry the TraceContext; with the flag off the tapped
// byte stream is identical to a build that never heard of tracing).
#include "net/udp.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <ctime>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <vector>

#include "telemetry/flight.hpp"

namespace whisper::net {
namespace {

constexpr Time kTick = 5 * kMillisecond;

Bytes bytes_of(const char* s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  return Bytes(p, p + std::strlen(s));
}

TEST(UdpBackend, ReservedEndpointsAreDistinctLoopbackPorts) {
  UdpBackend backend;
  ASSERT_TRUE(backend.last_error().empty()) << backend.last_error();
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a.has_value()) << backend.last_error();
  ASSERT_TRUE(b.has_value()) << backend.last_error();
  EXPECT_EQ(a->ip, (127u << 24) | 1);
  EXPECT_NE(a->port, 0);
  EXPECT_NE(b->port, 0);
  EXPECT_FALSE(*a == *b);
  // Reserved but not attached: no handler yet.
  EXPECT_FALSE(backend.attached(*a));
  backend.attach(*a, [](const Datagram&) {});
  EXPECT_TRUE(backend.attached(*a));
  backend.detach(*a);
  EXPECT_FALSE(backend.attached(*a));
}

TEST(UdpBackend, LoopbackPingPong) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b) << backend.last_error();

  std::vector<Datagram> at_a;
  std::vector<Datagram> at_b;
  backend.attach(*a, [&](const Datagram& d) { at_a.push_back(d); });
  backend.attach(*b, [&](const Datagram& d) {
    at_b.push_back(d);
    backend.send(*b, d.src, bytes_of("pong"), Proto::kApp);
  });

  ASSERT_TRUE(backend.send(*a, *b, bytes_of("ping"), Proto::kWcl));
  const Time deadline = backend.now() + 2 * kSecond;
  while (at_a.empty() && backend.now() < deadline) backend.poll(kTick);

  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].payload, bytes_of("ping"));
  EXPECT_EQ(at_b[0].proto, Proto::kWcl);
  EXPECT_EQ(at_b[0].src, *a);  // loopback: source address survives verbatim
  EXPECT_EQ(at_b[0].dst, *b);
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].payload, bytes_of("pong"));
  EXPECT_EQ(at_a[0].proto, Proto::kApp);
  EXPECT_EQ(backend.packets_sent(), 2u);
  EXPECT_EQ(backend.packets_delivered(), 2u);
  EXPECT_GT(backend.bytes_sent(), 0u);
  EXPECT_EQ(backend.bytes_sent(), backend.bytes_received());
}

TEST(UdpBackend, IsAWallClock) { EXPECT_TRUE(UdpBackend().wall_clock()); }

// The receive buffer belongs to the backend, not to one drain: a handler
// that detaches another socket mid-drain ends that socket's drain cleanly,
// its queued datagrams are never delivered, and draining goes on.
TEST(UdpBackend, HandlerDetachingASocketMidDrainIsSafe) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  auto c = backend.reserve_endpoint();
  ASSERT_TRUE(a && b && c) << backend.last_error();
  std::vector<Bytes> at_b;
  std::vector<Bytes> at_c;
  backend.attach(*a, [](const Datagram&) {});
  backend.attach(*b, [&](const Datagram& d) {
    at_b.push_back(d.payload);
    backend.detach(*c);
  });
  backend.attach(*c, [&](const Datagram& d) { at_c.push_back(d.payload); });
  for (const char* p : {"one", "two", "three"}) {
    ASSERT_TRUE(backend.send(*a, *b, bytes_of(p), Proto::kApp));
    ASSERT_TRUE(backend.send(*a, *c, bytes_of(p), Proto::kApp));
  }
  const Time deadline = backend.now() + 2 * kSecond;
  while (at_b.size() < 3 && backend.now() < deadline) backend.poll(kTick);

  ASSERT_EQ(at_b.size(), 3u);
  EXPECT_EQ(at_b[0], bytes_of("one"));
  EXPECT_EQ(at_b[2], bytes_of("three"));
  // c drains all three only if epoll reported it before b.
  EXPECT_TRUE(at_c.empty() || at_c.size() == 3u) << at_c.size();
  EXPECT_FALSE(backend.attached(*c));
}

TEST(UdpBackend, SendFromUnboundEndpointFails) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  ASSERT_TRUE(a);
  EXPECT_FALSE(backend.send(Endpoint{(127u << 24) | 1, 1}, *a, bytes_of("x"),
                            Proto::kApp));
}

TEST(UdpBackend, DeliveryToReservedButUnattachedSocketCountsDetachDrop) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  auto c = backend.reserve_endpoint();  // bound socket, no handler
  ASSERT_TRUE(a && c);
  backend.attach(*a, [](const Datagram&) {});
  ASSERT_TRUE(backend.send(*a, *c, bytes_of("void"), Proto::kApp));
  const Time deadline = backend.now() + 2 * kSecond;
  while (backend.packets_dropped(DropReason::kDetach) == 0 &&
         backend.now() < deadline) {
    backend.poll(kTick);
  }
  EXPECT_EQ(backend.packets_dropped(DropReason::kDetach), 1u);
  EXPECT_EQ(backend.packets_delivered(), 0u);
}

TEST(UdpBackend, RejectsFramesWithBadHeader) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  ASSERT_TRUE(a);
  int handled = 0;
  backend.attach(*a, [&](const Datagram&) { ++handled; });

  // A stray sender that knows nothing of the frame format.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(a->ip);
  dst.sin_port = htons(a->port);
  const char garbage[] = "not a whisper frame";
  ASSERT_GT(::sendto(fd, garbage, sizeof(garbage), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            0);
  // Right magic, out-of-range proto tag.
  const std::uint8_t bad_proto[] = {0x57, 0x50, 1, 0xEE, 'x'};
  ASSERT_GT(::sendto(fd, bad_proto, sizeof(bad_proto), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            0);
  ::close(fd);

  const Time deadline = backend.now() + 2 * kSecond;
  while (backend.frame_rejects() < 2 && backend.now() < deadline) {
    backend.poll(kTick);
  }
  EXPECT_EQ(backend.frame_rejects(), 2u);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(backend.packets_delivered(), 0u);
}

TEST(UdpBackend, TimersFireInDeadlineOrderAndCancelWorks) {
  UdpBackend backend;
  std::vector<int> order;
  backend.schedule_after(30 * kMillisecond, [&] { order.push_back(3); });
  backend.schedule_after(10 * kMillisecond, [&] { order.push_back(1); });
  const TimerId victim =
      backend.schedule_after(20 * kMillisecond, [&] { order.push_back(2); });
  backend.schedule_at(backend.now() + 25 * kMillisecond,
                      [&] { order.push_back(25); });
  backend.cancel(victim);
  backend.run_for(100 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 25, 3}));
  EXPECT_EQ(backend.pending_timers(), 0u);
}

TEST(UdpBackend, SleepsBetweenSubMillisecondDeadlines) {
  // Deadlines closer together than epoll_wait's millisecond resolution: the
  // loop must still fire each timer on time and in order, and sleep between
  // them rather than spin on zero-timeout polls. No bound on lateness: on a
  // loaded host a sleeping loop wakes late, and that is the host's doing.
  constexpr std::size_t kTimers = 40;
  constexpr Time kGap = 700;  // µs
  const auto thread_cpu_us = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
  };
  UdpBackend backend;
  ASSERT_TRUE(backend.last_error().empty()) << backend.last_error();
  std::vector<std::size_t> order;
  int early = 0;
  const Time first = backend.now() + kGap;
  for (std::size_t i = 0; i < kTimers; ++i) {
    const Time at = first + i * kGap;
    backend.schedule_at(at, [&, i, at] {
      order.push_back(i);
      if (backend.now() < at) ++early;
    });
  }
  const double cpu0 = thread_cpu_us();
  const Time wall0 = backend.now();
  while (order.size() < kTimers) backend.poll(kSecond);
  const double cpu = thread_cpu_us() - cpu0;
  const auto wall = static_cast<double>(backend.now() - wall0);

  std::vector<std::size_t> want(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) want[i] = i;
  EXPECT_EQ(order, want);
  EXPECT_EQ(early, 0);
  EXPECT_LT(cpu, 0.25 * wall) << "thread CPU " << cpu << " µs over " << wall
                              << " µs of wall time: the loop is spinning";
}

TEST(UdpBackend, RequestStopEndsRun) {
  UdpBackend backend;
  backend.schedule_after(10 * kMillisecond, [&] { backend.request_stop(); });
  backend.run();  // must return, not spin forever
  EXPECT_TRUE(backend.stop_requested());
}

TEST(ClassifySendtoErrno, MapsTransientAndPeerErrnosToDistinctReasons) {
  EXPECT_EQ(classify_sendto_errno(ENOBUFS), DropReason::kBackpressure);
  EXPECT_EQ(classify_sendto_errno(ENOMEM), DropReason::kBackpressure);
  EXPECT_EQ(classify_sendto_errno(EAGAIN), DropReason::kBackpressure);
  EXPECT_EQ(classify_sendto_errno(ECONNREFUSED), DropReason::kRefused);
  EXPECT_EQ(classify_sendto_errno(EHOSTUNREACH), DropReason::kRefused);
  EXPECT_EQ(classify_sendto_errno(ENETUNREACH), DropReason::kRefused);
  EXPECT_EQ(classify_sendto_errno(EPERM), DropReason::kRefused);
  // Anything unanticipated degrades to plain datagram loss.
  EXPECT_EQ(classify_sendto_errno(EINVAL), DropReason::kLoss);
  EXPECT_EQ(classify_sendto_errno(0), DropReason::kLoss);
}

TEST(UdpBackend, SendErrorHookCountsClassifiedDropsAndRecovers) {
  // There is no portable way to make a real loopback sendto() fail with
  // ENOBUFS or ECONNREFUSED on demand, so the config hook injects the
  // errnos the kernel would produce: transient backpressure, ICMP-derived
  // refusals from a crashed peer, and recovery once the hook stands down.
  UdpConfig config;
  std::vector<int> script = {ENOBUFS, EAGAIN, ECONNREFUSED, EHOSTUNREACH, 0};
  std::size_t call = 0;
  config.send_error_hook = [&](Endpoint) {
    const int err = call < script.size() ? script[call] : 0;
    ++call;
    return err;
  };
  UdpBackend backend(config);
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b) << backend.last_error();
  int received = 0;
  backend.attach(*a, [](const Datagram&) {});
  backend.attach(*b, [&](const Datagram&) { ++received; });

  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(backend.send(*a, *b, bytes_of("probe"), Proto::kApp));
  }
  const Time deadline = backend.now() + 2 * kSecond;
  while (received < 1 && backend.now() < deadline) backend.poll(kTick);

  // Two transient + two peer-side failures, each counted under its cause;
  // the fifth datagram went out for real.
  EXPECT_EQ(backend.packets_dropped(DropReason::kBackpressure), 2u);
  EXPECT_EQ(backend.packets_dropped(DropReason::kRefused), 2u);
  EXPECT_EQ(backend.packets_dropped(DropReason::kLoss), 0u);
  EXPECT_EQ(received, 1);
}

TEST(UdpBackend, TimersStillFireViaPollAfterRequestStop) {
  // request_stop() ends run(), but poll() keeps working: whisper_noded's
  // shutdown path (and its post-delivery linger) schedules timers after
  // the stop flag is up and drives them manually.
  UdpBackend backend;
  backend.schedule_after(5 * kMillisecond, [&] { backend.request_stop(); });
  backend.run();
  EXPECT_TRUE(backend.stop_requested());

  int fired = 0;
  backend.schedule_after(5 * kMillisecond, [&] { ++fired; });
  const Time deadline = backend.now() + 2 * kSecond;
  while (fired == 0 && backend.now() < deadline) backend.poll(kTick);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(backend.pending_timers(), 0u);
}

TEST(UdpBackend, EintrStormStillFiresTimersAndDeliversPackets) {
  // Pepper the process with SIGALRM (no SA_RESTART: epoll_wait returns
  // EINTR) while the loop runs; the backend must absorb the interruptions.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 2000;  // every 2 ms
  storm.it_value.tv_usec = 2000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &storm, nullptr), 0);

  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b);
  int received = 0;
  backend.attach(*a, [](const Datagram&) {});
  backend.attach(*b, [&](const Datagram&) { ++received; });
  int fired = 0;
  backend.schedule_after(20 * kMillisecond, [&] { ++fired; });
  backend.schedule_after(40 * kMillisecond, [&] {
    ++fired;
    backend.send(*a, *b, bytes_of("mid-storm"), Proto::kApp);
  });

  const Time deadline = backend.now() + 2 * kSecond;
  while ((fired < 2 || received < 1) && backend.now() < deadline) {
    backend.poll(kTick);
  }

  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &old, nullptr);

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(backend.last_error().empty()) << backend.last_error();
}

// --- Trace-wire contract -------------------------------------------------

// Drives one traced ping through a backend and returns the concatenated
// tapped outbound frames. `trace_wire` toggles version-2 framing; `traced`
// controls whether a FlightRecorder with an armed ambient context exists at
// all (the "build without the feature" side of the digest comparison).
Bytes tapped_frames(bool trace_wire, bool traced) {
  UdpConfig config;
  config.trace_wire = trace_wire;
  Bytes tapped;
  config.frame_tap = [&](BytesView frame, bool outbound) {
    if (outbound) tapped.insert(tapped.end(), frame.begin(), frame.end());
  };
  UdpBackend backend(config);
  telemetry::FlightRecorder flight;
  if (traced) {
    flight.set_clock(clock_fn(backend));
    flight.set_enabled(true);
    backend.set_flight(&flight);
  }
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  EXPECT_TRUE(a && b) << backend.last_error();
  int received = 0;
  backend.attach(*a, [](const Datagram&) {});
  backend.attach(*b, [&](const Datagram&) { ++received; });

  telemetry::TraceContext ctx;
  if (traced) {
    ctx.trace_id = flight.new_trace(telemetry::TraceLayer::kWcl, 1, 0, 2);
    ctx.root = ctx.trace_id;
    ctx.attempt = 1;
    ctx.layer = telemetry::TraceLayer::kWcl;
  }
  telemetry::ScopedTraceContext guard(traced ? &flight : nullptr, ctx);
  EXPECT_TRUE(backend.send(*a, *b, bytes_of("traced-ping"), Proto::kWcl));
  const Time deadline = backend.now() + 2 * kSecond;
  while (received < 1 && backend.now() < deadline) backend.poll(kTick);
  EXPECT_EQ(received, 1);
  return tapped;
}

TEST(UdpTraceWire, TapDigestByteIdenticalWhenOff) {
  // The anonymity contract: with trace_wire OFF, a fully traced process
  // puts exactly the same bytes on the wire as one with no tracing at all.
  const Bytes traced_off = tapped_frames(/*trace_wire=*/false, /*traced=*/true);
  const Bytes untraced = tapped_frames(/*trace_wire=*/false, /*traced=*/false);
  ASSERT_FALSE(traced_off.empty());
  EXPECT_EQ(traced_off, untraced);
  // And the opt-in really does change the wire: 4-byte v1 header grows to
  // 4 + 27 bytes of context per traced datagram.
  const Bytes traced_on = tapped_frames(/*trace_wire=*/true, /*traced=*/true);
  EXPECT_EQ(traced_on.size(), traced_off.size() + 27);
}

TEST(UdpTraceWire, V2FrameLogsPairedWireInAtReceiver) {
  UdpConfig config;
  config.trace_wire = true;
  UdpBackend backend(config);
  telemetry::FlightRecorder flight;
  flight.set_clock(clock_fn(backend));
  flight.set_enabled(true);
  backend.set_flight(&flight);

  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b) << backend.last_error();
  int received = 0;
  backend.attach(*a, [](const Datagram&) {});
  backend.attach(*b, [&](const Datagram& d) {
    ++received;
    // The receiver sees the sender's context on the datagram...
    EXPECT_TRUE(d.trace.valid());
    // ...and deliver() armed the ambient context at the next hop, so any
    // forward this handler performs chains onto the same trace.
    EXPECT_EQ(flight.context().trace_id, d.trace.trace_id);
    EXPECT_EQ(flight.context().hop, d.trace.hop + 1);
  });

  telemetry::TraceContext ctx;
  ctx.trace_id = flight.new_trace(telemetry::TraceLayer::kWcl, 1, 0, 2);
  ctx.root = ctx.trace_id;
  ctx.attempt = 1;
  ctx.layer = telemetry::TraceLayer::kWcl;
  {
    telemetry::ScopedTraceContext guard(&flight, ctx);
    ASSERT_TRUE(backend.send(*a, *b, bytes_of("hop"), Proto::kWcl));
  }
  const Time deadline = backend.now() + 2 * kSecond;
  while (received < 1 && backend.now() < deadline) backend.poll(kTick);
  ASSERT_EQ(received, 1);

  // Event log holds a wire_out/wire_in pair with matching identity and
  // recv >= sent (shared clock).
  const telemetry::FlightEventRec* out = nullptr;
  const telemetry::FlightEventRec* in = nullptr;
  for (const auto& e : flight.events()) {
    if (e.kind == telemetry::FlightKind::kWireOut) out = &e;
    if (e.kind == telemetry::FlightKind::kWireIn) in = &e;
  }
  ASSERT_NE(out, nullptr);
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(out->trace, ctx.trace_id);
  EXPECT_EQ(in->trace, out->trace);
  EXPECT_EQ(in->hop, out->hop);
  EXPECT_EQ(in->seq, out->seq);
  EXPECT_EQ(in->attempt, out->attempt);
  EXPECT_GE(in->ts, out->ts);
}

TEST(UdpTraceWire, TruncatedV2FrameRejected) {
  UdpBackend backend;
  auto a = backend.reserve_endpoint();
  ASSERT_TRUE(a);
  int handled = 0;
  backend.attach(*a, [&](const Datagram&) { ++handled; });

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(a->ip);
  dst.sin_port = htons(a->port);
  // Version-2 header followed by only 5 of the 27 context bytes.
  const std::uint8_t truncated[] = {0x57, 0x50, 2, 1, 0xAA, 0xBB, 0xCC, 0xDD,
                                    0xEE};
  ASSERT_GT(::sendto(fd, truncated, sizeof(truncated), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
            0);
  ::close(fd);

  const Time deadline = backend.now() + 2 * kSecond;
  while (backend.frame_rejects() < 1 && backend.now() < deadline) {
    backend.poll(kTick);
  }
  EXPECT_EQ(backend.frame_rejects(), 1u);
  EXPECT_EQ(handled, 0);
}

TEST(UdpTraceWire, SharedEpochAlignsClocksAcrossBackends) {
  // Two backends constructed with the same epoch report comparable now();
  // with the default (-1) each starts near zero at its own construction.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t epoch =
      ts.tv_sec * 1'000'000'000LL + ts.tv_nsec - 3'000'000'000LL;  // 3s ago
  UdpConfig ca;
  ca.epoch_ns = epoch;
  UdpConfig cb;
  cb.epoch_ns = epoch;
  UdpBackend ba(ca);
  UdpBackend bb(cb);
  // Both clocks read ~3s and agree within a generous scheduling margin.
  EXPECT_GT(ba.now(), 2 * kSecond);
  const Time da = ba.now();
  const Time db = bb.now();
  EXPECT_LT(da > db ? da - db : db - da, kSecond);
}

}  // namespace
}  // namespace whisper::net
