// NAT/impairment shim on real sockets (DESIGN.md §16): the determinism
// contract (same seed -> identical decision stream), pass-through purity
// (shim with no profile puts byte-identical frames on the wire), the NAT
// rule engine enforced through live mapping sockets (translation, cone
// filtering, symmetric per-destination ports, lease expiry and refresh,
// reboot recovery), and the traversal protocol re-proven end to end over
// the shim: registration retry under loss, the live 4x4 NAT pair matrix
// with hole punching exactly where device semantics allow it.
#include "net/shim.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "net/udp.hpp"
#include "nylon/transport.hpp"
#include "telemetry/flight.hpp"

namespace whisper::net {
namespace {

using nat::NatType;

constexpr Time kTick = 5 * kMillisecond;

Bytes bytes_of(const char* s) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  return Bytes(p, p + std::strlen(s));
}

/// Drive `backend` until `done()` or `budget` of wall time elapses.
template <typename DoneFn>
void poll_until(UdpBackend& backend, Time budget, DoneFn done) {
  const Time deadline = backend.now() + budget;
  while (!done() && backend.now() < deadline) backend.poll(kTick);
}

ShimConfig shim_config(UdpBackend& backend, std::uint64_t seed) {
  ShimConfig cfg;
  cfg.seed = seed;
  cfg.reserve = [&backend](std::uint32_t bind_ip) {
    return backend.reserve_endpoint_on(bind_ip);
  };
  return cfg;
}

// --- Impair spec parsing -------------------------------------------------

TEST(ParseImpair, AcceptsFullSpecAndRejectsGarbage) {
  auto c = parse_impair("loss:0.05, dup:0.01, reorder:0.02, delay:20ms~10ms, "
                        "rate:1mbps");
  ASSERT_TRUE(c);
  EXPECT_DOUBLE_EQ(c->loss, 0.05);
  EXPECT_DOUBLE_EQ(c->duplicate, 0.01);
  EXPECT_DOUBLE_EQ(c->reorder, 0.02);
  EXPECT_EQ(c->delay, 20 * kMillisecond);
  EXPECT_EQ(c->jitter, 10 * kMillisecond);
  EXPECT_EQ(c->rate_bps, 1'000'000u);
  EXPECT_TRUE(c->any());

  EXPECT_TRUE(parse_impair(""));
  EXPECT_FALSE(parse_impair("")->any());
  EXPECT_TRUE(parse_impair("delay:250us"));
  EXPECT_EQ(parse_impair("delay:250us")->delay, 250u);

  std::string err;
  EXPECT_FALSE(parse_impair("loss:2", &err));   // probability out of range
  EXPECT_FALSE(parse_impair("loss", &err));     // no value
  EXPECT_FALSE(parse_impair("warp:0.5", &err)); // unknown key
  EXPECT_FALSE(err.empty());
}

// --- Determinism contract ------------------------------------------------

// Two same-seed shims sample identical drop/dup/delay schedules for the
// same send sequence; a different seed diverges.
TEST(ShimDeterminism, SameSeedSameDecisionStream) {
  const auto run = [](std::uint64_t seed) {
    UdpBackend backend;
    ShimConfig cfg = shim_config(backend, seed);
    cfg.record_decisions = true;
    ShimStack shim(backend, backend, std::move(cfg));

    auto src = backend.reserve_endpoint();
    auto dst = backend.reserve_endpoint();
    EXPECT_TRUE(src && dst);
    ShimProfile profile;
    profile.impair.loss = 0.3;
    profile.impair.duplicate = 0.2;
    profile.impair.delay = 5 * kMillisecond;
    profile.impair.jitter = 3 * kMillisecond;
    shim.set_profile(*src, profile);
    shim.attach(*src, [](const Datagram&) {});
    shim.attach(*dst, [](const Datagram&) {});
    for (int i = 0; i < 64; ++i) {
      shim.send(*src, *dst, bytes_of("x"), Proto::kApp);
    }
    return shim.decisions();
  };

  const auto a = run(1234);
  const auto b = run(1234);
  const auto c = run(999);
  ASSERT_EQ(a.size(), 64u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// With no profile the shim's wire output is byte-identical to the bare
// backend: the interposer earns its "disabled == absent" guarantee.
TEST(ShimPassthrough, TappedFramesByteIdenticalToBareBackend) {
  const auto run = [](bool shimmed) {
    UdpConfig config;
    Bytes tapped;
    config.frame_tap = [&](BytesView frame, bool outbound) {
      if (outbound) tapped.insert(tapped.end(), frame.begin(), frame.end());
    };
    UdpBackend backend(config);
    ShimStack shim(backend, backend, ShimConfig{});
    Stack& stack = shimmed ? static_cast<Stack&>(shim) : backend;

    auto a = backend.reserve_endpoint();
    auto b = backend.reserve_endpoint();
    EXPECT_TRUE(a && b);
    int received = 0;
    stack.attach(*a, [](const Datagram&) {});
    stack.attach(*b, [&](const Datagram&) { ++received; });
    EXPECT_TRUE(stack.send(*a, *b, bytes_of("as-if-absent"), Proto::kWcl));
    poll_until(backend, 2 * kSecond, [&] { return received >= 1; });
    EXPECT_EQ(received, 1);
    return tapped;
  };

  const Bytes with_shim = run(true);
  const Bytes without = run(false);
  ASSERT_FALSE(with_shim.empty());
  EXPECT_EQ(with_shim, without);
}

// --- NAT rule engine on live sockets -------------------------------------

// Harness: one natted endpoint behind a device on its own loopback IP,
// plus public peers bound directly on the backend.
struct NattedNode {
  Endpoint internal;
  std::vector<Datagram> got;
};

TEST(ShimNat, OutboundTranslatesSourceAndInboundMapsBack) {
  UdpBackend backend;
  ShimStack shim(backend, backend, shim_config(backend, 7));

  const Endpoint internal{0x0A000001, 40000};  // synthetic, never bound
  const std::uint32_t device_ip = 0x7F030001;  // 127.3.0.1
  ShimProfile profile;
  profile.nat = NatType::kPortRestrictedCone;
  profile.device_ip = device_ip;
  shim.set_profile(internal, profile);

  std::vector<Datagram> at_a;
  shim.attach(internal, [&](const Datagram& d) { at_a.push_back(d); });
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(b);
  std::vector<Datagram> at_b;
  shim.attach(*b, [&](const Datagram& d) { at_b.push_back(d); });

  ASSERT_TRUE(shim.send(internal, *b, bytes_of("out"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return !at_b.empty(); });
  ASSERT_EQ(at_b.size(), 1u);
  // The peer observes the device's external mapping, never the internal
  // address.
  EXPECT_EQ(at_b[0].src.ip, device_ip);
  EXPECT_NE(at_b[0].src, internal);
  EXPECT_EQ(shim.nat_mappings_created(), 1u);
  EXPECT_EQ(shim.mappings_active(), 1u);
  EXPECT_EQ(shim.owner_of(at_b[0].src), internal);

  // Reply to the mapping: translated back to the internal endpoint.
  ASSERT_TRUE(shim.send(*b, at_b[0].src, bytes_of("back"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return !at_a.empty(); });
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].payload, bytes_of("back"));
  EXPECT_EQ(at_a[0].dst, internal);
}

TEST(ShimNat, ConeFilteringDecidesWhoGetsIn) {
  for (const NatType type : {NatType::kFullCone, NatType::kPortRestrictedCone}) {
    UdpBackend backend;
    ShimStack shim(backend, backend, shim_config(backend, 7));

    const Endpoint internal{0x0A000001, 40000};
    ShimProfile profile;
    profile.nat = type;
    profile.device_ip = 0x7F030001;
    shim.set_profile(internal, profile);

    int at_a = 0;
    shim.attach(internal, [&](const Datagram&) { ++at_a; });
    auto b = backend.reserve_endpoint();
    auto stranger = backend.reserve_endpoint();
    ASSERT_TRUE(b && stranger);
    std::vector<Datagram> at_b;
    shim.attach(*b, [&](const Datagram& d) { at_b.push_back(d); });
    shim.attach(*stranger, [](const Datagram&) {});

    // A talks to b only; the stranger then pokes A's mapping.
    ASSERT_TRUE(shim.send(internal, *b, bytes_of("hi"), Proto::kApp));
    poll_until(backend, 2 * kSecond, [&] { return !at_b.empty(); });
    ASSERT_EQ(at_b.size(), 1u);
    const Endpoint mapping = at_b[0].src;
    ASSERT_TRUE(shim.send(*stranger, mapping, bytes_of("knock"), Proto::kApp));

    if (type == NatType::kFullCone) {
      // Full cone: anyone may use the mapping.
      poll_until(backend, 2 * kSecond, [&] { return at_a >= 1; });
      EXPECT_EQ(at_a, 1) << nat::nat_type_name(type);
      EXPECT_EQ(shim.nat_filtered(), 0u);
    } else {
      // Port-restricted: only endpoints A has sent to get through.
      poll_until(backend, 2 * kSecond, [&] { return shim.nat_filtered() >= 1; });
      EXPECT_EQ(shim.nat_filtered(), 1u) << nat::nat_type_name(type);
      EXPECT_EQ(at_a, 0);
    }
  }
}

TEST(ShimNat, SymmetricAllocatesDistinctPortPerDestination) {
  UdpBackend backend;
  ShimStack shim(backend, backend, shim_config(backend, 7));

  const Endpoint internal{0x0A000001, 40000};
  ShimProfile profile;
  profile.nat = NatType::kSymmetric;
  profile.device_ip = 0x7F030001;
  shim.set_profile(internal, profile);
  shim.attach(internal, [](const Datagram&) {});

  auto b = backend.reserve_endpoint();
  auto c = backend.reserve_endpoint();
  ASSERT_TRUE(b && c);
  std::set<std::uint16_t> seen_ports;
  shim.attach(*b, [&](const Datagram& d) { seen_ports.insert(d.src.port); });
  shim.attach(*c, [&](const Datagram& d) { seen_ports.insert(d.src.port); });

  ASSERT_TRUE(shim.send(internal, *b, bytes_of("1"), Proto::kApp));
  ASSERT_TRUE(shim.send(internal, *c, bytes_of("2"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return seen_ports.size() >= 2; });
  // Per-destination mappings: two sockets, two distinct external ports.
  EXPECT_EQ(seen_ports.size(), 2u);
  EXPECT_EQ(shim.nat_mappings_created(), 2u);
  EXPECT_EQ(shim.mappings_active(), 2u);
}

TEST(ShimNat, LeaseExpiryClosesMappingAndTrafficRefreshesIt) {
  UdpBackend backend;
  ShimConfig cfg = shim_config(backend, 7);
  cfg.nat.lease = 150 * kMillisecond;
  ShimStack shim(backend, backend, std::move(cfg));

  const Endpoint internal{0x0A000001, 40000};
  ShimProfile profile;
  profile.nat = NatType::kPortRestrictedCone;
  profile.device_ip = 0x7F030001;
  shim.set_profile(internal, profile);
  int at_a = 0;
  shim.attach(internal, [&](const Datagram&) { ++at_a; });
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(b);
  std::vector<Datagram> at_b;
  shim.attach(*b, [&](const Datagram& d) { at_b.push_back(d); });

  ASSERT_TRUE(shim.send(internal, *b, bytes_of("open"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return !at_b.empty(); });
  ASSERT_EQ(at_b.size(), 1u);
  const Endpoint mapping = at_b[0].src;

  // Outbound traffic inside the lease keeps the mapping alive and on the
  // same external port (refresh, not reallocation).
  for (int i = 0; i < 4; ++i) {
    poll_until(backend, 80 * kMillisecond, [] { return false; });
    ASSERT_TRUE(shim.send(internal, *b, bytes_of("keep"), Proto::kApp));
  }
  poll_until(backend, 2 * kSecond, [&] { return at_b.size() >= 5; });
  ASSERT_EQ(at_b.size(), 5u);
  EXPECT_EQ(at_b.back().src, mapping);
  EXPECT_EQ(shim.nat_expired(), 0u);
  EXPECT_EQ(shim.nat_mappings_created(), 1u);

  // Now go quiet past the lease: the mapping expires and its socket
  // closes, so inbound to the old external address dies at the device.
  poll_until(backend, 400 * kMillisecond,
             [&] { return shim.nat_expired() >= 1; });
  EXPECT_EQ(shim.nat_expired(), 1u);
  EXPECT_EQ(shim.mappings_active(), 0u);
  const int before = at_a;
  shim.send(*b, mapping, bytes_of("too-late"), Proto::kApp);
  poll_until(backend, 200 * kMillisecond, [] { return false; });
  EXPECT_EQ(at_a, before);

  // The next outbound opens a fresh mapping and traffic flows again.
  ASSERT_TRUE(shim.send(internal, *b, bytes_of("again"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return at_b.size() >= 6; });
  ASSERT_EQ(at_b.size(), 6u);
  EXPECT_EQ(shim.nat_mappings_created(), 2u);
}

TEST(ShimNat, RebootWipesMappingsAndNextSendRecovers) {
  UdpBackend backend;
  ShimStack shim(backend, backend, shim_config(backend, 7));

  const Endpoint internal{0x0A000001, 40000};
  ShimProfile profile;
  profile.nat = NatType::kSymmetric;
  profile.device_ip = 0x7F030001;
  shim.set_profile(internal, profile);
  shim.attach(internal, [](const Datagram&) {});
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(b);
  std::vector<Datagram> at_b;
  shim.attach(*b, [&](const Datagram& d) { at_b.push_back(d); });

  ASSERT_TRUE(shim.send(internal, *b, bytes_of("pre"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return !at_b.empty(); });
  ASSERT_EQ(at_b.size(), 1u);

  EXPECT_EQ(shim.nat_reboot(), 1u);
  EXPECT_EQ(shim.mappings_active(), 0u);
  EXPECT_EQ(shim.nat_reboots(), 1u);

  ASSERT_TRUE(shim.send(internal, *b, bytes_of("post"), Proto::kApp));
  poll_until(backend, 2 * kSecond, [&] { return at_b.size() >= 2; });
  ASSERT_EQ(at_b.size(), 2u);
  EXPECT_EQ(shim.nat_mappings_created(), 2u);
  EXPECT_EQ(shim.mappings_active(), 1u);
}

TEST(ShimImpair, TotalLossDeliversNothingAndCountsDrops) {
  UdpBackend backend;
  ShimStack shim(backend, backend, shim_config(backend, 7));
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b);
  ShimProfile profile;
  profile.impair.loss = 1.0;
  shim.set_profile(*a, profile);
  int received = 0;
  shim.attach(*a, [](const Datagram&) {});
  shim.attach(*b, [&](const Datagram&) { ++received; });
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(shim.send(*a, *b, bytes_of("void"), Proto::kApp));
  }
  poll_until(backend, 200 * kMillisecond, [] { return false; });
  EXPECT_EQ(received, 0);
  EXPECT_EQ(shim.impair_dropped(), 16u);
  EXPECT_EQ(backend.packets_sent(), 0u);
}

// A held copy leaves from a timer, after the sender's handler returned.
// The shim re-arms the trace context the send was made under, so the
// backend's wire_out carries the sender's trace.
TEST(ShimImpair, DelayedCopyKeepsTheSendersTrace) {
  UdpBackend backend;
  telemetry::FlightRecorder flight;
  flight.set_clock(clock_fn(backend));
  flight.set_enabled(true);
  ShimStack shim(backend, backend, shim_config(backend, 7));
  shim.set_flight(&flight);
  auto a = backend.reserve_endpoint();
  auto b = backend.reserve_endpoint();
  ASSERT_TRUE(a && b);
  ShimProfile profile;
  profile.impair.delay = 5 * kMillisecond;
  shim.set_profile(*a, profile);
  int received = 0;
  shim.attach(*a, [](const Datagram&) {});
  shim.attach(*b, [&](const Datagram&) { ++received; });

  telemetry::TraceContext ctx;
  ctx.trace_id = 77;
  ctx.layer = telemetry::TraceLayer::kApp;
  {
    telemetry::ScopedTraceContext armed(&flight, ctx);
    ASSERT_TRUE(shim.send(*a, *b, bytes_of("held"), Proto::kApp));
  }
  poll_until(backend, 2 * kSecond, [&] { return received >= 1; });
  ASSERT_EQ(received, 1);
  EXPECT_EQ(shim.impair_delayed(), 1u);
  std::vector<std::uint64_t> wire_out_traces;
  for (const telemetry::FlightEventRec& ev : flight.events()) {
    if (ev.kind == telemetry::FlightKind::kWireOut) wire_out_traces.push_back(ev.trace);
  }
  EXPECT_EQ(wire_out_traces, std::vector<std::uint64_t>{ctx.trace_id});
}

// --- Traversal over the shim: live transports ----------------------------

/// Transport timing scaled for wall-clock tests (mirrors
/// realtime_node_config()'s transport block).
nylon::TransportConfig fast_transport() {
  nylon::TransportConfig cfg;
  cfg.keepalive_period = kSecond;
  cfg.registration_ttl = 5 * kSecond;
  cfg.probe_min_interval = 150 * kMillisecond;
  cfg.route_ttl = 10 * kSecond;
  cfg.register_retry_initial = 100 * kMillisecond;
  return cfg;
}

/// A relay plus two (possibly natted) transports wired through one shim.
struct LivePair {
  UdpBackend backend;
  ShimStack shim;
  std::unique_ptr<nylon::Transport> relay;
  std::unique_ptr<nylon::Transport> a;
  std::unique_ptr<nylon::Transport> b;

  explicit LivePair(std::uint64_t seed, NatType type_a, NatType type_b,
                    ImpairConfig impair_a = {})
      : shim(backend, backend, shim_config(backend, seed)) {
    relay = add(1, NatType::kNone, {});
    a = add(2, type_a, impair_a);
    b = add(3, type_b, {});
    if (type_a != NatType::kNone) a->set_relay(relay->self_card());
    if (type_b != NatType::kNone) b->set_relay(relay->self_card());
  }

  std::unique_ptr<nylon::Transport> add(std::uint64_t id, NatType type,
                                        ImpairConfig impair) {
    Endpoint ep;
    if (type == NatType::kNone && !impair.any()) {
      const auto reserved = backend.reserve_endpoint();
      EXPECT_TRUE(reserved) << backend.last_error();
      ep = *reserved;
    } else if (type == NatType::kNone) {
      const auto reserved = backend.reserve_endpoint();
      EXPECT_TRUE(reserved) << backend.last_error();
      ep = *reserved;
      ShimProfile profile;
      profile.impair = impair;
      shim.set_profile(ep, profile);
    } else {
      ep = Endpoint{0x0A000000u + static_cast<std::uint32_t>(id), 40000};
      ShimProfile profile;
      profile.nat = type;
      profile.device_ip = 0x7F030000u + static_cast<std::uint32_t>(id);
      profile.impair = impair;
      shim.set_profile(ep, profile);
    }
    return std::make_unique<nylon::Transport>(backend, shim, NodeId{id}, ep,
                                              type == NatType::kNone,
                                              fast_transport());
  }

  void run_for(Time d) {
    const Time deadline = backend.now() + d;
    while (backend.now() < deadline) backend.poll(kTick);
  }
};

// Live 4x4 matrix: every NAT pairing delivers bidirectionally over real
// sockets, and punching converges exactly where device semantics allow.
class LiveNatMatrix
    : public ::testing::TestWithParam<std::tuple<NatType, NatType>> {};

TEST_P(LiveNatMatrix, DeliveryAlwaysPunchingWhereAllowed) {
  const auto [type_a, type_b] = GetParam();
  LivePair mesh(41, type_a, type_b);
  mesh.run_for(300 * kMillisecond);  // registration settles

  int a_got = 0, b_got = 0;
  mesh.a->register_handler(nylon::kTagApp,
                           [&](NodeId, BytesView) { ++a_got; });
  mesh.b->register_handler(nylon::kTagApp,
                           [&](NodeId, BytesView) { ++b_got; });

  // Several rounds in both directions; punching may reroute midway and
  // every message must still arrive.
  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    EXPECT_TRUE(
        mesh.a->send(mesh.b->self_card(), nylon::kTagApp, Bytes{1}, Proto::kApp));
    EXPECT_TRUE(
        mesh.b->send(mesh.a->self_card(), nylon::kTagApp, Bytes{2}, Proto::kApp));
    poll_until(mesh.backend, kSecond,
               [&] { return a_got > round && b_got > round; });
  }
  EXPECT_EQ(a_got, rounds);
  EXPECT_EQ(b_got, rounds);

  const auto is_cone = [](NatType t) {
    return t == NatType::kFullCone || t == NatType::kRestrictedCone ||
           t == NatType::kPortRestrictedCone;
  };
  if ((is_cone(type_a) || type_a == NatType::kNone) &&
      (is_cone(type_b) || type_b == NatType::kNone)) {
    // Cone/cone (or involving a public node): direct routes converge both
    // ways — give punching a little extra wall time if it hasn't yet.
    poll_until(mesh.backend, 2 * kSecond, [&] {
      return mesh.a->can_send_direct(NodeId{3}) &&
             mesh.b->can_send_direct(NodeId{2});
    });
    EXPECT_TRUE(mesh.a->can_send_direct(NodeId{3}));
    EXPECT_TRUE(mesh.b->can_send_direct(NodeId{2}));
  }
  if (type_a == NatType::kSymmetric && type_b == NatType::kSymmetric) {
    // Symmetric pairs can never punch: per-destination external ports.
    EXPECT_FALSE(mesh.a->can_send_direct(NodeId{3}));
    EXPECT_FALSE(mesh.b->can_send_direct(NodeId{2}));
    EXPECT_GT(mesh.a->sends_relayed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, LiveNatMatrix,
    ::testing::Combine(::testing::Values(NatType::kNone, NatType::kFullCone,
                                         NatType::kPortRestrictedCone,
                                         NatType::kSymmetric),
                       ::testing::Values(NatType::kNone, NatType::kFullCone,
                                         NatType::kPortRestrictedCone,
                                         NatType::kSymmetric)),
    [](const ::testing::TestParamInfo<std::tuple<NatType, NatType>>& info) {
      return std::string(nat::nat_type_name(std::get<0>(info.param))) + "_to_" +
             nat::nat_type_name(std::get<1>(info.param));
    });

// Registration retry under heavy egress loss: the initial register is the
// one packet between a natted node and unreachability; the fast retry path
// must land it anyway.
TEST(LiveTraversal, RegistrationSurvivesHeavyLoss) {
  ImpairConfig impair;
  impair.loss = 0.5;
  LivePair mesh(1203, NatType::kPortRestrictedCone, NatType::kNone, impair);
  poll_until(mesh.backend, 10 * kSecond, [&] { return mesh.a->registered(); });
  EXPECT_TRUE(mesh.a->registered());

  // And data still flows both ways through the registered mapping.
  int a_got = 0, b_got = 0;
  mesh.a->register_handler(nylon::kTagApp, [&](NodeId, BytesView) { ++a_got; });
  mesh.b->register_handler(nylon::kTagApp, [&](NodeId, BytesView) { ++b_got; });
  for (int round = 0; round < 8 && (a_got == 0 || b_got == 0); ++round) {
    mesh.a->send(mesh.b->self_card(), nylon::kTagApp, Bytes{1}, Proto::kApp);
    mesh.b->send(mesh.a->self_card(), nylon::kTagApp, Bytes{2}, Proto::kApp);
    poll_until(mesh.backend, kSecond, [&] { return a_got > 0 && b_got > 0; });
  }
  EXPECT_GT(a_got, 0);
  EXPECT_GT(b_got, 0);
  EXPECT_GT(mesh.shim.impair_dropped(), 0u);  // loss really bit
}

// Mapping lease shorter than the keepalive period: the mapping expires
// between keepalives, and the transport's next keepalive re-opens it —
// delivery keeps working across the expiry.
TEST(LiveTraversal, MappingExpiryIsRefreshedByKeepalives) {
  UdpBackend backend;
  ShimConfig cfg;
  cfg.seed = 78;
  cfg.nat.lease = 400 * kMillisecond;
  cfg.reserve = [&backend](std::uint32_t bind_ip) {
    return backend.reserve_endpoint_on(bind_ip);
  };
  ShimStack shim(backend, backend, std::move(cfg));
  const auto relay_ep = backend.reserve_endpoint();
  ASSERT_TRUE(relay_ep);
  nylon::TransportConfig tcfg = fast_transport();
  tcfg.keepalive_period = kSecond;  // > lease: every keepalive reopens
  nylon::Transport relay(backend, shim, NodeId{1}, *relay_ep, true, tcfg);
  const Endpoint internal{0x0A000002, 40000};
  ShimProfile profile;
  profile.nat = NatType::kPortRestrictedCone;
  profile.device_ip = 0x7F030002;
  shim.set_profile(internal, profile);
  nylon::Transport a(backend, shim, NodeId{2}, internal, false, tcfg);
  a.set_relay(relay.self_card());

  int relay_got = 0;
  relay.register_handler(nylon::kTagApp, [&](NodeId, BytesView) { ++relay_got; });
  const Time deadline = backend.now() + 4 * kSecond;
  while (backend.now() < deadline) backend.poll(kTick);

  // Mappings expired at least once and were re-created by later
  // keepalives; the node is still registered at the end.
  EXPECT_GE(shim.nat_expired(), 1u);
  EXPECT_GT(shim.nat_mappings_created(), 1u);  // re-opened after expiry
  EXPECT_TRUE(a.registered());
  a.send(relay.self_card(), nylon::kTagApp, Bytes{9}, Proto::kApp);
  poll_until(backend, 2 * kSecond, [&] { return relay_got >= 1; });
  EXPECT_GE(relay_got, 1);
}

}  // namespace
}  // namespace whisper::net
