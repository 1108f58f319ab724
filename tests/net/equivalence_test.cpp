// Cross-backend equivalence: the quickstart scenario — bootstrap a mesh,
// found a private group, invite a member, exchange onion-routed
// application messages — run once on the deterministic simulator and once
// on the real UDP/epoll backend over loopback. The protocol stack is the
// same code against the same SPI; this test pins the observable outcome:
// identical delivered payload bytes, identical group membership and the
// same protocol metric names. The LiveWcl test checks what differs by
// design: on the wall clock the flight log's onion crypto slices are
// measured, not modeled.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "whisper/realnet.hpp"
#include "whisper/scale.hpp"

namespace whisper {
namespace {

constexpr std::size_t kNodes = 8;

struct ScenarioOutcome {
  bool alice_joined = false;
  bool bob_joined = false;
  bool passport_ok = false;
  std::vector<Bytes> alice_got;
  std::vector<Bytes> bob_got;
  std::set<std::string> metric_names;  // the backend's registry after the run
};

std::set<std::string> names_of(const telemetry::Registry& registry) {
  std::set<std::string> out;
  for (const auto& [key, entry] : registry.entries()) out.emplace(entry.name);
  return out;
}

/// The quickstart exchange against any pair of booted nodes. `run`
/// advances the backend (virtual time under sim, wall time under UDP).
template <typename RunFn>
ScenarioOutcome run_scenario(WhisperNode& alice, WhisperNode& bob, RunFn run) {
  ScenarioOutcome out;
  const GroupId group{1};
  crypto::Drbg drbg(42);
  ppss::Ppss& alice_group =
      alice.create_group(group, crypto::RsaKeyPair::generate(512, drbg));
  auto invitation = alice_group.invite(bob.id());
  if (!invitation) return out;
  ppss::Ppss& bob_group =
      bob.join_group(group, *invitation, alice_group.self_descriptor());
  run(3 * net::kSecond);

  bob_group.on_app_message = [&](const wcl::RemotePeer& from, BytesView p) {
    out.bob_got.emplace_back(p.begin(), p.end());
    bob_group.send_app_to(from, to_bytes("psst! got it."));
  };
  alice_group.on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    out.alice_got.emplace_back(p.begin(), p.end());
  };
  alice_group.send_app_to(bob_group.self_descriptor(),
                          to_bytes("meet at the usual place"));
  run(4 * net::kSecond);

  out.alice_joined = alice_group.joined();
  out.bob_joined = bob_group.joined();
  out.passport_ok = bob_group.keyring().verify_passport(bob_group.passport());
  return out;
}

ScenarioOutcome run_on_simulator() {
  ScaleConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.natted_fraction = 0;  // loopback has no NAT; keep the meshes alike
  cfg.latency = "cluster";
  cfg.node = realtime_node_config();
  cfg.seed = 7;
  ScaleTestbed tb(cfg);
  tb.run_for(5 * net::kSecond);
  auto nodes = tb.alive_nodes();
  ScenarioOutcome out = run_scenario(*nodes[0], *nodes[1],
                                     [&](net::Time d) { tb.run_for(d); });
  out.metric_names = names_of(tb.registry(0));
  return out;
}

ScenarioOutcome run_on_udp() {
  UdpMesh mesh;
  for (std::size_t i = 0; i < kNodes; ++i) {
    WhisperNode* n = mesh.spawn_node();
    EXPECT_NE(n, nullptr) << mesh.backend().last_error();
    if (n == nullptr) return {};
  }
  mesh.run_for(5 * net::kSecond);
  auto nodes = mesh.nodes();
  ScenarioOutcome out = run_scenario(*nodes[0], *nodes[1],
                                     [&](net::Time d) { mesh.run_for(d); });
  out.metric_names = names_of(mesh.registry());
  return out;
}

TEST(CrossBackendEquivalence, QuickstartDeliversIdenticalBytesAndMembership) {
  const ScenarioOutcome sim = run_on_simulator();
  const ScenarioOutcome udp = run_on_udp();

  // Membership converges identically.
  EXPECT_TRUE(sim.alice_joined);
  EXPECT_TRUE(sim.bob_joined);
  EXPECT_TRUE(sim.passport_ok);
  EXPECT_EQ(sim.alice_joined, udp.alice_joined);
  EXPECT_EQ(sim.bob_joined, udp.bob_joined);
  EXPECT_EQ(sim.passport_ok, udp.passport_ok);

  // The delivered application payloads are byte-identical across backends.
  ASSERT_EQ(sim.bob_got.size(), 1u);
  ASSERT_EQ(sim.alice_got.size(), 1u);
  EXPECT_EQ(sim.bob_got, udp.bob_got);
  EXPECT_EQ(sim.alice_got, udp.alice_got);
  EXPECT_EQ(sim.bob_got[0], to_bytes("meet at the usual place"));
  EXPECT_EQ(sim.alice_got[0], to_bytes("psst! got it."));
}

// Metric names are one vocabulary: every name under a protocol layer's
// prefix exists on both backends, because each layer registers what it
// counts whichever backend carries it. A name on one backend only must be
// in a family listed here, with the reason it has no counterpart.
TEST(CrossBackendEquivalence, ProtocolMetricNamesExistOnBothBackends) {
  constexpr std::string_view kProtocolPrefixes[] = {"pss.",  "nylon.", "keysvc.", "wcl.",
                                                    "ppss.", "chord.", "net."};
  struct BackendOnly {
    std::string_view family;  // a prefix ending in '.', or one whole name
    std::string_view why;
  };
  constexpr BackendOnly kBackendOnly[] = {
      {"sim.", "the simulator's event loop"},
      {"net.node.bytes", "per-node byte series, kept only by the simulator"},
      {"udp.", "kernel receive-queue drops and rejected frames of real sockets"},
      {"shim.", "the live NAT and impairment emulator"},
      {"proc.", "CPU time and resident set of a daemon process"},
  };
  const auto backend_only = [&](const std::string& name) {
    for (const BackendOnly& b : kBackendOnly) {
      if (b.family.back() == '.' ? name.starts_with(b.family) : name == b.family) return true;
    }
    return false;
  };

  const ScenarioOutcome sim = run_on_simulator();
  const ScenarioOutcome udp = run_on_udp();
  for (const auto& [mine, theirs, backend] :
       {std::tuple{&sim.metric_names, &udp.metric_names, "simulator"},
        std::tuple{&udp.metric_names, &sim.metric_names, "UDP backend"}}) {
    for (const std::string& name : *mine) {
      if (theirs->contains(name) || backend_only(name)) continue;
      const bool protocol = std::any_of(std::begin(kProtocolPrefixes),
                                        std::end(kProtocolPrefixes),
                                        [&](std::string_view p) { return name.starts_with(p); });
      ADD_FAILURE() << (protocol ? "protocol" : "unlisted") << " metric " << name
                    << " exists on the " << backend << " only";
    }
  }
  // Not vacuous: both exports carry the layers' and the shared net.* names.
  for (const char* name : {"net.bytes", "net.packets.dropped", "nylon.sends.relayed",
                           "pss.exchanges.completed", "wcl.onions.delivered",
                           "ppss.joins.served"}) {
    EXPECT_TRUE(sim.metric_names.contains(name)) << name;
    EXPECT_TRUE(udp.metric_names.contains(name)) << name;
  }
}

// On a wall clock WCL waits out no modeled crypto cost. Each `crypto` slice
// is the onion crypto its node's CpuMeter measured (AES and RSA for a build
// or an open, RSA for a peel), so a node's slices add up to its meter's
// AES, RSA-encrypt and RSA-decrypt totals, give or take the 1 us each
// charge rounds to. Each delivered record decomposes exactly: crypto +
// propagation + node time == RTT.
TEST(LiveWcl, CryptoSlicesAreMeasuredAndDeliveredRecordsDecomposeExactly) {
  constexpr int kMessages = 12;
  UdpMesh::Config cfg;
  cfg.flight = true;
  cfg.backend.trace_wire = true;  // receivers log wire_in and peel under the trace
  UdpMesh mesh(cfg);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_NE(mesh.spawn_node(), nullptr) << mesh.backend().last_error();
  }
  mesh.run_for(5 * net::kSecond);

  auto nodes = mesh.nodes();
  crypto::Drbg drbg(42);
  ppss::Ppss& alice =
      nodes[0]->create_group(GroupId{1}, crypto::RsaKeyPair::generate(512, drbg));
  auto invitation = alice.invite(nodes[1]->id());
  ASSERT_TRUE(invitation.has_value());
  ppss::Ppss& bob = nodes[1]->join_group(GroupId{1}, *invitation, alice.self_descriptor());
  for (int i = 0; i < 40 && !bob.joined(); ++i) mesh.run_for(250 * net::kMillisecond);
  ASSERT_TRUE(bob.joined());

  int got = 0;
  bob.on_app_message = [&](const wcl::RemotePeer&, BytesView) { ++got; };
  for (int i = 0; i < kMessages; ++i) {
    alice.send_app_to(bob.self_descriptor(), to_bytes("ping"));
    mesh.run_for(50 * net::kMillisecond);
  }
  mesh.run_for(net::kSecond);
  EXPECT_EQ(got, kMessages);

  std::set<std::uint64_t> delivered;
  for (const telemetry::FlightRecord& rec : mesh.flight().assemble()) {
    if (rec.layer != telemetry::TraceLayer::kWcl || rec.outcome != "delivered") continue;
    delivered.insert(rec.trace_id);
    EXPECT_EQ(rec.decomposed_us(), rec.rtt_us) << "trace " << rec.trace_id;
  }
  EXPECT_GE(delivered.size(), static_cast<std::size_t>(kMessages));
  std::map<std::uint64_t, std::uint64_t> sliced_us;  // by node id
  std::size_t slices = 0;
  for (const telemetry::FlightEventRec& ev : mesh.flight().events()) {
    if (ev.kind != telemetry::FlightKind::kCrypto) continue;
    sliced_us[ev.node] += ev.dur;
    if (delivered.contains(ev.trace)) ++slices;
  }
  // A build, two peels and an open per delivered message.
  EXPECT_GE(slices, 4 * delivered.size());
  for (WhisperNode* n : mesh.nodes()) {
    std::uint64_t spent = 0, ops = 0;
    for (const net::CpuCategory cat : {net::CpuCategory::kAes, net::CpuCategory::kRsaEncrypt,
                                       net::CpuCategory::kRsaDecrypt}) {
      spent += n->cpu().spent(cat);
      ops += n->cpu().ops(cat);
    }
    const std::uint64_t sliced = sliced_us[n->id().value];
    EXPECT_LE(sliced, spent + ops) << "node " << n->id().value;
    EXPECT_GE(sliced + ops, spent) << "node " << n->id().value;
  }
}

}  // namespace
}  // namespace whisper
