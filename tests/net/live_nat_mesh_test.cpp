// The in-process NAT mesh (DESIGN.md §16.3): UdpMesh boots every node
// through boot_live_node, the builder whisper_noded boots through, so a
// mixed-NAT live mesh runs in one process. The mix and impairment are the
// nat-localnet CI job's: node 1 public; 30 % symmetric, 30 %
// port-restricted and 20 % full-cone nodes behind emulated NATs; 5 %
// egress loss and 20±10 ms delay on every node. The leader founds a group,
// every member sends it an onion-routed ping until its pong returns, as
// whisper_noded's members do, and re-sends a join that lapsed: PPSS gives
// a join three tries, 1.5 s on this clock, and drops a later response.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "whisper/realnet.hpp"

namespace whisper {
namespace {

constexpr std::size_t kNodes = 20;
constexpr net::Time kSlice = 50 * net::kMillisecond;
/// As whisper_noded: the leader founds the group once gossip has spread
/// the public keys.
constexpr net::Time kFoundAt = 3 * net::kSecond;
constexpr net::Time kDeliverWithin = 15 * net::kSecond;
constexpr net::Time kPingEvery = net::kSecond;
constexpr net::Time kRejoinEvery = 3 * net::kSecond;

struct Outcome {
  std::set<std::uint64_t> pinged;  // members whose ping reached the leader
  std::set<std::uint64_t> ponged;  // members whose pong came back
  std::vector<std::string> leaks;  // cards that carry a 10/8 address
  std::size_t wire_events = 0;
  std::size_t unnamed = 0;         // wire events that name node 0
};

bool internal_address(const pss::ContactCard& card) { return (card.addr.ip >> 24) == 10; }

/// NAT types dealt as whisper_localnet deals them: ids 2..N in a seeded
/// order, then 30 % symmetric, 30 % port-restricted, 20 % full cone; the
/// rest stay public.
std::vector<nat::NatType> deal_nat_types(std::uint64_t seed) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 2; i <= kNodes; ++i) ids.push_back(i);
  Rng rng(seed);
  rng.shuffle(ids);
  std::vector<nat::NatType> type(kNodes + 1, nat::NatType::kNone);
  std::size_t next = 0;
  const std::pair<nat::NatType, std::size_t> mix[] = {
      {nat::NatType::kSymmetric, kNodes * 3 / 10},
      {nat::NatType::kPortRestrictedCone, kNodes * 3 / 10},
      {nat::NatType::kFullCone, kNodes * 2 / 10}};
  for (const auto& [nat_type, count] : mix) {
    for (std::size_t k = 0; k < count; ++k) type[ids[next++]] = nat_type;
  }
  return type;
}

Outcome run_mesh(std::uint64_t seed) {
  Outcome out;
  UdpMesh::Config cfg;
  cfg.seed = seed;
  cfg.flight = true;
  cfg.backend.trace_wire = true;  // receivers log wire_in as well
  UdpMesh mesh(cfg);
  const std::vector<nat::NatType> type = deal_nat_types(seed);
  for (std::size_t i = 1; i <= kNodes; ++i) {
    net::ShimProfile profile;
    profile.nat = type[i];
    profile.impair.loss = 0.05;
    profile.impair.delay = 20 * net::kMillisecond;
    profile.impair.jitter = 10 * net::kMillisecond;
    if (mesh.spawn_node(profile) == nullptr) {
      ADD_FAILURE() << "spawn: " << mesh.backend().last_error();
      return out;
    }
  }
  mesh.run_for(kFoundAt);

  std::vector<WhisperNode*> nodes = mesh.nodes();
  const GroupId gid{1};
  crypto::Drbg drbg(seed);
  ppss::Ppss& leader = nodes[0]->create_group(gid, crypto::RsaKeyPair::generate(512, drbg));
  leader.on_app_message = [&](const wcl::RemotePeer& from, BytesView p) {
    const std::string text(p.begin(), p.end());
    if (text.rfind("ping ", 0) != 0) return;
    out.pinged.insert(std::stoull(text.substr(5)));
    leader.send_app_to(from, to_bytes("pong " + text.substr(5)));
  };
  std::vector<ppss::Ppss*> members;
  std::vector<ppss::Accreditation> invites;
  for (std::size_t i = 1; i < kNodes; ++i) {
    const std::uint64_t id = nodes[i]->id().value;
    invites.push_back(*leader.invite(nodes[i]->id()));
    ppss::Ppss& m = nodes[i]->join_group(gid, invites.back(), leader.self_descriptor());
    m.on_app_message = [&out, id](const wcl::RemotePeer&, BytesView p) {
      if (std::string(p.begin(), p.end()) == "pong " + std::to_string(id)) out.ponged.insert(id);
    };
    members.push_back(&m);
  }

  const net::Time founded = mesh.clock().now();
  std::vector<net::Time> next_ping(members.size(), 0);
  std::vector<net::Time> next_join(members.size(), founded + kRejoinEvery);
  while (out.ponged.size() < kNodes - 1 && mesh.clock().now() < founded + kDeliverWithin) {
    const net::Time now = mesh.clock().now();
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::uint64_t id = nodes[k + 1]->id().value;
      if (!members[k]->joined()) {
        if (now < next_join[k]) continue;
        members[k]->join(invites[k], leader.self_descriptor());
        next_join[k] = now + kRejoinEvery;
        continue;
      }
      if (out.ponged.contains(id) || now < next_ping[k]) continue;
      members[k]->send_app_to(leader.self_descriptor(), to_bytes("ping " + std::to_string(id)));
      next_ping[k] = now + kPingEvery;
    }
    mesh.run_for(kSlice);
  }

  for (WhisperNode* n : nodes) {
    const pss::ContactCard self = n->transport().self_card();
    if (internal_address(self)) {
      out.leaks.push_back("node " + std::to_string(n->id().value) + " self " + self.addr.str());
    }
    for (const nylon::PssEntry& e : n->pss().view().entries()) {
      if (internal_address(e.card)) {
        out.leaks.push_back("node " + std::to_string(n->id().value) + " views " +
                            std::to_string(e.card.id.value) + " at " + e.card.addr.str());
      }
    }
  }
  for (const telemetry::FlightEventRec& ev : mesh.flight().events()) {
    if (ev.kind != telemetry::FlightKind::kWireOut && ev.kind != telemetry::FlightKind::kWireIn) {
      continue;
    }
    ++out.wire_events;
    if (ev.node == 0) ++out.unnamed;
  }
  return out;
}

TEST(LiveNatMesh, EveryMemberPingsTheLeaderAndNoCardLeaksAnInternalAddress) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome out = run_mesh(seed);
    std::printf("seed %llu: pings %zu/%zu, pongs %zu/%zu, leaking cards %zu, "
                "wire events naming node 0: %zu/%zu\n",
                static_cast<unsigned long long>(seed), out.pinged.size(), kNodes - 1,
                out.ponged.size(), kNodes - 1, out.leaks.size(), out.unnamed,
                out.wire_events);
    EXPECT_EQ(out.pinged.size(), kNodes - 1);
    EXPECT_EQ(out.ponged.size(), kNodes - 1);
    EXPECT_TRUE(out.leaks.empty()) << out.leaks.front();
    EXPECT_GT(out.wire_events, 0u);
    EXPECT_EQ(out.unnamed, 0u);
  }
}

}  // namespace
}  // namespace whisper
