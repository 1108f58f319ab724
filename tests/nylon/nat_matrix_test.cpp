// Reachability matrix: every combination of NAT types must deliver through
// relays, and hole punching must succeed exactly where the device
// behaviours allow it (cone/cone pairs) and never between two symmetric
// NATs — the emulation decides, the protocol only probes.
#include <gtest/gtest.h>

#include "nat/nat.hpp"
#include "nylon/transport.hpp"

namespace whisper::nylon {
namespace {

using nat::NatType;

class NatMatrix : public ::testing::TestWithParam<std::tuple<NatType, NatType>> {
 protected:
  sim::Simulator sim;
  nat::NatFabric fabric{sim};
  sim::Network net{sim, std::make_unique<sim::FixedLatency>(net::kMillisecond), 13};
  std::vector<std::unique_ptr<Transport>> transports;

  NatMatrix() { net.set_translator(&fabric); }

  Transport& add(std::uint64_t id, NatType type) {
    Endpoint ep = type == NatType::kNone ? fabric.add_public_node()
                                         : fabric.add_natted_node(type);
    transports.push_back(
        std::make_unique<Transport>(sim, net, NodeId{id}, ep, type == NatType::kNone));
    return *transports.back();
  }
};

TEST_P(NatMatrix, BidirectionalDeliveryThroughRelays) {
  const auto [type_a, type_b] = GetParam();
  Transport& relay = add(1, NatType::kNone);
  Transport& a = add(2, type_a);
  Transport& b = add(3, type_b);
  if (type_a != NatType::kNone) a.set_relay(relay.self_card());
  if (type_b != NatType::kNone) b.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);

  int a_got = 0, b_got = 0;
  a.register_handler(kTagApp, [&](NodeId, BytesView) { ++a_got; });
  b.register_handler(kTagApp, [&](NodeId, BytesView) { ++b_got; });

  // Several rounds in both directions (punching may reroute midway; every
  // message must still arrive).
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
    EXPECT_TRUE(b.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp));
    sim.run_until(sim.now() + 10 * net::kSecond);
  }
  EXPECT_EQ(a_got, 4);
  EXPECT_EQ(b_got, 4);
}

TEST_P(NatMatrix, HolePunchingMatchesDeviceSemantics) {
  const auto [type_a, type_b] = GetParam();
  Transport& relay = add(1, NatType::kNone);
  Transport& a = add(2, type_a);
  Transport& b = add(3, type_b);
  if (type_a != NatType::kNone) a.set_relay(relay.self_card());
  if (type_b != NatType::kNone) b.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);

  for (int round = 0; round < 6; ++round) {
    a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp);
    b.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp);
    sim.run_until(sim.now() + 10 * net::kSecond);
  }

  auto is_cone = [](NatType t) {
    return t == NatType::kFullCone || t == NatType::kRestrictedCone ||
           t == NatType::kPortRestrictedCone;
  };
  if ((is_cone(type_a) || type_a == NatType::kNone) &&
      (is_cone(type_b) || type_b == NatType::kNone)) {
    // Cone/cone (or involving a public node): punching converges both ways.
    EXPECT_TRUE(a.can_send_direct(NodeId{3}));
    EXPECT_TRUE(b.can_send_direct(NodeId{2}));
  }
  if (type_a == NatType::kSymmetric && type_b == NatType::kSymmetric) {
    // Symmetric/symmetric: per-destination ports make punching impossible.
    EXPECT_FALSE(a.can_send_direct(NodeId{3}));
    EXPECT_FALSE(b.can_send_direct(NodeId{2}));
  }
  // Mixed symmetric/cone pairs: direction-dependent (decided by the
  // emulation); delivery is covered by the relay test either way.
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, NatMatrix,
    ::testing::Combine(::testing::Values(NatType::kNone, NatType::kFullCone,
                                         NatType::kRestrictedCone,
                                         NatType::kPortRestrictedCone, NatType::kSymmetric),
                       ::testing::Values(NatType::kNone, NatType::kFullCone,
                                         NatType::kRestrictedCone,
                                         NatType::kPortRestrictedCone, NatType::kSymmetric)),
    [](const ::testing::TestParamInfo<std::tuple<NatType, NatType>>& info) {
      return std::string(nat::nat_type_name(std::get<0>(info.param))) + "_to_" +
             nat::nat_type_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace whisper::nylon
