#include "nat/nat.hpp"

#include <gtest/gtest.h>

namespace whisper::nat {
namespace {

Endpoint ep(std::uint32_t ip, std::uint16_t port = 5000) { return Endpoint{ip, port}; }

struct NatFixture : ::testing::Test {
  sim::Simulator sim;
  NatConfig config{};

  NatDevice make(NatType type) {
    return NatDevice(type, 0x64000001, config, [this] { return sim.now(); });
  }
};

TEST_F(NatFixture, OutboundAllocatesExternalEndpoint) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(1));
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->ip, 0x64000001u);
  EXPECT_GE(ext->port, config.base_port);
}

TEST_F(NatFixture, ConeMappingIsEndpointIndependent) {
  NatDevice dev = make(NatType::kRestrictedCone);
  auto ext1 = dev.outbound(ep(0x0a000001), ep(1));
  auto ext2 = dev.outbound(ep(0x0a000001), ep(2));
  EXPECT_EQ(*ext1, *ext2);  // same external port for all destinations
}

TEST_F(NatFixture, SymmetricAllocatesPerDestination) {
  NatDevice dev = make(NatType::kSymmetric);
  auto ext1 = dev.outbound(ep(0x0a000001), ep(1));
  auto ext2 = dev.outbound(ep(0x0a000001), ep(2));
  EXPECT_NE(ext1->port, ext2->port);
}

TEST_F(NatFixture, FullConeAcceptsAnySource) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(1));
  // A host never contacted can send in.
  auto internal = dev.inbound(ext->port, ep(42, 1234));
  ASSERT_TRUE(internal.has_value());
  EXPECT_EQ(*internal, ep(0x0a000001));
}

TEST_F(NatFixture, RestrictedConeFiltersByIp) {
  NatDevice dev = make(NatType::kRestrictedCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(7, 1000));
  // Same IP, different port: allowed.
  EXPECT_TRUE(dev.inbound(ext->port, ep(7, 9999)).has_value());
  // Different IP: dropped.
  EXPECT_FALSE(dev.inbound(ext->port, ep(8, 1000)).has_value());
}

TEST_F(NatFixture, PortRestrictedConeFiltersByEndpoint) {
  NatDevice dev = make(NatType::kPortRestrictedCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(7, 1000));
  EXPECT_TRUE(dev.inbound(ext->port, ep(7, 1000)).has_value());
  EXPECT_FALSE(dev.inbound(ext->port, ep(7, 9999)).has_value());
  EXPECT_FALSE(dev.inbound(ext->port, ep(8, 1000)).has_value());
}

TEST_F(NatFixture, SymmetricOnlyAcceptsTheMappedDestination) {
  NatDevice dev = make(NatType::kSymmetric);
  auto ext = dev.outbound(ep(0x0a000001), ep(7, 1000));
  EXPECT_TRUE(dev.inbound(ext->port, ep(7, 1000)).has_value());
  EXPECT_FALSE(dev.inbound(ext->port, ep(7, 1001)).has_value());
  EXPECT_FALSE(dev.inbound(ext->port, ep(9, 1000)).has_value());
}

TEST_F(NatFixture, UnknownPortDropped) {
  NatDevice dev = make(NatType::kFullCone);
  EXPECT_FALSE(dev.inbound(9999, ep(1)).has_value());
}

TEST_F(NatFixture, MappingExpiresAfterLease) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(1));
  sim.run_until(config.lease + 1);
  EXPECT_FALSE(dev.inbound(ext->port, ep(1)).has_value());
}

TEST_F(NatFixture, OutboundRefreshesLease) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(1));
  sim.run_until(config.lease - net::kSecond);
  dev.outbound(ep(0x0a000001), ep(1));  // refresh
  sim.run_until(config.lease + net::kMinute);
  EXPECT_TRUE(dev.inbound(ext->port, ep(1)).has_value());
}

TEST_F(NatFixture, ExpiredMappingReplacedWithFreshPort) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext1 = dev.outbound(ep(0x0a000001), ep(1));
  sim.run_until(config.lease + 1);
  auto ext2 = dev.outbound(ep(0x0a000001), ep(1));
  EXPECT_NE(ext1->port, ext2->port);
}

TEST_F(NatFixture, FilterAccumulatesDestinations) {
  NatDevice dev = make(NatType::kRestrictedCone);
  auto ext = dev.outbound(ep(0x0a000001), ep(7, 1));
  dev.outbound(ep(0x0a000001), ep(8, 1));
  EXPECT_TRUE(dev.inbound(ext->port, ep(7, 5)).has_value());
  EXPECT_TRUE(dev.inbound(ext->port, ep(8, 5)).has_value());
}

TEST_F(NatFixture, ActiveMappingsCount) {
  NatDevice dev = make(NatType::kSymmetric);
  dev.outbound(ep(0x0a000001), ep(1));
  dev.outbound(ep(0x0a000001), ep(2));
  EXPECT_EQ(dev.active_mappings(), 2u);
  sim.run_until(config.lease + 1);
  EXPECT_EQ(dev.active_mappings(), 0u);
}

TEST_F(NatFixture, MultipleInternalHostsShareDevice) {
  NatDevice dev = make(NatType::kFullCone);
  auto ext1 = dev.outbound(ep(0x0a000001), ep(1));
  auto ext2 = dev.outbound(ep(0x0a000002), ep(1));
  EXPECT_NE(ext1->port, ext2->port);
  EXPECT_EQ(*dev.inbound(ext1->port, ep(1)), ep(0x0a000001));
  EXPECT_EQ(*dev.inbound(ext2->port, ep(1)), ep(0x0a000002));
}

// --- Fabric-level behaviour. ---

struct FabricFixture : ::testing::Test {
  sim::Simulator sim;
  NatFabric fabric{sim};
};

TEST_F(FabricFixture, PublicNodesPassThrough) {
  Endpoint pub = fabric.add_public_node();
  EXPECT_TRUE(fabric.is_public(pub));
  EXPECT_EQ(*fabric.outbound(pub, ep(1)), pub);
  EXPECT_EQ(*fabric.inbound(pub, ep(1)), pub);
}

TEST_F(FabricFixture, NattedNodeGetsExternalMapping) {
  Endpoint internal = fabric.add_natted_node(NatType::kFullCone);
  EXPECT_FALSE(fabric.is_public(internal));
  auto ext = fabric.outbound(internal, ep(1));
  ASSERT_TRUE(ext.has_value());
  EXPECT_NE(ext->ip, internal.ip);
  // The external endpoint routes back to the internal node.
  EXPECT_EQ(*fabric.inbound(*ext, ep(1)), internal);
}

TEST_F(FabricFixture, EndToEndThroughTwoNats) {
  // a (port-restricted) talks to b (full cone) through both devices.
  Endpoint a = fabric.add_natted_node(NatType::kPortRestrictedCone);
  Endpoint b = fabric.add_natted_node(NatType::kFullCone);
  // b opens a mapping first (e.g. to a rendezvous), so it is reachable.
  auto b_ext = fabric.outbound(b, ep(1));
  // a sends to b's external endpoint.
  auto a_ext = fabric.outbound(a, *b_ext);
  ASSERT_TRUE(a_ext.has_value());
  EXPECT_EQ(*fabric.inbound(*b_ext, *a_ext), b);  // full cone lets it in
  // b replies to a's external endpoint: port-restricted, and a contacted
  // exactly b_ext, so the reply from b_ext passes.
  auto b_ext2 = fabric.outbound(b, *a_ext);
  EXPECT_EQ(*fabric.inbound(*a_ext, *b_ext2), a);
}

TEST_F(FabricFixture, SymmetricBlocksUnexpectedReply) {
  Endpoint a = fabric.add_natted_node(NatType::kSymmetric);
  auto a_ext = fabric.outbound(a, ep(50, 1000));
  // Reply from a different endpoint than the mapped destination: dropped.
  EXPECT_FALSE(fabric.inbound(*a_ext, ep(51, 1000)).has_value());
}

TEST_F(FabricFixture, TypeOfReportsConfiguredType) {
  Endpoint a = fabric.add_natted_node(NatType::kSymmetric);
  Endpoint b = fabric.add_public_node();
  EXPECT_EQ(fabric.type_of(a), NatType::kSymmetric);
  EXPECT_EQ(fabric.type_of(b), NatType::kNone);
}

TEST_F(FabricFixture, RemoveNodeForgetsBookkeeping) {
  Endpoint a = fabric.add_natted_node(NatType::kFullCone);
  fabric.remove_node(a);
  EXPECT_EQ(fabric.type_of(a), NatType::kNone);
  EXPECT_FALSE(fabric.is_public(a));
}

TEST(DrawNatType, RespectsNattedFraction) {
  Rng rng(9);
  int natted = 0;
  const int n = 10000;
  int per_type[5] = {};
  for (int i = 0; i < n; ++i) {
    NatType t = draw_nat_type(rng, 0.7);
    if (t != NatType::kNone) ++natted;
    ++per_type[static_cast<int>(t)];
  }
  EXPECT_NEAR(static_cast<double>(natted) / n, 0.7, 0.02);
  // Even split across the 4 types (±3%).
  for (int t = 1; t <= 4; ++t) {
    EXPECT_NEAR(static_cast<double>(per_type[t]) / n, 0.175, 0.03);
  }
}

TEST(DrawNatType, ZeroFractionAllPublic) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(draw_nat_type(rng, 0.0), NatType::kNone);
}

}  // namespace
}  // namespace whisper::nat
