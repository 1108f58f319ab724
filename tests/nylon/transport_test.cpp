#include "nylon/transport.hpp"

#include <gtest/gtest.h>

#include "nat/nat.hpp"

namespace whisper::nylon {
namespace {

// Harness: a network with a NAT fabric and manually wired transports.
struct TransportFixture : ::testing::Test {
  sim::Simulator sim;
  nat::NatFabric fabric{sim};
  sim::Network net{sim, std::make_unique<sim::FixedLatency>(net::kMillisecond), 7};

  std::vector<std::unique_ptr<Transport>> transports;

  TransportFixture() { net.set_translator(&fabric); }

  Transport& add_public(std::uint64_t id) {
    Endpoint ep = fabric.add_public_node();
    transports.push_back(std::make_unique<Transport>(sim, net, NodeId{id}, ep, true));
    return *transports.back();
  }

  Transport& add_public_inc(std::uint64_t id, std::uint32_t incarnation,
                            TransportConfig cfg = {}) {
    Endpoint ep = fabric.add_public_node();
    cfg.incarnation = incarnation;
    transports.push_back(std::make_unique<Transport>(sim, net, NodeId{id}, ep, true, cfg));
    return *transports.back();
  }

  Transport& add_natted(std::uint64_t id, nat::NatType type) {
    Endpoint ep = fabric.add_natted_node(type);
    transports.push_back(std::make_unique<Transport>(sim, net, NodeId{id}, ep, false));
    return *transports.back();
  }

  static std::vector<std::pair<NodeId, Bytes>>& inbox(Transport& t) {
    static std::unordered_map<Transport*, std::vector<std::pair<NodeId, Bytes>>> boxes;
    return boxes[&t];
  }

  void collect(Transport& t) {
    inbox(t).clear();
    t.register_handler(kTagApp, [&t](NodeId from, BytesView p) {
      inbox(t).emplace_back(from, Bytes(p.begin(), p.end()));
    });
  }
};

TEST_F(TransportFixture, PublicToPublicDirect) {
  Transport& a = add_public(1);
  Transport& b = add_public(2);
  collect(b);
  EXPECT_TRUE(a.send(b.self_card(), kTagApp, Bytes{9}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(b).size(), 1u);
  EXPECT_EQ(inbox(b)[0].first, NodeId{1});
  EXPECT_EQ(inbox(b)[0].second, Bytes{9});
}

TEST_F(TransportFixture, SelfCardReflectsRole) {
  Transport& p = add_public(1);
  EXPECT_TRUE(p.self_card().is_public);
  EXPECT_TRUE(p.self_card().relay_id.is_nil());

  Transport& relay = add_public(2);
  Transport& n = add_natted(3, nat::NatType::kFullCone);
  n.set_relay(relay.self_card());
  EXPECT_FALSE(n.self_card().is_public);
  EXPECT_EQ(n.self_card().relay_id, NodeId{2});
  EXPECT_EQ(n.self_card().addr, relay.self_card().addr);
}

TEST_F(TransportFixture, NattedReachableViaRelay) {
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kSymmetric);  // sym: relay is the only way
  Transport& sender = add_public(3);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);  // registration settles
  collect(n);
  EXPECT_TRUE(sender.send(n.self_card(), kTagApp, Bytes{5}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(n).size(), 1u);
  EXPECT_EQ(inbox(n)[0].first, NodeId{3});
}

TEST_F(TransportFixture, RelayLostWithoutAcks) {
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kFullCone);
  EXPECT_TRUE(n.relay_lost());  // no relay set yet
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  EXPECT_FALSE(n.relay_lost());
  // Kill the relay: keepalives go unanswered.
  relay.shutdown();
  sim.run_until(sim.now() + 5 * net::kMinute);
  EXPECT_TRUE(n.relay_lost());
}

TEST_F(TransportFixture, RegistrationExpiresAtRelay) {
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kFullCone);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  EXPECT_EQ(relay.relayed_registrations(), 1u);
  // Stop the N-node: registration decays.
  n.shutdown();
  sim.run_until(sim.now() + 3 * net::kMinute);
  EXPECT_EQ(relay.relayed_registrations(), 0u);
}

TEST_F(TransportFixture, HolePunchingConeToCone) {
  Transport& relay = add_public(1);
  Transport& a = add_natted(2, nat::NatType::kFullCone);
  Transport& b = add_natted(3, nat::NatType::kRestrictedCone);
  a.set_relay(relay.self_card());
  b.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  collect(a);
  collect(b);

  // Exchange a few messages via relays; probes piggyback and punch.
  for (int i = 0; i < 3; ++i) {
    a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp);
    b.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp);
    sim.run_until(sim.now() + 10 * net::kSecond);
  }
  EXPECT_TRUE(a.can_send_direct(NodeId{3}));
  EXPECT_TRUE(b.can_send_direct(NodeId{2}));
  // And the direct route actually delivers.
  const std::size_t before = inbox(b).size();
  a.send(b.self_card(), kTagApp, Bytes{7}, net::Proto::kApp);
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_EQ(inbox(b).size(), before + 1);
}

TEST_F(TransportFixture, NoDirectRouteBetweenSymmetricPair) {
  Transport& relay = add_public(1);
  Transport& a = add_natted(2, nat::NatType::kSymmetric);
  Transport& b = add_natted(3, nat::NatType::kSymmetric);
  a.set_relay(relay.self_card());
  b.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  collect(b);
  for (int i = 0; i < 5; ++i) {
    a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp);
    b.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp);
    sim.run_until(sim.now() + 10 * net::kSecond);
  }
  // Punching cannot work through two symmetric NATs...
  EXPECT_FALSE(a.can_send_direct(NodeId{3}));
  // ...but relay delivery still does.
  const std::size_t before = inbox(b).size();
  a.send(b.self_card(), kTagApp, Bytes{9}, net::Proto::kApp);
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_EQ(inbox(b).size(), before + 1);
}

TEST_F(TransportFixture, NattedToNattedViaRelays) {
  Transport& r1 = add_public(1);
  Transport& r2 = add_public(2);
  Transport& a = add_natted(3, nat::NatType::kSymmetric);
  Transport& b = add_natted(4, nat::NatType::kPortRestrictedCone);
  a.set_relay(r1.self_card());
  b.set_relay(r2.self_card());
  sim.run_until(sim.now() + net::kSecond);
  collect(b);
  EXPECT_TRUE(a.send(b.self_card(), kTagApp, Bytes{1, 2}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(b).size(), 1u);
  EXPECT_EQ(inbox(b)[0].first, NodeId{3});
}

TEST_F(TransportFixture, ShutdownStopsDelivery) {
  Transport& a = add_public(1);
  Transport& b = add_public(2);
  collect(b);
  b.shutdown();
  a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp);
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_TRUE(inbox(b).empty());
  EXPECT_FALSE(b.running());
}

TEST_F(TransportFixture, SendToNilCardFails) {
  Transport& a = add_public(1);
  pss::ContactCard nil_card;
  EXPECT_FALSE(a.send(nil_card, kTagApp, Bytes{1}, net::Proto::kApp));
}

TEST_F(TransportFixture, UnknownTagSilentlyIgnored) {
  Transport& a = add_public(1);
  Transport& b = add_public(2);
  // No handler registered for kTagApp on b.
  EXPECT_TRUE(a.send(b.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
  sim.run();  // must not crash
}

TEST_F(TransportFixture, RelayServesItsOwnRegistrants) {
  // The relay itself sends to a node registered with it (card case 3).
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kSymmetric);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  collect(n);
  EXPECT_TRUE(relay.send(n.self_card(), kTagApp, Bytes{3}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(n).size(), 1u);
}

TEST_F(TransportFixture, RelayCrashDetectedWithinThresholdKeepalives) {
  // Regression for relay failover: a crashed relay must be declared lost
  // (and on_relay_lost fired) within relay_loss_threshold keepalive periods
  // of the crash — detection must not be slowed by the backoff logic.
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kFullCone);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  ASSERT_FALSE(n.relay_lost());

  net::Time detected_at = 0;
  n.on_relay_lost = [&] { detected_at = sim.now(); };
  const net::Time crash_at = sim.now();
  relay.shutdown();
  sim.run_until(sim.now() + 10 * net::kMinute);

  ASSERT_NE(detected_at, 0u) << "on_relay_lost never fired";
  const TransportConfig cfg{};  // defaults match what add_natted built
  EXPECT_LE(detected_at - crash_at,
            static_cast<net::Time>(kRelayLossThreshold) * cfg.keepalive_period +
                net::kSecond);
  EXPECT_EQ(n.relays_lost(), 1u);
}

TEST_F(TransportFixture, RelayFailoverReRegistersAndRestoresDelivery) {
  Transport& dead_relay = add_public(1);
  Transport& backup = add_public(2);
  Transport& n = add_natted(3, nat::NatType::kSymmetric);  // relay is the only path
  Transport& sender = add_public(4);
  n.set_relay(dead_relay.self_card());
  sim.run_until(sim.now() + net::kSecond);

  // Failover hook the PSS would install: promote the backup on loss.
  n.on_relay_lost = [&] { n.set_relay(backup.self_card()); };
  dead_relay.shutdown();
  sim.run_until(sim.now() + 10 * net::kMinute);

  EXPECT_FALSE(n.relay_lost());
  EXPECT_EQ(n.relay_id(), NodeId{2});
  EXPECT_EQ(backup.relayed_registrations(), 1u);
  collect(n);
  EXPECT_TRUE(sender.send(n.self_card(), kTagApp, Bytes{8}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(n).size(), 1u);
  EXPECT_EQ(inbox(n)[0].second, Bytes{8});
}

TEST_F(TransportFixture, KeepalivesBackOffAfterRelayLoss) {
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kFullCone);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  relay.shutdown();
  sim.run_until(sim.now() + 5 * net::kMinute);  // loss declared, backoff engaged
  ASSERT_TRUE(n.relay_lost());

  // With no failover wired, keepalives must decay towards the backoff
  // ceiling instead of hammering the dead address at full cadence.
  const std::uint64_t before = net.packets_sent();
  sim.run_until(sim.now() + 20 * net::kMinute);
  const std::uint64_t pings = net.packets_sent() - before;
  const TransportConfig cfg{};
  const std::uint64_t full_cadence = 20 * net::kMinute / cfg.keepalive_period;  // 40
  EXPECT_LT(pings, full_cadence / 3);
  EXPECT_GE(pings, 2u);  // but it keeps probing: the relay may come back
}

TEST_F(TransportFixture, RelayRecoveryResumesNormalKeepaliveCadence) {
  // If the "lost" relay answers again (e.g. a healed partition), the
  // backed-off keepalive timer must snap back to the normal period.
  Transport& relay = add_public(1);
  Transport& n = add_natted(2, nat::NatType::kFullCone);
  n.set_relay(relay.self_card());
  sim.run_until(sim.now() + net::kSecond);
  relay.shutdown();
  sim.run_until(sim.now() + 5 * net::kMinute);
  ASSERT_TRUE(n.relay_lost());

  // "Reboot" the relay at the same endpoint: re-attach a fresh transport.
  Transport relay2(sim, net, NodeId{1}, relay.internal_endpoint(), true);
  sim.run_until(sim.now() + 15 * net::kMinute);  // next backed-off ping gets acked
  EXPECT_FALSE(n.relay_lost());
  EXPECT_EQ(relay2.relayed_registrations(), 1u);
}

// --- Incarnation epochs (crash-recovery, DESIGN.md §14). ---

TEST_F(TransportFixture, PeerRestartBumpsCounterAndFiresCallback) {
  Transport& a = add_public(1);
  Transport& b1 = add_public_inc(2, 1);
  collect(a);
  EXPECT_TRUE(b1.send(a.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(a).size(), 1u);
  EXPECT_EQ(a.peer_restarts(), 0u);

  NodeId restarted = kNilNode;
  a.on_peer_restart = [&](NodeId peer) { restarted = peer; };
  // kill -9 and reboot at the same endpoint with the epoch bumped.
  const Endpoint ep = b1.internal_endpoint();
  b1.shutdown();
  TransportConfig cfg;
  cfg.incarnation = 2;
  Transport b2(sim, net, NodeId{2}, ep, true, cfg);
  EXPECT_TRUE(b2.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  // The reborn peer's frame is delivered AND recognized as a restart.
  ASSERT_EQ(inbox(a).size(), 2u);
  EXPECT_EQ(a.peer_restarts(), 1u);
  EXPECT_EQ(restarted, NodeId{2});
  EXPECT_EQ(a.stale_incarnation_rejects(), 0u);
}

TEST_F(TransportFixture, PreCrashStragglersAreDroppedAsStale) {
  Transport& a = add_public(1);
  Transport& b_new = add_public_inc(2, 2);
  collect(a);
  EXPECT_TRUE(b_new.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  ASSERT_EQ(inbox(a).size(), 1u);

  // A delayed frame from the peer's previous life (same id, older epoch)
  // surfaces afterwards: it must be dropped, not delivered, and must not
  // count as a "restart" either.
  Transport& b_old = add_public_inc(2, 1);
  EXPECT_TRUE(b_old.send(a.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_EQ(inbox(a).size(), 1u);
  EXPECT_EQ(a.stale_incarnation_rejects(), 1u);
  EXPECT_EQ(a.peer_restarts(), 0u);
}

TEST_F(TransportFixture, EpochlessPeersAreNeverStale) {
  // Nodes without durable state send incarnation 0 and must interoperate
  // unchanged: no tracking, no staleness, no restart signals — even when
  // such a node reboots at the same endpoint.
  Transport& a = add_public(1);
  Transport& b1 = add_public(2);
  collect(a);
  EXPECT_TRUE(b1.send(a.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  const Endpoint ep = b1.internal_endpoint();
  b1.shutdown();
  Transport b2(sim, net, NodeId{2}, ep, true);
  EXPECT_TRUE(b2.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_EQ(inbox(a).size(), 2u);
  EXPECT_EQ(a.peer_restarts(), 0u);
  EXPECT_EQ(a.stale_incarnation_rejects(), 0u);
}

TEST_F(TransportFixture, FirstNonzeroEpochIsNotARestart) {
  // A peer that upgrades from epochless (0) to durable state (nonzero)
  // starts being tracked without a spurious restart signal.
  Transport& a = add_public(1);
  Transport& b_epochless = add_public(2);
  collect(a);
  EXPECT_TRUE(b_epochless.send(a.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  Transport& b_durable = add_public_inc(2, 5);
  EXPECT_TRUE(b_durable.send(a.self_card(), kTagApp, Bytes{2}, net::Proto::kApp));
  sim.run_until(sim.now() + 10 * net::kSecond);
  EXPECT_EQ(inbox(a).size(), 2u);
  EXPECT_EQ(a.peer_restarts(), 0u);
}

TEST_F(TransportFixture, PeerEpochTableIsHardCapped) {
  // The epoch table is peer-driven state: an id-spraying adversary must not
  // grow it without bound. Overflow evicts the least recently seen entry.
  TransportConfig cfg;
  cfg.max_peer_incarnations = 2;
  Transport& a = add_public_inc(1, 1, cfg);
  collect(a);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    Transport& sender = add_public_inc(id, 1);
    EXPECT_TRUE(sender.send(a.self_card(), kTagApp, Bytes{1}, net::Proto::kApp));
    sim.run_until(sim.now() + 10 * net::kSecond);
  }
  EXPECT_EQ(inbox(a).size(), 3u);      // delivery unaffected by eviction
  EXPECT_GE(a.cap_evictions(), 1u);    // the table stayed within its cap
}

}  // namespace
}  // namespace whisper::nylon
