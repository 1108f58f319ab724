#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace whisper::sim {
namespace {

Endpoint ep(std::uint32_t ip) { return Endpoint{ip, 5000}; }

struct NetFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, std::make_unique<FixedLatency>(net::kMillisecond), 1};
};

TEST_F(NetFixture, DeliversToAttachedHandler) {
  std::vector<Bytes> received;
  net.attach(ep(1), [&](const net::Datagram& d) { received.push_back(d.payload); });
  net.send(ep(2), ep(1), Bytes{1, 2, 3}, net::Proto::kApp);
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (Bytes{1, 2, 3}));
}

TEST_F(NetFixture, DeliveryDelayedByLatency) {
  bool got = false;
  net.attach(ep(1), [&](const net::Datagram&) { got = true; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run_until(net::kMillisecond - 1);
  EXPECT_FALSE(got);
  sim.run_until(net::kMillisecond);
  EXPECT_TRUE(got);
}

TEST_F(NetFixture, DetachedNodeDropsPackets) {
  bool got = false;
  net.attach(ep(1), [&](const net::Datagram&) { got = true; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  net.detach(ep(1));
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST_F(NetFixture, SrcEndpointVisibleToReceiver) {
  Endpoint seen_src{};
  net.attach(ep(1), [&](const net::Datagram& d) { seen_src = d.src; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(seen_src, ep(2));
}

TEST_F(NetFixture, UploadCountedAtSender) {
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes(100, 0), net::Proto::kPss);
  sim.run();
  EXPECT_EQ(net.counters(ep(2)).up_for(net::Proto::kPss), 100u);
  EXPECT_EQ(net.counters(ep(2)).total_up(), 100u);
  EXPECT_EQ(net.counters(ep(2)).total_down(), 0u);
}

TEST_F(NetFixture, DownloadCountedAtReceiver) {
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes(64, 0), net::Proto::kWcl);
  sim.run();
  EXPECT_EQ(net.counters(ep(1)).down_for(net::Proto::kWcl), 64u);
}

TEST_F(NetFixture, PerProtocolAccountingSeparated) {
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes(10, 0), net::Proto::kPss);
  net.send(ep(2), ep(1), Bytes(20, 0), net::Proto::kKeys);
  sim.run();
  EXPECT_EQ(net.counters(ep(2)).up_for(net::Proto::kPss), 10u);
  EXPECT_EQ(net.counters(ep(2)).up_for(net::Proto::kKeys), 20u);
  EXPECT_EQ(net.counters(ep(2)).total_up(), 30u);
}

TEST_F(NetFixture, ResetCountersClearsEverything) {
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes(10, 0), net::Proto::kPss);
  sim.run();
  net.reset_counters();
  EXPECT_EQ(net.counters(ep(2)).total_up(), 0u);
  EXPECT_EQ(net.packets_sent(), 0u);
}

TEST_F(NetFixture, TranslatorOutboundRewrite) {
  struct Xlat : AddressTranslator {
    std::optional<Endpoint> outbound(Endpoint, Endpoint) override {
      return Endpoint{99, 99};
    }
    std::optional<Endpoint> inbound(Endpoint dst, Endpoint) override { return dst; }
  } xlat;
  net.set_translator(&xlat);
  Endpoint seen_src{};
  net.attach(ep(1), [&](const net::Datagram& d) { seen_src = d.src; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(seen_src, (Endpoint{99, 99}));
}

TEST_F(NetFixture, TranslatorInboundFilterDropsPacket) {
  struct Xlat : AddressTranslator {
    std::optional<Endpoint> outbound(Endpoint src, Endpoint) override { return src; }
    std::optional<Endpoint> inbound(Endpoint, Endpoint) override { return std::nullopt; }
  } xlat;
  net.set_translator(&xlat);
  bool got = false;
  net.attach(ep(1), [&](const net::Datagram&) { got = true; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_FALSE(got);
}

TEST_F(NetFixture, TranslatorOutboundRefusalBlocksSend) {
  struct Xlat : AddressTranslator {
    std::optional<Endpoint> outbound(Endpoint, Endpoint) override { return std::nullopt; }
    std::optional<Endpoint> inbound(Endpoint dst, Endpoint) override { return dst; }
  } xlat;
  net.set_translator(&xlat);
  EXPECT_FALSE(net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp));
}

TEST_F(NetFixture, InFlightPacketsAreNotDropped) {
  // The seed's packets_dropped() was sent - delivered, so a packet still in
  // flight read as dropped. The explicit counters must not have that bug.
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  EXPECT_EQ(net.packets_in_flight(), 1u);
  EXPECT_EQ(net.packets_dropped(), 0u);
  sim.run();
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.packets_dropped(), 0u);
  EXPECT_EQ(net.packets_delivered(), 1u);
}

TEST_F(NetFixture, DropReasonsCountedSeparately) {
  struct Xlat : AddressTranslator {
    std::optional<Endpoint> outbound(Endpoint src, Endpoint) override { return src; }
    std::optional<Endpoint> inbound(Endpoint, Endpoint) override { return std::nullopt; }
  } xlat;
  // One detach drop...
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(net.packets_dropped(net::DropReason::kDetach), 1u);
  // ...and one filter drop.
  net.set_translator(&xlat);
  net.attach(ep(1), [](const net::Datagram&) {});
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(net.packets_dropped(net::DropReason::kFilter), 1u);
  EXPECT_EQ(net.packets_dropped(net::DropReason::kLoss), 0u);
  EXPECT_EQ(net.packets_dropped(), 2u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST_F(NetFixture, FaultInterposerCanDropOnWire) {
  struct Faults : net::FaultInterposer {
    WireVerdict on_wire(Endpoint, net::Datagram&) override { return WireVerdict{0, 0}; }
    Gate on_deliver(Endpoint, Endpoint, const net::Datagram&) override {
      return Gate::kDeliver;
    }
  } faults;
  net.set_fault_interposer(&faults);
  bool got = false;
  net.attach(ep(1), [&](const net::Datagram&) { got = true; });
  EXPECT_TRUE(net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp));
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.packets_dropped(net::DropReason::kFault), 1u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST_F(NetFixture, FaultInterposerDuplicationAccounted) {
  struct Faults : net::FaultInterposer {
    WireVerdict on_wire(Endpoint, net::Datagram&) override { return WireVerdict{2, 0}; }
    Gate on_deliver(Endpoint, Endpoint, const net::Datagram&) override {
      return Gate::kDeliver;
    }
  } faults;
  net.set_fault_interposer(&faults);
  int got = 0;
  net.attach(ep(1), [&](const net::Datagram&) { ++got; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.packets_sent(), 1u);
  EXPECT_EQ(net.packets_duplicated(), 1u);
  EXPECT_EQ(net.packets_delivered(), 2u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST_F(NetFixture, FaultInterposerQueueAndRedeliver) {
  struct Faults : net::FaultInterposer {
    bool queueing = true;
    std::vector<std::pair<Endpoint, net::Datagram>> held;
    WireVerdict on_wire(Endpoint, net::Datagram&) override { return {}; }
    Gate on_deliver(Endpoint, Endpoint dst, const net::Datagram& d) override {
      if (!queueing) return Gate::kDeliver;
      held.emplace_back(dst, d);
      return Gate::kQueue;
    }
  } faults;
  net.set_fault_interposer(&faults);
  int got = 0;
  net.attach(ep(1), [&](const net::Datagram&) { ++got; });
  net.send(ep(2), ep(1), Bytes{1}, net::Proto::kApp);
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net.packets_in_flight(), 1u);  // queued counts as in flight
  faults.queueing = false;
  for (auto& [dst, d] : faults.held) net.redeliver(dst, std::move(d));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST(NetworkLoss, LostPacketsNeverDeliver) {
  // A latency model that drops everything.
  struct AlwaysLost : LatencyModel {
    std::optional<net::Time> sample(Endpoint, Endpoint, Rng&) override { return std::nullopt; }
    net::Time lower_bound() const override { return 0; }
  };
  Simulator sim;
  Network net(sim, std::make_unique<AlwaysLost>(), 1);
  bool got = false;
  net.attach(Endpoint{1, 5000}, [&](const net::Datagram&) { got = true; });
  EXPECT_TRUE(net.send(Endpoint{2, 5000}, Endpoint{1, 5000}, Bytes{1}, net::Proto::kApp));
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.packets_dropped(net::DropReason::kLoss), 1u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

// The property shard-count invariance rests on: with a random latency
// model, the delivery times of one sender's packets are a function of that
// sender's own traffic alone. A shared latency stream would hand sender A a
// different draw whenever sender B's packets are interleaved with A's.
TEST(NetworkKeyedDelivery, SenderTimesIgnoreOtherSendersTraffic) {
  auto a_delivery_times = [](bool interleave_b) {
    Simulator sim;
    Network net(sim, make_latency_model("planetlab"), 42);
    const Endpoint a = ep(1), b = ep(2), dst = ep(3);
    std::vector<net::Time> times;
    net.attach(dst, [&](const net::Datagram& d) {
      if (d.src == a) times.push_back(sim.now());
    });
    for (int i = 0; i < 100; ++i) {
      net.send(a, dst, Bytes{1}, net::Proto::kApp);
      if (interleave_b) {
        net.send(b, dst, Bytes{2}, net::Proto::kApp);
        net.send(b, dst, Bytes{3}, net::Proto::kApp);
      }
      sim.run_until(sim.now() + 10 * net::kMillisecond);
    }
    sim.run();
    return times;
  };
  const std::vector<net::Time> alone = a_delivery_times(false);
  const std::vector<net::Time> mixed = a_delivery_times(true);
  ASSERT_GT(alone.size(), 50u);
  // Non-vacuous: the model really draws different delays per packet.
  std::vector<net::Time> delays;
  for (std::size_t i = 1; i < alone.size(); ++i) delays.push_back(alone[i] - alone[i - 1]);
  std::sort(delays.begin(), delays.end());
  EXPECT_NE(delays.front(), delays.back());
  EXPECT_EQ(alone, mixed);
}

}  // namespace
}  // namespace whisper::sim
