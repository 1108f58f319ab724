#include "simkit.hpp"

#include "common/rng.hpp"

namespace perfbench {

using namespace whisper;

NetTotals NetTotals::of(ScaleTestbed& tb) {
  NetTotals t;
  for (std::size_t s = 0; s < tb.shard_count(); ++s) {
    sim::Network& n = tb.network(s);
    t.sent += n.packets_sent();
    t.duplicated += n.packets_duplicated();
    t.delivered += n.packets_delivered();
    for (std::size_t r = 0; r < static_cast<std::size_t>(net::DropReason::kCount); ++r) {
      t.dropped[r] += n.packets_dropped(static_cast<net::DropReason>(r));
    }
    for (const auto& [key, entry] : n.registry().entries()) {
      if (entry.name != "net.bytes") continue;
      for (const auto& [k, v] : entry.labels) {
        if (k == "dir" && v == "up") {
          t.bytes_up += std::get<telemetry::Counter>(entry.metric).value();
        }
      }
    }
  }
  return t;
}

NetTotals NetTotals::minus(const NetTotals& b) const {
  NetTotals d = *this;
  d.sent -= b.sent;
  d.duplicated -= b.duplicated;
  d.delivered -= b.delivered;
  for (std::size_t r = 0; r < static_cast<std::size_t>(net::DropReason::kCount); ++r) {
    d.dropped[r] -= b.dropped[r];
  }
  d.bytes_up -= b.bytes_up;
  return d;
}

std::uint64_t NetTotals::dropped_total() const {
  std::uint64_t n = 0;
  for (std::uint64_t v : dropped) n += v;
  return n;
}

void NetTotals::put_layers(Json& l) const {
  l.num("net.packets_sent", sent);
  l.num("net.packets_delivered", delivered);
  l.num("net.drop_loss", drop(net::DropReason::kLoss));
  l.num("net.drop_filter", drop(net::DropReason::kFilter));
  l.num("net.drop_detach", drop(net::DropReason::kDetach));
  l.num("net.bytes_per_delivered",
        ratio(static_cast<double>(bytes_up), static_cast<double>(delivered)));
}

std::vector<std::uint64_t> shard_events(ScaleTestbed& tb) {
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < tb.shard_count(); ++s) {
    out.push_back(tb.simulator(s).executed_events());
  }
  return out;
}

Json fingerprint(ScaleTestbed& tb) {
  const NetTotals t = NetTotals::of(tb);
  Json j;
  j.num("events", tb.executed_events())
      .num("virtual_us", static_cast<std::uint64_t>(tb.now()))
      .num("alive", static_cast<std::uint64_t>(tb.alive_count()))
      .num("packets_sent", t.sent)
      .num("packets_delivered", t.delivered)
      .num("packets_dropped", t.dropped_total())
      .num("bytes_up", t.bytes_up);
  return j;
}

double net_send_ns(ScaleTestbed& tb, std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> alive;
  std::vector<Endpoint> publics;
  for (std::size_t i = 0; i < tb.node_count(); ++i) {
    WhisperNode* node = tb.node_at(i);
    if (!node->running()) continue;
    alive.push_back(i);
    if (node->is_public()) publics.push_back(node->transport().self_card().addr);
  }
  if (alive.empty() || publics.empty()) return 0;
  Rng rng(seed ^ 0x5e4d);
  std::vector<std::pair<std::size_t, Endpoint>> pairs;
  pairs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    pairs.emplace_back(alive[rng.pick_index(alive)], publics[rng.pick_index(publics)]);
  }
  const Bytes payload(16, 0xb5);
  const double t0 = wall_now();
  for (const auto& [i, dst] : pairs) {
    tb.network(ScaleTestbed::shard_of_index(i, tb.shard_count()))
        .send(tb.node_at(i)->internal_endpoint(), dst, payload, net::Proto::kApp);
  }
  return (wall_now() - t0) * 1e9 / static_cast<double>(n);
}

bool drain_and_check_conservation(ScaleTestbed& tb, Json& checks) {
  for (std::size_t i = 0; i < tb.node_count(); ++i) tb.kill_node(i);
  // Every node is stopped, so nothing new is sent; a minute of virtual
  // time lands every packet still on the wire (delivered or dropped).
  tb.run_for(net::kMinute);
  std::size_t pending = 0;
  for (std::size_t s = 0; s < tb.shard_count(); ++s) pending += tb.simulator(s).pending_events();
  const NetTotals t = NetTotals::of(tb);
  const std::uint64_t in = t.sent + t.duplicated;
  const std::uint64_t out = t.delivered + t.dropped_total();
  checks.num("conservation_sent_plus_dup", in)
      .num("conservation_delivered_plus_dropped", out)
      .num("conservation_pending_events", static_cast<std::uint64_t>(pending));
  return in == out;
}

void run_for(ScaleTestbed& tb, Spans& spans, net::Time d) {
  auto s = spans.span("sim.run_for");
  tb.run_for(d);
}

}  // namespace perfbench
