// churn-20k: a population-sized overlay under replacement churn.
//
// 20,000 nodes, 70% behind NAT, planetlab latency, ScaleTestbed at S=2,
// pooled RSA keys recycled every kKeyCycle nodes, no groups (so no onion
// crypto). The timed phase is steady Nylon PSS gossip plus Table-I-style
// replacement churn: every virtual second a fixed share of the population
// is killed (kill_random_node) and as many fresh nodes are spawned
// (spawn_node), between run_for slices. The workload's unit of work is one
// PSS view exchange.
#include <algorithm>
#include <memory>

#include "simkit.hpp"
#include "telemetry/metric.hpp"
#include "whisper/keypool.hpp"

namespace perfbench {

using namespace whisper;

namespace {

constexpr std::size_t kNodes = 20'000;
constexpr std::size_t kShards = 2;
constexpr std::size_t kKeyCycle = 1'024;
constexpr int kSetups = 3;
constexpr net::Time kWarmup = 2 * net::kSecond;
/// Replacement churn: share of the population replaced per virtual minute.
constexpr double kChurnPerMinute = 0.03;
constexpr net::Time kSlice = net::kSecond;
/// Virtual seconds of the timed phase per requested wall second.
constexpr double kVirtPerWallS = 1.0;

ScaleConfig config(const Args& a, bool flight) {
  ScaleConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.shards = kShards;
  cfg.natted_fraction = 0.7;
  cfg.latency = "planetlab";
  cfg.seed = a.seed;
  cfg.flight = flight;
  cfg.node_telemetry = true;
  cfg.key_cycle = kKeyCycle;
  return cfg;
}

/// PSS exchange round trips of every shard, merged.
telemetry::Histogram pss_rtt(ScaleTestbed& tb) {
  telemetry::Histogram h(telemetry::BucketSpec::log_spaced(100, 20'000'000));
  for (std::size_t s = 0; s < tb.shard_count(); ++s) {
    for (const auto& [key, e] : tb.registry(s).entries()) {
      if (e.name == "pss.exchange.rtt_us") h.merge(std::get<telemetry::Histogram>(e.metric));
    }
  }
  return h;
}

}  // namespace

int run_churn(const Args& a, Json& out) {
  Spans spans(a.trace);
  const double keygen_t = wall_now();
  {
    auto s = spans.span("whisper.keygen");
    for (std::size_t i = 0; i < kKeyCycle; ++i) pooled_keypair(i, 512);
  }
  const double keygen_s = wall_now() - keygen_t;

  std::vector<double> boot_s, warmup_s;
  std::vector<std::string> prints;
  std::unique_ptr<ScaleTestbed> tbp;
  // In a traced run the middle repeat runs with flight recording off (see
  // groups.cpp).
  for (int r = 0; r < kSetups; ++r) {
    tbp.reset();
    double t = wall_now();
    {
      auto s = spans.span("whisper.boot");
      tbp = std::make_unique<ScaleTestbed>(config(a, a.trace && r != 1));
    }
    boot_s.push_back(wall_now() - t);
    t = wall_now();
    run_for(*tbp, spans, kWarmup);
    warmup_s.push_back(wall_now() - t);
    prints.push_back(fingerprint(*tbp).dump());
  }
  const bool setups_identical =
      std::all_of(prints.begin(), prints.end(), [&](const std::string& p) { return p == prints[0]; });
  ScaleTestbed& tb = *tbp;

  const std::size_t nodes0 = tb.node_count();
  auto totals = [&] {
    return sum_layers(tb.node_count(), [&](std::size_t i) { return tb.node_at(i); });
  };
  const LayerTotals base = totals();
  const NetTotals net0 = NetTotals::of(tb);
  const std::vector<std::uint64_t> ev0 = shard_events(tb);
  const std::uint64_t cross0 = tb.cross_shard_messages();
  // Exchange round trips of the timed phase alone.
  for (std::size_t s = 0; s < tb.shard_count(); ++s) tb.registry(s).reset("pss.exchange.rtt_us");

  // The churn schedule: due at each slice boundary, a fixed share of the
  // live population, fractional remainders carried over.
  const net::Time t0 = tb.now();
  const auto slices = static_cast<std::size_t>(kVirtPerWallS * a.seconds * net::kSecond / kSlice);
  const double per_slice = kChurnPerMinute * kNodes * kSlice / net::kMinute;
  double owed = 0;
  std::uint64_t kills = 0, spawns = 0;
  std::vector<double> late_ms;

  Slices timing;
  for (std::size_t k = 0; k < slices; ++k) {
    timing.begin();
    run_for(tb, spans, kSlice);
    const net::Time due = t0 + (k + 1) * kSlice;
    owed += per_slice;
    for (; owed >= 1; owed -= 1) {
      late_ms.push_back(static_cast<double>(tb.now() - due) / 1000.0);
      {
        auto s = spans.span("whisper.kill");
        if (tb.kill_random_node() != static_cast<std::size_t>(-1)) ++kills;
      }
      late_ms.push_back(static_cast<double>(tb.now() - due) / 1000.0);
      auto s = spans.span("whisper.spawn");
      tb.spawn_node();
      ++spawns;
    }
    timing.end(static_cast<double>(kSlice) / 1e6);
  }
  const double timed_wall = timing.wall_s();
  const double timed_virt = timing.virt_s();

  const LayerTotals lt = totals().minus(base);
  const NetTotals nt = NetTotals::of(tb).minus(net0);
  const telemetry::Histogram rtt = pss_rtt(tb);

  Json det = fingerprint(tb);
  det.num("pss_initiated", lt.pss_initiated)
      .num("pss_completed", lt.pss_completed)
      .num("pss_timed_out", lt.pss_timed_out)
      .num("kills", kills)
      .num("spawns", spawns);

  Json layers;
  if (a.trace) {
    layers.num("telemetry.trace_overhead_pct", trace_overhead_pct(warmup_s));
    lt.put_layers(layers);
    nt.put_layers(layers);
    const std::vector<std::uint64_t> ev1 = shard_events(tb);
    std::uint64_t ev_total = 0, ev_max = 0;
    for (std::size_t s = 0; s < ev1.size(); ++s) {
      ev_total += ev1[s] - ev0[s];
      ev_max = std::max(ev_max, ev1[s] - ev0[s]);
    }
    layers.num("sim.events", ev_total)
        .num("sim.events_per_s", ev_total / timed_wall)
        .num("sim.virt_s_per_s", timed_virt / timed_wall)
        .num("sim.shard_imbalance",
             ratio(static_cast<double>(ev_max), static_cast<double>(ev_total) / ev1.size()))
        .num("sim.cross_shard_msgs", tb.cross_shard_messages() - cross0);
    std::uint64_t cache = 0;
    for (WhisperNode* n : tb.alive_nodes()) cache += n->keys().cache_size();
    layers.num("keysvc.cache_size", ratio(static_cast<double>(cache), tb.alive_count()));
    std::vector<Endpoint> eps;
    for (WhisperNode* n : tb.alive_nodes()) eps.push_back(n->internal_endpoint());
    layers.num("common.endpoint_find_ns", endpoint_find_ns(eps, a.seed));
    layers.num("net.send_ns", net_send_ns(tb, a.seed, 20'000));
    // No onion traffic here: the probes keep the crypto columns comparable
    // across workloads (a path of Π+1 hops, the bare app payload as body).
    crypto_probes(config(a, true).node.wcl.mixes + 1, kAppPayload, a.seed, layers);
    const std::vector<telemetry::FlightRecord> none;
    fig7_split(none, {}, 0, layers);
  }

  Json checks;
  checks.flag("setup_repeats_identical", setups_identical);
  checks.flag("conservation", drain_and_check_conservation(tb, checks));

  Json setup;
  setup.num("keygen_s", keygen_s)
      .arr("boot_s", boot_s)
      .arr("warmup_s", warmup_s)
      .num("nodes", static_cast<std::uint64_t>(nodes0));
  Json msgs;
  msgs.num("attempted", lt.pss_initiated)
      .num("delivered", lt.pss_completed)
      .num("lat_p50_ms", rtt.percentile(50) / 1000.0)
      .num("lat_p99_ms", rtt.percentile(99) / 1000.0)
      .num("lat_count", rtt.count())
      .arr("gen_late_ms", late_ms);

  out.obj("setup", setup).obj("timed", timing.json()).obj("msgs", msgs).obj("det", det);
  out.obj("checks", checks).obj("layers", layers).obj("spans", spans.summary());
  out.num("peak_rss_mb", peak_rss_mb());
  if (a.trace) spans.write_chrome_trace(a.out_dir + "/spans-churn-20k.json");
  return 0;
}

}  // namespace perfbench
