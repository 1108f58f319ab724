// Figure 7: round-trip-time breakdown of PPSS view exchanges over WCL.
//
// Paper setup: CDFs over 1,500 private view exchanges of (a) the time to
// build the onion WCL path for the request and the response, (b) the RSA
// decrypt time at each hop, and (c) the total exchange RTT; on a 1,000-node
// cluster and a 400-node PlanetLab slice. Expected shape: network delays
// dominate; crypto is ~2 orders of magnitude below the RTT; cluster
// exchanges < 500 ms, PlanetLab > 80% under ~2 s.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"

namespace whisper {
namespace {

void run_testbed(const std::string& latency, std::size_t n_nodes, std::size_t n_groups,
                 std::size_t target_exchanges) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = latency;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 1000 + n_nodes;
  ScaleTestbed tb(cfg);
  Rng rng(cfg.seed ^ 0xf16);

  tb.run_for(5 * net::kMinute);
  std::vector<ppss::Ppss*> leaders;
  std::vector<GroupId> gids;
  auto publics = bench::alive_public_nodes(tb);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const GroupId gid{7000 + g};
    crypto::Drbg d(cfg.seed + g);
    leaders.push_back(
        &publics[g % publics.size()]->create_group(gid, crypto::RsaKeyPair::generate(512, d)));
    gids.push_back(gid);
  }
  for (WhisperNode* node : tb.alive_nodes()) {
    const std::size_t g = rng.pick_index(gids);
    if (node->id() == leaders[g]->self()) continue;
    auto accr = leaders[g]->invite(node->id());
    if (accr) node->join_group(gids[g], *accr, leaders[g]->self_descriptor());
  }
  tb.run_for(5 * net::kMinute);

  // Collect: per-op crypto samples via CPU probes, RTT via PPSS callback.
  Samples build_samples, decrypt_samples, rtt_samples;
  for (WhisperNode* node : tb.alive_nodes()) {
    node->cpu().set_probe([&](net::CpuCategory cat, net::Time t) {
      const double sec = static_cast<double>(t) / net::kSecond;
      if (cat == net::CpuCategory::kRsaEncrypt) build_samples.add(sec);
      if (cat == net::CpuCategory::kRsaDecrypt) decrypt_samples.add(sec);
    });
    for (const GroupId gid : gids) {
      if (auto* g = node->group(gid)) {
        g->on_exchange_rtt = [&](net::Time rtt) {
          rtt_samples.add(static_cast<double>(rtt) / net::kSecond);
        };
      }
    }
  }
  while (rtt_samples.count() < target_exchanges) {
    tb.run_for(net::kMinute);
    if (tb.now() > 4ull * 3600 * net::kSecond) break;  // safety valve
  }

  // Crypto operations are sub-millisecond: report them in ms.
  Samples build_ms, decrypt_ms;
  for (double v : build_samples.values()) build_ms.add(v * 1000.0);
  for (double v : decrypt_samples.values()) decrypt_ms.add(v * 1000.0);

  std::printf("\n--- %s, %zu nodes (%zu exchanges) ---\n", latency.c_str(), n_nodes,
              rtt_samples.count());
  std::printf("  build WCL path (ms):  %s\n", format_stacked_percentiles(build_ms).c_str());
  std::printf("  RSA decrypt/hop (ms): %s\n", format_stacked_percentiles(decrypt_ms).c_str());
  std::printf("  total rtt (s):        %s\n", format_stacked_percentiles(rtt_samples).c_str());

  // Tail latency from the live registry histogram (the same p50/p95/p99 the
  // JSONL exporter emits), cross-checking the callback-collected samples.
  const telemetry::Histogram& h = tb.registry(0).histogram(
      "ppss.exchange.rtt_us", telemetry::BucketSpec::log_spaced(1'000, 60'000'000));
  std::printf("  rtt tail (s):         p50=%.3f p95=%.3f p99=%.3f (histogram, %llu obs)\n",
              h.percentile(50) / net::kSecond, h.percentile(95) / net::kSecond,
              h.percentile(99) / net::kSecond,
              static_cast<unsigned long long>(h.count()));
  std::printf("  rtt CDF:\n%s", format_cdf(rtt_samples, 12, "rtt(s)").c_str());
  const double ratio = build_samples.mean() > 0 ? rtt_samples.mean() / build_samples.mean() : 0;
  std::printf("  shape-check: rtt/build ratio = %.0fx (paper: ~2 orders of magnitude)\n",
              ratio);

  // Detach probes before teardown.
  for (WhisperNode* node : tb.alive_nodes()) node->cpu().set_probe(nullptr);
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t cluster_nodes = bench::arg_size(argc, argv, "cluster-nodes", 250);
  const std::size_t planetlab_nodes = bench::arg_size(argc, argv, "planetlab-nodes", 120);
  const std::size_t exchanges = bench::arg_size(argc, argv, "exchanges", 400);

  bench::banner("Figure 7 - PPSS exchange RTT breakdown over WCL",
                "network delay dominates; onion build and RSA decrypts ~2 orders of "
                "magnitude below total RTT; cluster < ~0.5 s, planetlab mostly < ~2 s");

  run_testbed("cluster", cluster_nodes, 8, exchanges);
  run_testbed("planetlab", planetlab_nodes, 6, exchanges / 2);
  return 0;
}
