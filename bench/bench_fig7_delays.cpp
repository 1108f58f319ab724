// Figure 7: round-trip-time breakdown of PPSS view exchanges over WCL.
//
// Paper setup: CDFs over 1,500 private view exchanges of (a) the time to
// build the onion WCL path for the request and the response, (b) the RSA
// decrypt time at each hop, and (c) the total exchange RTT; on a 1,000-node
// cluster and a 400-node PlanetLab slice. Expected shape: network delays
// dominate; crypto is ~2 orders of magnitude below the RTT; cluster
// exchanges < 500 ms, PlanetLab > 80% under ~2 s.
//
// The RTTs and the per-message split come from the flight log
// (telemetry::exchange_delays, which `whisper_trace fig7` also runs). The
// build and decrypt lines are per-operation means of what the CPU meters
// measured over the window; they print apart from the records' crypto part,
// which on the simulator's virtual clock is the modeled cost (DESIGN.md §6
// item 6).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "telemetry/figures.hpp"

namespace whisper {
namespace {

/// What the live nodes' meters measured for `cat` operations.
struct OpCost {
  double mean_ms = 0;
  std::uint64_t ops = 0;
};

OpCost measured(ScaleTestbed& tb, net::CpuCategory cat) {
  std::uint64_t us = 0;
  OpCost out;
  for (WhisperNode* node : tb.alive_nodes()) {
    us += node->cpu().spent(cat);
    out.ops += node->cpu().ops(cat);
  }
  if (out.ops > 0) out.mean_ms = static_cast<double>(us) / static_cast<double>(out.ops) / 1000.0;
  return out;
}

int run_testbed(const std::string& latency, std::size_t n_nodes, std::size_t n_groups,
                std::size_t target_exchanges) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = latency;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 1000 + n_nodes;
  cfg.flight = true;
  ScaleTestbed tb(cfg);
  Rng rng(cfg.seed ^ 0xf16);

  tb.run_for(5 * net::kMinute);
  bench::found_groups(tb, n_groups, 7000, cfg.seed, rng);
  tb.run_for(5 * net::kMinute);

  // Window: the meters restart, and it closes once the registry's RTT
  // histogram has seen the target number of completed exchanges.
  const telemetry::Histogram& h = tb.registry(0).histogram(
      "ppss.exchange.rtt_us", telemetry::BucketSpec::log_spaced(1'000, 60'000'000));
  const std::uint64_t before = h.count();
  const net::Time opened = tb.now();
  for (WhisperNode* node : tb.alive_nodes()) node->cpu().reset();
  while (h.count() - before < target_exchanges) {
    tb.run_for(net::kMinute);
    if (tb.now() > 4ull * 3600 * net::kSecond) break;  // safety valve
  }
  const telemetry::ExchangeDelays delays = telemetry::exchange_delays(
      tb.flight(0).assemble(), telemetry::TimeWindow{opened, tb.now()});
  Samples rtt_samples;
  for (std::uint64_t rtt : delays.rtt_us) {
    rtt_samples.add(static_cast<double>(rtt) / net::kSecond);
  }
  const OpCost build = measured(tb, net::CpuCategory::kRsaEncrypt);
  const OpCost decrypt = measured(tb, net::CpuCategory::kRsaDecrypt);

  std::printf("\n--- %s, %zu nodes (%zu exchanges) ---\n", latency.c_str(), n_nodes,
              rtt_samples.count());
  std::printf("  build WCL path (ms):  mean=%.3f measured (%llu ops)\n", build.mean_ms,
              static_cast<unsigned long long>(build.ops));
  std::printf("  RSA decrypt/hop (ms): mean=%.3f measured (%llu ops)\n", decrypt.mean_ms,
              static_cast<unsigned long long>(decrypt.ops));
  std::printf("  message split, modeled crypto: %s\n",
              telemetry::format_message_split(delays).c_str());
  std::printf("  total rtt (s):        %s\n", format_stacked_percentiles(rtt_samples).c_str());

  // The window's tail. A percentile prints only with at least ten samples
  // beyond it, the rule perfbench's percentiles keep.
  const std::size_t n = rtt_samples.count();
  std::string tail;
  for (const double p : {50.0, 95.0, 99.0}) {
    const auto at_or_below = static_cast<std::size_t>(std::ceil(static_cast<double>(n) * p / 100));
    if (n - at_or_below < 10) continue;
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%.0f=%.3f ", p, rtt_samples.percentile(p));
    tail += buf;
  }
  std::printf("  rtt tail (s):         %s(%zu samples)\n", tail.c_str(), n);
  std::printf("  rtt CDF:\n%s", format_cdf(rtt_samples, 12, "rtt(s)").c_str());
  const double ratio = build.mean_ms > 0 ? rtt_samples.mean() * 1000.0 / build.mean_ms : 0;
  std::printf("  shape-check: rtt/build ratio = %.0fx (paper: ~2 orders of magnitude)\n",
              ratio);
  return bench::flight_status(tb);
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

  const int cluster = run_testbed("cluster", cluster_nodes, 8, exchanges);
  const int planetlab = run_testbed("planetlab", planetlab_nodes, 6, exchanges / 2);
  return std::max(cluster, planetlab);
}
