// Figure 8: bandwidth vs number of private groups per node.
//
// Paper setup: 400 nodes on PlanetLab, 120 private groups (each P-node
// creates and leads one), subscriptions per node swept 1..32 (log scale).
// Reported: distribution (stacked percentiles) of upload and download
// bandwidth, split by node class. Expected shape: bandwidth grows linearly
// with the number of subscribed groups; P-nodes above N-nodes.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace whisper {
namespace {

struct Fig8Row {
  std::size_t groups_per_node;
  std::string n_up, n_down, p_up, p_down;
  double n_up_mean, p_up_mean;
};

Fig8Row run_config(std::size_t n_nodes, std::size_t n_groups, std::size_t subs) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "planetlab";
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 1100 + subs;
  ScaleTestbed tb(cfg);
  Rng rng(cfg.seed ^ 0xabc);

  tb.run_for(5 * net::kMinute);
  // Every P-node leads one group (up to n_groups).
  std::vector<ppss::Ppss*> leaders;
  std::vector<GroupId> gids;
  auto publics = bench::alive_public_nodes(tb);
  for (std::size_t g = 0; g < n_groups && g < publics.size(); ++g) {
    const GroupId gid{6000 + g};
    crypto::Drbg d(cfg.seed + g);
    leaders.push_back(
        &publics[g]->create_group(gid, crypto::RsaKeyPair::generate(512, d)));
    gids.push_back(gid);
  }
  // Each node subscribes to `subs` distinct random groups.
  for (WhisperNode* node : tb.alive_nodes()) {
    std::vector<std::size_t> order(gids.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::size_t joined = 0;
    for (std::size_t g : order) {
      if (joined >= subs) break;
      if (node->id() == leaders[g]->self()) continue;
      auto accr = leaders[g]->invite(node->id());
      if (accr) {
        node->join_group(gids[g], *accr, leaders[g]->self_descriptor());
        ++joined;
      }
    }
  }
  tb.run_for(5 * net::kMinute);

  // Measure across complete PPSS cycles.
  tb.network(0).reset_counters();
  const std::size_t cycles = 5;
  tb.run_for(cycles * cfg.node.ppss.cycle);
  const double window_s =
      static_cast<double>(cycles * cfg.node.ppss.cycle) / net::kSecond;

  Samples n_up, n_down, p_up, p_down;
  for (WhisperNode* node : tb.alive_nodes()) {
    const auto& c = tb.network(0).counters(node->internal_endpoint());
    const double up = static_cast<double>(c.total_up()) / window_s / 1024.0;    // KB/s
    const double down = static_cast<double>(c.total_down()) / window_s / 1024.0;
    if (node->is_public()) {
      p_up.add(up);
      p_down.add(down);
    } else {
      n_up.add(up);
      n_down.add(down);
    }
  }
  return Fig8Row{subs,
                 format_stacked_percentiles(n_up),
                 format_stacked_percentiles(n_down),
                 format_stacked_percentiles(p_up),
                 format_stacked_percentiles(p_down),
                 n_up.mean(),
                 p_up.mean()};
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 120);
  const std::size_t n_groups = bench::arg_size(argc, argv, "groups", 24);
  const std::size_t max_subs = bench::arg_size(argc, argv, "max-subs", 8);

  bench::banner("Figure 8 - bandwidth vs groups-per-node (KB/s, n=" + std::to_string(nodes) +
                    ", planetlab)",
                "bandwidth grows linearly with subscribed groups; P-nodes above N-nodes; "
                "values stay in reasonable KB/s range");

  std::vector<std::pair<std::size_t, double>> scaling;
  for (std::size_t subs = 1; subs <= max_subs; subs *= 2) {
    Fig8Row row = run_config(nodes, n_groups, subs);
    std::printf("\n--- %zu group(s) per node ---\n", row.groups_per_node);
    std::printf("  N-nodes up:   %s\n", row.n_up.c_str());
    std::printf("  N-nodes down: %s\n", row.n_down.c_str());
    std::printf("  P-nodes up:   %s\n", row.p_up.c_str());
    std::printf("  P-nodes down: %s\n", row.p_down.c_str());
    scaling.emplace_back(subs, row.n_up_mean);
  }

  std::printf("\nshape-check (N-node mean upload KB/s vs subscriptions):\n");
  for (auto [subs, mean] : scaling) {
    std::printf("  %2zu groups: %.2f KB/s\n", subs, mean);
  }
  if (scaling.size() >= 2 && scaling.front().second > 0) {
    std::printf("  growth factor %zux subs -> %.1fx bandwidth (paper: linear)\n",
                scaling.back().first / scaling.front().first,
                scaling.back().second / scaling.front().second);
  }
  return 0;
}
