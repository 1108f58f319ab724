// Diagnostic: boot a testbed and print overlay health every minute —
// exchange success rates, view occupancy, clustering, in-degree by class,
// relay/backlog state. Used to validate PSS convergence behaviour.
#include <cstdio>

#include "pss/metrics.hpp"
#include "whisper/scale.hpp"

using namespace whisper;

int main(int argc, char** argv) {
  ScaleConfig cfg;
  cfg.initial_nodes = argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 150;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 0;
  cfg.seed = 500;
  ScaleTestbed tb(cfg);

  std::uint64_t prev_init = 0, prev_done = 0, prev_timeout = 0;
  for (int minute = 1; minute <= 12; ++minute) {
    tb.run_for(net::kMinute);
    std::uint64_t init = 0, done = 0, timeout = 0;
    double view_fill = 0, view_pub = 0;
    std::size_t relayless = 0, direct_routes = 0;
    for (WhisperNode* n : tb.alive_nodes()) {
      init += n->pss().exchanges_initiated();
      done += n->pss().exchanges_completed();
      timeout += n->pss().exchanges_timed_out();
      view_fill += static_cast<double>(n->pss().view().size());
      view_pub += static_cast<double>(n->pss().view().count_public());
      if (!n->is_public() && n->transport().relay_lost()) ++relayless;
    }
    auto graph = tb.overlay_snapshot();
    Samples clustering = pss::clustering_coefficients(graph);
    auto deg = pss::in_degrees(graph);
    double p_deg = 0, n_deg = 0;
    std::size_t p_count = 0, n_count = 0;
    for (WhisperNode* n : tb.alive_nodes()) {
      if (n->is_public()) {
        p_deg += static_cast<double>(deg[n->id()]);
        ++p_count;
      } else {
        n_deg += static_cast<double>(deg[n->id()]);
        ++n_count;
      }
    }
    std::printf(
        "t=%2dmin init=%llu done=%llu (%.0f%%) timeo=%llu | view fill=%.1f pub=%.1f | "
        "clust=%.3f | indeg P=%.1f N=%.1f | relayless=%zu directs=%zu\n",
        minute, static_cast<unsigned long long>(init - prev_init),
        static_cast<unsigned long long>(done - prev_done),
        init - prev_init > 0
            ? 100.0 * static_cast<double>(done - prev_done) / static_cast<double>(init - prev_init)
            : 0.0,
        static_cast<unsigned long long>(timeout - prev_timeout),
        view_fill / static_cast<double>(tb.alive_count()),
        view_pub / static_cast<double>(tb.alive_count()), clustering.mean(),
        p_count ? p_deg / static_cast<double>(p_count) : 0,
        n_count ? n_deg / static_cast<double>(n_count) : 0, relayless, direct_routes);
    prev_init = init;
    prev_done = done;
    prev_timeout = timeout;
  }
  return 0;
}
