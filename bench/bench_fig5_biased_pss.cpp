// Figure 5: impact of the Π-biased PSS on clustering and in-degree.
//
// Paper setup: 1,000 nodes on the cluster, view size c=10, 70/30 N/P mix,
// Π in {0 (unbiased baseline), 1, 2, 3}. Reported: CDF of local clustering
// coefficients (expected: indistinguishable across Π) and in-degree CDFs
// split by node class (expected: P-node in-degree grows with Π, N-node
// in-degree shrinks slightly).
//
// Default run uses 300 nodes for wall-clock reasons; pass --nodes=1000 for
// the paper-scale run.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "pss/metrics.hpp"

namespace whisper {
namespace {

struct Fig5Row {
  std::size_t pi;
  double clustering_mean;
  double clustering_p90;
  double n_indegree_mean;
  double n_indegree_p90;
  double p_indegree_mean;
  double p_indegree_p90;
};

Fig5Row run_config(std::size_t n_nodes, std::size_t pi) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = pi;
  cfg.seed = 500 + pi;
  ScaleTestbed tb(cfg);
  // PSS cycle is 10 s; let the overlay converge for 60 cycles.
  tb.run_for(10 * net::kMinute);

  auto graph = tb.overlay_snapshot();
  Samples clustering = pss::clustering_coefficients(graph);
  auto degrees = pss::in_degrees(graph);

  Samples n_deg, p_deg;
  for (WhisperNode* node : tb.alive_nodes()) {
    const double d = static_cast<double>(degrees[node->id()]);
    if (node->is_public()) {
      p_deg.add(d);
    } else {
      n_deg.add(d);
    }
  }

  return Fig5Row{pi,
                 clustering.mean(),
                 clustering.percentile(90),
                 n_deg.mean(),
                 n_deg.percentile(90),
                 p_deg.mean(),
                 p_deg.percentile(90)};
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 300);

  bench::banner(
      "Figure 5 - biased PSS: clustering & in-degree vs Pi (n=" + std::to_string(nodes) + ")",
      "clustering CDF identical for Pi=0..3; P-node in-degree grows with Pi, "
      "N-node in-degree slightly lower");

  Table t({"Pi", "clustering mean", "clustering p90", "N in-deg mean", "N in-deg p90",
           "P in-deg mean", "P in-deg p90"});
  double base_clustering = 0.0;
  double base_p_mean = 0.0;
  std::vector<Fig5Row> rows;
  for (std::size_t pi = 0; pi <= 3; ++pi) {
    Fig5Row row = run_config(nodes, pi);
    rows.push_back(row);
    if (pi == 0) {
      base_clustering = row.clustering_mean;
      base_p_mean = row.p_indegree_mean;
    }
    t.add_row({std::to_string(pi), Table::num(row.clustering_mean, 4),
               Table::num(row.clustering_p90, 4), Table::num(row.n_indegree_mean, 2),
               Table::num(row.n_indegree_p90, 2), Table::num(row.p_indegree_mean, 2),
               Table::num(row.p_indegree_p90, 2)});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\nshape-check:\n");
  std::printf("  clustering(Pi=3)/clustering(Pi=0) = %.2f (paper: ~1.0, negligible impact)\n",
              rows[3].clustering_mean / (base_clustering > 0 ? base_clustering : 1));
  std::printf("  P-in-degree(Pi=3)/P-in-degree(Pi=0) = %.2f (paper: > 1, bias loads P-nodes)\n",
              rows[3].p_indegree_mean / (base_p_mean > 0 ? base_p_mean : 1));
  return 0;
}
