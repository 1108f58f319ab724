// Table I: WCL route construction success under churn.
//
// Paper setup: ~1,000 nodes, 20 private groups (one membership per node),
// Pi=3; churn script injects X% leaves + X% joins per minute between 300 s
// and 1200 s (100% replacement). Reported: fraction of WCL paths that
// succeed first-hand (Success), succeed after retrying an alternative
// (Alt.), and fail with no alternative (No alt.). Expected shape: Success
// stays >= ~90% even at 10%/min; "No alt." stays around or below ~1.5%.
//
// The table is a function of the flight log: recording is on, kill_node
// marks every node it stops, and telemetry::route_availability() sorts the
// window's WCL sends (its doc comment states the counting rule).
//
// Defaults: 200 nodes / 8 groups for wall-clock reasons; use --nodes=1000
// --groups=20 for the paper-scale run.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "churn/churn.hpp"
#include "telemetry/figures.hpp"

namespace whisper {
namespace {

struct Table1Row {
  telemetry::RouteAvailability counts;
  std::size_t events = 0;  // flight events the run recorded
  int status = 0;          // bench::flight_status of the run
};

Table1Row run_config(std::size_t n_nodes, std::size_t n_groups, double churn_pct_per_min) {
  ScaleConfig cfg;
  cfg.initial_nodes = n_nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 700 + static_cast<std::uint64_t>(churn_pct_per_min * 10);
  cfg.flight = true;
  ScaleTestbed tb(cfg);
  Rng rng(cfg.seed ^ 0xc0ffee);

  // Warm the substrate, then set up groups: leaders are P-nodes (protected
  // from churn so joins of replacement nodes keep working — the paper keeps
  // at least one leader reachable too).
  tb.run_for(5 * net::kMinute);
  const bench::Groups groups = bench::found_groups(tb, n_groups, 9000, cfg.seed, rng);
  std::unordered_set<NodeId> protected_ids;
  for (auto* l : groups.leaders) protected_ids.insert(l->self());
  tb.run_for(5 * net::kMinute);

  // Churn window (the paper's 300 s -> 1200 s script, shifted after setup).
  churn::ChurnEngine engine(
      tb.simulator(0),
      [&](std::size_t n) {
        std::size_t killed = 0;
        for (std::size_t i = 0; i < n; ++i) {
          // Never kill group leaders.
          for (int tries = 0; tries < 20; ++tries) {
            auto alive = tb.alive_nodes();
            WhisperNode* victim = alive[rng.pick_index(alive)];
            if (protected_ids.contains(victim->id())) continue;
            tb.kill_node(tb.index_of(victim->id()));
            ++killed;
            break;
          }
        }
        return killed;
      },
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) groups.subscribe(tb.spawn_node(), rng);
      },
      [&] { return tb.alive_count(); });

  churn::ChurnPhase phase;
  phase.start = tb.now();
  phase.end = phase.start + 15 * net::kMinute;
  phase.interval = net::kMinute;
  phase.leave_fraction = churn_pct_per_min / 100.0;
  engine.schedule(phase);
  tb.run_for(15 * net::kMinute);

  const telemetry::TimeWindow window{phase.start, phase.end};
  return Table1Row{telemetry::route_availability(tb.flight(0).events(), window),
                   tb.flight(0).events().size(), bench::flight_status(tb)};
}

}  // namespace
}  // namespace whisper

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 200);
  const std::size_t groups = bench::arg_size(argc, argv, "groups", 8);

  bench::banner("Table I - WCL route availability under churn (n=" + std::to_string(nodes) +
                    ", groups=" + std::to_string(groups) + ", Pi=3)",
                "Success >= ~90% even at 10%/min churn; 'No alt.' <= ~1.5%; "
                "Alt. grows with churn");

  Table t({"Churn conditions", "Success", "Alt.", "No alt.", "No path", "paths"});
  std::string events;
  int status = 0;
  for (double x : {0.0, 0.2, 1.0, 5.0, 10.0}) {
    const Table1Row row = run_config(nodes, groups, x);
    const telemetry::RouteAvailability& c = row.counts;
    const double paths = c.routed() > 0 ? static_cast<double>(c.routed()) : 1.0;
    char label[64];
    std::snprintf(label, sizeof(label), "X=%.1f%%/min", x);
    t.add_row({x == 0 ? "No churn" : label, Table::pct(static_cast<double>(c.first_try) / paths),
               Table::pct(static_cast<double>(c.alternative) / paths),
               Table::pct(static_cast<double>(c.no_alternative) / paths),
               std::to_string(c.no_path), std::to_string(c.routed())});
    events += " " + std::to_string(row.events);
    status = std::max(status, row.status);
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nSuccess, Alt. and No alt. are shares of the sends that built a path "
              "('paths'); 'No path' counts\nsends that built none. Failures at a stopped "
              "destination are left out (footnote 3).\n");
  std::printf("flight events per row:%s\n", events.c_str());
  std::printf("\n(paper, 1000 nodes: Success 100/98.3/96.7/96.5/90.9%%, "
              "Alt 0/1.42/2.73/2.83/7.86%%, No-alt 0/0.28/0.47/0.77/1.24%%)\n");
  return status;
}
