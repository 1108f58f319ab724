// whisper_sim — scenario runner for the full stack.
//
// Boots a deployment, optionally sets up private groups and churn, and
// prints per-minute health plus a final summary. The knobs mirror the
// paper's experimental parameters.
//
//   whisper_sim --nodes=300 --natted=0.7 --latency=cluster --pi=3
//               --groups=10 --churn=1.0 --minutes=30 [--seed=42]
//               [--trace=out.trace.json] [--metrics=out.jsonl]
//               [--sample-secs=60] [--faults=script.txt]
//               [--byzantine=0.1]
//               [--flight=out.flight.jsonl] [--audit=relays=3;links=1-2]
//
// --faults loads a fault-injection script (see src/faults/script.hpp for
// the line format: partitions, loss/delay episodes, relay crashes, NAT
// resets, node pauses, Byzantine actor windows). Times in the script are
// relative to the end of the warm-up, i.e. to the start of the observation
// window.
//
// --byzantine=<fraction> is a shortcut for a standing adversary: that
// fraction of the deployment misbehaves for the whole observation window,
// split evenly across truncation, oversizing, bit-flipping, replay,
// flooding and gossip fabrication.
//
// --trace records the flight log and renders it as a Chrome trace-event
// file (load in Perfetto / about:tracing; one timeline row per node,
// timestamps are virtual microseconds, an arrow per delivered wire copy).
// --metrics dumps the final metric registry as JSONL; with --sample-secs
// one sampled line per interval is appended too: the "fleet" health record
// of the whole registry (telemetry/health.hpp, the line whisper_localnet
// writes to fleet.jsonl), with the virtual time as ts_us.
//
// --flight records per-message causal flight records (per-hop latency
// decomposition, retries, fault attribution) and dumps them as JSONL —
// feed the file to whisper_trace. --audit additionally runs the
// adversary's-view anonymity audit at the given vantage before exiting
// (implies flight recording even without --flight).
#include <cstdio>
#include <string>

#include "args.hpp"
#include "churn/churn.hpp"
#include "faults/script.hpp"
#include "pss/metrics.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/export.hpp"
#include "telemetry/health.hpp"
#include "whisper/scale.hpp"

using namespace whisper;

namespace {

double arg_double(int argc, char** argv, const std::string& key, double fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return std::stod(a.substr(prefix.size()));
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleConfig cfg;
  cfg.initial_nodes = static_cast<std::size_t>(arg_double(argc, argv, "nodes", 200));
  cfg.natted_fraction = arg_double(argc, argv, "natted", 0.7);
  cfg.latency = arg_string(argc, argv, "latency", "cluster");
  cfg.node.pss.pi_min_public = static_cast<std::size_t>(arg_double(argc, argv, "pi", 3));
  cfg.node.wcl.pi = cfg.node.pss.pi_min_public;
  cfg.seed = static_cast<std::uint64_t>(arg_double(argc, argv, "seed", 42));
  const std::size_t n_groups = static_cast<std::size_t>(arg_double(argc, argv, "groups", 0));
  const double churn_pct = arg_double(argc, argv, "churn", 0.0);
  const int minutes = static_cast<int>(arg_double(argc, argv, "minutes", 20));
  const std::string trace_path = arg_string(argc, argv, "trace", "");
  const std::string metrics_path = arg_string(argc, argv, "metrics", "");
  const std::string faults_path = arg_string(argc, argv, "faults", "");
  const std::string flight_path = arg_string(argc, argv, "flight", "");
  const std::string audit_spec = arg_string(argc, argv, "audit", "");
  const double sample_secs = arg_double(argc, argv, "sample-secs", 0);
  cfg.flight = !flight_path.empty() || !audit_spec.empty() || !trace_path.empty();
  const auto sample_every = static_cast<net::Time>(sample_secs * net::kSecond);

  telemetry::Vantage vantage;
  if (!audit_spec.empty()) {
    std::string err;
    if (!telemetry::Vantage::parse(audit_spec, &vantage, &err)) {
      std::fprintf(stderr, "audit: bad vantage spec: %s\n", err.c_str());
      return 1;
    }
  }

  std::printf("whisper_sim: %zu nodes, %.0f%% natted, latency=%s, Pi=%zu, %zu groups, "
              "churn=%.1f%%/min, %d minutes, seed=%llu\n\n",
              cfg.initial_nodes, cfg.natted_fraction * 100, cfg.latency.c_str(),
              cfg.node.pss.pi_min_public, n_groups, churn_pct, minutes,
              static_cast<unsigned long long>(cfg.seed));

  ScaleTestbed tb(cfg);
  // Event-loop metrics of the one shard. ScaleTestbed leaves them out of
  // its registries: the sim.queue.depth gauge is per shard, so a merged
  // export would depend on the shard count.
  tb.simulator(0).attach_telemetry(tb.registry(0));
  // At each multiple of sample_every, between run_for slices, one "fleet"
  // health line of every registry metric.
  std::string samples;
  telemetry::HealthSnapshot sample;
  auto advance = [&](net::Time duration) {
    const net::Time end = tb.now() + duration;
    while (sample_every > 0) {
      const net::Time tick = (tb.now() / sample_every + 1) * sample_every;
      if (tick > end) break;
      tb.run_for(tick - tb.now());
      ++sample.seq;
      sample.now_us = sample.uptime_us = tb.now();
      sample.metrics = telemetry::registry_values(tb.registry(0));
      samples += telemetry::health_to_json(sample, "fleet") + "\n";
    }
    tb.run_for(end - tb.now());
  };
  Rng rng(cfg.seed ^ 0x51b);
  advance(5 * net::kMinute);

  // Optional groups: leaders on P-nodes, every node one membership.
  std::vector<ppss::Ppss*> leaders;
  std::vector<GroupId> gids;
  if (n_groups > 0) {
    std::vector<WhisperNode*> publics;
    for (WhisperNode* n : tb.alive_nodes()) {
      if (n->is_public()) publics.push_back(n);
    }
    for (std::size_t g = 0; g < n_groups; ++g) {
      crypto::Drbg d(cfg.seed + g);
      leaders.push_back(&publics[g % publics.size()]->create_group(
          GroupId{5000 + g}, crypto::RsaKeyPair::generate(512, d)));
      gids.push_back(GroupId{5000 + g});
    }
    for (WhisperNode* node : tb.alive_nodes()) {
      const std::size_t g = rng.pick_index(gids);
      if (node->id() == leaders[g]->self()) continue;
      if (auto accr = leaders[g]->invite(node->id())) {
        node->join_group(gids[g], *accr, leaders[g]->self_descriptor());
      }
    }
    advance(3 * net::kMinute);
  }

  // Optional churn for the whole observation window, driven from the
  // simulator's own events (legal at S=1, see whisper/scale.hpp).
  churn::ChurnEngine engine(
      tb.simulator(0),
      [&](std::size_t n) {
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (tb.kill_random_node() != static_cast<std::size_t>(-1)) ++k;
        }
        return k;
      },
      [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) tb.spawn_node();
      },
      [&] { return tb.alive_count(); });
  if (churn_pct > 0) {
    churn::ChurnPhase phase;
    phase.start = tb.now();
    phase.end = phase.start + static_cast<net::Time>(minutes) * net::kMinute;
    phase.leave_fraction = churn_pct / 100.0;
    engine.schedule(phase);
  }

  faults::FaultFabric* fault_fabric = nullptr;
  if (!faults_path.empty()) {
    auto parsed = faults::parse_script_file(faults_path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "faults: %s: %s\n", faults_path.c_str(), parsed.error.c_str());
      return 1;
    }
    // Script times are relative to the observation window, which starts now.
    const net::Time t0 = tb.now();
    for (auto& spec : parsed.specs) {
      spec.start += t0;
      if (spec.end > 0) spec.end += t0;
    }
    fault_fabric = tb.install_fault_fabrics()[0];
    fault_fabric->schedule_all(parsed.specs);
    std::printf("faults: %zu scripted from %s\n\n", parsed.specs.size(),
                faults_path.c_str());
  }

  const double byz_fraction = arg_double(argc, argv, "byzantine", 0.0);
  if (byz_fraction > 0) {
    // Standing adversary for the whole observation window: one window per
    // misbehaviour, each claiming an equal slice of the hostile fraction.
    const std::vector<faults::FaultKind> kinds = {
        faults::FaultKind::kByzTruncate, faults::FaultKind::kByzOversize,
        faults::FaultKind::kByzBitflip,  faults::FaultKind::kByzReplay,
        faults::FaultKind::kByzFlood,    faults::FaultKind::kByzFabricate};
    std::vector<faults::FaultSpec> specs;
    for (faults::FaultKind kind : kinds) {
      faults::FaultSpec spec;
      spec.kind = kind;
      spec.start = tb.now();
      spec.end = spec.start + static_cast<net::Time>(minutes) * net::kMinute;
      spec.fraction = byz_fraction / static_cast<double>(kinds.size());
      spec.count = 0;  // fraction-sized actor set
      spec.probability = 0.5;
      spec.rate = 5.0;
      specs.push_back(spec);
    }
    fault_fabric = tb.install_fault_fabrics()[0];
    fault_fabric->schedule_all(specs);
    std::printf("byzantine: %.0f%% of the deployment misbehaving (%zu windows)\n\n",
                byz_fraction * 100.0, specs.size());
  }

  std::printf("%-5s %-6s %-9s %-7s %-7s %-9s %-9s %-10s\n", "min", "alive", "exch/min",
              "fill", "clust", "wcl-ok", "wcl-fail", "traffic");
  std::uint64_t prev_done = 0;
  for (int minute = 1; minute <= minutes; ++minute) {
    advance(net::kMinute);
    std::uint64_t done = 0, wcl_ok = 0, wcl_fail = 0, up_bytes = 0;
    double fill = 0;
    for (std::size_t i = 0; i < tb.node_count(); ++i) {
      WhisperNode* n = tb.node_at(i);
      done += n->pss().exchanges_completed();
      wcl_ok += n->wcl().stats().first_try_success + n->wcl().stats().alternative_success;
      wcl_fail += n->wcl().stats().no_alternative;
    }
    for (WhisperNode* n : tb.alive_nodes()) {
      fill += static_cast<double>(n->pss().view().size());
      up_bytes += tb.network(0).counters(n->internal_endpoint()).total_up();
    }
    auto graph = tb.overlay_snapshot();
    Samples clust = pss::clustering_coefficients(graph);
    std::printf("%-5d %-6zu %-9llu %-7.1f %-7.3f %-9llu %-9llu %-7.1f MB\n", minute,
                tb.alive_count(), static_cast<unsigned long long>(done - prev_done),
                fill / static_cast<double>(tb.alive_count()), clust.mean(),
                static_cast<unsigned long long>(wcl_ok),
                static_cast<unsigned long long>(wcl_fail),
                static_cast<double>(up_bytes) / (1024.0 * 1024.0));
    prev_done = done;
  }

  std::printf("\nsummary: killed=%zu spawned=%zu packets=%llu delivered=%llu\n",
              engine.total_killed(), engine.total_spawned(),
              static_cast<unsigned long long>(tb.network(0).packets_sent()),
              static_cast<unsigned long long>(tb.network(0).packets_delivered()));
  if (const faults::FaultFabric* ff = fault_fabric) {
    const auto& fs = ff->stats();
    std::printf("faults: dropped=%llu delayed=%llu duplicated=%llu corrupted=%llu "
                "queued=%llu flushed=%llu paused=%llu crashed=%llu natresets=%llu\n",
                static_cast<unsigned long long>(fs.packets_dropped),
                static_cast<unsigned long long>(fs.packets_delayed),
                static_cast<unsigned long long>(fs.packets_duplicated),
                static_cast<unsigned long long>(fs.packets_corrupted),
                static_cast<unsigned long long>(fs.packets_queued),
                static_cast<unsigned long long>(fs.packets_flushed),
                static_cast<unsigned long long>(fs.nodes_paused),
                static_cast<unsigned long long>(fs.nodes_crashed),
                static_cast<unsigned long long>(fs.nat_resets));
    if (fs.byz_truncated + fs.byz_oversized + fs.byz_bitflipped + fs.byz_captured +
            fs.byz_replayed + fs.byz_flooded + fs.byz_fabricated >
        0) {
      std::printf("byzantine: truncated=%llu oversized=%llu bitflipped=%llu "
                  "captured=%llu replayed=%llu flooded=%llu fabricated=%llu\n",
                  static_cast<unsigned long long>(fs.byz_truncated),
                  static_cast<unsigned long long>(fs.byz_oversized),
                  static_cast<unsigned long long>(fs.byz_bitflipped),
                  static_cast<unsigned long long>(fs.byz_captured),
                  static_cast<unsigned long long>(fs.byz_replayed),
                  static_cast<unsigned long long>(fs.byz_flooded),
                  static_cast<unsigned long long>(fs.byz_fabricated));
    }
  }
  const double reach =
      pss::reachable_fraction(tb.overlay_snapshot(), tb.alive_nodes()[0]->id());
  std::printf("overlay reachability from %s: %.1f%%\n",
              tb.alive_nodes()[0]->id().str().c_str(), reach * 100.0);

  if (!trace_path.empty()) {
    const telemetry::FlightRecorder& flight = tb.flight(0);
    if (telemetry::write_text_file(trace_path, telemetry::to_chrome_trace(flight.events()))) {
      std::printf("trace: %zu events -> %s (%llu dropped)\n", flight.events().size(),
                  trace_path.c_str(), static_cast<unsigned long long>(flight.dropped()));
    } else {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  std::vector<telemetry::FlightRecord> flights;
  if (cfg.flight) flights = tb.flight(0).assemble();
  if (!flight_path.empty()) {
    if (telemetry::write_text_file(flight_path, telemetry::to_jsonl(flights))) {
      std::printf("flight: %zu records -> %s (%llu events dropped)\n", flights.size(),
                  flight_path.c_str(),
                  static_cast<unsigned long long>(tb.flight(0).dropped()));
    } else {
      std::fprintf(stderr, "flight: cannot write %s\n", flight_path.c_str());
      return 1;
    }
  }
  if (!audit_spec.empty()) {
    const telemetry::AuditReport report =
        telemetry::audit(flights, vantage, tb.node_count());
    std::printf("\naudit vantage %s:\n%s", vantage.str().c_str(),
                telemetry::format_report(report).c_str());
  }
  if (!metrics_path.empty()) {
    if (telemetry::write_text_file(metrics_path,
                                   telemetry::to_jsonl(tb.registry(0)) + samples)) {
      std::printf("metrics: %zu series -> %s\n", tb.registry(0).entries().size(),
                  metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
