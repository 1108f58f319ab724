// whisper_top — live fleet view over a whisper_localnet rendezvous
// directory (DESIGN.md §15).
//
//   whisper_top --dir=DIR [--nodes=N] [--interval=1] [--once] [--json]
//               [--admin]
//
// Reads each node's binary stats.I health record (the same versioned
// record the chaos supervisor probes; every record is whole, so one read
// gives a node's full metrics) and renders a refreshing table: delivery
// counters and rate, PSS exchange RTT p95, quarantines, peer restarts,
// incarnation, rss/cpu. A node whose record stops advancing is flagged
// stale — exactly the supervisor's hung-vs-dead signal, read by an
// operator.
//
//   --nodes=N    probe ids 1..N (default: every stats.* file in DIR)
//   --interval   refresh period in seconds (default 1)
//   --once       one sample, no screen clearing — for scripts
//   --json       emit machine-readable JSONL (health_to_json lines,
//                per-node ascending then one "fleet" sum) instead of the
//                table; with --once this is the CI dump format
//   --admin      scrape via each node's admin UDP socket (admin.I ports)
//                instead of the stats files: exercises the request/reply
//                path and always yields a freshly built record
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "admin.hpp"
#include "args.hpp"
#include "common/bytes.hpp"
#include "common/file.hpp"
#include "telemetry/health.hpp"

namespace tel = whisper::telemetry;

namespace {

/// Node ids found as stats.I files in the rendezvous dir, ascending.
std::vector<std::uint64_t> discover_nodes(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ids;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("stats.", 0) != 0) continue;
    const std::uint64_t id = std::strtoull(name.c_str() + 6, nullptr, 10);
    if (id > 0) ids.push_back(id);
  }
  ::closedir(d);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Short NAT-type label off the shim's `shim.nodes{nat=TYPE}` counter;
/// "pub" for a node with no NAT in front of it.
const char* nat_label(const tel::HealthSnapshot& s) {
  static constexpr std::pair<const char*, const char*> kTypes[] = {
      {"shim.nodes{nat=full_cone}", "fc"},
      {"shim.nodes{nat=restricted_cone}", "rc"},
      {"shim.nodes{nat=port_restricted_cone}", "prc"},
      {"shim.nodes{nat=sym}", "sym"},
  };
  for (const auto& [key, label] : kTypes) {
    if (s.metric(key) > 0) return label;
  }
  return "pub";
}

/// Traversal split "direct/punched/relayed" — how this node's outbound
/// data actually reached peers (nylon path counters).
std::string traversal_cell(const tel::HealthSnapshot& s) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.0f/%.0f/%.0f", s.metric("nylon.sends.direct"),
                s.metric("nylon.sends.punched"), s.metric("nylon.sends.relayed"));
  return buf;
}

/// Rolling per-node view state across refreshes.
struct NodeView {
  std::optional<tel::HealthSnapshot> snap;  // latest record read
  int frozen_rounds = 0;      // refreshes without a new record
  double prev_delivered = 0;  // for the delivery-rate column
  std::uint64_t prev_now_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = arg_string(argc, argv, "dir", "");
  const std::uint64_t nodes_arg =
      std::strtoull(arg_string(argc, argv, "nodes", "0").c_str(), nullptr, 10);
  const double interval =
      std::strtod(arg_string(argc, argv, "interval", "1").c_str(), nullptr);
  const bool once = arg_flag(argc, argv, "once");
  const bool json = arg_flag(argc, argv, "json");
  const bool admin = arg_flag(argc, argv, "admin");
  if (dir.empty()) {
    std::fprintf(stderr,
                 "usage: whisper_top --dir=DIR [--nodes=N] [--interval=1]\n"
                 "       [--once] [--json] [--admin]\n");
    return 2;
  }

  std::map<std::uint64_t, NodeView> views;
  const bool tty = ::isatty(1) != 0;

  for (;;) {
    std::vector<std::uint64_t> ids;
    if (nodes_arg > 0) {
      for (std::uint64_t i = 1; i <= nodes_arg; ++i) ids.push_back(i);
    } else {
      ids = discover_nodes(dir);
    }

    // Scrape every node; track freshness by (incarnation, seq) movement.
    for (const std::uint64_t id : ids) {
      NodeView& v = views[id];
      std::optional<tel::HealthSnapshot> snap;
      if (admin) {
        const std::uint16_t port = read_port(dir + "/admin." + std::to_string(id));
        if (port != 0) snap = query_admin(port);
      } else if (const auto bytes =
                     whisper::read_file(dir + "/stats." + std::to_string(id))) {
        snap = tel::decode_health_record(*bytes);
      }
      if (!snap) {
        ++v.frozen_rounds;
        continue;
      }
      const bool advanced = !v.snap || snap->seq != v.snap->seq ||
                            snap->incarnation != v.snap->incarnation;
      v.frozen_rounds = advanced ? 0 : v.frozen_rounds + 1;
      v.snap = std::move(snap);
    }

    if (json) {
      std::vector<tel::HealthSnapshot> seen;
      for (auto& [id, v] : views) {
        if (!v.snap) continue;
        std::printf("%s\n", tel::health_to_json(*v.snap, std::to_string(id)).c_str());
        seen.push_back(*v.snap);
      }
      std::printf("%s\n", tel::health_to_json(tel::fleet_total(seen), "fleet").c_str());
      std::fflush(stdout);
    } else {
      if (tty && !once) std::printf("\033[H\033[2J");
      std::printf("whisper_top — %s%s\n", dir.c_str(),
                  admin ? " (admin sockets)" : "");
      std::printf(
          "%4s %5s %4s %6s %9s %8s %9s %4s %13s %6s %6s %8s %8s %7s  %s\n",
          "node", "pid", "inc", "seq", "delivered", "dlvr/s", "rtt_p95ms",
          "nat", "d/p/r", "quar", "rstrt", "backlog", "rss_mb", "cpu_s",
          "state");
      double fleet_delivered = 0, fleet_rate = 0;
      for (auto& [id, v] : views) {
        if (!v.snap) {
          std::printf("%4llu %*s no data\n", (unsigned long long)id, 5, "-");
          continue;
        }
        const tel::HealthSnapshot& s = *v.snap;
        const double delivered = s.metric("wcl.onions.delivered");
        double rate = 0;
        if (v.prev_now_us != 0 && s.now_us > v.prev_now_us) {
          rate = (delivered - v.prev_delivered) /
                 (static_cast<double>(s.now_us - v.prev_now_us) / 1e6);
        }
        v.prev_delivered = delivered;
        v.prev_now_us = s.now_us;
        fleet_delivered += delivered;
        fleet_rate += rate;
        const double rtt_p95_ms = s.metric("pss.exchange.rtt_us#p95") / 1e3;
        const double backlog =
            s.metric("wcl.backlog.depth{node=n" + std::to_string(s.node) + "}");
        // Stale = no new record for ~3 refreshes: the supervisor's
        // hung-vs-dead threshold, at operator granularity.
        const char* state = v.frozen_rounds >= 3 ? "STALE" : "live";
        std::printf("%4llu %5u %4u %6llu %9.0f %8.1f %9.1f %4s %13s %6.0f %6.0f "
                    "%8.0f %8.1f %7.1f  %s\n",
                    (unsigned long long)id, s.pid, s.incarnation,
                    (unsigned long long)s.seq, delivered, rate, rtt_p95_ms, nat_label(s),
                    traversal_cell(s).c_str(), s.metric("pss.peers.quarantined"),
                    s.metric("nylon.peer_restarts"), backlog,
                    s.metric("proc.rss_kb") / 1024.0, s.metric("proc.cpu_us") / 1e6,
                    state);
      }
      std::printf("fleet: %zu nodes, %.0f delivered, %.1f/s\n", views.size(),
                  fleet_delivered, fleet_rate);
      std::fflush(stdout);
    }

    if (once) break;
    ::usleep(static_cast<useconds_t>((interval > 0.05 ? interval : 1.0) * 1e6));
  }
  return 0;
}
