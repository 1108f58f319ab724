// whisper_localnet — boot a real WHISPER mesh on 127.0.0.1 and verify
// end-to-end confidential delivery, optionally under crash chaos.
//
//   whisper_localnet --nodes=10 [--timeout=60s] [--dir=DIR] [--keep-dir]
//                    [--noded=PATH] [--seed=7] [--flight]
//                    [--chaos=kill:0.3[,stop:1][,natreboot:1]]
//                    [--stats-interval=0.5] [--scrape-admin] [--trace-wire]
//                    [--nat=symmetric:0.3,port_restricted:0.3]
//                    [--impair=loss:0.05,delay:20ms~10ms] [--nat-lease=SECS]
//
// Forks N whisper_noded processes (one OS process per node, each with its
// own UDP socket and epoll loop), wires them through a rendezvous
// directory, and waits for every node to confirm its end of the
// join -> group -> onion-send exchange (see whisper_noded for the file
// protocol). Exit 0 iff all N delivered within the timeout.
//
// Observability (DESIGN.md §15): the supervisor scrapes each node's binary
// stats.I health record (its liveness probe — there is no separate
// heartbeat file) and folds the fleet into DIR/fleet.jsonl: one JSON line
// per node per new record, ascending node id, followed by one summed
// "fleet" line per scrape round — a merged time series that shows kill /
// recovery dips. Every record is whole, so each line needs only the
// record it was read from. Every child shares one CLOCK_MONOTONIC epoch
// (--epoch) so timestamps are directly comparable. --scrape-admin
// additionally queries every node's admin UDP socket once every node has
// delivered (every node serves until teardown) and gates the replies
// against the rendezvous delivery receipts. --trace-wire passes
// the cross-process flight tracing opt-in through (implies --flight).
//
// --chaos turns the launcher into a crash supervisor (DESIGN.md §14.4).
// Victim selection is deterministic from --seed; each spec value is a
// count when >= 1, a fraction of the mesh when < 1 (the Byzantine fabric's
// actor-selection idiom):
//
//   kill:F   after the mesh converges, SIGKILL F nodes, erase their
//            delivery receipts, and restart each from its --state-dir with
//            exponential backoff (250 ms * 2^attempt, capped at 5 s). The
//            run passes only if every victim comes back as ITSELF — its
//            rendezvous card byte-identical (same node id, key, port), its
//            health-record incarnation bumped — and re-confirms delivery.
//   stop:F   SIGSTOP F different nodes for a few seconds, then SIGCONT.
//            The supervisor must flag them hung (pid alive, health-record
//            seq frozen past the stall threshold) while stopped and see
//            the records resume after SIGCONT: the liveness probe must
//            tell a wedged process from a dead one.
//   natreboot:F  power-cycle the emulated NAT in front of F *natted*
//            nodes (admin kNatReboot wipes every mapping + mapping
//            socket), erase their delivery receipts, and require each
//            victim to re-earn its receipt through fresh mappings —
//            re-registration, hole re-punching and relay fallback proven
//            on a live process. Requires --nat.
//
// Chaos implies per-node state dirs (DIR/state.I). Every node serves until
// the supervisor's teardown, so the surviving mesh keeps serving while
// victims rejoin. Children that die when the supervisor did not kill them
// fail the run, with the exit code or signal named in the report.
//
// NAT adversity (DESIGN.md §16): --nat assigns each node a NAT type from a
// mix spec ("TYPE:F,..." — F a count when >= 1, a fraction when < 1; the
// remainder stays public; node 1, the leader/relay, is always public). Each
// natted noded runs behind the deterministic ShimStack, so traversal runs
// against the same mapping/filtering rules the simulator enforces — on real
// sockets. --impair passes loss/delay/reorder/dup/rate shaping to every
// node; --nat-lease shortens the emulated mapping lease so expiry-driven
// route refresh happens on localnet timescales. On a convergence failure
// the report names each missing node's NAT type and last traversal state
// (relay registrations, direct/punched/relayed sends, live mappings)
// scraped from its stats records. After a NAT-mixed run the supervisor also audits the
// cards every node held at exit for internal-endpoint leaks: a natted node's
// private address must never appear in any contact card — the address-level
// unlinkability claim (zero linkable pairs) the relay architecture makes.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "admin.hpp"
#include "args.hpp"
#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nat/rules.hpp"
#include "pss/contact.hpp"
#include "telemetry/health.hpp"

namespace tel = whisper::telemetry;
namespace nat = whisper::nat;

namespace {

volatile std::sig_atomic_t g_child_died = 0;

void handle_sigchld(int) { g_child_died = 1; }

double now_s() {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// A node's latest stats.I record, if it has published a readable one.
std::optional<tel::HealthSnapshot> read_stats(const std::string& path) {
  const auto bytes = whisper::read_file(path);
  if (!bytes) return std::nullopt;
  return tel::decode_health_record(*bytes);
}

/// Default noded binary: next to this one.
std::string sibling_noded(const char* argv0) {
  std::string self = argv0;
  const auto slash = self.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/whisper_noded";
}

void print_log_tail(const std::string& path, int lines) {
  std::ifstream in(path);
  if (!in) return;
  std::vector<std::string> tail;
  std::string line;
  while (std::getline(in, line)) {
    tail.push_back(line);
    if (tail.size() > static_cast<std::size_t>(lines)) tail.erase(tail.begin());
  }
  for (const auto& l : tail) std::fprintf(stderr, "    %s\n", l.c_str());
}

std::string exit_cause(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    return "signal " + std::to_string(sig) + " (" + strsignal(sig) + ")";
  }
  return "status " + std::to_string(status);
}

/// Fisher-Yates shuffle driven by the splitmix64 stream seeded with
/// `seed`: deterministic NAT dealing and victim selection from --seed.
void seeded_shuffle(std::vector<std::uint64_t>& ids, std::uint64_t seed) {
  for (std::size_t i = ids.size(); i > 1; --i, seed += whisper::kSplitmixGamma) {
    std::swap(ids[i - 1], ids[whisper::mix64(seed) % i]);
  }
}

/// --chaos=kill:0.3,stop:1,natreboot:1 — each value is a count when >= 1,
/// a fraction of the mesh when < 1 (mirrors the fault fabric's actor
/// selection).
struct ChaosSpec {
  double kill = 0.0;
  double stop = 0.0;
  double natreboot = 0.0;
  bool enabled() const { return kill > 0.0 || stop > 0.0 || natreboot > 0.0; }

  static std::uint64_t resolve(double v, std::uint64_t nodes) {
    if (v <= 0.0) return 0;
    if (v >= 1.0) return static_cast<std::uint64_t>(v);
    const auto n = static_cast<std::uint64_t>(v * static_cast<double>(nodes) + 0.5);
    return n == 0 ? 1 : n;
  }
};

bool parse_chaos(const std::string& spec, ChaosSpec* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos) return false;
    const std::string kind = part.substr(0, colon);
    const double value = std::strtod(part.c_str() + colon + 1, nullptr);
    if (kind == "kill") {
      out->kill = value;
    } else if (kind == "stop") {
      out->stop = value;
    } else if (kind == "natreboot") {
      out->natreboot = value;
    } else {
      return false;
    }
    pos = comma + 1;
  }
  return out->enabled();
}

/// --nat=symmetric:0.3,port_restricted:0.3 — one (type, amount) pair per
/// item; amounts are counts when >= 1, fractions of the mesh when < 1.
/// Unassigned nodes stay public. "--nat=symmetric" alone nats everyone but
/// the leader symmetrically.
struct NatMixItem {
  nat::NatType type = nat::NatType::kNone;
  double amount = 0.0;
};

bool parse_nat_mix(const std::string& spec, std::vector<NatMixItem>* out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const std::size_t colon = part.find(':');
    NatMixItem item;
    const std::string name = part.substr(0, colon);
    const auto type = nat::nat_type_from_name(name);
    if (!type || *type == nat::NatType::kNone) return false;
    item.type = *type;
    item.amount = colon == std::string::npos
                      ? 1e18  // bare type: everything that can be natted
                      : std::strtod(part.c_str() + colon + 1, nullptr);
    if (item.amount <= 0) return false;
    out->push_back(item);
    pos = comma + 1;
  }
  return !out->empty();
}

/// Everything the supervisor tracks about one node process.
struct Child {
  pid_t pid = -1;
  /// Chaos bookkeeping.
  bool kill_victim = false;
  bool stop_victim = false;
  bool stopped = false;       // currently SIGSTOP'd
  bool expected_dead = false; // we sent SIGKILL; next reap is ours
  int restarts = 0;
  double restart_at = 0.0;    // 0 = no restart scheduled
  std::optional<whisper::Bytes> card_before;  // rendezvous card before the kill
  unsigned inc_before = 0;    // health-record incarnation before the kill
  bool recovered = false;
  bool hung_seen = false;     // liveness probe flagged frozen stats records
  bool resumed_seen = false;  // ...and saw them advance again after SIGCONT
  bool natreboot_victim = false;
  bool reboot_acked = false;     // admin kNatReboot got its reply
  bool nat_recovered = false;    // delivery re-confirmed post NAT reboot
  /// Liveness probe state.
  unsigned long long last_seq = 0;
  double seq_changed_at = 0.0;
  std::string death_cause;    // exit/signal description of last death
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t nodes = std::strtoull(
      arg_string(argc, argv, "nodes", "10").c_str(), nullptr, 10);
  const std::uint64_t timeout_s = arg_seconds(argc, argv, "timeout", 60);
  const std::string seed = arg_string(argc, argv, "seed", "7");
  const bool keep_dir = arg_flag(argc, argv, "keep-dir");
  const bool trace_wire = arg_flag(argc, argv, "trace-wire");
  const bool flight = arg_flag(argc, argv, "flight") || trace_wire;
  const bool scrape_admin = arg_flag(argc, argv, "scrape-admin");
  const std::string stats_interval =
      arg_string(argc, argv, "stats-interval", "0.5");
  std::string noded = arg_string(argc, argv, "noded", sibling_noded(argv[0]));
  ChaosSpec chaos;
  const std::string chaos_arg = arg_string(argc, argv, "chaos", "");
  if (!chaos_arg.empty() && !parse_chaos(chaos_arg, &chaos)) {
    std::fprintf(stderr,
                 "bad --chaos spec '%s' (want kill:F[,stop:F][,natreboot:F])\n",
                 chaos_arg.c_str());
    return 2;
  }
  const std::string nat_arg = arg_string(argc, argv, "nat", "");
  std::vector<NatMixItem> nat_mix;
  if (!nat_arg.empty() && !parse_nat_mix(nat_arg, &nat_mix)) {
    std::fprintf(stderr,
                 "bad --nat spec '%s' (want TYPE:F,... with TYPE in "
                 "full_cone/restricted_cone/port_restricted_cone/symmetric)\n",
                 nat_arg.c_str());
    return 2;
  }
  const std::string impair_arg = arg_string(argc, argv, "impair", "");
  const std::string nat_lease_arg = arg_string(argc, argv, "nat-lease", "");
  if (nodes < 2) {
    std::fprintf(stderr, "need --nodes >= 2\n");
    return 2;
  }
  if (chaos.natreboot > 0 && nat_mix.empty()) {
    std::fprintf(stderr, "--chaos=natreboot needs --nat (victims must be natted)\n");
    return 2;
  }

  // NAT assignment: seeded shuffle of 2..N (node 1 — the leader, everyone's
  // bootstrap relay — stays public), then deal types off the front in spec
  // order. Deterministic per --seed, independent of the chaos draw.
  std::vector<nat::NatType> nat_of(nodes + 1, nat::NatType::kNone);
  if (!nat_mix.empty()) {
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 2; i <= nodes; ++i) ids.push_back(i);
    seeded_shuffle(ids, std::strtoull(seed.c_str(), nullptr, 10) ^ 0x4a7);
    std::size_t next = 0;
    for (const NatMixItem& item : nat_mix) {
      std::uint64_t n = item.amount >= 1e17
                            ? ids.size()
                            : ChaosSpec::resolve(item.amount, nodes);
      for (; n > 0 && next < ids.size(); --n, ++next) {
        nat_of[ids[next]] = item.type;
      }
    }
    std::string mix_report;
    for (std::uint64_t i = 2; i <= nodes; ++i) {
      if (nat_of[i] == nat::NatType::kNone) continue;
      mix_report += " " + std::to_string(i) + "=" + nat::nat_type_name(nat_of[i]);
    }
    std::printf("nat mix:%s (others public)\n",
                mix_report.empty() ? " none" : mix_report.c_str());
  }
  if (::access(noded.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "noded binary not executable: %s (%s)\n", noded.c_str(),
                 std::strerror(errno));
    return 2;
  }

  std::string dir = arg_string(argc, argv, "dir", "");
  if (dir.empty()) {
    char tmpl[] = "/tmp/whisper_localnet.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp: %s\n", std::strerror(errno));
      return 1;
    }
    dir = tmpl;
  } else {
    ::mkdir(dir.c_str(), 0755);
  }
  std::printf("localnet: %llu nodes, rendezvous %s, timeout %llus%s%s\n",
              (unsigned long long)nodes, dir.c_str(),
              (unsigned long long)timeout_s, chaos.enabled() ? ", chaos " : "",
              chaos.enabled() ? chaos_arg.c_str() : "");

  std::signal(SIGCHLD, handle_sigchld);  // prompt reaping: interrupts usleep

  // One shared CLOCK_MONOTONIC zero for the whole fleet: every child's
  // now() — and therefore every health record and flight event timestamp —
  // counts from the same instant.
  const std::uint64_t epoch_ns = monotonic_ns();

  // Children outlive both the convergence and the recovery window: the
  // supervisor's teardown, not the node timeout, ends every run.
  const std::uint64_t child_timeout_s = 2 * timeout_s + 15;

  std::vector<Child> children(nodes + 1);

  // Fork one whisper_noded. Initial boot truncates DIR/log.I; a chaos
  // restart appends, keeping the pre-crash tail for the report.
  const auto spawn_node = [&](std::uint64_t i, bool restart) -> pid_t {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
      return -1;
    }
    if (pid == 0) {
      std::signal(SIGCHLD, SIG_DFL);
      const std::string log = dir + "/log." + std::to_string(i);
      const int fd = ::open(log.c_str(),
                            O_WRONLY | O_CREAT | (restart ? O_APPEND : O_TRUNC),
                            0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<std::string> args = {
          noded,
          "--dir=" + dir,
          "--id=" + std::to_string(i),
          "--nodes=" + std::to_string(nodes),
          "--timeout=" + std::to_string(child_timeout_s),
          "--seed=" + seed,
          "--epoch=" + std::to_string(epoch_ns),
          "--stats-interval=" + stats_interval,
      };
      if (chaos.enabled()) {
        args.push_back("--state-dir=" + dir + "/state." + std::to_string(i));
      }
      if (nat_of[i] != nat::NatType::kNone) {
        args.push_back(std::string("--nat=") + nat::nat_type_name(nat_of[i]));
      }
      if (!impair_arg.empty()) args.push_back("--impair=" + impair_arg);
      if (!nat_lease_arg.empty()) args.push_back("--nat-lease=" + nat_lease_arg);
      if (flight) {
        args.push_back("--flight=" + dir + "/flight." + std::to_string(i) +
                       ".jsonl");
      }
      if (trace_wire) args.push_back("--trace-wire");
      std::vector<char*> cargs;
      for (auto& a : args) cargs.push_back(a.data());
      cargs.push_back(nullptr);
      ::execv(noded.c_str(), cargs.data());
      std::fprintf(stderr, "execv %s: %s\n", noded.c_str(), std::strerror(errno));
      _exit(127);
    }
    return pid;
  };

  for (std::uint64_t i = 1; i <= nodes; ++i) {
    children[i].pid = spawn_node(i, /*restart=*/false);
    if (children[i].pid < 0) return 1;
  }

  bool failed = false;

  // Fleet time series: the latest record read from each node; every new
  // record becomes one JSON line in DIR/fleet.jsonl (ascending node id),
  // and each scrape round that saw news appends one summed "fleet" line.
  // Deterministic ordering makes the file diffable in CI. A node with no
  // record yet holds seq 0 (published records start at 1) and adds nothing
  // to the sum.
  std::vector<tel::HealthSnapshot> latest(nodes + 1);
  std::uint64_t fleet_rounds = 0;
  std::FILE* fleet = std::fopen((dir + "/fleet.jsonl").c_str(), "w");
  if (fleet == nullptr) {
    std::fprintf(stderr, "cannot write %s/fleet.jsonl\n", dir.c_str());
    return 1;
  }

  const auto scrape_fleet = [&] {
    bool any = false;
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      auto snap = read_stats(dir + "/stats." + std::to_string(i));
      if (!snap) continue;
      if (snap->seq == latest[i].seq && snap->incarnation == latest[i].incarnation) {
        continue;  // no new record since last round
      }
      latest[i] = std::move(*snap);
      std::fputs(tel::health_to_json(latest[i], std::to_string(i)).c_str(), fleet);
      std::fputc('\n', fleet);
      any = true;
    }
    if (!any) return;
    tel::HealthSnapshot sum = tel::fleet_total(latest);
    sum.seq = ++fleet_rounds;
    std::fputs(tel::health_to_json(sum, "fleet").c_str(), fleet);
    std::fputc('\n', fleet);
    std::fflush(fleet);
  };

  /// Reap every dead child. A death the supervisor caused (SIGKILL victim,
  /// teardown) is expected; any other fails the run, since every node serves
  /// until the teardown.
  const auto reap = [&](bool teardown) {
    g_child_died = 0;
    int status = 0;
    pid_t dead = 0;
    while ((dead = ::waitpid(-1, &status, WNOHANG)) > 0) {
      for (std::uint64_t i = 1; i <= nodes; ++i) {
        Child& c = children[i];
        if (c.pid != dead) continue;
        c.pid = -1;
        c.death_cause = exit_cause(status);
        if (c.expected_dead || teardown) {
          c.expected_dead = false;
          break;
        }
        std::fprintf(stderr, "node %llu died unexpectedly: %s\n",
                     (unsigned long long)i, c.death_cause.c_str());
        if (chaos.enabled() && c.kill_victim && c.restarts > 0 && c.restarts < 5) {
          // A restarted victim crashed again: back off exponentially and
          // try once more rather than giving up on first stumble.
          const double backoff = 0.25 * static_cast<double>(1 << c.restarts);
          c.restart_at = now_s() + (backoff > 5.0 ? 5.0 : backoff);
          std::fprintf(stderr, "  rescheduling restart #%d of node %llu\n",
                       c.restarts + 1, (unsigned long long)i);
        } else {
          failed = true;
        }
        break;
      }
    }
  };

  // --- Phase 1: convergence — every node confirms delivery. ---
  const double deadline = now_s() + static_cast<double>(timeout_s);
  std::vector<bool> delivered(nodes + 1, false);
  std::uint64_t confirmed = 0;
  while (confirmed < nodes && now_s() < deadline && !failed) {
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      if (!delivered[i] && file_exists(dir + "/delivered." + std::to_string(i))) {
        delivered[i] = true;
        ++confirmed;
        std::printf("  delivered %llu/%llu (node %llu)\n",
                    (unsigned long long)confirmed, (unsigned long long)nodes,
                    (unsigned long long)i);
      }
    }
    scrape_fleet();
    reap(/*teardown=*/false);
    ::usleep(100 * 1000);
  }

  bool success = confirmed == nodes;
  if (!success) {
    std::fprintf(stderr, "FAIL: %llu/%llu nodes delivered within %llus\n",
                 (unsigned long long)confirmed, (unsigned long long)nodes,
                 (unsigned long long)timeout_s);
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      if (delivered[i]) continue;
      std::fprintf(stderr, "  node %llu (%s) log tail:\n", (unsigned long long)i,
                   children[i].death_cause.empty() ? "running"
                                                   : children[i].death_cause.c_str());
      print_log_tail(dir + "/log." + std::to_string(i), 5);
      // Traversal diagnostics off the node's last scraped stats record:
      // a node that never registered with its relay, or that registered but
      // punched/relayed nothing, names its failure stage directly.
      if (latest[i].seq != 0) {
        const tel::HealthSnapshot& s = latest[i];
        std::fprintf(
            stderr,
            "    nat=%s registrations=%.0f sends(direct/punched/relayed)="
            "%.0f/%.0f/%.0f probes=%.0f mappings=%.0f rx_kernel_drops=%.0f\n",
            nat::nat_type_name(nat_of[i]), s.metric("nylon.registrations"),
            s.metric("nylon.sends.direct"), s.metric("nylon.sends.punched"),
            s.metric("nylon.sends.relayed"), s.metric("nylon.probes.sent"),
            s.metric("shim.nat.active"), s.metric("udp.rx_kernel_drops"));
      } else {
        std::fprintf(stderr,
                     "    nat=%s — no stats record ever scraped (process "
                     "never published)\n",
                     nat::nat_type_name(nat_of[i]));
      }
    }
  }

  // --- Admin scrape gate: query every node's admin socket mid-run and
  // cross-check the replies against the rendezvous receipts. ---
  if (success && scrape_admin) {
    double fleet_delivered = 0;
    std::uint64_t replies = 0;
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      const std::uint16_t port = read_port(dir + "/admin." + std::to_string(i));
      if (port == 0) {
        std::fprintf(stderr, "admin FAIL: node %llu published no admin port\n",
                     (unsigned long long)i);
        continue;
      }
      const auto snap = query_admin(port);
      if (!snap || snap->node != i || snap->pid == 0) {
        std::fprintf(stderr, "admin FAIL: node %llu gave no valid reply\n",
                     (unsigned long long)i);
        continue;
      }
      ++replies;
      fleet_delivered += snap->metric("wcl.onions.delivered");
    }
    std::uint64_t receipts = 0;
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      receipts += file_exists(dir + "/delivered." + std::to_string(i)) ? 1 : 0;
    }
    // Every delivery receipt implies at least one onion opened at its final
    // destination somewhere in the fleet.
    if (replies != nodes || fleet_delivered + 0.5 < static_cast<double>(receipts)) {
      std::fprintf(stderr,
                   "admin FAIL: %llu/%llu replies, fleet onions delivered "
                   "%.0f vs %llu receipts\n",
                   (unsigned long long)replies, (unsigned long long)nodes,
                   fleet_delivered, (unsigned long long)receipts);
      success = false;
      failed = true;
    } else {
      std::printf("admin scrape: %llu/%llu replies, %.0f onions delivered "
                  ">= %llu receipts\n",
                  (unsigned long long)replies, (unsigned long long)nodes,
                  fleet_delivered, (unsigned long long)receipts);
    }
  }

  // --- Phase 2: chaos — SIGKILL + restart, SIGSTOP + liveness probe. ---
  if (success && chaos.enabled()) {
    const std::uint64_t kill_n = ChaosSpec::resolve(chaos.kill, nodes);
    const std::uint64_t stop_n = ChaosSpec::resolve(chaos.stop, nodes);
    // Deterministic victim draw: shuffle 1..N by seeded splitmix, take
    // kill victims then stop victims from the front (disjoint sets).
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 1; i <= nodes; ++i) ids.push_back(i);
    seeded_shuffle(ids, std::strtoull(seed.c_str(), nullptr, 10) ^ 0xc4405);
    if (kill_n + stop_n > nodes) {
      std::fprintf(stderr, "chaos spec selects more victims than nodes\n");
      return 2;
    }

    const double chaos_start = now_s();
    const double stall_threshold = 3.0;   // stats frozen longer = hung
    const double cont_at = chaos_start + 5.0;
    bool cont_sent = false;

    for (std::uint64_t k = 0; k < kill_n; ++k) {
      const std::uint64_t v = ids[k];
      Child& c = children[v];
      c.kill_victim = true;
      c.card_before = whisper::read_file(dir + "/card." + std::to_string(v));
      const auto before = read_stats(dir + "/stats." + std::to_string(v));
      c.inc_before = before ? before->incarnation : 0;
      c.expected_dead = true;
      ::kill(c.pid, SIGKILL);
      // The receipt must be re-earned by the restarted incarnation.
      ::unlink((dir + "/delivered." + std::to_string(v)).c_str());
      c.restarts = 1;
      c.restart_at = chaos_start + 0.25;
      std::printf("chaos: SIGKILL node %llu (pid %d), restart in 250 ms\n",
                  (unsigned long long)v, (int)c.pid);
    }
    for (std::uint64_t k = 0; k < stop_n; ++k) {
      const std::uint64_t v = ids[kill_n + k];
      Child& c = children[v];
      c.stop_victim = true;
      c.stopped = true;
      ::kill(c.pid, SIGSTOP);
      std::printf("chaos: SIGSTOP node %llu (pid %d), SIGCONT in 5 s\n",
                  (unsigned long long)v, (int)c.pid);
    }

    // NAT reboots: natted nodes only, disjoint from the kill/stop sets,
    // taken in the same shuffled order. The admin request wipes every
    // mapping (and closes the mapping sockets) inside the victim's shim;
    // the receipt is unlinked after the reply so re-delivery can only
    // happen through mappings the rebooted NAT allocated afresh.
    const std::uint64_t natreboot_n = ChaosSpec::resolve(chaos.natreboot, nodes);
    std::uint64_t rebooted = 0;
    for (std::size_t k = kill_n + stop_n;
         k < ids.size() && rebooted < natreboot_n; ++k) {
      const std::uint64_t v = ids[k];
      if (nat_of[v] == nat::NatType::kNone) continue;
      Child& c = children[v];
      const std::uint16_t port = read_port(dir + "/admin." + std::to_string(v));
      c.natreboot_victim = true;
      std::optional<tel::HealthSnapshot> snap;
      if (port != 0) snap = query_admin(port, tel::AdminOp::kNatReboot);
      c.reboot_acked = snap.has_value();
      ::unlink((dir + "/delivered." + std::to_string(v)).c_str());
      std::printf("chaos: NAT reboot node %llu (%s)%s — receipt erased, "
                  "must re-traverse\n",
                  (unsigned long long)v, nat::nat_type_name(nat_of[v]),
                  c.reboot_acked ? "" : " [no admin ack]");
      ++rebooted;
    }
    if (rebooted < natreboot_n) {
      std::fprintf(stderr,
                   "chaos FAIL: only %llu of %llu requested natreboot victims "
                   "available (natted, not already a victim)\n",
                   (unsigned long long)rebooted, (unsigned long long)natreboot_n);
      failed = true;
    }

    // Recovery window: a fresh `timeout_s`, independent of convergence.
    const double recover_deadline = now_s() + static_cast<double>(timeout_s);
    while (now_s() < recover_deadline && !failed) {
      const double t = now_s();
      reap(/*teardown=*/false);
      scrape_fleet();

      // Restart due victims from their state dirs.
      for (std::uint64_t i = 1; i <= nodes; ++i) {
        Child& c = children[i];
        if (c.restart_at != 0.0 && t >= c.restart_at && c.pid < 0) {
          c.restart_at = 0.0;
          c.pid = spawn_node(i, /*restart=*/true);
          std::printf("chaos: node %llu restarting from %s/state.%llu "
                      "(attempt %d)\n",
                      (unsigned long long)i, dir.c_str(), (unsigned long long)i,
                      c.restarts);
        }
      }

      // SIGCONT the stopped set once their stall has lasted long enough
      // for the probe to have seen it.
      if (!cont_sent && t >= cont_at) {
        cont_sent = true;
        for (std::uint64_t i = 1; i <= nodes; ++i) {
          Child& c = children[i];
          if (c.stop_victim && c.stopped) {
            c.stopped = false;
            ::kill(c.pid, SIGCONT);
            std::printf("chaos: SIGCONT node %llu\n", (unsigned long long)i);
          }
        }
      }

      // Liveness probe: pid alive + health-record seq frozen = hung, not
      // dead. Same versioned record the fleet scrape reads — there is no
      // separate heartbeat format.
      for (std::uint64_t i = 1; i <= nodes; ++i) {
        Child& c = children[i];
        if (c.pid < 0) continue;
        const auto hb = read_stats(dir + "/stats." + std::to_string(i));
        if (!hb) continue;
        if (hb->seq != c.last_seq) {
          if (c.stop_victim && c.hung_seen && !c.resumed_seen) {
            c.resumed_seen = true;
            std::printf("chaos: node %llu stats resumed after SIGCONT\n",
                        (unsigned long long)i);
          }
          c.last_seq = hb->seq;
          c.seq_changed_at = t;
          continue;
        }
        if (c.seq_changed_at != 0.0 && t - c.seq_changed_at > stall_threshold &&
            ::kill(c.pid, 0) == 0 && !c.hung_seen) {
          c.hung_seen = true;
          std::printf("chaos: node %llu is HUNG (pid %d alive, stats "
                      "frozen %.1fs)\n",
                      (unsigned long long)i, (int)c.pid, t - c.seq_changed_at);
        }
      }

      // Recovery gate per kill victim: delivery re-confirmed AND the node
      // came back as itself (card byte-identical, incarnation bumped).
      bool all_recovered = true;
      for (std::uint64_t i = 1; i <= nodes; ++i) {
        Child& c = children[i];
        if (c.kill_victim && !c.recovered) {
          if (!file_exists(dir + "/delivered." + std::to_string(i))) {
            all_recovered = false;
            continue;
          }
          const auto card_now = whisper::read_file(dir + "/card." + std::to_string(i));
          const auto hb = read_stats(dir + "/stats." + std::to_string(i));
          if (card_now != c.card_before) {
            std::fprintf(stderr,
                         "chaos FAIL: node %llu came back with a different "
                         "identity card\n",
                         (unsigned long long)i);
            failed = true;
          } else if (!hb || hb->incarnation <= c.inc_before) {
            std::fprintf(stderr,
                         "chaos FAIL: node %llu did not bump its incarnation "
                         "(%u -> %u)\n",
                         (unsigned long long)i, c.inc_before,
                         hb ? hb->incarnation : 0);
            failed = true;
          } else {
            c.recovered = true;
            std::printf("chaos: node %llu recovered — identity intact, "
                        "incarnation %u -> %u, delivery re-confirmed\n",
                        (unsigned long long)i, c.inc_before, hb->incarnation);
          }
        }
        if (c.kill_victim && !c.recovered) all_recovered = false;
        if (c.stop_victim && (!c.hung_seen || !c.resumed_seen)) {
          all_recovered = false;
        }
        // NAT-reboot gate: the receipt must come back, re-earned through
        // post-reboot mappings (re-registration, then a pong traversing
        // fresh holes or the relay).
        if (c.natreboot_victim && !c.nat_recovered) {
          if (file_exists(dir + "/delivered." + std::to_string(i))) {
            c.nat_recovered = true;
            std::printf("chaos: node %llu re-delivered after NAT reboot\n",
                        (unsigned long long)i);
          } else {
            all_recovered = false;
          }
        }
      }
      if (all_recovered) break;
      ::usleep(100 * 1000);
    }

    for (std::uint64_t i = 1; i <= nodes; ++i) {
      const Child& c = children[i];
      if (c.kill_victim && !c.recovered) {
        std::fprintf(stderr,
                     "chaos FAIL: node %llu never re-confirmed delivery "
                     "(last death: %s); log tail:\n",
                     (unsigned long long)i,
                     c.death_cause.empty() ? "n/a" : c.death_cause.c_str());
        print_log_tail(dir + "/log." + std::to_string(i), 8);
        failed = true;
      }
      if (c.stop_victim && !c.hung_seen) {
        std::fprintf(stderr,
                     "chaos FAIL: liveness probe never flagged stopped node "
                     "%llu as hung\n",
                     (unsigned long long)i);
        failed = true;
      }
      if (c.stop_victim && c.hung_seen && !c.resumed_seen) {
        std::fprintf(stderr,
                     "chaos FAIL: node %llu stats did not resume after "
                     "SIGCONT\n",
                     (unsigned long long)i);
        failed = true;
      }
      if (c.natreboot_victim && !c.nat_recovered) {
        std::fprintf(stderr,
                     "chaos FAIL: node %llu (%s) never re-delivered after its "
                     "NAT rebooted%s; log tail:\n",
                     (unsigned long long)i, nat::nat_type_name(nat_of[i]),
                     c.reboot_acked ? "" : " (admin reboot unacked)");
        print_log_tail(dir + "/log." + std::to_string(i), 8);
        failed = true;
      }
    }
    success = !failed;
  }

  // Tear down: CONT (a stopped child cannot die of TERM), TERM, grace
  // period, then KILL; reap everything.
  for (std::uint64_t i = 1; i <= nodes; ++i) {
    if (children[i].pid > 0) {
      ::kill(children[i].pid, SIGCONT);
      ::kill(children[i].pid, SIGTERM);
    }
  }
  const double kill_at = now_s() + 3.0;
  std::uint64_t live = 0;
  for (std::uint64_t i = 1; i <= nodes; ++i) live += children[i].pid > 0 ? 1 : 0;
  while (live > 0) {
    reap(/*teardown=*/true);
    live = 0;
    for (std::uint64_t i = 1; i <= nodes; ++i) live += children[i].pid > 0 ? 1 : 0;
    if (live == 0) break;
    if (now_s() > kill_at) {
      for (std::uint64_t i = 1; i <= nodes; ++i) {
        if (children[i].pid > 0) ::kill(children[i].pid, SIGKILL);
      }
    }
    ::usleep(50 * 1000);
  }
  // Final scrape: exit-time records (noded writes one on shutdown) land in
  // the timeline before the file closes.
  scrape_fleet();
  std::fclose(fleet);

  // Address-level unlinkability audit (NAT runs): a natted node's internal
  // endpoint (the shim's 10/8 synthetic address) must never reach a card
  // other nodes read — its contact card must advertise its relay, not
  // itself. One leak would let an observer link the node's group traffic to
  // its private identity; the gate is zero such pairs. Each node writes the
  // cards it holds at exit (held.I: its own, then its PSS view), so the
  // audit sees the cards nodes hold after registering, not the boot-time
  // card.I, which carries no address for a natted node. A node that wrote
  // none fails the audit: the gate never passes on nothing.
  if (!nat_mix.empty()) {
    std::uint64_t leaks = 0, cards = 0, natted_cards = 0;
    for (std::uint64_t i = 1; i <= nodes; ++i) {
      std::ifstream in(dir + "/held." + std::to_string(i));
      std::uint64_t held = 0;
      for (std::string hex; in >> hex; ++held) {
        const whisper::Bytes bytes = whisper::from_hex(hex);
        whisper::Reader r(bytes);
        const auto card = whisper::pss::ContactCard::deserialize(r);
        const std::uint64_t owner = card.id.value;
        const bool natted = owner >= 1 && owner <= nodes && nat_of[owner] != nat::NatType::kNone;
        const bool internal_leak = (card.addr.ip >> 24) == 10;
        natted_cards += natted ? 1 : 0;
        if (internal_leak || (natted && card.is_public)) {
          std::fprintf(stderr,
                       "linkability FAIL: node %llu holds %s node %llu's card "
                       "advertising %s (public=%d)\n",
                       (unsigned long long)i, natted ? "natted" : "public",
                       (unsigned long long)owner, card.addr.str().c_str(), card.is_public);
          ++leaks;
        }
      }
      cards += held;
      if (held == 0) {
        std::fprintf(stderr, "linkability FAIL: node %llu wrote no held cards\n",
                     (unsigned long long)i);
        ++leaks;
      }
    }
    if (leaks > 0) {
      success = false;
      failed = true;
    } else {
      std::printf("linkability: 0 internal-endpoint leaks across %llu held cards "
                  "(%llu of natted nodes) — zero linkable pairs\n",
                  (unsigned long long)cards, (unsigned long long)natted_cards);
    }
  }

  if (success) {
    if (chaos.enabled()) {
      std::printf("OK: all %llu nodes delivered; chaos victims rejoined with "
                  "their original identities\n",
                  (unsigned long long)nodes);
    } else {
      std::printf("OK: all %llu nodes delivered\n", (unsigned long long)nodes);
    }
    std::printf("fleet timeline: %s/fleet.jsonl\n", dir.c_str());
    if (flight) {
      std::printf("flight records: %s/flight.<id>.jsonl — try:\n"
                  "  whisper_trace summary %s/flight.1.jsonl\n",
                  dir.c_str(), dir.c_str());
    }
    if (trace_wire) {
      std::printf("cross-process events: %s/flight.<id>.events.jsonl — try:\n"
                  "  whisper_trace summary %s/flight.*.events.jsonl\n",
                  dir.c_str(), dir.c_str());
    }
  }
  if (!keep_dir && !flight && success) {
    // Best-effort cleanup of the rendezvous directory.
    std::string cmd = "rm -rf '" + dir + "'";
    if (dir.rfind("/tmp/whisper_localnet.", 0) == 0) (void)!std::system(cmd.c_str());
  } else {
    std::printf("rendezvous dir kept: %s\n", dir.c_str());
  }
  return success ? 0 : 1;
}
