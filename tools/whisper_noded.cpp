// whisper_noded — one real WHISPER node: a full protocol stack on a UDP
// socket, driven by the epoll event loop.
//
//   whisper_noded --dir=RENDEZVOUS --id=I --nodes=N [--timeout=60]
//                 [--seed=7] [--group=1] [--flight=out.jsonl]
//                 [--state-dir=DIR] [--stats-interval=1]
//                 [--trace-wire] [--epoch=NS] [--nat=TYPE] [--impair=SPEC]
//                 [--nat-lease=SECS]
//
// Nodes coordinate through the rendezvous directory (shared filesystem —
// the localhost stand-in for a bootstrap service):
//
//   card.I       hex ContactCard, written by node I at boot
//   invite.I     hex (Accreditation + leader RemotePeer), written by the
//                leader (id 1) for each member I
//   member.I     written by member I once its group join completed
//   delivered.I  written by node I when its end of the exchange succeeded:
//                members after receiving the leader's onion-routed pong,
//                the leader after ponging every member
//   stats.I      binary health record (telemetry/health.hpp), rewritten
//                atomically every --stats-interval: the identity header
//                plus the full registry, whole in every record. Doubles as
//                the chaos supervisor's liveness probe (pid / incarnation /
//                seq) and as the scrape source for whisper_localnet /
//                whisper_top.
//   admin.I      decimal UDP port of the node's loopback admin socket;
//                a 4-byte stats request (health.hpp) gets the same record
//                back, built fresh.
//   held.I       hex ContactCards, one a line, written by node I at exit:
//                its own card, then every card in its PSS view. The input
//                of whisper_localnet's linkability audit.
//
// The run: everyone boots through boot_live_node (whisper/realnet.hpp)
// and gossips; the leader founds the group and writes invitations; members
// join and send an onion-routed "ping I" to the leader, retrying until the
// leader's "pong I" arrives. A node keeps serving after its own delivery,
// until SIGTERM or --timeout, so peers and restarted nodes always have
// live relays and mixes to reach it through. Exit 0 iff this node's
// delivered.I was written by then. All file polling runs on backend
// timers — the same queue the protocol stack uses.
//
// Crash recovery (DESIGN.md §14): with --state-dir the node persists its
// identity keys, bound endpoint, incarnation and group membership in one
// atomically rewritten snapshot. A restart after kill -9 restores the same
// node id, keys and port, bumps the incarnation (committed before the first
// frame goes out), resumes its groups from the store, and — as a member —
// re-sends its join request to re-validate its passport with the group.
//
// Observability (DESIGN.md §15): --trace-wire opts into version-2 UDP
// frames that carry the TraceContext, so flight events recorded here pair
// with the sender's and whisper_trace can merge per-process event exports
// (written beside --flight as <out>.events.jsonl) into cross-process
// per-hop decompositions. --epoch=NS shares one CLOCK_MONOTONIC zero
// across the fleet so those timestamps are directly comparable. Status
// lines go to stderr as structured JSONL (telemetry/log.hpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "args.hpp"
#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/serialize.hpp"
#include "nat/rules.hpp"
#include "net/shim.hpp"
#include "store/state.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/health.hpp"
#include "telemetry/log.hpp"
#include "whisper/keypool.hpp"
#include "whisper/realnet.hpp"

using namespace whisper;

namespace {

net::UdpBackend* g_backend = nullptr;

void handle_term(int) {
  if (g_backend != nullptr) g_backend->request_stop();
}

std::uint64_t arg_u64(int argc, char** argv, const std::string& key,
                      std::uint64_t fallback) {
  const std::string s = arg_string(argc, argv, key, "");
  if (s.empty()) return fallback;
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// Fractional seconds ("0.25", "1", "2s") as microseconds.
net::Time arg_interval_us(int argc, char** argv, const std::string& key,
                          net::Time fallback_us) {
  std::string s = arg_string(argc, argv, key, "");
  if (s.empty()) return fallback_us;
  if (s.back() == 's' || s.back() == 'S') s.pop_back();
  const double v = std::strtod(s.c_str(), nullptr);
  if (v <= 0) return fallback_us;
  return static_cast<net::Time>(v * 1e6);
}

std::optional<Bytes> read_hex_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string hex;
  in >> hex;
  if (hex.empty()) return std::nullopt;
  return from_hex(hex);
}

/// Atomic publish: peers only ever observe complete files.
bool write_hex_file(const std::string& path, BytesView bytes) {
  return atomic_publish_file(path, to_bytes(to_hex(bytes) + "\n"));
}

/// Resident set from /proc/self/statm, in KiB (0 when unreadable).
std::uint64_t read_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long vsz = 0, rss_pages = 0;
  const int rc = std::fscanf(f, "%llu %llu", &vsz, &rss_pages);
  std::fclose(f);
  if (rc != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<std::uint64_t>(page > 0 ? page : 4096) / 1024;
}

/// CPU time of the whole process (user + sys, every thread), in µs.
std::uint64_t read_process_cpu_us() {
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  const auto us = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<std::uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// Non-blocking loopback UDP socket on an OS-assigned port, for the admin
/// stats endpoint. Returns the fd (or -1) and fills `port`.
int open_admin_socket(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

struct Options {
  std::string dir;
  std::uint64_t id = 0;
  std::uint64_t nodes = 0;
  std::uint64_t timeout_s = 60;
  std::uint64_t seed = 7;
  std::uint64_t group = 1;
  std::string flight_path;
  std::string state_dir;
  net::Time stats_interval = net::kSecond;
  bool trace_wire = false;
  std::int64_t epoch_ns = -1;
  net::ShimProfile shim;  // --nat and --impair
  net::Time nat_lease = 0;  // 0 = rules-engine default
};

/// Epoch history in the form Ppss::resume and the store share.
std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> collect_epochs(
    const ppss::GroupKeyring& keyring) {
  std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> out;
  for (std::uint64_t e = 1; e <= keyring.latest_epoch(); ++e) {
    if (auto key = keyring.key_for(e)) out.emplace_back(e, *key);
  }
  return out;
}

/// The node's rendezvous-driven state machine, advanced by a 50 ms tick.
struct Orchestrator {
  Options opt;
  net::UdpBackend& backend;
  WhisperNode& node;
  bool is_leader;
  store::NodeStateStore* store = nullptr;  // null without --state-dir
  telemetry::Logger& log;
  telemetry::Registry& registry;
  net::ShimStack* shim = nullptr;  // null without --nat/--impair

  ppss::Ppss* group = nullptr;
  std::optional<wcl::RemotePeer> leader_peer = std::nullopt;
  std::optional<ppss::Accreditation> accreditation = std::nullopt;
  std::optional<crypto::RsaKeyPair> group_secret = std::nullopt;  // leader only
  std::unordered_set<std::uint64_t> ponged = {};  // leader: members answered
  net::Time next_ping_at = 0;
  bool announced_join = false;
  bool persisted_membership = false;
  /// This node's end of the exchange succeeded. It keeps serving (relay,
  /// mix, pongs) until SIGTERM or --timeout: peers still deliver through it.
  bool done = false;
  std::uint64_t stats_seq = 0;  // records published so far
  net::Time boot_at = 0;
  int admin_fd = -1;

  std::string path(const std::string& base) const { return opt.dir + "/" + base; }

  /// One whole record: the identity header the supervisor's hung-vs-dead
  /// probe reads, plus every registry value. Carries the seq of the last
  /// published record. Every layer registers its own metrics; the process
  /// adds only what no layer counts: its CPU time (user + sys of every
  /// thread, the event loop's waiting included) and resident set.
  telemetry::HealthSnapshot snapshot() {
    registry.gauge("proc.cpu_us").set(static_cast<double>(read_process_cpu_us()));
    registry.gauge("proc.rss_kb").set(static_cast<double>(read_rss_kb()));
    telemetry::HealthSnapshot s;
    s.node = opt.id;
    s.pid = static_cast<std::uint32_t>(::getpid());
    s.incarnation = node.transport().incarnation();
    s.seq = stats_seq;
    s.now_us = static_cast<std::uint64_t>(backend.now());
    s.uptime_us = static_cast<std::uint64_t>(backend.now() - boot_at);
    s.metrics = telemetry::registry_values(registry);
    return s;
  }

  /// Stats publisher: one whole record every --stats-interval, each with the
  /// next seq. The supervisor treats a seq that stops advancing under a
  /// live pid as hung.
  void publish_stats() {
    ++stats_seq;
    const Bytes rec = telemetry::encode_health_record(snapshot());
    std::string err;
    if (!atomic_publish_file(path("stats." + std::to_string(opt.id)), rec, &err)) {
      log.warn("stats_write_failed", {{"error", err}});
    }
    backend.schedule_after(opt.stats_interval, [this] { publish_stats(); });
  }

  /// Admin endpoint: drain pending requests, answer each with one fresh
  /// record. Served off the tick timer; sub-50 ms latency is plenty for an
  /// operator tool.
  void admin_poll() {
    for (;;) {
      std::uint8_t buf[64];
      sockaddr_in from{};
      socklen_t from_len = sizeof from;
      const ssize_t n =
          ::recvfrom(admin_fd, buf, sizeof buf, 0,
                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n < 0) break;
      const auto op = telemetry::decode_admin_request(
          BytesView(buf, static_cast<std::size_t>(n)));
      if (!op) continue;
      if (*op == telemetry::AdminOp::kNatReboot) {
        // Chaos event: the emulated NAT in front of this node power-cycles.
        // Every mapping (and its socket) dies; recovery is the protocol's
        // job — re-register through fresh mappings, re-punch routes.
        const std::size_t dropped = shim != nullptr ? shim->nat_reboot() : 0;
        log.warn("nat_reboot", {{"mappings_dropped", (unsigned long long)dropped}});
      }
      const Bytes reply = telemetry::encode_health_record(snapshot());
      (void)::sendto(admin_fd, reply.data(), reply.size(), 0,
                     reinterpret_cast<sockaddr*>(&from), from_len);
    }
    backend.schedule_after(50 * net::kMillisecond, [this] { admin_poll(); });
  }

  /// Commit the current group membership (leader secret included).
  void persist_group() {
    if (store == nullptr || group == nullptr) return;
    store::StoredGroup sg;
    sg.group = GroupId{opt.group};
    sg.is_leader = is_leader;
    sg.epochs = collect_epochs(group->keyring());
    sg.passport = group->passport();
    if (is_leader) sg.group_key = group_secret;
    sg.accreditation = accreditation;
    sg.entry_point = leader_peer;
    store->state().upsert_group(std::move(sg));
    commit_state();
  }

  /// A run-time commit: a failure leaves the node serving, and the log
  /// names it.
  void commit_state() {
    if (!store->commit()) log.warn("state_commit_failed", {{"error", store->last_error()}});
  }

  /// Boot-from-state: re-instantiate persisted group membership. Leaders
  /// come back with the group key; members resume their passport and then
  /// re-join with the stored accreditation — the proof-of-life /
  /// passport-re-validation pass the group demands of a returning member.
  void resume_from_store() {
    if (store == nullptr || !store->has_state()) return;
    store::StoredGroup* sg = store->state().find_group(GroupId{opt.group});
    if (sg == nullptr) return;
    if (is_leader && sg->group_key) {
      group_secret = sg->group_key;
      group = &node.resume_group(sg->group, sg->epochs, sg->passport, sg->group_key);
      if (!group->is_leader()) {
        // Inconsistent store (key does not match the recorded epochs):
        // fall back to founding fresh via the normal tick path.
        log.warn("stored_group_key_rejected");
        group = nullptr;
        return;
      }
      group->on_app_message = [this](const wcl::RemotePeer& from, BytesView p) {
        leader_on_ping(from, p);
      };
      log.info("group_resumed",
               {{"epoch", (unsigned long long)group->leader_epoch()}});
      return;
    }
    if (!is_leader) {
      accreditation = sg->accreditation;
      leader_peer = sg->entry_point;
      group = &node.resume_group(sg->group, sg->epochs, sg->passport);
      group->on_app_message = [this](const wcl::RemotePeer&, BytesView p) {
        member_on_pong(p);
      };
      log.info("membership_resumed",
               {{"passport", group->joined() ? "restored" : "pending-rejoin"}});
      // Re-validate with the group even when the stored passport verified:
      // the join response refreshes the key history and view, and tells the
      // leader this incarnation is alive.
      if (accreditation && leader_peer) group->join(*accreditation, *leader_peer);
    }
  }

  // --- Leader side. ---

  void leader_found_group() {
    crypto::Drbg drbg(opt.seed ^ 0x6e0ded);
    crypto::RsaKeyPair group_key = crypto::RsaKeyPair::generate(512, drbg);
    group_secret = group_key;
    group = &node.create_group(GroupId{opt.group}, std::move(group_key));
    group->on_app_message = [this](const wcl::RemotePeer& from, BytesView p) {
      leader_on_ping(from, p);
    };
    for (std::uint64_t i = 2; i <= opt.nodes; ++i) {
      auto invite = group->invite(NodeId{i});
      if (!invite) continue;
      Writer w;
      invite->serialize(w);
      group->self_descriptor().serialize(w);
      write_hex_file(path("invite." + std::to_string(i)), w.data());
    }
    persist_group();
    log.info("group_founded",
             {{"invitations", (unsigned long long)(opt.nodes - 1)}});
  }

  void leader_on_ping(const wcl::RemotePeer& from, BytesView payload) {
    const std::string text = to_string(payload);
    if (text.rfind("ping ", 0) != 0) return;
    const std::uint64_t member = std::strtoull(text.c_str() + 5, nullptr, 10);
    group->send_app_to(from, to_bytes("pong " + std::to_string(member)));
    if (ponged.insert(member).second) {
      log.info("ping", {{"member", (unsigned long long)member},
                        {"answered", (unsigned long long)ponged.size()},
                        {"expected", (unsigned long long)(opt.nodes - 1)}});
    }
    if (ponged.size() == opt.nodes - 1 && !done) {
      write_hex_file(path("delivered." + std::to_string(opt.id)),
                     to_bytes("pinged-by " + std::to_string(ponged.size())));
      done = true;
    }
  }

  // --- Member side. ---

  void member_try_join() {
    if (group != nullptr) return;
    auto bytes = read_hex_file(path("invite." + std::to_string(opt.id)));
    if (!bytes) return;
    Reader r(*bytes);
    auto invite = ppss::Accreditation::deserialize(r);
    auto leader = wcl::RemotePeer::deserialize(r);
    if (!invite || !leader || !r.expect_done()) {
      log.warn("invite_malformed");
      return;
    }
    accreditation = *invite;
    leader_peer = *leader;
    group = &node.join_group(GroupId{opt.group}, *invite, *leader);
    group->on_app_message = [this](const wcl::RemotePeer&, BytesView p) {
      member_on_pong(p);
    };
    // Commit the invitation immediately: a crash between here and the join
    // response must not lose the ability to rejoin.
    persist_group();
  }

  void member_tick() {
    member_try_join();
    if (group == nullptr) return;
    if (!group->joined()) return;
    if (!announced_join) {
      announced_join = true;
      write_hex_file(path("member." + std::to_string(opt.id)), to_bytes("joined"));
      log.info("joined");
    }
    if (!persisted_membership && !group->passport().signature.empty()) {
      persisted_membership = true;
      persist_group();  // now with the granted passport + key history
    }
    if (backend.now() < next_ping_at) return;
    // Ping until ponged, then keep a slow liveness ping going so a
    // restarted leader can re-collect the full roster.
    group->send_app_to(*leader_peer,
                       to_bytes("ping " + std::to_string(opt.id)));
    next_ping_at = backend.now() + (done ? 2 * net::kSecond : net::kSecond);
  }

  void member_on_pong(BytesView payload) {
    const std::string expected = "pong " + std::to_string(opt.id);
    if (to_string(payload) != expected) return;
    // Rewrite the receipt even after the first delivery: the natreboot
    // chaos gate unlinks delivered.I and requires the victim to re-earn it
    // through the rebooted NAT's fresh mappings.
    write_hex_file(path("delivered." + std::to_string(opt.id)),
                   Bytes(payload.begin(), payload.end()));
    if (done) return;
    log.info("delivered");
    done = true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.dir = arg_string(argc, argv, "dir", "");
  opt.id = arg_u64(argc, argv, "id", 0);
  opt.nodes = arg_u64(argc, argv, "nodes", 0);
  opt.timeout_s = arg_seconds(argc, argv, "timeout", 60);
  opt.seed = arg_u64(argc, argv, "seed", 7);
  opt.group = arg_u64(argc, argv, "group", 1);
  opt.flight_path = arg_string(argc, argv, "flight", "");
  opt.state_dir = arg_string(argc, argv, "state-dir", "");
  opt.stats_interval = arg_interval_us(argc, argv, "stats-interval", net::kSecond);
  opt.trace_wire = arg_flag(argc, argv, "trace-wire");
  const std::string epoch_s = arg_string(argc, argv, "epoch", "");
  if (!epoch_s.empty()) {
    opt.epoch_ns =
        static_cast<std::int64_t>(std::strtoull(epoch_s.c_str(), nullptr, 10));
  }
  const std::string nat_s = arg_string(argc, argv, "nat", "");
  if (!nat_s.empty()) {
    const auto type = nat::nat_type_from_name(nat_s);
    if (!type) {
      std::fprintf(stderr, "whisper_noded: unknown NAT type '%s'\n", nat_s.c_str());
      return 2;
    }
    opt.shim.nat = *type;
  }
  const std::string impair_s = arg_string(argc, argv, "impair", "");
  if (!impair_s.empty()) {
    std::string err;
    const auto impair = net::parse_impair(impair_s, &err);
    if (!impair) {
      std::fprintf(stderr, "whisper_noded: %s\n", err.c_str());
      return 2;
    }
    opt.shim.impair = *impair;
  }
  opt.nat_lease = arg_interval_us(argc, argv, "nat-lease", 0);
  if (opt.dir.empty() || opt.id == 0 || opt.nodes < 2 || opt.id > opt.nodes) {
    std::fprintf(stderr,
                 "usage: whisper_noded --dir=DIR --id=I --nodes=N "
                 "[--timeout=60] [--seed=7] [--group=1] [--flight=out.jsonl]\n"
                 "       [--state-dir=DIR] [--stats-interval=SECS]\n"
                 "       [--trace-wire] [--epoch=NS] [--nat=TYPE] "
                 "[--impair=SPEC] [--nat-lease=SECS]\n"
                 "ids are 1..N; id 1 is the group leader\n"
                 "NAT types: public full_cone restricted_cone "
                 "port_restricted_cone symmetric\n"
                 "impair: loss:F,dup:F,reorder:F,delay:DUR~DUR,rate:N[km]bps\n");
    return 2;
  }

  telemetry::Logger logger;
  logger.set_node(opt.id);

  telemetry::Registry registry;
  net::UdpConfig bcfg;
  bcfg.trace_wire = opt.trace_wire;
  bcfg.epoch_ns = opt.epoch_ns;
  net::UdpBackend backend(bcfg, &registry);
  if (!backend.last_error().empty()) {
    logger.error("backend", {{"error", backend.last_error()}});
    return 1;
  }
  logger.set_clock(
      [&backend] { return static_cast<std::uint64_t>(backend.now()); });
  g_backend = &backend;
  std::signal(SIGTERM, handle_term);
  std::signal(SIGINT, handle_term);

  // Durable state: opened before anything touches the network. The
  // builder restores or records the node with one commit before its first
  // frame goes out.
  store::NodeStateStore store;
  store::NodeStateStore* storep = nullptr;
  if (!opt.state_dir.empty()) {
    if (!store.open(opt.state_dir)) {
      logger.error("state_store", {{"error", store.last_error()}});
      return 1;
    }
    storep = &store;
  }

  telemetry::FlightRecorder flight;
  flight.set_clock(net::clock_fn(backend));
  flight.set_enabled(!opt.flight_path.empty() || opt.trace_wire);
  // Namespace trace ids and wire seqs per process so merged cross-process
  // event streams never collide (same scheme as the sharded engine's
  // per-shard bases).
  flight.set_id_base(opt.id << 48);
  flight.set_seq_namespace(static_cast<std::uint32_t>(opt.id));
  backend.set_flight(&flight);

  LiveNodeSpec spec;
  spec.id = NodeId{opt.id};
  spec.profile = opt.shim;
  spec.node = realtime_node_config();
  spec.rng = Rng(opt.seed ^ (opt.id * 0x9e3779b97f4a7c15ull)).fork();
  spec.seed = opt.seed;
  spec.nat_lease = opt.nat_lease;
  spec.store = storep;
  spec.sinks = telemetry::Sinks{&registry, &flight};
  // The pool's key for this id, built alone rather than with the id keys
  // before it.
  spec.key = [&opt] {
    return keypair_for_index(opt.id, realtime_node_config().rsa_bits);
  };
  std::ofstream shim_log;  // outlives the shim that writes to it
  std::string boot_error;
  const std::unique_ptr<LiveNode> live =
      boot_live_node(backend, std::move(spec), &boot_error);
  if (live == nullptr) {
    logger.error("boot", {{"error", boot_error}});
    return 1;
  }
  WhisperNode& node = *live->node;
  const Endpoint ep = node.internal_endpoint();
  if (live->rebound) logger.warn("port_rebound", {{"ep", ep.str()}});
  if (live->restored) {
    logger.info("restart_from_state",
                {{"incarnation", node.transport().incarnation()}, {"ep", ep.str()}});
  }
  flight.set_node_resolver([&live](Endpoint e) { return live->id_of(e); });
  if (live->shim != nullptr) {
    shim_log.open(opt.dir + "/shim." + std::to_string(opt.id) + ".jsonl",
                  std::ios::app);
    if (shim_log.is_open()) {
      live->shim->set_event_sink([&shim_log](const net::ShimEvent& ev) {
        shim_log << net::shim_event_json(ev) << "\n";
      });
    }
    logger.info("shim", {{"nat", nat::nat_type_name(opt.shim.nat)}});
  }

  Orchestrator orch{opt,    backend, node, /*is_leader=*/opt.id == 1,
                    storep, logger,  registry};
  orch.shim = live->shim.get();
  orch.boot_at = backend.now();
  orch.publish_stats();

  // Admin stats endpoint: loopback UDP socket, port published via the
  // rendezvous dir; serviced off the backend's timers.
  std::uint16_t admin_port = 0;
  orch.admin_fd = open_admin_socket(&admin_port);
  if (orch.admin_fd >= 0) {
    atomic_publish_file(orch.path("admin." + std::to_string(opt.id)),
                        to_bytes(std::to_string(admin_port) + "\n"));
    orch.admin_poll();
  } else {
    logger.warn("admin_socket_failed");
  }

  // 1. Publish our card, then wait for the full roster before starting:
  //    everyone boots with every peer in reach, like the testbed's
  //    bootstrap handed out by an oracle.
  {
    Writer w;
    node.transport().self_card().serialize(w);
    if (!write_hex_file(orch.path("card." + std::to_string(opt.id)), w.data())) {
      logger.error("card_write_failed",
                   {{"path", orch.path("card." + std::to_string(opt.id))}});
      return 1;
    }
  }

  bool started = false;
  std::function<void()> boot_poll = [&] {
    if (backend.stop_requested()) return;
    std::vector<pss::ContactCard> bootstrap;
    for (std::uint64_t i = 1; i <= opt.nodes; ++i) {
      if (i == opt.id) continue;
      auto bytes = read_hex_file(orch.path("card." + std::to_string(i)));
      if (!bytes) break;
      Reader r(*bytes);
      bootstrap.push_back(pss::ContactCard::deserialize(r));
    }
    if (bootstrap.size() == opt.nodes - 1) {
      const std::size_t used = live->start(bootstrap);
      started = true;
      if (storep != nullptr) {
        store.state().peer_hints = bootstrap;
        orch.commit_state();
      }
      // Re-announce into PSS happened via start(); now resurrect group
      // membership and (members) kick off the passport re-validation.
      orch.resume_from_store();
      logger.info("up", {{"ep", ep.str()},
                         {"bootstrap", (unsigned long long)used},
                         {"recovered", live->restored}});
      return;
    }
    backend.schedule_after(50 * net::kMillisecond, boot_poll);
  };
  boot_poll();

  // 2. The orchestration tick: leader founds the group once the substrate
  //    has had a moment to gossip keys; members watch for their invitation.
  const net::Time group_at = 3 * net::kSecond;
  std::function<void()> tick = [&] {
    if (backend.stop_requested()) return;
    if (started) {
      if (orch.is_leader) {
        if (orch.group == nullptr && backend.now() >= group_at) {
          orch.leader_found_group();
        }
      } else {
        orch.member_tick();
      }
    }
    backend.schedule_after(50 * net::kMillisecond, tick);
  };
  tick();

  backend.schedule_after(opt.timeout_s * net::kSecond, [&] {
    if (!orch.done) logger.warn("timeout");
    backend.request_stop();
  });

  backend.run();
  {
    std::string held;
    auto hold = [&held](const pss::ContactCard& card) {
      Writer w;
      card.serialize(w);
      held += to_hex(w.data()) + "\n";
    };
    hold(node.transport().self_card());
    for (const auto& e : node.pss().view().entries()) hold(e.card);
    std::string err;
    if (!atomic_publish_file(orch.path("held." + std::to_string(opt.id)), to_bytes(held), &err)) {
      logger.error("held_write_failed", {{"error", err}});
    }
  }
  node.stop();

  // One final record so post-mortem scrapes see the exit-time counters.
  orch.publish_stats();
  if (orch.admin_fd >= 0) ::close(orch.admin_fd);

  if (!opt.flight_path.empty()) {
    const auto records = flight.assemble();
    telemetry::write_text_file(opt.flight_path, telemetry::to_jsonl(records));
    // Raw per-process events beside the records: the cross-process merge
    // input for `whisper_trace summary a.events.jsonl b.events.jsonl ...`.
    std::string events_path = opt.flight_path;
    const std::string ext = ".jsonl";
    if (events_path.size() > ext.size() &&
        events_path.compare(events_path.size() - ext.size(), ext.size(), ext) == 0) {
      events_path.resize(events_path.size() - ext.size());
    }
    events_path += ".events.jsonl";
    telemetry::write_text_file(events_path,
                               telemetry::to_events_jsonl(flight.events()));
    logger.info("flight_export", {{"records", (unsigned long long)records.size()},
                                  {"path", opt.flight_path}});
  }
  return orch.done ? 0 : 1;
}
