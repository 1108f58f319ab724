// onion-live: the WHISPER data path on real UDP sockets.
//
// An in-process UdpMesh of 8 nodes on loopback with realtime_node_config(),
// all in one private group. After the mesh converges and every member has
// joined, 4 sender nodes drive an open-loop stream of 64-byte app messages
// to the 7 other members at a fixed wall-clock rate, well below what the
// event loop can carry and below the PPSS per-member inbound budget (each
// sender->receiver pair stays under half of it). One-way latency is timed
// on the shared clock from each message's due time; a message that has not
// arrived intact at its addressee within kDeadline has failed.
#include <algorithm>
#include <memory>

#include "crypto/random.hpp"
#include "whisper/keypool.hpp"
#include "whisper/realnet.hpp"

#include "bench.hpp"

namespace perfbench {

using namespace whisper;

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kSenders = 4;
constexpr int kSetups = 9;
/// Offered load, all pairs together (28 pairs -> ~7.1/s per pair, against
/// a PPSS inbound budget of 20 frames/s per sending member).
constexpr double kMsgsPerS = 200.0;
constexpr net::Time kDeadline = 2 * net::kSecond;
/// Give up on convergence or group formation after this long.
constexpr net::Time kSetupLimit = 20 * net::kSecond;
constexpr net::Time kPollSlice = 10 * net::kMillisecond;
const GroupId kGroup{1};

struct Mesh {
  std::unique_ptr<UdpMesh> mesh;
  std::vector<ppss::Ppss*> members;  // member index == node index
};

/// Pump the loop until `done()` or the setup limit; false on timeout.
template <typename Done>
bool run_until(UdpMesh& mesh, Done&& done) {
  const net::Time limit = mesh.clock().now() + kSetupLimit;
  while (!done()) {
    if (mesh.clock().now() > limit) return false;
    mesh.run_for(kPollSlice);
  }
  return true;
}

/// Boot the mesh, wait for PSS convergence, form the group. Times each
/// phase (wall) and the set-up's process CPU per wall second.
bool set_up(std::uint64_t seed, bool flight, Spans& spans, Mesh& m,
            std::vector<double> times[4]) {
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_now();
  double t = wall0;
  UdpMesh::Config cfg;
  cfg.seed = seed;
  cfg.flight = flight;
  m.mesh = std::make_unique<UdpMesh>(cfg);
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto s = spans.span("whisper.spawn");
    if (m.mesh->spawn_node() == nullptr) {
      std::fprintf(stderr, "onion-live: bind failed: %s\n", m.mesh->backend().last_error().c_str());
      return false;
    }
  }
  times[0].push_back(wall_now() - t);

  t = wall_now();
  std::vector<WhisperNode*> nodes = m.mesh->nodes();
  const std::size_t want_view = std::min(kNodes - 1, nodes[0]->pss().view().capacity()) / 2 + 1;
  const bool converged = run_until(*m.mesh, [&] {
    return std::all_of(nodes.begin(), nodes.end(),
                       [&](WhisperNode* n) { return n->pss().view().size() >= want_view; });
  });
  times[1].push_back(wall_now() - t);
  if (!converged) {
    std::fprintf(stderr, "onion-live: PSS views did not converge\n");
    return false;
  }

  t = wall_now();
  crypto::Drbg drbg(seed ^ 0x6e0);
  ppss::Ppss* leader;
  {
    auto s = spans.span("whisper.create_group");
    leader = &nodes[0]->create_group(kGroup, crypto::RsaKeyPair::generate(512, drbg));
  }
  m.members = {leader};
  for (std::size_t i = 1; i < kNodes; ++i) {
    auto accr = leader->invite(nodes[i]->id());
    auto s = spans.span("whisper.join_group");
    m.members.push_back(&nodes[i]->join_group(kGroup, *accr, leader->self_descriptor()));
  }
  const bool joined = run_until(*m.mesh, [&] {
    return std::all_of(m.members.begin(), m.members.end(), [](ppss::Ppss* p) {
      return p->joined() && p->private_view().size() >= 2;
    });
  });
  times[2].push_back(wall_now() - t);
  times[3].push_back((process_cpu_s() - cpu0) / (wall_now() - wall0));
  if (!joined) {
    std::fprintf(stderr, "onion-live: members failed to join\n");
    return false;
  }
  return true;
}

}  // namespace

int run_onion_live(const Args& a, Json& out) {
  Spans spans(a.trace);
  const double keygen_t = wall_now();
  {
    auto s = spans.span("whisper.keygen");
    for (std::size_t i = 0; i < kNodes; ++i) pooled_keypair(i, realtime_node_config().rsa_bits);
  }
  const double keygen_s = wall_now() - keygen_t;
  // Setup repeats, each from its own seed derived from --seed: on a real
  // clock convergence time depends on the gossip schedule, so the median
  // over schedules is the steady figure. In a traced run the second repeat
  // runs with flight recording off, so its cost against the others prices
  // the tracing.
  std::vector<double> times[4];
  Mesh m;
  for (int r = 0; r < kSetups; ++r) {
    m = Mesh{};
    if (!set_up(a.seed * kSetups + r, a.trace && r != 1, spans, m, times)) return 1;
  }
  UdpMesh& mesh = *m.mesh;
  net::UdpBackend& backend = mesh.backend();
  std::vector<WhisperNode*> nodes = mesh.nodes();

  MessageLog log;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    m.members[i]->on_app_message = [&log, &backend, i, seed = a.seed](const wcl::RemotePeer&,
                                                                       BytesView p) {
      log.arrive(seed, i, p, backend.now());
    };
  }

  // The open-loop schedule: rounds over every sender->receiver pair, each
  // round in a seeded random order, messages due at a fixed interval.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    for (std::uint32_t d = 0; d < kNodes; ++d) {
      if (d != s) pairs.emplace_back(s, d);
    }
  }
  const auto interval = static_cast<net::Time>(1e6 / kMsgsPerS);
  const auto n_msgs = static_cast<std::size_t>(a.seconds * kMsgsPerS);
  Rng gen(a.seed ^ 0x9e4);
  const net::Time t0 = backend.now() + 10 * net::kMillisecond;
  log.msgs.resize(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    if (i % pairs.size() == 0) gen.shuffle(pairs);
    log.msgs[i].from = pairs[i % pairs.size()].first;
    log.msgs[i].to = pairs[i % pairs.size()].second;
    log.msgs[i].due_us = t0 + i * interval;
  }

  auto totals = [&] {
    LayerTotals t = sum_layers(kNodes, [&](std::size_t i) { return nodes[i]; });
    for (ppss::Ppss* p : m.members) t.add_group(*p);
    return t;
  };
  const LayerTotals base = totals();
  const std::uint64_t sent0 = backend.packets_sent(), recv0 = backend.packets_delivered();
  const std::uint64_t rej0 = backend.frame_rejects(), kdrop0 = backend.rx_kernel_drops();
  const std::uint64_t bytes0 = backend.bytes_sent();

  std::vector<AppSend> sends;
  // One-second slices on the mesh clock.
  Slices slices(false);
  slices.begin();
  net::Time slice_start = backend.now();
  std::size_t next = 0;
  const net::Time give_up = t0 + (n_msgs ? (n_msgs - 1) * interval : 0) + kDeadline;
  for (;;) {
    const net::Time now = backend.now();
    if (now - slice_start >= net::kSecond) {
      slices.end(static_cast<double>(now - slice_start) / 1e6);
      slices.begin();
      slice_start = now;
    }
    for (; next < n_msgs && log.msgs[next].due_us <= now; ++next) {
      MessageLog::Msg& msg = log.msgs[next];
      msg.sent_us = backend.now();
      const Bytes payload = make_app_payload(a.seed, AppHeader{next, msg.due_us, msg.from, msg.to});
      auto s = spans.span("ppss.send_app_to");
      msg.sent = m.members[msg.from]->send_app_to(m.members[msg.to]->self_descriptor(), payload);
      sends.push_back(AppSend{nodes[msg.from]->id().value, nodes[msg.to]->id().value, msg.sent_us});
    }
    if (next == n_msgs) {
      const bool all_in = std::all_of(log.msgs.begin(), log.msgs.end(),
                                      [](const MessageLog::Msg& x) { return x.arrived_us >= 0; });
      if (all_in || now > give_up) break;
    }
    const net::Time wait = next < n_msgs ? log.msgs[next].due_us - std::min(now, log.msgs[next].due_us)
                                         : net::kMillisecond;
    backend.poll(std::min(wait, net::kMillisecond));
  }
  slices.end(static_cast<double>(backend.now() - slice_start) / 1e6);
  slices.sample_reference(5);

  const std::uint64_t delivered = log.delivered_within(static_cast<std::uint64_t>(kDeadline));
  Json layers;
  if (a.trace) {
    layers.num("telemetry.trace_overhead_pct", trace_overhead_pct(times[3]));
    totals().minus(base).put_layers(layers);
    std::uint64_t cache = 0;
    for (WhisperNode* n : nodes) cache += n->keys().cache_size();
    layers.num("keysvc.cache_size", ratio(static_cast<double>(cache), kNodes));
    layers.num("net.udp_packets_sent", backend.packets_sent() - sent0)
        .num("net.udp_packets_delivered", backend.packets_delivered() - recv0)
        .num("net.udp_frame_rejects", backend.frame_rejects() - rej0)
        .num("net.udp_rx_kernel_drops", backend.rx_kernel_drops() - kdrop0)
        .num("net.udp_bytes_per_msg",
             ratio(static_cast<double>(backend.bytes_sent() - bytes0), static_cast<double>(delivered)));
    fig7_split(mesh.flight().assemble(), sends, net::kMillisecond, layers);
    std::vector<Endpoint> eps;
    for (WhisperNode* n : nodes) eps.push_back(n->internal_endpoint());
    layers.num("common.endpoint_find_ns", endpoint_find_ns(eps, a.seed));
    crypto_probes(realtime_node_config().wcl.mixes + 1, app_frame_bytes(*nodes[0], kGroup),
                  a.seed, layers);
  }

  Json checks;
  checks.flag("payload_intact", log.corrupt == 0 && log.misdelivered == 0);

  Json setup;
  setup.num("keygen_s", keygen_s)
      .arr("boot_s", times[0])
      .arr("warmup_s", times[1])
      .arr("group_setup_s", times[2])
      .arr("cpu_share", times[3]);
  Json msgs;
  msgs.num("attempted", static_cast<std::uint64_t>(n_msgs))
      .num("delivered", delivered)
      .num("duplicates", log.duplicates)
      .num("corrupt", log.corrupt)
      .num("misdelivered", log.misdelivered)
      .arr("lat_ms", log.latencies_ms(static_cast<std::uint64_t>(kDeadline)))
      .arr("gen_late_ms", log.lateness_ms());
  std::vector<double> send_us;
  for (double s : spans.durations("ppss.send_app_to")) send_us.push_back(s * 1e6);
  msgs.arr("send_app_us", send_us);

  out.obj("setup", setup).obj("timed", slices.json()).obj("msgs", msgs).obj("det", Json{});
  out.obj("checks", checks).obj("layers", layers).obj("spans", spans.summary());
  out.num("peak_rss_mb", peak_rss_mb());
  if (a.trace) spans.write_chrome_trace(a.out_dir + "/spans-onion-live.json");
  return 0;
}

}  // namespace perfbench
