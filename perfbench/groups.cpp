// groups-1k: the paper's 1k-node deployment on the simulator.
//
// 1,000 nodes, 70% behind NAT, cluster latency, ScaleTestbed at S=1 with a
// distinct RSA key per node. Eight private groups; every node joins one.
// After warm-up and group formation, the timed phase runs PPSS gossip plus
// an open-loop stream of 64-byte app messages between random members of
// the same group, at a fixed virtual rate (about a fifth of the WCL sends
// the PPSS gossip itself makes). Every message is scheduled as a simulator
// event at its due time and timed from it; it counts as failed unless it
// arrives intact at its addressee within the deadline.
#include <algorithm>
#include <memory>

#include "crypto/random.hpp"
#include "simkit.hpp"
#include "whisper/keypool.hpp"

namespace perfbench {

using namespace whisper;

namespace {

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kGroups = 8;
constexpr int kSetups = 3;
constexpr net::Time kWarmup = 2 * net::kMinute;
constexpr net::Time kGroupForm = 2 * net::kMinute;
/// App messages per virtual second, all groups together.
constexpr double kMsgsPerVirtS = 6.0;
/// Virtual seconds of message generation per requested wall second.
constexpr double kGenVirtPerWallS = 12.0;
/// A message arriving later than this after its due time has failed; the
/// timed phase runs this long past the last due time.
constexpr net::Time kDeadline = net::kMinute;
/// The timed phase runs in slices of this much virtual time.
constexpr net::Time kSlice = 5 * net::kSecond;

struct Member {
  WhisperNode* node = nullptr;
  ppss::Ppss* ppss = nullptr;
  std::size_t group = 0;
};

struct Deployment {
  std::unique_ptr<ScaleTestbed> tb;
  std::vector<Member> members;
};

ScaleConfig config(const Args& a, bool flight) {
  ScaleConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.shards = 1;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.seed = a.seed;
  cfg.flight = flight;
  cfg.key_cycle = 0;  // distinct keys
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  return cfg;
}

GroupId group_id(std::size_t g) { return GroupId{5000 + g}; }

/// Boot, warm up and form the groups; times each phase into `times`.
Deployment set_up(const Args& a, bool flight, Spans& spans, std::vector<double> times[3]) {
  Deployment d;
  double t = wall_now();
  {
    auto s = spans.span("whisper.boot");
    d.tb = std::make_unique<ScaleTestbed>(config(a, flight));
  }
  times[0].push_back(wall_now() - t);

  t = wall_now();
  run_for(*d.tb, spans, kWarmup);
  times[1].push_back(wall_now() - t);

  t = wall_now();
  Rng rng(a.seed ^ 0x6e0);
  std::vector<WhisperNode*> publics;
  for (WhisperNode* n : d.tb->alive_nodes()) {
    if (n->is_public()) publics.push_back(n);
  }
  rng.shuffle(publics);
  std::vector<ppss::Ppss*> leaders;
  for (std::size_t g = 0; g < kGroups; ++g) {
    crypto::Drbg drbg(a.seed * kGroups + g);
    auto s = spans.span("whisper.create_group");
    leaders.push_back(&publics[g]->create_group(group_id(g),
                                                crypto::RsaKeyPair::generate(512, drbg)));
  }
  for (WhisperNode* n : d.tb->alive_nodes()) {
    const std::size_t g = static_cast<std::size_t>(rng.next_below(kGroups));
    if (n->group_count() > 0) continue;  // a leader
    std::optional<ppss::Accreditation> accr;
    {
      auto s = spans.span("ppss.invite");
      accr = leaders[g]->invite(n->id());
    }
    if (!accr) continue;
    auto s = spans.span("whisper.join_group");
    n->join_group(group_id(g), *accr, leaders[g]->self_descriptor());
  }
  run_for(*d.tb, spans, kGroupForm);
  for (WhisperNode* n : d.tb->alive_nodes()) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      ppss::Ppss* p = n->group(group_id(g));
      if (p != nullptr && p->joined()) d.members.push_back(Member{n, p, g});
    }
  }
  times[2].push_back(wall_now() - t);
  return d;
}

}  // namespace

int run_groups(const Args& a, Json& out) {
  Spans spans(a.trace);
  const double keygen_t = wall_now();
  {
    auto s = spans.span("whisper.keygen");
    for (std::size_t i = 0; i < kNodes; ++i) pooled_keypair(i, 512);
  }
  const double keygen_s = wall_now() - keygen_t;

  // Set up kSetups times from the same seed: the median is setup_s, and
  // every repeat must reach the identical state (same-seed determinism).
  // In a traced run the middle repeat runs with flight recording off, so
  // its cost against the others prices the tracing and the identical-state
  // check also proves that tracing does not perturb the run.
  std::vector<double> times[3];
  std::vector<std::string> prints;
  Deployment d;
  for (int r = 0; r < kSetups; ++r) {
    d = Deployment{};  // free the previous deployment first
    d = set_up(a, a.trace && r != 1, spans, times);
    Json fp = fingerprint(*d.tb);
    fp.num("members", static_cast<std::uint64_t>(d.members.size()));
    prints.push_back(fp.dump());
  }
  const bool setups_identical =
      std::all_of(prints.begin(), prints.end(), [&](const std::string& p) { return p == prints[0]; });

  ScaleTestbed& tb = *d.tb;
  sim::Simulator& sim = tb.simulator(0);
  std::vector<std::vector<std::uint32_t>> by_group(kGroups);
  for (std::uint32_t m = 0; m < d.members.size(); ++m) by_group[d.members[m].group].push_back(m);

  // Receivers: every member checks what arrives against what was sent.
  MessageLog log;
  for (std::uint32_t m = 0; m < d.members.size(); ++m) {
    d.members[m].ppss->on_app_message = [&log, &sim, m, seed = a.seed](const wcl::RemotePeer&,
                                                                        BytesView p) {
      log.arrive(seed, m, p, sim.now());
    };
  }

  // The open-loop schedule: fixed interval, random sender, random other
  // member of the sender's group. Inputs depend on the seed alone.
  const net::Time t0 = tb.now();
  const net::Time gen_virt = static_cast<net::Time>(kGenVirtPerWallS * a.seconds) * net::kSecond;
  const auto interval = static_cast<net::Time>(1e6 / kMsgsPerVirtS);
  const std::size_t n_msgs = static_cast<std::size_t>(gen_virt / interval);
  Rng gen(a.seed ^ 0x9e4);
  log.msgs.resize(n_msgs);
  std::vector<AppSend> sends;
  sends.reserve(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    MessageLog::Msg& m = log.msgs[i];
    m.from = static_cast<std::uint32_t>(gen.next_below(d.members.size()));
    const auto& peers = by_group[d.members[m.from].group];
    do {
      m.to = peers[gen.pick_index(peers)];
    } while (m.to == m.from && peers.size() > 1);
    m.due_us = t0 + (i + 1) * interval;
    sim.schedule_at(m.due_us, [&, i] {
      MessageLog::Msg& msg = log.msgs[i];
      msg.sent_us = sim.now();
      const Bytes payload =
          make_app_payload(a.seed, AppHeader{i, msg.due_us, msg.from, msg.to});
      const Member& from = d.members[msg.from];
      const Member& to = d.members[msg.to];
      auto s = spans.span("ppss.send_app_to");
      msg.sent = from.ppss->send_app_to(to.ppss->self_descriptor(), payload);
      sends.push_back(AppSend{from.node->id().value, to.node->id().value, msg.sent_us});
    });
  }

  // Per-layer baselines at the start of the timed phase.
  auto all_totals = [&] {
    LayerTotals t = sum_layers(tb.node_count(), [&](std::size_t i) { return tb.node_at(i); });
    for (const Member& m : d.members) t.add_group(*m.ppss);
    return t;
  };
  auto member_totals = [&](bool is_public) {  // Table II's node classes
    LayerTotals t;
    for (const Member& m : d.members) {
      if (m.node->is_public() == is_public) t.add(*m.node);
    }
    return t;
  };
  const LayerTotals base = all_totals();
  const LayerTotals base_p = member_totals(true);
  const LayerTotals base_n = member_totals(false);
  const NetTotals net0 = NetTotals::of(tb);
  const std::vector<std::uint64_t> ev0 = shard_events(tb);
  const std::uint64_t cross0 = tb.cross_shard_messages();

  Slices slices;
  for (net::Time done = 0; done < gen_virt + kDeadline; done += kSlice) {
    slices.begin();
    run_for(tb, spans, kSlice);
    slices.end(static_cast<double>(kSlice) / 1e6);
  }
  const double timed_wall = slices.wall_s();
  const double timed_virt = slices.virt_s();

  const LayerTotals lt = all_totals().minus(base);
  const NetTotals nt = NetTotals::of(tb).minus(net0);
  std::uint64_t sent_ok = 0;
  for (const auto& m : log.msgs) sent_ok += m.sent ? 1 : 0;
  const std::uint64_t delivered = log.delivered_within(static_cast<std::uint64_t>(kDeadline));
  const std::vector<double> lat = log.latencies_ms(static_cast<std::uint64_t>(kDeadline));
  double lat_sum = 0;
  for (double v : lat) lat_sum += v;

  Json det = fingerprint(tb);
  det.num("msgs_sent_ok", sent_ok)
      .num("msgs_delivered", delivered)
      .num("lat_sum_ms", lat_sum)
      .num("wcl_first_try", lt.wcl_first_try)
      .num("wcl_alternative", lt.wcl_alternative)
      .num("wcl_no_alternative", lt.wcl_no_alternative)
      .num("pss_timed_out", lt.pss_timed_out)
      .num("pss_initiated", lt.pss_initiated);

  Json layers;
  if (a.trace) {
    std::vector<double> sim_cost;
    for (int r = 0; r < kSetups; ++r) sim_cost.push_back(times[1][r] + times[2][r]);
    layers.num("telemetry.trace_overhead_pct", trace_overhead_pct(sim_cost));
    lt.put_layers(layers);
    nt.put_layers(layers);
    const std::vector<std::uint64_t> ev1 = shard_events(tb);
    std::uint64_t ev_total = 0, ev_max = 0;
    for (std::size_t s = 0; s < ev1.size(); ++s) {
      ev_total += ev1[s] - ev0[s];
      ev_max = std::max(ev_max, ev1[s] - ev0[s]);
    }
    layers.num("sim.events", ev_total)
        .num("sim.events_per_s", ev_total / timed_wall)
        .num("sim.virt_s_per_s", timed_virt / timed_wall)
        .num("sim.shard_imbalance",
             ratio(static_cast<double>(ev_max), static_cast<double>(ev_total) / ev1.size()))
        .num("sim.cross_shard_msgs", tb.cross_shard_messages() - cross0);
    std::uint64_t cache = 0;
    for (WhisperNode* n : tb.alive_nodes()) cache += n->keys().cache_size();
    layers.num("keysvc.cache_size", ratio(static_cast<double>(cache), tb.alive_count()));
    // Table II: AES + RSA CPU per PPSS cycle, by node class.
    const double cycles = timed_virt * 1e6 / static_cast<double>(config(a, true).node.ppss.cycle);
    auto crypto_s = [](const LayerTotals& t) {
      using C = net::CpuCategory;
      return t.cpu(C::kAes) + t.cpu(C::kRsaEncrypt) + t.cpu(C::kRsaDecrypt) + t.cpu(C::kRsaSign);
    };
    std::size_t n_p = 0;
    for (const Member& m : d.members) n_p += m.node->is_public() ? 1 : 0;
    const std::size_t n_n = d.members.size() - n_p;
    layers.num("ppss.cpu_us_per_cycle_pnode",
               ratio(crypto_s(member_totals(true).minus(base_p)) * 1e6, n_p * cycles));
    layers.num("ppss.cpu_us_per_cycle_nnode",
               ratio(crypto_s(member_totals(false).minus(base_n)) * 1e6, n_n * cycles));

    std::vector<telemetry::FlightRecord> records;
    std::string err;
    telemetry::parse_flight_jsonl(tb.canonical_flight_jsonl(), &records, &err);
    fig7_split(records, sends, 0, layers);

    std::vector<Endpoint> eps;
    for (WhisperNode* n : tb.alive_nodes()) eps.push_back(n->internal_endpoint());
    layers.num("common.endpoint_find_ns", endpoint_find_ns(eps, a.seed));
    layers.num("net.send_ns", net_send_ns(tb, a.seed, 20'000));
    crypto_probes(config(a, true).node.wcl.mixes + 1, app_frame_bytes(*d.members[0].node,
                                                                group_id(d.members[0].group)),
                  a.seed, layers);
  }

  Json checks;
  checks.flag("setup_repeats_identical", setups_identical);
  checks.flag("payload_intact", log.corrupt == 0 && log.misdelivered == 0);
  checks.flag("conservation", drain_and_check_conservation(tb, checks));

  Json setup;
  setup.num("keygen_s", keygen_s)
      .arr("boot_s", times[0])
      .arr("warmup_s", times[1])
      .arr("group_setup_s", times[2])
      .num("members", static_cast<std::uint64_t>(d.members.size()));
  Json msgs;
  msgs.num("attempted", static_cast<std::uint64_t>(n_msgs))
      .num("delivered", delivered)
      .num("duplicates", log.duplicates)
      .num("corrupt", log.corrupt)
      .num("misdelivered", log.misdelivered)
      .arr("lat_ms", lat)
      .arr("gen_late_ms", log.lateness_ms());
  std::vector<double> send_us;
  for (double s : spans.durations("ppss.send_app_to")) send_us.push_back(s * 1e6);
  msgs.arr("send_app_us", send_us);

  out.obj("setup", setup).obj("timed", slices.json()).obj("msgs", msgs).obj("det", det);
  out.obj("checks", checks).obj("layers", layers).obj("spans", spans.summary());
  out.num("peak_rss_mb", peak_rss_mb());
  if (a.trace) spans.write_chrome_trace(a.out_dir + "/spans-groups-1k.json");
  return 0;
}

}  // namespace perfbench
