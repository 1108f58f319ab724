// bench_throughput — machine-readable crypto + event-loop throughput.
//
// Seeds the bench trajectory with durable numbers: RSA private ops/sec with
// the plain path vs the CRT fast path, sealed envelopes/sec, AES-CTR on 1 KB
// through aes128_ctr vs its portable fallback, the 4-limb Montgomery multiply
// this CPU runs vs the portable one, raw simulator events/sec, and
// the wall-clock of the paper-scale scenario (1k nodes, 8 groups, 30 virtual
// minutes). Emits BENCH_crypto.json and BENCH_sim.json
// into --json=<dir> (default ".") so CI can diff runs against the committed
// baseline at the repo root.
//
//   bench_throughput [--quick] [--json=<dir>] [--nodes=1000] [--groups=8]
//                    [--minutes=30]
//
// --quick shrinks every measurement for CI smoke runs (the JSON then
// carries "quick": true so it is never mistaken for a baseline).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crypto/aes128.hpp"
#include "crypto/envelope.hpp"
#include "crypto/montmul.hpp"
#include "crypto/rsa.hpp"
#include "common/file.hpp"
#include "common/stats.hpp"
#include "net/udp.hpp"
#include "telemetry/health.hpp"
#include "telemetry/registry.hpp"
#include "whisper/keypool.hpp"
#include "whisper/realnet.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run `op` repeatedly for ~`budget_s` seconds; returns ops/sec.
double ops_per_sec(double budget_s, const std::function<void()>& op) {
  // Warm-up (first call builds Montgomery caches; that amortized cost is
  // exactly what the fast path is about, so exclude it like any warm-up).
  op();
  std::uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    op();
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return static_cast<double>(iters) / elapsed;
}

}  // namespace

namespace {

/// --backend=udp: measure the real UDP/epoll backend on loopback and emit
/// BENCH_net.json. Three measurements: raw framed ping-pong RTT through
/// the epoll loop, a one-way datagram blast (socket-buffer-bound delivery
/// rate), and the WHISPER-level number — onion-routed application round
/// trips through a real mesh (S -> mix A -> mix B -> D and back).
int run_udp_bench(bool quick, const std::string& json_dir) {
  using namespace whisper;
  bench::banner("UDP backend throughput - loopback RTT + delivery rate",
                "not a paper figure; real-network floor for BENCH_net.json");

  bench::Json net_json;
  net_json.put("schema", "whisper.bench.net/v1");
  net_json.put("quick", quick);

  // Serial ping-pong: one round trip in flight, RTT sampled per trip.
  // `stats_interval` > 0 additionally runs whisper_noded's stats-export
  // duty cycle on a timer (registry flatten + whole-record encode + atomic
  // file publish) so its overhead on the hot loop is measurable. The bench
  // exports at 5 ms — 200x noded's default cadence — so the CI gate
  // (overhead <= 3%) is conservative.
  struct PingPongResult {
    double msgs_per_sec = 0;
    std::size_t trips = 0;
    whisper::Samples rtt_us;
    std::uint64_t stats_exports = 0;
  };
  auto pingpong = [&](std::size_t trips,
                      net::Time stats_interval) -> std::optional<PingPongResult> {
    net::UdpBackend backend;
    auto a = backend.reserve_endpoint();
    auto b = backend.reserve_endpoint();
    if (!a || !b) {
      std::fprintf(stderr, "bind: %s\n", backend.last_error().c_str());
      return std::nullopt;
    }
    const Bytes payload(64, 0x5a);
    PingPongResult res;
    net::Time sent_at = 0;
    backend.attach(*b, [&](const net::Datagram& d) {
      backend.send(*b, d.src, d.payload, net::Proto::kApp);
    });
    backend.attach(*a, [&](const net::Datagram&) {
      res.rtt_us.add(static_cast<double>(backend.now() - sent_at));
      if (++res.trips < trips) {
        sent_at = backend.now();
        backend.send(*a, *b, payload, net::Proto::kApp);
      } else {
        backend.request_stop();
      }
    });

    telemetry::Registry registry;
    std::uint64_t stats_seq = 0;
    const std::string stats_path = json_dir + "/.bench_stats.tmp";
    std::function<void()> publish = [&] {
      if (backend.stop_requested()) return;
      // The same work noded does per tick: refresh a few gauges, flatten
      // the registry into a whole record, publish atomically.
      registry.counter("bench.pingpong.trips").add(1);
      registry.gauge("bench.backlog.depth").set(static_cast<double>(res.trips));
      telemetry::HealthSnapshot snap;
      snap.node = 1;
      snap.pid = 1;
      snap.seq = ++stats_seq;
      snap.now_us = backend.now();
      snap.metrics = telemetry::registry_values(registry);
      const Bytes rec = telemetry::encode_health_record(snap);
      std::string err;
      (void)atomic_publish_file(stats_path, rec, &err);
      ++res.stats_exports;
      backend.schedule_after(stats_interval, publish);
    };
    if (stats_interval > 0) backend.schedule_after(stats_interval, publish);

    const auto start = Clock::now();
    sent_at = backend.now();
    backend.send(*a, *b, payload, net::Proto::kApp);
    backend.run();
    const double elapsed = seconds_since(start);
    res.msgs_per_sec = static_cast<double>(2 * res.trips) / elapsed;
    if (stats_interval > 0) std::remove(stats_path.c_str());
    return res;
  };

  {
    const std::size_t trips = quick ? 2'000 : 20'000;
    auto base = pingpong(trips, 0);
    if (!base) return 1;
    bench::Json j;
    j.put("round_trips", static_cast<std::uint64_t>(base->trips));
    j.put("payload_bytes", std::uint64_t{64});
    j.put("msgs_per_sec", base->msgs_per_sec);
    j.put("rtt_p50_us", base->rtt_us.percentile(50));
    j.put("rtt_p95_us", base->rtt_us.percentile(95));
    net_json.put("udp_pingpong", j);
    std::printf("ping-pong: %.0f msgs/s, RTT p50 %.0f us / p95 %.0f us (%zu trips)\n",
                base->msgs_per_sec, base->rtt_us.percentile(50),
                base->rtt_us.percentile(95), base->trips);

    // Stats-export overhead: same loop with the exporter ticking at 5 ms.
    // Longer runs than the RTT measurement (rates over a few ms are all
    // scheduler noise) and best-of-3 per side, so a hiccup on either run
    // cannot fake an overhead regression (or hide one).
    const std::size_t ov_trips = quick ? 30'000 : 100'000;
    double off = 0;
    double on = 0;
    std::uint64_t exports = 0;
    for (int i = 0; i < 3; ++i) {
      if (auto r = pingpong(ov_trips, 0)) off = std::max(off, r->msgs_per_sec);
    }
    for (int i = 0; i < 3; ++i) {
      if (auto r = pingpong(ov_trips, 5 * net::kMillisecond)) {
        if (r->msgs_per_sec > on) {
          on = r->msgs_per_sec;
          exports = r->stats_exports;
        }
      }
    }
    if (on <= 0) return 1;
    const double stressed_pct = off > 0 ? (off - on) / off * 100.0 : 0.0;
    // Per-export stall, from the wall-time delta the exports added; then
    // express it against the 1 s cadence whisper_noded ships with. That is
    // the number the CI gate holds under 3%: a sensitive detector (5 ms
    // stress exposes per-export cost 200x amplified) reported at honest
    // deployment scale.
    const double msgs = static_cast<double>(2 * ov_trips);
    const double per_export_us =
        exports > 0
            ? std::max(0.0, (msgs / on - msgs / off) * 1e6 /
                                static_cast<double>(exports))
            : 0.0;
    const double overhead_pct = per_export_us / 1e6 * 100.0;  // of a 1 s tick
    bench::Json s;
    s.put("msgs_per_sec_off", off);
    s.put("msgs_per_sec_on", on);
    s.put("stats_interval_ms", std::uint64_t{5});
    s.put("stats_exports", exports);
    s.put("stressed_overhead_pct", stressed_pct);
    s.put("per_export_us", per_export_us);
    s.put("overhead_pct", overhead_pct);
    net_json.put("stats_export", s);
    std::printf("stats export @5ms stress: %.0f -> %.0f msgs/s (%.2f%%), "
                "%.0f us/export => %.3f%% overhead at the 1 s default\n",
                off, on, stressed_pct, per_export_us, overhead_pct);
  }

  {
    // One-way blast: how fast the loop moves datagrams when the sender
    // never waits. Loopback still drops on socket-buffer overflow; the
    // delivered rate is the honest number.
    net::UdpBackend backend;
    auto a = backend.reserve_endpoint();
    auto b = backend.reserve_endpoint();
    if (!a || !b) {
      std::fprintf(stderr, "bind: %s\n", backend.last_error().c_str());
      return 1;
    }
    const std::size_t batch = 32;
    const std::size_t total = quick ? 20'000 : 200'000;
    const Bytes payload(256, 0x3c);
    backend.attach(*a, [](const net::Datagram&) {});
    backend.attach(*b, [](const net::Datagram&) {});
    const auto start = Clock::now();
    std::size_t sent = 0;
    while (sent < total) {
      for (std::size_t i = 0; i < batch && sent < total; ++i, ++sent) {
        backend.send(*a, *b, payload, net::Proto::kApp);
      }
      backend.poll(0);  // drain between bursts
    }
    const net::Time settle = backend.now() + 200 * net::kMillisecond;
    while (backend.now() < settle) backend.poll(net::kMillisecond);
    const double elapsed = seconds_since(start);
    const double delivered_per_sec =
        static_cast<double>(backend.packets_delivered()) / elapsed;
    bench::Json j;
    j.put("datagrams", static_cast<std::uint64_t>(total));
    j.put("payload_bytes", static_cast<std::uint64_t>(payload.size()));
    j.put("delivered", backend.packets_delivered());
    j.put("delivered_per_sec", delivered_per_sec);
    net_json.put("udp_blast", j);
    std::printf("blast: %llu/%zu delivered, %.0f msgs/s\n",
                (unsigned long long)backend.packets_delivered(), total,
                delivered_per_sec);
  }

  {
    // Onion round trips on a real mesh: the full WHISPER data path (RSA
    // onion seal/peel at every hop) over actual UDP sockets.
    UdpMesh mesh;
    constexpr std::size_t kMeshNodes = 6;
    for (std::size_t i = 0; i < kMeshNodes; ++i) {
      if (mesh.spawn_node() == nullptr) {
        std::fprintf(stderr, "mesh: %s\n", mesh.backend().last_error().c_str());
        return 1;
      }
    }
    mesh.run_for(4 * net::kSecond);  // substrate convergence
    auto nodes = mesh.nodes();
    WhisperNode* alice = nodes[0];
    WhisperNode* bob = nodes[1];
    const GroupId gid{1};
    crypto::Drbg drbg(42);
    ppss::Ppss& ag = alice->create_group(gid, crypto::RsaKeyPair::generate(512, drbg));
    auto invitation = ag.invite(bob->id());
    ppss::Ppss& bg = bob->join_group(gid, *invitation, ag.self_descriptor());
    mesh.run_for(3 * net::kSecond);

    const std::size_t trips = quick ? 20 : 100;
    whisper::Samples rtt_us;
    net::Time sent_at = 0;
    std::size_t done = 0;
    const Bytes payload(64, 0x77);
    bg.on_app_message = [&](const wcl::RemotePeer& from, BytesView p) {
      bg.send_app_to(from, Bytes(p.begin(), p.end()));
    };
    ag.on_app_message = [&](const wcl::RemotePeer&, BytesView) {
      rtt_us.add(static_cast<double>(mesh.clock().now() - sent_at));
      if (++done < trips) {
        sent_at = mesh.clock().now();
        ag.send_app_to(bg.self_descriptor(), payload);
      } else {
        mesh.backend().request_stop();
      }
    };
    if (!bg.joined()) {
      std::fprintf(stderr, "mesh: member failed to join within warm-up\n");
      return 1;
    }
    const auto start = Clock::now();
    sent_at = mesh.clock().now();
    ag.send_app_to(bg.self_descriptor(), payload);
    mesh.backend().schedule_after(60 * net::kSecond,
                                  [&] { mesh.backend().request_stop(); });
    // A round trip can die for good (all alternative mixes exhausted); the
    // serial driver would stall forever. Re-kick when progress stops for a
    // second — the duplicate trip is still a real onion round trip. Every
    // rekick is a lost message on loopback, so the count is reported in
    // BENCH_net.json: a regression that drops trips shows up there instead
    // of being silently absorbed by the watchdog.
    std::size_t last_seen = 0;
    std::size_t rekicks = 0;
    std::function<void()> watchdog = [&] {
      if (mesh.backend().stop_requested() || done >= trips) return;
      if (done == last_seen) {
        ++rekicks;
        sent_at = mesh.clock().now();
        ag.send_app_to(bg.self_descriptor(), payload);
      }
      last_seen = done;
      mesh.backend().schedule_after(net::kSecond, watchdog);
    };
    mesh.backend().schedule_after(net::kSecond, watchdog);
    mesh.backend().run();
    const double elapsed = seconds_since(start);
    bench::Json j;
    j.put("mesh_nodes", static_cast<std::uint64_t>(kMeshNodes));
    j.put("round_trips", static_cast<std::uint64_t>(done));
    j.put("payload_bytes", static_cast<std::uint64_t>(payload.size()));
    j.put("msgs_per_sec", static_cast<double>(2 * done) / elapsed);
    j.put("rtt_p50_us", rtt_us.percentile(50));
    j.put("rtt_p95_us", rtt_us.percentile(95));
    j.put("watchdog_rekicks", static_cast<std::uint64_t>(rekicks));
    net_json.put("onion_rtt", j);
    std::printf("onion: %zu trips through %zu-node mesh, RTT p50 %.0f us / p95 %.0f us, "
                "%zu watchdog rekicks\n",
                done, kMeshNodes, rtt_us.percentile(50), rtt_us.percentile(95), rekicks);
    if (done < trips) {
      std::fprintf(stderr, "onion: only %zu/%zu trips completed\n", done, trips);
      return 1;
    }
  }

  const std::string net_path = json_dir + "/BENCH_net.json";
  if (!bench::write_json_file(net_path, net_json)) {
    std::fprintf(stderr, "cannot write %s\n", net_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", net_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace whisper;
  const bool quick = bench::arg_flag(argc, argv, "quick");
  const std::string json_dir = bench::arg_str(argc, argv, "json", ".");
  if (bench::arg_str(argc, argv, "backend", "sim") == "udp") {
    return run_udp_bench(quick, json_dir);
  }
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", quick ? 100 : 1000);
  const std::size_t groups = bench::arg_size(argc, argv, "groups", quick ? 2 : 8);
  const std::size_t minutes = bench::arg_size(argc, argv, "minutes", quick ? 5 : 30);
  const double budget_s = quick ? 0.05 : 0.5;

  bench::banner("Throughput baseline - RSA plain vs CRT, envelopes/sec, events/sec",
                "not a paper figure; machine-readable perf floor for CI");

  // ---- Crypto: plain vs CRT private ops, public ops, envelopes. ----
  bench::Json crypto_json;
  crypto_json.put("schema", "whisper.bench.crypto/v1");
  crypto_json.put("quick", quick);
  for (const std::size_t bits : {std::size_t{512}, std::size_t{1024}}) {
    crypto::Drbg keyseed(bits);
    const crypto::RsaKeyPair key = crypto::RsaKeyPair::generate(bits, keyseed);
    // Same key with the CRT material stripped: private ops fall back to the
    // single full-size exponentiation (the pre-fast-path behaviour).
    crypto::RsaKeyPair plain_key{key.pub, key.d};

    crypto::Drbg drbg(7);
    const Bytes msg(16, 0xaa);
    const Bytes ct = crypto::rsa_encrypt(key.pub, msg, drbg);

    const double dec_plain = ops_per_sec(budget_s, [&] { crypto::rsa_decrypt(plain_key, ct); });
    const double dec_crt = ops_per_sec(budget_s, [&] { crypto::rsa_decrypt(key, ct); });
    const double sign_plain = ops_per_sec(budget_s, [&] { crypto::rsa_sign(plain_key, msg); });
    const double sign_crt = ops_per_sec(budget_s, [&] { crypto::rsa_sign(key, msg); });
    const double enc = ops_per_sec(budget_s, [&] { crypto::rsa_encrypt(key.pub, msg, drbg); });

    bench::Json j;
    j.put("decrypt_plain_ops_per_sec", dec_plain);
    j.put("decrypt_crt_ops_per_sec", dec_crt);
    j.put("decrypt_crt_speedup", dec_crt / dec_plain);
    j.put("sign_plain_ops_per_sec", sign_plain);
    j.put("sign_crt_ops_per_sec", sign_crt);
    j.put("sign_crt_speedup", sign_crt / sign_plain);
    j.put("encrypt_ops_per_sec", enc);
    crypto_json.put("rsa_" + std::to_string(bits), j);
    std::printf("rsa-%zu: decrypt %.0f -> %.0f ops/s (%.2fx CRT), sign %.0f -> %.0f ops/s "
                "(%.2fx), encrypt %.0f ops/s\n",
                bits, dec_plain, dec_crt, dec_crt / dec_plain, sign_plain, sign_crt,
                sign_crt / sign_plain, enc);
  }
  {
    const crypto::RsaKeyPair& key = pooled_keypair(0, 512);
    crypto::Drbg drbg(11);
    const Bytes payload(256, 0x2f);
    const Bytes env = crypto::envelope_seal(key.pub, payload, drbg);
    const double seal = ops_per_sec(budget_s, [&] { crypto::envelope_seal(key.pub, payload, drbg); });
    const double open = ops_per_sec(budget_s, [&] { crypto::envelope_open(key, env); });
    bench::Json j;
    j.put("payload_bytes", std::uint64_t{256});
    j.put("key_bits", std::uint64_t{512});
    j.put("seal_ops_per_sec", seal);
    j.put("open_ops_per_sec", open);
    crypto_json.put("envelope", j);
    std::printf("envelope-512/256B: seal %.0f ops/s, open %.0f ops/s\n", seal, open);
  }
  {
    // Both sides in one run, so the ratio does not depend on the runner: a
    // dispatch that falls back to the portable path reads about 1x.
    crypto::AesKey key{};
    crypto::AesBlock iv{};
    for (std::size_t i = 0; i < 16; ++i) {
      key[i] = static_cast<std::uint8_t>(7 * i + 1);
      iv[i] = static_cast<std::uint8_t>(0xf0 + i);
    }
    const Bytes data(1024, 0x5c);
    const double ctr = ops_per_sec(budget_s, [&] { crypto::aes128_ctr(key, iv, data); });
    const double portable =
        ops_per_sec(budget_s, [&] { crypto::aes128_ctr_portable(key, iv, data); });
    bench::Json j;
    j.put("payload_bytes", std::uint64_t{1024});
    j.put("ctr_ops_per_sec", ctr);
    j.put("portable_ctr_ops_per_sec", portable);
    j.put("aes_ctr_speedup", ctr / portable);
    crypto_json.put("aes_ctr", j);
    std::printf("aes128-ctr/1KB: %.0f ops/s vs portable fallback %.0f ops/s (%.1fx)\n", ctr,
                portable, ctr / portable);
  }
  {
    // The 4-limb Montgomery multiply (each CRT half of a 512-bit key) as
    // modexp runs it, a chain of dependent squarings, through the kernel
    // MontgomeryCtx dispatches to and through the portable one, in one run:
    // on a BMI2/ADX CPU a dispatch that falls back reads about 1x. The two
    // alternate in five short bursts and each keeps its fastest, so a burst
    // that loses the CPU to another process does not set the ratio.
    const crypto::RsaKeyPair& key = pooled_keypair(0, 512);
    std::uint64_t n[4] = {};
    std::copy(key.p.limbs().begin(), key.p.limbs().end(), n);
    std::uint64_t inv = n[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - n[0] * inv;
    const std::uint64_t n_prime = ~inv + 1;
    constexpr int kChain = 1000;
    std::uint64_t x[4] = {0x0123456789abcdef, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978, 1};
    double mul = 0;
    double portable = 0;
    for (int burst = 0; burst < 5; ++burst) {
      mul = std::max(mul, kChain * ops_per_sec(budget_s / 5, [&] {
        for (int i = 0; i < kChain; ++i) crypto::montmul::mul4(x, x, n, n_prime, x);
      }));
      portable = std::max(portable, kChain * ops_per_sec(budget_s / 5, [&] {
        for (int i = 0; i < kChain; ++i) crypto::montmul::mul4_portable(x, x, n, n_prime, x);
      }));
    }
    bench::Json j;
    j.put("mul_ns", 1e9 / mul);
    j.put("portable_mul_ns", 1e9 / portable);
    j.put("mont_mul4_speedup", mul / portable);
    crypto_json.put("mont_mul4", j);
    std::printf("montgomery 4-limb multiply: %.1f ns vs portable %.1f ns (%.2fx)\n", 1e9 / mul,
                1e9 / portable, mul / portable);
  }

  // ---- Simulator: raw event dispatch, then the paper-scale scenario. ----
  bench::Json sim_json;
  sim_json.put("schema", "whisper.bench.sim/v1");
  sim_json.put("quick", quick);
  {
    // Self-rescheduling timer mesh: hammer schedule/cancel/step with zero
    // per-event work, isolating event-loop overhead.
    sim::Simulator s;
    constexpr std::size_t kChains = 64;
    std::vector<std::function<void()>> chains(kChains);
    std::vector<net::TimerId> decoys(kChains, 0);
    for (std::size_t c = 0; c < kChains; ++c) {
      chains[c] = [&, c] {
        s.cancel(decoys[c]);  // exercise the cancel path every event
        decoys[c] = s.schedule_after(1000, [] {});
        s.schedule_after(1 + c % 7, chains[c]);
      };
      s.schedule_at(c, chains[c]);
    }
    const std::uint64_t target = quick ? 200'000 : 2'000'000;
    const auto start = Clock::now();
    while (s.executed_events() < target) s.step();
    const double elapsed = seconds_since(start);
    const double events_per_sec = static_cast<double>(s.executed_events()) / elapsed;
    bench::Json j;
    j.put("events_executed", s.executed_events());
    j.put("events_cancelled", s.cancelled_events());
    j.put("events_per_sec", events_per_sec);
    sim_json.put("event_loop", j);
    std::printf("event loop: %.2fM events/s (with a cancel per event)\n", events_per_sec / 1e6);
  }
  {
    // The ROADMAP scenario: 1k nodes, 8 groups, 30 virtual minutes. All
    // group traffic rides the WCL, so the run is dominated by RSA private
    // ops on the P-node mixes.
    ScaleConfig cfg;
    cfg.initial_nodes = nodes;
    cfg.natted_fraction = 0.7;
    cfg.latency = "cluster";
    cfg.node.pss.pi_min_public = 3;
    cfg.node.wcl.pi = 3;
    cfg.seed = 7;
    const auto start = Clock::now();
    ScaleTestbed tb(cfg);
    Rng rng(cfg.seed ^ 0x51b);
    tb.run_for(5 * net::kMinute);
    bench::found_groups(tb, groups, 5000, cfg.seed, rng);
    tb.run_for(minutes * net::kMinute);
    const double wall_s = seconds_since(start);
    const double events_per_wall_sec =
        static_cast<double>(tb.executed_events()) / wall_s;
    bench::Json j;
    j.put("nodes", static_cast<std::uint64_t>(nodes));
    j.put("groups", static_cast<std::uint64_t>(groups));
    j.put("virtual_minutes", static_cast<std::uint64_t>(minutes));
    j.put("wall_seconds", wall_s);
    j.put("sim_events_executed", tb.executed_events());
    j.put("sim_events_per_wall_sec", events_per_wall_sec);
    sim_json.put("scenario", j);
    {
      // Attribute the 72k-vs-2.37M events/sec gap: wall-clock spent inside
      // each subsystem's inbound handler and in individual crypto ops,
      // summed across every node ever spawned. The buckets overlap by
      // design (ppss_handler nests inside wcl_handler; crypto ops run
      // inside handlers and send paths), so shares are reported against
      // total wall, not against each other.
      double spent_s[static_cast<std::size_t>(net::CpuCategory::kCount)] = {};
      std::uint64_t ops[static_cast<std::size_t>(net::CpuCategory::kCount)] = {};
      for (std::size_t i = 0; i < tb.node_count(); ++i) {
        WhisperNode* node = tb.node_at(i);
        for (std::size_t c = 0; c < static_cast<std::size_t>(net::CpuCategory::kCount); ++c) {
          const auto cat = static_cast<net::CpuCategory>(c);
          spent_s[c] += static_cast<double>(node->cpu().spent(cat)) / 1e6;
          ops[c] += node->cpu().ops(cat);
        }
      }
      bench::Json split;
      for (std::size_t c = 0; c < static_cast<std::size_t>(net::CpuCategory::kCount); ++c) {
        const auto cat = static_cast<net::CpuCategory>(c);
        bench::Json e;
        e.put("seconds", spent_s[c]);
        e.put("ops", ops[c]);
        e.put("share_of_wall", spent_s[c] / wall_s);
        split.put(net::cpu_category_name(cat), e);
      }
      split.put("note",
                "overlapping buckets: ppss_handler nests inside wcl_handler; "
                "crypto categories time individual ops wherever they run");
      sim_json.put("cpu_split", split);
      std::printf("cpu split: pss %.1fs, keys %.1fs, wcl %.1fs (ppss %.1fs), "
                  "crypto %.1fs of %.1fs wall\n",
                  spent_s[static_cast<std::size_t>(net::CpuCategory::kPssHandler)],
                  spent_s[static_cast<std::size_t>(net::CpuCategory::kKeysHandler)],
                  spent_s[static_cast<std::size_t>(net::CpuCategory::kWclHandler)],
                  spent_s[static_cast<std::size_t>(net::CpuCategory::kPpssHandler)],
                  spent_s[0] + spent_s[1] + spent_s[2] + spent_s[3], wall_s);
    }
    std::printf("scenario %zu nodes / %zu groups / %zu min: %.1f s wall\n", nodes, groups,
                minutes, wall_s);
  }

  const std::string crypto_path = json_dir + "/BENCH_crypto.json";
  const std::string sim_path = json_dir + "/BENCH_sim.json";
  if (!bench::write_json_file(crypto_path, crypto_json) ||
      !bench::write_json_file(sim_path, sim_json)) {
    std::fprintf(stderr, "cannot write %s / %s\n", crypto_path.c_str(), sim_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", crypto_path.c_str(), sim_path.c_str());
  return 0;
}
