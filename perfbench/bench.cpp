#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/densemap.hpp"
#include "common/rng.hpp"
#include "crypto/onion.hpp"
#include "crypto/random.hpp"
#include "crypto/rsa.hpp"
#include "whisper/keypool.hpp"

namespace perfbench {

using namespace whisper;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double trace_overhead_pct(const std::vector<double>& cost) {
  if (cost.size() < 2 || cost[1] <= 0) return 0;
  std::vector<double> traced = cost;
  traced.erase(traced.begin() + 1);
  return (median(traced) / cost[1] - 1) * 100;
}

// --- Json -------------------------------------------------------------------

namespace {

std::string render(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Json& Json::num(const std::string& key, double v) {
  fields_.emplace_back(key, render(v));
  return *this;
}

Json& Json::num(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

Json& Json::flag(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

Json& Json::str(const std::string& key, const std::string& v) {
  // Values are identifiers and messages from this program; escape the two
  // characters that could break the document anyway.
  std::string esc;
  for (char c : v) {
    if (c == '"' || c == '\\') esc += '\\';
    esc += c;
  }
  fields_.emplace_back(key, "\"" + esc + "\"");
  return *this;
}

Json& Json::arr(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += render(v[i]);
  }
  fields_.emplace_back(key, s + "]");
  return *this;
}

Json& Json::obj(const std::string& key, const Json& v) {
  fields_.emplace_back(key, v.dump());
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  return out + "}";
}

// --- Slices -----------------------------------------------------------------

void Slices::begin() {
  wall0_ = wall_now();
  cpu0_ = process_cpu_s();
}

void Slices::end(double virt_s) {
  wall_.push_back(wall_now() - wall0_);
  cpu_.push_back(process_cpu_s() - cpu0_);
  virt_.push_back(virt_s);
  if (with_reference_) ref_.push_back(reference_loop_s());
}

void Slices::sample_reference(int n) {
  for (int i = 0; i < n; ++i) extra_ref_.push_back(reference_loop_s());
}

namespace {

double reference_once() {
  constexpr int kLimbs = 8;  // 512 bits
  std::uint64_t a[kLimbs], b[kLimbs], acc[2 * kLimbs] = {};
  for (int i = 0; i < kLimbs; ++i) {
    a[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    b[i] = 0xd1342543de82ef95ull ^ (static_cast<std::uint64_t>(i) << 7);
  }
  const double t0 = wall_now();
  for (int round = 0; round < 40'000; ++round) {
    for (int i = 0; i < kLimbs; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < kLimbs; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + acc[i + j];
        acc[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      acc[i + kLimbs] = static_cast<std::uint64_t>(carry);
    }
    a[round % kLimbs] ^= acc[kLimbs];
  }
  const double dt = wall_now() - t0;
  if (acc[0] == 0x5eed) std::fprintf(stderr, "reference loop: %llu\n", (unsigned long long)acc[1]);
  return dt;
}

}  // namespace

double reference_loop_s() {
  return median({reference_once(), reference_once(), reference_once()});
}

std::vector<int> pin_to_fastest_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  crypto::Drbg drbg(0x9b0be);
  const crypto::RsaKeyPair key = crypto::RsaKeyPair::generate(512, drbg);
  const Bytes ct = crypto::rsa_encrypt(key.pub, Bytes(16, 1), drbg);
  std::vector<std::uint64_t> table(std::size_t{1} << 20);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9e3779b97f4a7c15ull;

  std::vector<std::pair<double, int>> score;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    double best = 1e9;
    for (int round = 0; round < 2; ++round) {
      const double t0 = wall_now();
      for (int i = 0; i < 100; ++i) crypto::rsa_decrypt(key, ct);
      std::uint64_t idx = 1;
      for (std::uint64_t i = 0; i < 100'000; ++i) idx = table[(idx ^ i) & (table.size() - 1)];
      if (idx == 0) std::fprintf(stderr, "cpu probe: degenerate\n");
      best = std::min(best, wall_now() - t0);
    }
    score.emplace_back(best, cpu);
  }
  std::sort(score.begin(), score.end());
  std::vector<int> chosen;
  cpu_set_t pick;
  CPU_ZERO(&pick);
  for (std::size_t i = 0; i < score.size() && i < n; ++i) {
    chosen.push_back(score[i].second);
    CPU_SET(score[i].second, &pick);
  }
  sched_setaffinity(0, sizeof (chosen.empty() ? allowed : pick), chosen.empty() ? &allowed : &pick);
  return chosen;
}

namespace {
double sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}
}  // namespace

double Slices::wall_s() const { return sum(wall_); }
double Slices::cpu_s() const { return sum(cpu_); }
double Slices::virt_s() const { return sum(virt_); }

Json Slices::json() const {
  Json j;
  j.num("wall_s", wall_s()).num("cpu_s", cpu_s()).num("virt_s", virt_s());
  j.arr("slice_wall_s", wall_).arr("slice_cpu_s", cpu_).arr("slice_virt_s", virt_);
  std::vector<double> all_ref = ref_;
  all_ref.insert(all_ref.end(), extra_ref_.begin(), extra_ref_.end());
  j.arr("slice_ref_s", ref_).arr("run_ref_s", all_ref);
  return j;
}

// --- Spans ------------------------------------------------------------------

Spans::Scope::Scope(Spans* owner, const char* name) : owner_(owner) {
  if (owner_ == nullptr) return;
  const std::int64_t parent =
      owner_->stack_.empty() ? -1 : static_cast<std::int64_t>(owner_->stack_.back());
  index_ = owner_->recs_.size();
  owner_->recs_.push_back(Rec{name, wall_now(), 0, parent});
  owner_->stack_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  Rec& r = owner_->recs_[index_];
  r.dur = wall_now() - r.start;
  owner_->stack_.pop_back();
  owner_->by_name_[r.name].push_back(r.dur);
}

const std::vector<double>& Spans::durations(const std::string& name) const {
  static const std::vector<double> kNone;
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNone : it->second;
}

Json Spans::summary() const {
  Json j;
  for (const auto& [name, durs] : by_name_) {
    double total = 0;
    for (double d : durs) total += d;
    Json s;
    s.num("count", static_cast<std::uint64_t>(durs.size()))
        .num("total_s", total)
        .num("mean_us", durs.empty() ? 0 : total / static_cast<double>(durs.size()) * 1e6);
    j.obj(name, s);
  }
  return j;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = recs_.empty() ? 0 : recs_.front().start;
  out << "[";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << render((r.start - origin) * 1e6) << ",\"dur\":" << render(r.dur * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

// --- App messages -------------------------------------------------------------

namespace {

void put_le(Bytes& b, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le(BytesView b, std::size_t at, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= std::uint64_t{b[at + i]} << (8 * i);
  return v;
}

constexpr std::size_t kHeaderBytes = 8 + 8 + 4 + 4;

}  // namespace

Bytes make_app_payload(std::uint64_t seed, const AppHeader& h) {
  Bytes b;
  b.reserve(kAppPayload);
  put_le(b, h.index, 8);
  put_le(b, h.due_us, 8);
  put_le(b, h.from, 4);
  put_le(b, h.to, 4);
  Rng fill(seed ^ (h.index * 0x9e3779b97f4a7c15ull));
  while (b.size() < kAppPayload) b.push_back(static_cast<std::uint8_t>(fill.next_u64()));
  return b;
}

bool check_app_payload(std::uint64_t seed, BytesView payload, AppHeader* out) {
  if (payload.size() != kAppPayload) return false;
  AppHeader h;
  h.index = get_le(payload, 0, 8);
  h.due_us = get_le(payload, 8, 8);
  h.from = static_cast<std::uint32_t>(get_le(payload, 16, 4));
  h.to = static_cast<std::uint32_t>(get_le(payload, 20, 4));
  const Bytes expect = make_app_payload(seed, h);
  if (!std::equal(expect.begin() + kHeaderBytes, expect.end(), payload.begin() + kHeaderBytes)) {
    return false;
  }
  *out = h;
  return true;
}

void MessageLog::arrive(std::uint64_t seed, std::uint32_t at, BytesView payload,
                        std::uint64_t now_us) {
  AppHeader h;
  if (!check_app_payload(seed, payload, &h) || h.index >= msgs.size()) {
    ++corrupt;
    return;
  }
  Msg& m = msgs[h.index];
  if (m.from != h.from || m.to != h.to || m.due_us != h.due_us) {
    ++corrupt;
    return;
  }
  if (at != m.to) {
    ++misdelivered;
    return;
  }
  if (m.arrived_us >= 0) {
    ++duplicates;
    return;
  }
  m.arrived_us = static_cast<std::int64_t>(now_us);
}

std::uint64_t MessageLog::delivered_within(std::uint64_t deadline_us) const {
  std::uint64_t n = 0;
  for (const Msg& m : msgs) {
    if (m.arrived_us >= 0 &&
        static_cast<std::uint64_t>(m.arrived_us) <= m.due_us + deadline_us) {
      ++n;
    }
  }
  return n;
}

std::vector<double> MessageLog::latencies_ms(std::uint64_t deadline_us) const {
  std::vector<double> out;
  for (const Msg& m : msgs) {
    if (m.arrived_us < 0) continue;
    const auto at = static_cast<std::uint64_t>(m.arrived_us);
    if (at > m.due_us + deadline_us) continue;
    out.push_back(static_cast<double>(at - m.due_us) / 1000.0);
  }
  return out;
}

std::vector<double> MessageLog::lateness_ms() const {
  std::vector<double> out;
  for (const Msg& m : msgs) {
    if (m.sent_us >= m.due_us) out.push_back(static_cast<double>(m.sent_us - m.due_us) / 1000.0);
  }
  return out;
}

// --- Layer totals ---------------------------------------------------------------

void LayerTotals::add(WhisperNode& n) {
  for (std::size_t c = 0; c < static_cast<std::size_t>(net::CpuCategory::kCount); ++c) {
    const auto cat = static_cast<net::CpuCategory>(c);
    cpu_s[c] += static_cast<double>(n.cpu().spent(cat)) / 1e6;
    cpu_ops[c] += n.cpu().ops(cat);
  }
  pss_initiated += n.pss().exchanges_initiated();
  pss_completed += n.pss().exchanges_completed();
  pss_timed_out += n.pss().exchanges_timed_out();
  pss_quarantined += n.pss().peers_quarantined();
  sends_direct += n.transport().sends_direct();
  sends_punched += n.transport().sends_punched();
  sends_relayed += n.transport().sends_relayed();
  probes += n.transport().probes_sent();
  routes_invalidated += n.transport().routes_invalidated();
  key_evictions += n.keys().cache_evictions();
  const auto& w = n.wcl().stats();
  wcl_first_try += w.first_try_success;
  wcl_alternative += w.alternative_success;
  wcl_no_alternative += w.no_alternative;
  wcl_attempts += w.total_attempts;
  wcl_forwarded += w.onions_forwarded;
}

void LayerTotals::add_group(const ppss::Ppss& p) {
  ppss_initiated += p.stats().exchanges_initiated;
  ppss_completed += p.stats().exchanges_completed;
  ppss_timed_out += p.stats().exchanges_timed_out;
}

LayerTotals LayerTotals::minus(const LayerTotals& b) const {
  LayerTotals d = *this;
  for (std::size_t c = 0; c < static_cast<std::size_t>(net::CpuCategory::kCount); ++c) {
    d.cpu_s[c] -= b.cpu_s[c];
    d.cpu_ops[c] -= b.cpu_ops[c];
  }
  d.pss_initiated -= b.pss_initiated;
  d.pss_completed -= b.pss_completed;
  d.pss_timed_out -= b.pss_timed_out;
  d.pss_quarantined -= b.pss_quarantined;
  d.sends_direct -= b.sends_direct;
  d.sends_punched -= b.sends_punched;
  d.sends_relayed -= b.sends_relayed;
  d.probes -= b.probes;
  d.routes_invalidated -= b.routes_invalidated;
  d.key_evictions -= b.key_evictions;
  d.wcl_first_try -= b.wcl_first_try;
  d.wcl_alternative -= b.wcl_alternative;
  d.wcl_no_alternative -= b.wcl_no_alternative;
  d.wcl_attempts -= b.wcl_attempts;
  d.wcl_forwarded -= b.wcl_forwarded;
  d.ppss_initiated -= b.ppss_initiated;
  d.ppss_completed -= b.ppss_completed;
  d.ppss_timed_out -= b.ppss_timed_out;
  return d;
}

void LayerTotals::put_layers(Json& l) const {
  using C = net::CpuCategory;
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  // CPU-meter buckets, raw. They overlap: ppss_handler nests inside
  // wcl_handler and crypto is charged wherever it runs. Never sum them.
  l.num("crypto.aes_s", cpu(C::kAes)).num("crypto.aes_ops", ops(C::kAes));
  l.num("crypto.rsa_encrypt_s", cpu(C::kRsaEncrypt))
      .num("crypto.rsa_encrypt_ops", ops(C::kRsaEncrypt));
  l.num("crypto.rsa_decrypt_s", cpu(C::kRsaDecrypt))
      .num("crypto.rsa_decrypt_ops", ops(C::kRsaDecrypt));
  l.num("crypto.rsa_sign_s", cpu(C::kRsaSign)).num("crypto.rsa_sign_ops", ops(C::kRsaSign));
  l.num("pss.handler_s", cpu(C::kPssHandler));
  l.num("pss.handler_us_per_op", ratio(cpu(C::kPssHandler) * 1e6, f(ops(C::kPssHandler))));
  l.num("pss.exchange_ratio", ratio(f(pss_completed), f(pss_initiated)));
  l.num("pss.fail_ratio", ratio(f(pss_timed_out), f(pss_initiated)));
  l.num("pss.exchanges_initiated", pss_initiated);
  l.num("pss.quarantined", pss_quarantined);
  l.num("keysvc.handler_s", cpu(C::kKeysHandler));
  l.num("keysvc.cache_evictions", key_evictions);
  l.num("wcl.handler_s", cpu(C::kWclHandler));
  const std::uint64_t sends = wcl_first_try + wcl_alternative + wcl_no_alternative;
  l.num("wcl.useful_per_attempt", ratio(f(wcl_first_try + wcl_alternative), f(wcl_attempts)));
  l.num("wcl.first_try_ratio", ratio(f(wcl_first_try), f(sends)));
  l.num("wcl.sends", sends);
  l.num("wcl.forwarded", wcl_forwarded);
  l.num("ppss.handler_s", cpu(C::kPpssHandler));
  l.num("ppss.exchange_ratio", ratio(f(ppss_completed), f(ppss_initiated)));
  const std::uint64_t nylon_sends = sends_direct + sends_punched + sends_relayed;
  l.num("nylon.relay_share", ratio(f(sends_relayed), f(nylon_sends)));
  l.num("nylon.sends", nylon_sends);
  l.num("nylon.probes", probes);
  l.num("nylon.routes_invalidated", routes_invalidated);
}

// --- Probes -----------------------------------------------------------------------

double endpoint_find_ns(const std::vector<Endpoint>& eps, std::uint64_t seed) {
  if (eps.empty()) return 0;
  DenseMap<Endpoint, std::uint32_t> map;
  for (std::uint32_t i = 0; i < eps.size(); ++i) map[eps[i]] = i;
  std::vector<Endpoint> order = eps;
  Rng rng(seed ^ 0xe9d);
  rng.shuffle(order);
  // At least 20k lookups so small populations still time a measurable loop.
  const std::size_t rounds = std::max<std::size_t>(1, 20'000 / order.size());
  std::uint64_t found = 0;
  const double t0 = wall_now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Endpoint& ep : order) found += map.find(ep)->second;
  }
  const double dt = wall_now() - t0;
  if (found == 0 && order.size() > 1) std::fprintf(stderr, "endpoint probe: no hits\n");
  return dt * 1e9 / static_cast<double>(rounds * order.size());
}

void crypto_probes(std::size_t hops, std::size_t body_bytes, std::uint64_t seed, Json& layers) {
  std::vector<crypto::OnionHop> path;
  for (std::size_t i = 0; i < hops; ++i) {
    const crypto::RsaKeyPair& k = pooled_keypair(i, 512);
    path.push_back(crypto::OnionHop{NodeId{i + 1}, k.pub, Endpoint{(1u << 24) + 1 + static_cast<std::uint32_t>(i), 5000}});
  }
  crypto::Drbg drbg(seed ^ 0xc4);
  const Bytes body = drbg.bytes(body_bytes);
  constexpr int kIters = 400;

  const crypto::OnionKeys keys = crypto::onion_fresh_keys(drbg);
  crypto::OnionPacket packet;
  double t0 = wall_now();
  for (int i = 0; i < kIters; ++i) packet.header = crypto::onion_build_header(path, keys, drbg);
  layers.num("crypto.onion_build_us", (wall_now() - t0) * 1e6 / kIters);

  packet.body = crypto::onion_crypt_body(keys, body);
  bool peeled = true;
  t0 = wall_now();
  for (int i = 0; i < kIters; ++i) {
    peeled &= crypto::onion_peel_header(pooled_keypair(0, 512), packet).has_value();
  }
  layers.num("crypto.onion_peel_us", (wall_now() - t0) * 1e6 / kIters);
  if (!peeled) std::fprintf(stderr, "crypto probe: first hop failed to peel\n");

  std::size_t sink = 0;
  t0 = wall_now();
  for (int i = 0; i < kIters; ++i) sink += crypto::onion_crypt_body(keys, body).size();
  layers.num("crypto.aes_body_us", (wall_now() - t0) * 1e6 / kIters);
  layers.num("crypto.probe_body_bytes", static_cast<std::uint64_t>(sink / kIters));
}

std::size_t app_frame_bytes(WhisperNode& sender, GroupId group) {
  ppss::Ppss* p = sender.group(group);
  if (p == nullptr) return kAppPayload;
  // Mirrors Ppss::send_app_to's frame: group id, kind, passport, sender
  // descriptor, nonce, app id, length-prefixed payload.
  Writer w;
  w.group_id(group);
  w.u8(0);
  p->passport().serialize(w);
  sender.wcl().self_peer().serialize(w);
  w.u64(0);
  w.u8(0);
  w.bytes(Bytes(kAppPayload, 0));
  return w.size();
}

void fig7_split(const std::vector<telemetry::FlightRecord>& records,
                const std::vector<AppSend>& sends, std::uint64_t tol_us, Json& layers) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>> pending;
  for (const AppSend& s : sends) pending[{s.src, s.dst}].push_back(s.ts_us);
  for (auto& [key, ts] : pending) std::sort(ts.begin(), ts.end());

  double rtt = 0, crypto = 0, prop = 0, queue = 0, retry = 0, proc = 0;
  std::uint64_t matched = 0;
  for (const telemetry::FlightRecord& r : records) {
    if (r.layer != telemetry::TraceLayer::kWcl || r.root != 0 || r.outcome != "delivered") {
      continue;
    }
    auto it = pending.find({r.src, r.dst});
    if (it == pending.end()) continue;
    std::vector<std::uint64_t>& ts = it->second;
    const std::uint64_t lo = r.begin_ts > tol_us ? r.begin_ts - tol_us : 0;
    auto at = std::lower_bound(ts.begin(), ts.end(), lo);
    if (at == ts.end() || *at > r.begin_ts + tol_us) continue;
    ts.erase(at);
    ++matched;
    rtt += static_cast<double>(r.rtt_us);
    crypto += static_cast<double>(r.crypto_us);
    prop += static_cast<double>(r.prop_us);
    queue += static_cast<double>(r.queue_us);
    retry += static_cast<double>(r.retry_us);
    proc += static_cast<double>(r.proc_us);
  }
  layers.num("telemetry.flight_records", static_cast<std::uint64_t>(records.size()));
  layers.num("wcl.lat_records", matched);
  layers.num("wcl.lat_crypto_share", ratio(crypto, rtt));
  layers.num("wcl.lat_prop_share", ratio(prop, rtt));
  layers.num("wcl.lat_queue_share", ratio(queue, rtt));
  layers.num("wcl.lat_retry_share", ratio(retry, rtt));
  layers.num("wcl.lat_proc_share", ratio(proc, rtt));
}

}  // namespace perfbench
