// Shared plumbing of the WHISPER benchmark driver: wall/CPU/RSS probes, the
// benchmark's own spans around calls into the stack, the app-message codec
// the generators use, per-layer totals summed over nodes, and a small JSON
// writer for the raw result document that perfbench/run.py turns into
// metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "telemetry/flight.hpp"
#include "whisper/node.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Steady-clock seconds since an arbitrary origin.
double wall_now();
/// Process CPU time (user + sys, every thread) in seconds.
double process_cpu_s();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);

/// Tracing overhead in percent from per-setup-repeat costs of a traced run,
/// where repeat 1 ran with flight recording off and the others with it on.
double trace_overhead_pct(const std::vector<double>& cost);

// ---------------------------------------------------------------------------
// JSON writer: insertion-ordered object, numbers printed with every digit.

class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& num(const std::string& key, std::uint64_t v);
  Json& flag(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& arr(const std::string& key, const std::vector<double>& v);
  Json& obj(const std::string& key, const Json& v);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// The timed phase in slices: wall, process CPU and virtual (or, on the real
// clock, wall) seconds per slice, so the runner can weigh each slice's CPU
// time against the reference loop timed right after it and take the median
// slice speed.

class Slices {
 public:
  /// `with_reference`: time the reference loop after every slice. A live
  /// mesh cannot pause for it, so it samples after the loop instead.
  explicit Slices(bool with_reference = true) : with_reference_(with_reference) {}
  void begin();
  void end(double virt_s);
  /// Time the reference loop `n` more times outside any slice.
  void sample_reference(int n);
  double wall_s() const;
  double cpu_s() const;
  double virt_s() const;
  Json json() const;

 private:
  bool with_reference_;
  double wall0_ = 0, cpu0_ = 0;
  std::vector<double> wall_, cpu_, virt_, ref_, extra_ref_;
};

/// Seconds a fixed reference loop takes right now (median of three): 512-bit
/// schoolbook multiply-accumulate on 64-bit limbs, the instruction mix of
/// the stack's RSA, in code the stack does not share. The runner expresses
/// CPU-bound figures in units of it.
double reference_loop_s();

/// Restrict this process (and the threads it starts later) to the `n`
/// allowed CPUs that run a short probe (RSA decryptions plus random reads
/// over 8 MiB) fastest right now. On a shared host the vCPUs differ in speed
/// by up to 2x from moment to moment; a run that lands on a slow one would
/// otherwise read as a regression. Returns the chosen CPUs.
std::vector<int> pin_to_fastest_cpus(std::size_t n);

// ---------------------------------------------------------------------------
// The benchmark's own spans. Disabled (untraced runs) a span costs one
// branch; enabled it records name, start, duration and parent, and keeps a
// per-name duration list for aggregate statistics.

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans* owner, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Spans* owner_;
    std::size_t index_ = 0;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Durations (seconds) of every span with this name.
  const std::vector<double>& durations(const std::string& name) const;
  /// count / total_s / mean_us per span name.
  Json summary() const;
  /// Chrome trace-event JSON of every recorded span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    double start;
    double dur;
    std::int64_t parent;
  };
  bool enabled_;
  std::vector<Rec> recs_;
  std::vector<std::size_t> stack_;
  std::map<std::string, std::vector<double>> by_name_;
};

// ---------------------------------------------------------------------------
// App messages: 64 bytes whose content is a pure function of (seed, index),
// so a receiver can check that what arrived is byte-identical to what was
// addressed to it.

constexpr std::size_t kAppPayload = 64;

struct AppHeader {
  std::uint64_t index = 0;
  std::uint64_t due_us = 0;
  std::uint32_t from = 0;  // generator-local member index
  std::uint32_t to = 0;
};

whisper::Bytes make_app_payload(std::uint64_t seed, const AppHeader& h);
/// Parses and verifies a payload; false when it is not byte-identical to
/// make_app_payload(seed, header).
bool check_app_payload(std::uint64_t seed, whisper::BytesView payload, AppHeader* out);

/// Bookkeeping for an open-loop message stream: one slot per generated
/// message, resolved by its first intact arrival.
struct MessageLog {
  struct Msg {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint64_t due_us = 0;
    std::uint64_t sent_us = 0;
    bool sent = false;         // send_app_to accepted it
    std::int64_t arrived_us = -1;
  };
  std::vector<Msg> msgs;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupt = 0;      // payload not byte-identical
  std::uint64_t misdelivered = 0; // arrived at a member it was not sent to

  /// Receiver side: record an arrival at member `at` (generator index).
  void arrive(std::uint64_t seed, std::uint32_t at, whisper::BytesView payload,
              std::uint64_t now_us);
  /// Deliveries within `deadline_us` of their due time.
  std::uint64_t delivered_within(std::uint64_t deadline_us) const;
  /// Latency (ms, due -> arrival) of deliveries within the deadline.
  std::vector<double> latencies_ms(std::uint64_t deadline_us) const;
  std::vector<double> lateness_ms() const;
};

// ---------------------------------------------------------------------------
// Per-layer totals summed over a set of nodes (every node ever spawned, so
// departed nodes keep their counts). Deltas between two snapshots give the
// timed phase alone.

struct LayerTotals {
  double cpu_s[static_cast<std::size_t>(whisper::net::CpuCategory::kCount)] = {};
  std::uint64_t cpu_ops[static_cast<std::size_t>(whisper::net::CpuCategory::kCount)] = {};
  std::uint64_t pss_initiated = 0, pss_completed = 0, pss_timed_out = 0, pss_quarantined = 0;
  std::uint64_t sends_direct = 0, sends_punched = 0, sends_relayed = 0;
  std::uint64_t probes = 0, routes_invalidated = 0;
  std::uint64_t key_evictions = 0;
  std::uint64_t wcl_first_try = 0, wcl_alternative = 0, wcl_no_alternative = 0;
  std::uint64_t wcl_attempts = 0, wcl_forwarded = 0;
  std::uint64_t ppss_initiated = 0, ppss_completed = 0, ppss_timed_out = 0;

  void add(whisper::WhisperNode& n);
  void add_group(const whisper::ppss::Ppss& p);
  LayerTotals minus(const LayerTotals& base) const;
  double cpu(whisper::net::CpuCategory c) const { return cpu_s[static_cast<std::size_t>(c)]; }
  std::uint64_t ops(whisper::net::CpuCategory c) const {
    return cpu_ops[static_cast<std::size_t>(c)];
  }
  /// Per-layer metrics derivable from the totals alone.
  void put_layers(Json& layers) const;
};

/// Snapshot of per-layer totals over nodes [0, count).
template <typename NodeAt>
LayerTotals sum_layers(std::size_t count, NodeAt&& node_at) {
  LayerTotals t;
  for (std::size_t i = 0; i < count; ++i) t.add(*node_at(i));
  return t;
}

double ratio(double num, double den);

// ---------------------------------------------------------------------------
// Probes: small timed loops run after the workload against its own state.

/// ns per DenseMap<Endpoint, ...>::find over these endpoints.
double endpoint_find_ns(const std::vector<whisper::Endpoint>& eps, std::uint64_t seed);

/// onion_build_header / onion_peel_header / onion_crypt_body on a 512-bit
/// path of `hops` pooled keys with a body of `body_bytes`; microseconds per
/// call, written as crypto.onion_build_us / onion_peel_us / aes_body_us.
void crypto_probes(std::size_t hops, std::size_t body_bytes, std::uint64_t seed, Json& layers);

/// Size of the WCL body a Ppss app frame with a kAppPayload payload
/// occupies (the plaintext the onion body encrypts).
std::size_t app_frame_bytes(whisper::WhisperNode& sender, whisper::GroupId group);

/// One app message as the generator issued it, for matching flight records.
struct AppSend {
  std::uint64_t src = 0;  // node ids
  std::uint64_t dst = 0;
  std::uint64_t ts_us = 0;
};

/// Fig. 7 split of delivered app messages: match WCL flight records (root
/// 0, outcome delivered) to the generator's sends within `tol_us`, and
/// write each latency component's share of the summed round trips.
void fig7_split(const std::vector<whisper::telemetry::FlightRecord>& records,
                const std::vector<AppSend>& sends, std::uint64_t tol_us, Json& layers);

// ---------------------------------------------------------------------------
// Workloads. Each writes the raw result document into `out`; the return
// value is the process exit code (non-zero when the run could not finish).

int run_groups(const Args& args, Json& out);
int run_churn(const Args& args, Json& out);
int run_onion_live(const Args& args, Json& out);

}  // namespace perfbench
