// whisper_trace — offline analysis of flight-record dumps.
//
// Operates on the JSONL emitted by `whisper_sim --flight=out.jsonl` (or any
// FlightRecorder export):
//
//   whisper_trace summary out.jsonl [more.jsonl ...]
//       Outcome counts, per-hop latency decomposition totals, digest.
//       Multiple inputs merge by trace id with canonical renumbering
//       (the sharded-engine merge rules). Raw-event exports
//       (*.events.jsonl, auto-detected by their "kind" key) merge at the
//       event level first — the cross-process path: each whisper_noded
//       under --trace-wire logs its own half of every flight, and the
//       merged assembly rebuilds full per-hop decompositions.
//   whisper_trace show <trace_id> out.jsonl [more.jsonl ...]
//       Full per-hop breakdown of one message (trace ids as renumbered
//       by the merge when multiple inputs are given).
//   whisper_trace audit out.jsonl [--observe-relays=3,5] [--observe-links=1-2,4-7]
//                       [--observe-taps=9] [--global] [--nodes=N] [--verbose]
//       Adversary's-view anonymity audit: anonymity-set sizes, per-relay
//       sender/receiver unlinkability, group-membership leakage.
//   whisper_trace faults out.jsonl [--fault=kind]
//       Messages the fault fabric touched, filterable by fault kind.
//   whisper_trace fig7 out.jsonl [more.jsonl ...]
//       The paper's Fig. 7 from flight data (telemetry/figures.hpp): the
//       RTT of every completed PPSS exchange, and the crypto / network /
//       retry / proc split of the delivered WCL messages under them.
//       Inputs merge as for `summary`, so a live fleet's .events.jsonl
//       files work as well as a simulator export. Crypto is the modeled
//       cost on the simulator and the measured time on a live run.
//   whisper_trace chrome out.json a.events.jsonl [more.events.jsonl ...]
//       Concatenate raw-event exports (each whisper_noded's
//       flight.N.events.jsonl) and render them as one Chrome trace for
//       Perfetto: a row per node, onion crypto slices, root outcomes,
//       marks and one arrow per delivered wire copy.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "args.hpp"
#include "common/stats.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/export.hpp"
#include "telemetry/figures.hpp"
#include "telemetry/flight.hpp"

using namespace whisper;

namespace {

// First non-option argument after `skip` positionals (argv[0] + command...).
std::string positional(int argc, char** argv, int index) {
  int seen = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) continue;
    if (seen == index) return a;
    ++seen;
  }
  return {};
}

// Every non-option argument from `index` on.
std::vector<std::string> positionals_from(int argc, char** argv, int index) {
  std::vector<std::string> out;
  int seen = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) continue;
    if (seen >= index) out.push_back(a);
    ++seen;
  }
  return out;
}

bool slurp(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Raw-event exports carry a "kind" key on every line; record exports
/// never do. Peek at the first non-empty line.
bool looks_like_events(const std::string& text) {
  const std::size_t eol = text.find('\n');
  const std::string first = text.substr(0, eol == std::string::npos ? text.size() : eol);
  return first.find("\"kind\"") != std::string::npos;
}

/// Parse one raw-event export and append its events to `out`.
bool append_events(const std::string& path, const std::string& text,
                   std::vector<telemetry::FlightEventRec>* out) {
  std::vector<telemetry::FlightEventRec> chunk;
  std::string err;
  if (!telemetry::parse_flight_events_jsonl(text, &chunk, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  out->insert(out->end(), std::make_move_iterator(chunk.begin()),
              std::make_move_iterator(chunk.end()));
  return true;
}

bool load_records(const std::string& path, std::vector<telemetry::FlightRecord>* out) {
  std::string text;
  if (!slurp(path, &text)) return false;
  std::string err;
  if (!telemetry::parse_flight_jsonl(text, out, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// Load any mix of record and raw-event exports. Events from all event
/// files merge into one stream and assemble canonically (cross-process
/// halves pair up); with more than one input the records also pass through
/// canonical renumbering so trace ids are ordinals of content order —
/// identical to the sharded engine's merge rules. `text_out` (non-null)
/// receives the canonical JSONL of the merged set, for digesting.
bool load_merged(const std::vector<std::string>& paths,
                 std::vector<telemetry::FlightRecord>* out,
                 std::string* text_out) {
  std::vector<telemetry::FlightRecord> records;
  std::vector<telemetry::FlightEventRec> events;
  bool any_events = false;
  for (const std::string& path : paths) {
    std::string text;
    if (!slurp(path, &text)) return false;
    if (looks_like_events(text)) {
      if (!append_events(path, text, &events)) return false;
      any_events = true;
    } else {
      std::string err;
      std::vector<telemetry::FlightRecord> chunk;
      if (!telemetry::parse_flight_jsonl(text, &chunk, &err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return false;
      }
      records.insert(records.end(), std::make_move_iterator(chunk.begin()),
                     std::make_move_iterator(chunk.end()));
    }
  }
  if (any_events) {
    auto assembled = telemetry::canonical_flight_records(std::move(events));
    records.insert(records.end(), std::make_move_iterator(assembled.begin()),
                   std::make_move_iterator(assembled.end()));
    if (!records.empty() && records.size() != assembled.size()) {
      // Mixed record + event inputs: renumber the union too.
      records = telemetry::canonicalize_flight_records(std::move(records));
    }
  } else if (paths.size() > 1) {
    records = telemetry::canonicalize_flight_records(std::move(records));
  }
  *out = std::move(records);
  if (text_out != nullptr) *text_out = telemetry::to_jsonl(*out);
  return true;
}

int cmd_summary(const std::vector<std::string>& paths) {
  std::vector<telemetry::FlightRecord> recs;
  std::string canonical_text;
  if (!load_merged(paths, &recs, &canonical_text)) return 1;

  std::map<std::string, std::size_t> outcomes;
  std::map<std::string, std::size_t> layers;
  std::uint64_t rtt = 0, crypto = 0, prop = 0, queue = 0, retry = 0, proc = 0;
  std::size_t delivered = 0, karn = 0, faulted = 0, exact = 0;
  for (const auto& r : recs) {
    outcomes[r.outcome.empty() ? "(unresolved)" : r.outcome]++;
    layers[telemetry::trace_layer_name(r.layer)]++;
    if (r.karn_ambiguous) ++karn;
    if (!r.faults.empty()) ++faulted;
    if (r.outcome == "delivered") {
      ++delivered;
      rtt += r.rtt_us;
      crypto += r.crypto_us;
      prop += r.prop_us;
      queue += r.queue_us;
      retry += r.retry_us;
      proc += r.proc_us;
      if (r.rtt_us > 0 && r.decomposed_us() == r.rtt_us) ++exact;
    }
  }
  std::printf("%zu records (digest %016llx)\n", recs.size(),
              static_cast<unsigned long long>(telemetry::flight_digest(canonical_text)));
  std::printf("layers:");
  for (const auto& [l, n] : layers) std::printf(" %s=%zu", l.c_str(), n);
  std::printf("\noutcomes:");
  for (const auto& [o, n] : outcomes) std::printf(" %s=%zu", o.c_str(), n);
  std::printf("\nkarn-ambiguous=%zu fault-touched=%zu\n", karn, faulted);
  if (delivered > 0) {
    const double d = static_cast<double>(delivered);
    std::printf("delivered mean decomposition (us): rtt=%.0f = crypto %.0f + prop %.0f "
                "+ queue %.0f + retry %.0f + proc %.0f\n",
                static_cast<double>(rtt) / d, static_cast<double>(crypto) / d,
                static_cast<double>(prop) / d, static_cast<double>(queue) / d,
                static_cast<double>(retry) / d, static_cast<double>(proc) / d);
    std::printf("decomposition sums exactly to rtt on %zu/%zu delivered\n",
                exact, delivered);
  }
  return 0;
}

int cmd_show(std::uint64_t trace_id, const std::vector<std::string>& paths) {
  std::vector<telemetry::FlightRecord> recs;
  if (!load_merged(paths, &recs, nullptr)) return 1;
  for (const auto& r : recs) {
    if (r.trace_id != trace_id) continue;
    std::printf("trace %llu (%s) root=%llu %llu -> %llu\n",
                static_cast<unsigned long long>(r.trace_id),
                telemetry::trace_layer_name(r.layer),
                static_cast<unsigned long long>(r.root),
                static_cast<unsigned long long>(r.src),
                static_cast<unsigned long long>(r.dst));
    std::printf("  outcome=%s attempts=%u karn=%s rtt=%lluus (crypto %llu + prop %llu + "
                "queue %llu + retry %llu + proc %llu)\n",
                r.outcome.c_str(), r.attempts, r.karn_ambiguous ? "yes" : "no",
                static_cast<unsigned long long>(r.rtt_us),
                static_cast<unsigned long long>(r.crypto_us),
                static_cast<unsigned long long>(r.prop_us),
                static_cast<unsigned long long>(r.queue_us),
                static_cast<unsigned long long>(r.retry_us),
                static_cast<unsigned long long>(r.proc_us));
    if (!r.group.empty()) std::printf("  group=%s\n", r.group.c_str());
    for (const std::string& f : r.faults) std::printf("  fault: %s\n", f.c_str());
    for (const auto& h : r.hops) {
      std::printf("  attempt %u hop %u: %llu -> %llu sent=%llu recv=%llu prop=%lluus "
                  "queue=%lluus status=%s%s%s\n",
                  h.attempt, h.hop, static_cast<unsigned long long>(h.from),
                  static_cast<unsigned long long>(h.to),
                  static_cast<unsigned long long>(h.sent_ts),
                  static_cast<unsigned long long>(h.recv_ts),
                  static_cast<unsigned long long>(h.prop_us),
                  static_cast<unsigned long long>(h.queue_us), h.status.c_str(),
                  h.fault.empty() ? "" : " fault=", h.fault.c_str());
    }
    return 0;
  }
  std::fprintf(stderr, "trace %llu not found (%zu input file(s))\n",
               static_cast<unsigned long long>(trace_id), paths.size());
  return 1;
}

int cmd_audit(int argc, char** argv, const std::string& path) {
  std::vector<telemetry::FlightRecord> recs;
  if (!load_records(path, &recs)) return 1;

  // Assemble the vantage spec from the --observe-* convenience flags.
  std::string spec;
  auto add = [&](const char* key, const std::string& val) {
    if (val.empty()) return;
    if (!spec.empty()) spec += ';';
    spec += key;
    spec += '=';
    spec += val;
  };
  add("relays", arg_string(argc, argv, "observe-relays", ""));
  add("links", arg_string(argc, argv, "observe-links", ""));
  add("taps", arg_string(argc, argv, "observe-taps", ""));
  if (arg_flag(argc, argv, "global")) spec = spec.empty() ? "global" : spec + ";global";

  telemetry::Vantage vantage;
  std::string err;
  if (!telemetry::Vantage::parse(spec, &vantage, &err)) {
    std::fprintf(stderr, "bad vantage: %s\n", err.c_str());
    return 1;
  }
  if (vantage.empty()) {
    std::fprintf(stderr, "audit: give the attacker something to see "
                         "(--observe-relays/--observe-links/--observe-taps/--global)\n");
    return 1;
  }
  const std::size_t nodes =
      static_cast<std::size_t>(std::strtoull(arg_string(argc, argv, "nodes", "0").c_str(),
                                             nullptr, 10));
  const telemetry::AuditReport report = telemetry::audit(recs, vantage, nodes);
  std::printf("vantage %s:\n%s", vantage.str().c_str(),
              telemetry::format_report(report, arg_flag(argc, argv, "verbose")).c_str());
  return report.linkable_count > 0 ? 2 : 0;  // distinct exit for leakage gates
}

int cmd_faults(int argc, char** argv, const std::string& path) {
  std::vector<telemetry::FlightRecord> recs;
  if (!load_records(path, &recs)) return 1;
  const std::string want = arg_string(argc, argv, "fault", "");
  std::size_t shown = 0;
  for (const auto& r : recs) {
    if (r.faults.empty()) continue;
    if (!want.empty() &&
        std::find(r.faults.begin(), r.faults.end(), want) == r.faults.end()) {
      continue;
    }
    std::string kinds;
    for (const auto& f : r.faults) {
      if (!kinds.empty()) kinds += ',';
      kinds += f;
    }
    std::printf("trace %-10llu %-10s %llu -> %llu attempts=%u outcome=%-10s faults=%s\n",
                static_cast<unsigned long long>(r.trace_id),
                telemetry::trace_layer_name(r.layer),
                static_cast<unsigned long long>(r.src),
                static_cast<unsigned long long>(r.dst), r.attempts,
                r.outcome.empty() ? "(unresolved)" : r.outcome.c_str(), kinds.c_str());
    ++shown;
  }
  std::printf("%zu fault-touched record(s)%s%s\n", shown, want.empty() ? "" : " matching ",
              want.c_str());
  return 0;
}

int cmd_fig7(const std::vector<std::string>& paths) {
  std::vector<telemetry::FlightRecord> recs;
  if (!load_merged(paths, &recs, nullptr)) return 1;
  const telemetry::ExchangeDelays d = telemetry::exchange_delays(recs);
  std::printf("fig7: exchanges=%zu messages=%llu zero_crypto=%llu\n", d.rtt_us.size(),
              static_cast<unsigned long long>(d.messages),
              static_cast<unsigned long long>(d.zero_crypto));
  Samples rtt_ms;
  for (std::uint64_t us : d.rtt_us) rtt_ms.add(static_cast<double>(us) / 1000.0);
  if (!rtt_ms.empty()) {
    std::printf("exchange rtt (ms): %s\n", format_stacked_percentiles(rtt_ms).c_str());
  }
  std::printf("%s\n", telemetry::format_message_split(d).c_str());
  return 0;
}

int cmd_chrome(const std::string& out_path, const std::vector<std::string>& paths) {
  std::vector<telemetry::FlightEventRec> events;
  for (const std::string& path : paths) {
    std::string text;
    if (!slurp(path, &text) || !append_events(path, text, &events)) return 1;
  }
  if (!telemetry::write_text_file(out_path, telemetry::to_chrome_trace(events))) {
    std::fprintf(stderr, "chrome: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("chrome: %zu events from %zu file(s) -> %s\n", events.size(), paths.size(),
              out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = positional(argc, argv, 0);
  if (cmd == "summary") {
    const std::vector<std::string> paths = positionals_from(argc, argv, 1);
    if (!paths.empty()) return cmd_summary(paths);
  } else if (cmd == "show") {
    const std::string id = positional(argc, argv, 1);
    const std::vector<std::string> paths = positionals_from(argc, argv, 2);
    if (!id.empty() && !paths.empty()) {
      return cmd_show(std::strtoull(id.c_str(), nullptr, 10), paths);
    }
  } else if (cmd == "audit") {
    const std::string path = positional(argc, argv, 1);
    if (!path.empty()) return cmd_audit(argc, argv, path);
  } else if (cmd == "faults") {
    const std::string path = positional(argc, argv, 1);
    if (!path.empty()) return cmd_faults(argc, argv, path);
  } else if (cmd == "fig7") {
    const std::vector<std::string> paths = positionals_from(argc, argv, 1);
    if (!paths.empty()) return cmd_fig7(paths);
  } else if (cmd == "chrome") {
    const std::string out = positional(argc, argv, 1);
    const std::vector<std::string> paths = positionals_from(argc, argv, 2);
    if (!out.empty() && !paths.empty()) return cmd_chrome(out, paths);
  }
  std::fprintf(stderr,
               "usage: whisper_trace summary <flight.jsonl> [more.jsonl ...]\n"
               "       whisper_trace show <trace_id> <flight.jsonl> [more.jsonl ...]\n"
               "       whisper_trace audit <flight.jsonl> [--observe-relays=a,b]\n"
               "                     [--observe-links=a-b,...] [--observe-taps=a,b]\n"
               "                     [--global] [--nodes=N] [--verbose]\n"
               "       whisper_trace faults <flight.jsonl> [--fault=kind]\n"
               "       whisper_trace fig7 <flight.jsonl> [more.jsonl ...]\n"
               "       whisper_trace chrome <out.json> <a.events.jsonl> [more.events.jsonl ...]\n");
  return 1;
}
