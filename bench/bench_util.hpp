// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "whisper/scale.hpp"

namespace whisper::bench {

/// Live public (P-) nodes, in global index order.
inline std::vector<WhisperNode*> alive_public_nodes(ScaleTestbed& tb) {
  std::vector<WhisperNode*> out;
  for (WhisperNode* n : tb.alive_nodes()) {
    if (n->is_public()) out.push_back(n);
  }
  return out;
}

/// The paper benches' private groups: leaders[g] leads gids[g].
struct Groups {
  std::vector<ppss::Ppss*> leaders;
  std::vector<GroupId> gids;

  /// Join `node` to one group drawn from `rng`. The draw happens whether or
  /// not the node joins: a node already in the drawn group (its leader)
  /// stays as it is.
  void subscribe(WhisperNode& node, Rng& rng) const {
    const std::size_t g = rng.pick_index(gids);
    if (node.group(gids[g]) != nullptr) return;
    if (auto accr = leaders[g]->invite(node.id())) {
      node.join_group(gids[g], *accr, leaders[g]->self_descriptor());
    }
  }
};

/// Found `count` groups on the live P-nodes, group g with id gid_base + g
/// on publics[g % publics.size()] under a 512-bit key drawn from
/// Drbg(key_seed_base + g), then subscribe every live node to one group.
inline Groups found_groups(ScaleTestbed& tb, std::size_t count, std::uint64_t gid_base,
                           std::uint64_t key_seed_base, Rng& rng) {
  Groups out;
  const std::vector<WhisperNode*> publics = alive_public_nodes(tb);
  for (std::size_t g = 0; g < count; ++g) {
    const GroupId gid{gid_base + g};
    crypto::Drbg d(key_seed_base + g);
    out.leaders.push_back(&publics[g % publics.size()]->create_group(
        gid, crypto::RsaKeyPair::generate(512, d)));
    out.gids.push_back(gid);
  }
  for (WhisperNode* node : tb.alive_nodes()) out.subscribe(*node, rng);
  return out;
}

/// Exit status for a bench that reads its figure from flight data: 1, with
/// a message, when a shard's recorder dropped events (the figure would be
/// built from a truncated log).
inline int flight_status(ScaleTestbed& tb) {
  for (std::size_t s = 0; s < tb.shard_count(); ++s) {
    if (const std::uint64_t dropped = tb.flight(s).dropped(); dropped > 0) {
      std::fprintf(stderr, "flight recorder of shard %zu dropped %llu events\n", s,
                   static_cast<unsigned long long>(dropped));
      return 1;
    }
  }
  return 0;
}

inline void banner(const std::string& title, const std::string& paper_shape) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper-reports: %s\n", paper_shape.c_str());
  std::printf("==========================================================\n");
}

/// Shared "--key=value" scanner backing arg_size/arg_str; returns the value
/// of the first matching argument.
inline std::optional<std::string> find_arg(int argc, char** argv, const std::string& key) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

/// Bare "--key" flag (no value), e.g. --quick.
inline bool arg_flag(int argc, char** argv, const std::string& key) {
  const std::string flag = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Parse "--nodes=200"-style overrides (small defaults keep CI fast; pass
/// the paper-scale values to reproduce the original experiment sizes).
/// Malformed values exit with a usage message instead of throwing.
inline std::size_t arg_size(int argc, char** argv, const std::string& key,
                            std::size_t fallback) {
  const std::optional<std::string> value = find_arg(argc, argv, key);
  if (!value) return fallback;
  if (value->empty() || value->find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "usage: --%s=<non-negative integer>, got --%s=%s\n", key.c_str(),
                 key.c_str(), value->c_str());
    std::exit(2);
  }
  try {
    return static_cast<std::size_t>(std::stoull(*value));
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "usage: --%s=<non-negative integer>, got --%s=%s (out of range)\n",
                 key.c_str(), key.c_str(), value->c_str());
    std::exit(2);
  }
}

inline std::string arg_str(int argc, char** argv, const std::string& key,
                           const std::string& fallback) {
  return find_arg(argc, argv, key).value_or(fallback);
}

/// Minimal insertion-ordered JSON object builder for the machine-readable
/// bench outputs (BENCH_*.json). Keys and string values are plain
/// identifiers/paths, so no escaping is performed.
class Json {
 public:
  Json& put(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  Json& put(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  Json& put(const std::string& key, int v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  Json& put(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
  }
  Json& put(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, "\"" + v + "\"");
    return *this;
  }
  Json& put(const std::string& key, const char* v) { return put(key, std::string(v)); }
  Json& put(const std::string& key, const Json& v) {
    fields_.emplace_back(key, v.dump(1));
    return *this;
  }

  std::string dump(int depth = 0) const {
    const std::string pad(static_cast<std::size_t>(depth + 1) * 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += pad + "\"" + fields_[i].first + "\": " + fields_[i].second;
      if (i + 1 < fields_.size()) out += ",";
      out += "\n";
    }
    out += std::string(static_cast<std::size_t>(depth) * 2, ' ') + "}";
    return out;
  }

 private:
  // (key, pre-rendered value); nested objects are re-indented via dump(1),
  // which keeps two-level documents readable — deeper nesting would need
  // real recursive indentation.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write a JSON document (trailing newline added). Returns success.
inline bool write_json_file(const std::string& path, const Json& json) {
  std::ofstream out(path);
  if (!out) return false;
  out << json.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace whisper::bench
