// Command-line flags shared by the tools: `--key=value` options and bare
// `--flag`s, looked up anywhere in argv.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

/// The value of `--key=VALUE`, or `fallback` when absent.
inline std::string arg_string(int argc, char** argv, const std::string& key,
                              const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return fallback;
}

/// True when the bare flag `--key` is present.
inline bool arg_flag(int argc, char** argv, const std::string& key) {
  const std::string flag = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Whole seconds, tolerating a trailing 's' ("60" and "60s" both work).
inline std::uint64_t arg_seconds(int argc, char** argv, const std::string& key,
                                 std::uint64_t fallback) {
  std::string s = arg_string(argc, argv, key, "");
  if (s.empty()) return fallback;
  if (s.back() == 's' || s.back() == 'S') s.pop_back();
  return std::strtoull(s.c_str(), nullptr, 10);
}
