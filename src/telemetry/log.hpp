// Structured leveled JSONL logging for the real-network tools
// (DESIGN.md §15). One JSON object per line:
//   {"ts_us":12345,"level":"info","node":3,"event":"boot","pid":4711,...}
//
// This replaces the ad-hoc fprintf lines in whisper_noded /
// whisper_localnet so supervisor post-mortems are machine-parseable:
// timestamps are monotonic microseconds (comparable across processes on one
// host — CLOCK_MONOTONIC is boot-relative), every line carries the node id,
// and fields are typed. This sink is for the operational event stream of
// the tools.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace whisper::telemetry {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level);

/// One typed key/value of a log line. Values are captured by value (numbers)
/// or by pointer (strings) — a LogField must not outlive the call it is
/// passed to.
struct LogField {
  enum class Kind { kStr, kU64, kI64, kF64, kBool };

  LogField(std::string_view k, std::string_view v) : key(k), kind(Kind::kStr), s(v) {}
  LogField(std::string_view k, const char* v) : key(k), kind(Kind::kStr), s(v ? v : "") {}
  LogField(std::string_view k, const std::string& v) : key(k), kind(Kind::kStr), s(v) {}
  LogField(std::string_view k, unsigned long long v) : key(k), kind(Kind::kU64), u(v) {}
  LogField(std::string_view k, unsigned long v) : key(k), kind(Kind::kU64), u(v) {}
  LogField(std::string_view k, unsigned v) : key(k), kind(Kind::kU64), u(v) {}
  LogField(std::string_view k, long long v) : key(k), kind(Kind::kI64), i(v) {}
  LogField(std::string_view k, long v) : key(k), kind(Kind::kI64), i(v) {}
  LogField(std::string_view k, int v) : key(k), kind(Kind::kI64), i(v) {}
  LogField(std::string_view k, double v) : key(k), kind(Kind::kF64), f(v) {}
  LogField(std::string_view k, bool v) : key(k), kind(Kind::kBool), b(v) {}

  std::string_view key;
  Kind kind;
  std::string_view s{};
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double f = 0;
  bool b = false;
};

class Logger {
 public:
  Logger() = default;
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Log to an unowned stream (default stderr).
  void set_stream(std::FILE* stream);
  /// Log to a file (append, line-buffered). False on open failure.
  bool open_file(const std::string& path);

  void set_level(LogLevel min_level) { min_level_ = min_level; }
  void set_node(std::uint64_t node) { node_ = node; has_node_ = true; }
  /// Timestamp source; defaults to CLOCK_MONOTONIC in microseconds.
  void set_clock(std::function<std::uint64_t()> now_us) { now_us_ = std::move(now_us); }

  void log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields = {});

  void debug(std::string_view event, std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kDebug, event, fields);
  }
  void info(std::string_view event, std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kInfo, event, fields);
  }
  void warn(std::string_view event, std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kWarn, event, fields);
  }
  void error(std::string_view event, std::initializer_list<LogField> fields = {}) {
    log(LogLevel::kError, event, fields);
  }

 private:
  void close_owned();

  std::FILE* stream_ = stderr;
  bool owns_stream_ = false;
  LogLevel min_level_ = LogLevel::kInfo;
  std::uint64_t node_ = 0;
  bool has_node_ = false;
  std::function<std::uint64_t()> now_us_;
};

}  // namespace whisper::telemetry
