// Virtual-time trace events in the Chrome trace-event model (loadable in
// Perfetto / chrome://tracing). The tracer's clock is the *simulator's*
// clock — injected as a callback so telemetry stays independent of the sim
// layer — which makes traces deterministic and directly comparable to the
// paper's virtual-time figures. Timestamps are microseconds, matching both
// net::Time and the trace-event "ts" unit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace whisper::telemetry {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';          // 'X' complete, 'i' instant, 's'/'f' flow
  std::uint64_t ts = 0;      // virtual microseconds
  std::uint64_t dur = 0;     // 'X' only
  std::uint64_t tid = 0;     // node id: one timeline row per node
  std::uint64_t flow = 0;    // flow id ('s'/'f' only): links spans across tids
  /// Free-form key/value annotations, rendered into "args".
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  /// Disabled until a clock is installed *and* set_enabled(true) is called,
  /// so an idle tracer costs one branch per would-be event.
  void set_clock(std::function<std::uint64_t()> now) { now_ = std::move(now); }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_ && static_cast<bool>(now_); }

  std::uint64_t now() const { return now_ ? now_() : 0; }

  /// Bound on retained events; further events are dropped (and counted).
  void set_capacity(std::size_t cap) { capacity_ = cap; }

  void complete(std::string name, std::string category, std::uint64_t tid, std::uint64_t ts,
                std::uint64_t dur,
                std::vector<std::pair<std::string, std::string>> args = {});
  void instant(std::string name, std::string category, std::uint64_t tid, std::uint64_t ts,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Flow events ('s' start / 'f' finish) draw an arrow between the enclosing
  /// slices on two timeline rows in Perfetto — one pair per wire traversal
  /// links send -> relay -> deliver across nodes. `flow_id` must match on
  /// both ends and be unique per arrow.
  void flow_begin(std::string name, std::string category, std::uint64_t tid,
                  std::uint64_t ts, std::uint64_t flow_id);
  void flow_end(std::string name, std::string category, std::uint64_t tid,
                std::uint64_t ts, std::uint64_t flow_id);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  void push(TraceEvent ev);

  std::function<std::uint64_t()> now_;
  bool enabled_ = false;
  std::size_t capacity_ = 1u << 20;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: records the virtual time at construction and emits a complete
/// event covering the scope at destruction. For work whose cost is charged
/// to the virtual clock asynchronously (e.g. onion crypto), use
/// Tracer::complete directly with the charged duration instead.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name, std::string category, std::uint64_t tid)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(std::move(name)), category_(std::move(category)), tid_(tid),
        start_(tracer_ ? tracer_->now() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    finish();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    tid_ = other.tid_;
    start_ = other.start_;
    other.tracer_ = nullptr;
    return *this;
  }

  ~Span() { finish(); }

  void annotate(std::string key, std::string value) {
    if (tracer_) args_.emplace_back(std::move(key), std::move(value));
  }

 private:
  void finish() {
    if (tracer_ == nullptr) return;
    tracer_->complete(std::move(name_), std::move(category_), tid_, start_,
                      tracer_->now() - start_, std::move(args_));
    tracer_ = nullptr;
  }

  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string category_;
  std::uint64_t tid_ = 0;
  std::uint64_t start_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace whisper::telemetry
