// telemetry::Scope — the handle protocol layers hold. Bundles the registry
// and the flight recorder with the owning node's id (the trace timeline row)
// and falls back to shared no-op sinks when telemetry is not wired, so a
// layer constructed stand-alone in a unit test instruments itself
// unconditionally at zero setup cost.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"

namespace whisper::telemetry {

/// What a testbed (or tool) hands to each node at construction.
struct Sinks {
  Registry* registry = nullptr;
  FlightRecorder* flight = nullptr;
};

class Scope {
 public:
  Scope() = default;
  Scope(Sinks sinks, std::uint64_t tid)
      : registry_(sinks.registry), flight_(sinks.flight), tid_(tid) {}

  bool enabled() const { return registry_ != nullptr; }
  Registry* registry() const { return registry_; }
  FlightRecorder* flight() const { return flight_; }
  std::uint64_t tid() const { return tid_; }
  /// Node label for per-node metric instances ("n<id>").
  std::string node_label() const { return "n" + std::to_string(tid_); }

  Counter& counter(std::string_view name, const Labels& labels = {}) const {
    return registry_ ? registry_->counter(name, labels) : noop_counter();
  }
  Gauge& gauge(std::string_view name, const Labels& labels = {}) const {
    return registry_ ? registry_->gauge(name, labels) : noop_gauge();
  }
  Histogram& histogram(std::string_view name, const BucketSpec& spec,
                       const Labels& labels = {}) const {
    return registry_ ? registry_->histogram(name, spec, labels) : noop_histogram();
  }

  // --- Causal flight recording (no-ops until the testbed enables it). ---
  bool flight_enabled() const { return flight_ != nullptr && flight_->enabled(); }

  /// Record a mark on this node's timeline (FlightRecorder::mark): a
  /// protocol event that belongs to no message. `dur` > 0 makes it a span
  /// starting at `ts`. While recording is off this is one inlined check and
  /// builds nothing; the views are copied into the log only when it is on.
  void mark(std::string_view name, std::uint64_t ts, std::uint64_t dur = 0,
            std::string_view key = {}, std::string_view value = {}) const {
    if (flight_enabled()) flight_->mark(tid_, ts, dur, name, key, value);
  }

  /// Attribute a rejected inbound frame (decode error, rate limit, replay)
  /// to the ambient flight context so whisper_trace can explain the drop,
  /// and bump the caller's per-layer counter. `reason` becomes the drop
  /// detail in the flight record ("decode:truncated", "ratelimit", ...).
  void drop_frame(Counter& counter, std::uint64_t ts, std::string reason) const {
    counter.add(1);
    if (flight_enabled() && flight_->context().valid()) {
      flight_->drop(flight_->context(), tid_, ts, std::move(reason));
    }
  }

 private:
  Registry* registry_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  std::uint64_t tid_ = 0;
};

}  // namespace whisper::telemetry
