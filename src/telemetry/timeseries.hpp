// TimeSeriesRecorder: periodic snapshots of the registry on the virtual
// clock — one row per sample instant, one column per metric. This is what
// turns cumulative counters into the paper's per-cycle series (bandwidth
// per cycle, exchanges per minute) without per-bench bookkeeping.
//
// The recorder is clock-agnostic: callers invoke sample(now) — whisper_sim
// does so between run_for slices.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"

namespace whisper::telemetry {

struct SamplePoint {
  std::uint64_t ts = 0;  // virtual microseconds
  /// (canonical metric key, value) pairs in registry (i.e. sorted) order.
  /// Counters/gauges record their value; histograms their count.
  std::vector<std::pair<std::string, double>> values;
};

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(const Registry& registry) : registry_(&registry) {}

  /// Restrict sampling to metrics whose canonical key starts with one of
  /// these prefixes (empty = record everything). Keeps rows small when only
  /// a few series matter for a figure.
  void set_prefix_filter(std::vector<std::string> prefixes) {
    prefixes_ = std::move(prefixes);
  }

  void sample(std::uint64_t ts);

  const std::vector<SamplePoint>& series() const { return samples_; }
  void clear() { samples_.clear(); }

  /// Convenience: the per-interval delta of a cumulative counter between
  /// consecutive samples, as (ts, delta) pairs.
  std::vector<std::pair<std::uint64_t, double>> deltas(const std::string& key) const;

 private:
  bool wanted(const std::string& key) const;

  const Registry* registry_;
  std::vector<std::string> prefixes_;
  std::vector<SamplePoint> samples_;
};

}  // namespace whisper::telemetry
