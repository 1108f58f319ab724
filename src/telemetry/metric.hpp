// Metric primitives for the unified telemetry subsystem: counters, gauges
// and fixed-bucket histograms. All state is plain (single-threaded, like
// the simulator that drives it) and strictly deterministic: values depend
// only on the sequence of observations, never on wall-clock time or
// addresses. See DESIGN.md §Telemetry.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace whisper::telemetry {

/// Monotonic event/byte counter. `reset()` exists so measurement windows
/// (e.g. a bench warm-up) can be excluded, mirroring the old ad-hoc
/// per-bench counters it replaces.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depth, backlog size, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  double value_ = 0;
};

/// Bucket layout of a histogram: ascending upper bounds; an implicit
/// overflow bucket catches everything above the last bound.
struct BucketSpec {
  std::vector<double> bounds;

  /// Geometric (log-spaced) bounds covering [lo, hi] with
  /// `per_decade` buckets per factor of 10. The paper's latency and
  /// bandwidth distributions span several orders of magnitude, so this is
  /// the default layout.
  static BucketSpec log_spaced(double lo, double hi, std::size_t per_decade = 10);

  /// Evenly spaced bounds: lo, lo+step, ..., hi (for small integer ranges
  /// such as hop counts).
  static BucketSpec linear(double lo, double hi, std::size_t buckets);

  bool operator==(const BucketSpec&) const = default;
};

/// Fixed-bucket histogram with percentile queries. Mergeable across
/// instances that share the same BucketSpec (per-node histograms are merged
/// into system-wide distributions by the exporters and benches).
///
/// The state lives behind one pointer, so a registry entry's metric variant
/// is sized for a counter, not for a histogram. Copies are deep; there is no
/// separate move, so no histogram is ever left without state.
class Histogram {
 public:
  explicit Histogram(BucketSpec spec);
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void observe(double v);
  void observe_n(double v, std::uint64_t n);

  std::uint64_t count() const { return s_->count; }
  double sum() const { return s_->sum; }
  double min() const { return s_->count ? s_->min : 0; }
  double max() const { return s_->count ? s_->max : 0; }
  double mean() const { return s_->count ? s_->sum / static_cast<double>(s_->count) : 0; }

  /// p in [0, 100]. Piecewise-linear interpolation inside the bucket where
  /// the rank falls, clamped to the recorded [min, max]. Agrees with exact
  /// order-statistic percentiles (whisper::Samples) up to one bucket width.
  double percentile(double p) const;

  /// Add another histogram's observations; requires identical bounds.
  /// Returns false (and leaves *this untouched) on a layout mismatch.
  bool merge(const Histogram& other);

  const BucketSpec& spec() const { return s_->spec; }
  /// Bucket occupancy; index bounds.size() is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return s_->counts; }

  void reset();

 private:
  struct State {
    BucketSpec spec;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow)
    std::uint64_t count = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  std::unique_ptr<State> s_;
};

/// Shared no-op sinks: returned by a disabled telemetry::Scope so call
/// sites never branch. They accumulate garbage nobody reads.
Counter& noop_counter();
Gauge& noop_gauge();
Histogram& noop_histogram();

}  // namespace whisper::telemetry
