#include "telemetry/metric.hpp"

#include <algorithm>
#include <cmath>

namespace whisper::telemetry {

BucketSpec BucketSpec::log_spaced(double lo, double hi, std::size_t per_decade) {
  BucketSpec spec;
  if (lo <= 0 || hi <= lo || per_decade == 0) return spec;
  const double ratio = std::pow(10.0, 1.0 / static_cast<double>(per_decade));
  // Generate bounds multiplicatively from lo; regenerate each bound from an
  // integer exponent so two specs with equal (lo, hi, per_decade) are
  // bit-identical regardless of accumulated rounding.
  for (std::size_t i = 0;; ++i) {
    const double b = lo * std::pow(ratio, static_cast<double>(i));
    spec.bounds.push_back(b);
    if (b >= hi) break;
    if (spec.bounds.size() > 4096) break;  // runaway guard
  }
  return spec;
}

BucketSpec BucketSpec::linear(double lo, double hi, std::size_t buckets) {
  BucketSpec spec;
  if (buckets == 0 || hi <= lo) return spec;
  const double step = (hi - lo) / static_cast<double>(buckets);
  for (std::size_t i = 0; i <= buckets; ++i) {
    spec.bounds.push_back(lo + step * static_cast<double>(i));
  }
  return spec;
}

Histogram::Histogram(BucketSpec spec) : s_(std::make_unique<State>()) {
  s_->spec = std::move(spec);
  s_->counts.assign(s_->spec.bounds.size() + 1, 0);
}

Histogram::Histogram(const Histogram& other) : s_(std::make_unique<State>(*other.s_)) {}

Histogram& Histogram::operator=(const Histogram& other) {
  *s_ = *other.s_;
  return *this;
}

void Histogram::observe(double v) { observe_n(v, 1); }

void Histogram::observe_n(double v, std::uint64_t n) {
  if (n == 0) return;
  State& s = *s_;
  const auto it = std::lower_bound(s.spec.bounds.begin(), s.spec.bounds.end(), v);
  s.counts[static_cast<std::size_t>(it - s.spec.bounds.begin())] += n;
  s.count += n;
  s.sum += v * static_cast<double>(n);
  s.min = std::min(s.min, v);
  s.max = std::max(s.max, v);
}

double Histogram::percentile(double p) const {
  const State& s = *s_;
  if (s.count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank in [0, count-1], matching Samples' linear interpolation between
  // order statistics.
  const double rank = p / 100.0 * static_cast<double>(s.count - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < s.counts.size(); ++b) {
    if (s.counts[b] == 0) continue;
    const double bucket_lo = static_cast<double>(seen);
    seen += s.counts[b];
    if (rank >= static_cast<double>(seen)) continue;
    // The rank falls in bucket b: interpolate between its bounds.
    const double lower = b == 0 ? min() : s.spec.bounds[b - 1];
    const double upper = b < s.spec.bounds.size() ? s.spec.bounds[b] : max();
    const double frac = s.counts[b] == 1
                            ? 0.5
                            : (rank - bucket_lo) / static_cast<double>(s.counts[b]);
    const double v = lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    return std::clamp(v, min(), max());
  }
  return max();
}

bool Histogram::merge(const Histogram& other) {
  State& s = *s_;
  const State& o = *other.s_;
  if (s.spec.bounds != o.spec.bounds) return false;
  for (std::size_t i = 0; i < s.counts.size(); ++i) s.counts[i] += o.counts[i];
  s.count += o.count;
  s.sum += o.sum;
  s.min = std::min(s.min, o.min);
  s.max = std::max(s.max, o.max);
  return true;
}

void Histogram::reset() {
  State& s = *s_;
  std::fill(s.counts.begin(), s.counts.end(), 0);
  s.count = 0;
  s.sum = 0;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
}

Counter& noop_counter() {
  static Counter c;
  return c;
}

Gauge& noop_gauge() {
  static Gauge g;
  return g;
}

Histogram& noop_histogram() {
  static Histogram h{BucketSpec::log_spaced(1, 10)};
  return h;
}

}  // namespace whisper::telemetry
