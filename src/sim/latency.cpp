#include "sim/latency.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace whisper::sim {

namespace {

// Deterministic per-pair value in [0,1): both directions hash identically so
// delays are symmetric.
double pair_uniform(Endpoint a, Endpoint b) {
  std::uint64_t x = std::uint64_t{std::min(a.ip, b.ip)} << 32 | std::max(a.ip, b.ip);
  x ^= 0x2545f4914f6cdd1dULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}

// Inverse normal CDF approximation (Acklam) for turning the pair hash into a
// consistent lognormal base delay.
double inv_norm_cdf(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > phigh) {
    const double q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  const double q = p - 0.5, r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

std::optional<net::Time> ClusterLatency::sample(Endpoint, Endpoint, Rng& rng) {
  return 100 + rng.next_below(400);  // 100..500 us
}

std::optional<net::Time> PlanetLabLatency::sample(Endpoint from, Endpoint to, Rng& rng) {
  if (rng.next_bool(loss_probability_)) return std::nullopt;
  // Per-pair base: lognormal(ln 40ms, 0.8), clamped into [5ms, 400ms].
  double u = pair_uniform(from, to);
  u = std::min(std::max(u, 1e-9), 1.0 - 1e-9);
  double base_ms = std::exp(std::log(40.0) + 0.8 * inv_norm_cdf(u));
  base_ms = std::min(std::max(base_ms, 5.0), 400.0);
  // Per-packet jitter: base * (1 + Exp(1/0.15)), occasionally heavy (loaded
  // PlanetLab machines).
  const double jitter = rng.next_exponential(1.0 / 0.15);
  const double total_ms = base_ms * (1.0 + jitter);
  return static_cast<net::Time>(total_ms * static_cast<double>(net::kMillisecond));
}

std::unique_ptr<LatencyModel> make_latency_model(const std::string& name) {
  if (name == "fixed") return std::make_unique<FixedLatency>(net::kMillisecond);
  if (name == "cluster") return std::make_unique<ClusterLatency>();
  if (name == "planetlab") return std::make_unique<PlanetLabLatency>();
  throw std::invalid_argument("unknown latency model: " + name);
}

}  // namespace whisper::sim
