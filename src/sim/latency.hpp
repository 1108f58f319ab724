// Link latency and loss models.
//
// The paper evaluates on two testbeds: a switched-Gbps cluster (sub-ms RTT)
// and PlanetLab (tens-to-hundreds of ms, heavy tails, loss). Latency models
// reproduce those regimes. Per-pair base delays are derived from a hash of
// the two addresses so that a given pair sees a consistent RTT across the
// run (as real geography would give), with per-packet jitter on top.
#pragma once

#include <memory>
#include <optional>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace whisper::sim {

/// Computes one-way delay for a datagram, or nullopt if the packet is lost.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual std::optional<net::Time> sample(Endpoint from, Endpoint to, Rng& rng) = 0;

  /// Hard floor on every delay this model can return. The sharded engine's
  /// conservative-synchronization window must not exceed this bound: any
  /// message sent inside a lockstep window is then guaranteed to arrive no
  /// earlier than the next window, so shards never see the past change.
  virtual net::Time lower_bound() const = 0;
};

/// Constant delay, no loss. For unit tests.
class FixedLatency : public LatencyModel {
 public:
  explicit FixedLatency(net::Time delay) : delay_(delay) {}
  std::optional<net::Time> sample(Endpoint, Endpoint, Rng&) override { return delay_; }
  net::Time lower_bound() const override { return delay_; }

 private:
  net::Time delay_;
};

/// Switched-LAN cluster: uniform 100..500 us one-way, no loss.
class ClusterLatency : public LatencyModel {
 public:
  std::optional<net::Time> sample(Endpoint from, Endpoint to, Rng& rng) override;
  net::Time lower_bound() const override { return 100; }
};

/// PlanetLab-like WAN: per-pair lognormal base (median ~40 ms one-way),
/// per-packet jitter, configurable loss probability (default 2%).
class PlanetLabLatency : public LatencyModel {
 public:
  explicit PlanetLabLatency(double loss_probability = 0.02)
      : loss_probability_(loss_probability) {}
  std::optional<net::Time> sample(Endpoint from, Endpoint to, Rng& rng) override;
  /// Base clamps at 5 ms and jitter is non-negative.
  net::Time lower_bound() const override { return 5 * net::kMillisecond; }

 private:
  double loss_probability_;
};

/// Named model factory used by benches ("fixed", "cluster", "planetlab").
std::unique_ptr<LatencyModel> make_latency_model(const std::string& name);

}  // namespace whisper::sim
