// Helpers shared by the two simulator workloads (groups-1k, churn-20k):
// packet totals summed over shards, the deterministic fingerprint the
// same-seed checks compare, the Network::send probe, and the end-of-run
// packet-conservation drain.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "whisper/scale.hpp"

namespace perfbench {

struct NetTotals {
  std::uint64_t sent = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped[static_cast<std::size_t>(whisper::net::DropReason::kCount)] = {};
  std::uint64_t bytes_up = 0;  // wire bytes, counted once (at the sender)

  static NetTotals of(whisper::ScaleTestbed& tb);
  NetTotals minus(const NetTotals& base) const;
  std::uint64_t dropped_total() const;
  std::uint64_t drop(whisper::net::DropReason r) const {
    return dropped[static_cast<std::size_t>(r)];
  }
  void put_layers(Json& layers) const;
};

/// Executed events per shard.
std::vector<std::uint64_t> shard_events(whisper::ScaleTestbed& tb);

/// The deterministic state of a testbed: executed events and packet
/// counts. Two same-seed runs must produce identical fingerprints.
Json fingerprint(whisper::ScaleTestbed& tb);

/// ns per Network::send from a live node to a live public endpoint, over
/// `n` random pairs of the workload's own population.
double net_send_ns(whisper::ScaleTestbed& tb, std::uint64_t seed, std::size_t n);

/// Stop every node, run until every packet on the wire has landed, then
/// check packet conservation summed over shards: sent + duplicated ==
/// delivered + dropped, with nothing left in flight. Writes the counts
/// into `checks` and returns whether conservation holds.
bool drain_and_check_conservation(whisper::ScaleTestbed& tb, Json& checks);

/// The benchmark's spans around testbed calls.
void run_for(whisper::ScaleTestbed& tb, Spans& spans, whisper::net::Time d);

}  // namespace perfbench
