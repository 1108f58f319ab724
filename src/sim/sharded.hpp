// Sharded parallel simulation engine: conservative parallel discrete-event
// simulation (PDES) over S single-threaded shards.
//
// Each shard owns a plain Simulator + Network pair and a disjoint subset of
// the nodes. Time advances in lockstep windows no wider than the latency
// model's lower bound: within a window every shard runs its own event heap
// independently, because no message sent inside the window can be due
// before the window ends. Cross-shard messages travel through single-
// producer/single-consumer channels drained at the window barrier, and are
// re-scheduled on the owning shard under the same canonical (sender, wire
// sequence) heap key the S=1 engine uses — which is what makes same-seed
// runs byte-identical for every shard count (enforced by CI). See
// DESIGN.md §13.
//
// Windows are half-open [ws, we): a shard executes events strictly before
// `we` (Simulator::run_until_before), then the barrier drains channels, so
// a remote delivery due at exactly `we` is in the heap before anything at
// `we` runs. An epoch closes with one inclusive run_until(target) so
// boundary events at == target fire, matching run_until's S=1 semantics.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace whisper::sim {

class ShardedEngine {
 public:
  struct Shard {
    Simulator* sim = nullptr;
    Network* net = nullptr;
  };

  /// `window` must be positive and no larger than the latency model's
  /// lower_bound(); the constructor clamps 0 up to 1µs and asserts the
  /// caller gave a sane value. Workers start immediately (none for S=1).
  ShardedEngine(std::vector<Shard> shards, net::Time window);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  net::Time window() const { return window_; }
  net::Time now() const { return now_; }

  /// Conservative lockstep run of every shard to absolute time `t`
  /// (inclusive, like Simulator::run_until). Blocks the calling thread;
  /// shard workers do the event execution. S=1 bypasses the window
  /// machinery entirely and runs inline.
  void run_until(net::Time t);

  /// Called from a shard's Network::forward hook (worker thread context):
  /// enqueue a wire traversal on the channel src -> dst. Never blocks; the
  /// channel is drained at the next window barrier.
  void enqueue(std::size_t src_shard, std::size_t dst_shard,
               Network::Delivery d);

  /// Sum of executed events across shards (safe between run_until calls).
  std::uint64_t executed_events() const;
  /// Total cross-shard messages forwarded so far.
  std::uint64_t cross_shard_messages() const {
    return cross_shard_total_.load(std::memory_order_relaxed);
  }

 private:
  enum class Cmd : std::uint8_t { kRun, kStop };

  void worker_loop(std::size_t s);
  /// Move every pending message addressed to shard `s` into its simulator.
  void drain_inboxes(std::size_t s);
  /// The per-epoch barrier schedule, identical on main and workers. `drain`
  /// and `publish` run between the two barriers of each window (the SPSC
  /// hand-off slot); main passes no-ops for all hooks and just keeps the
  /// barrier counts matched.
  template <typename RunWindow, typename RunClose, typename Drain, typename Publish>
  void epoch(net::Time start, net::Time target, RunWindow&& run_window, RunClose&& run_close,
             Drain&& drain, Publish&& publish);

  std::vector<Shard> shards_;
  net::Time window_;
  net::Time now_ = 0;

  // box_[src * S + dst]: written only by src's worker between barriers,
  // drained only by dst's worker in the barrier's drain phase — SPSC at
  // window granularity, synchronized by the barrier itself.
  std::vector<std::vector<Network::Delivery>> box_;
  std::atomic<std::uint64_t> cross_shard_total_{0};

  // next_at_[s]: shard s's earliest pending event, published between the
  // window barriers (same hand-off discipline as box_). All participants
  // min-reduce it after the barrier to jump over idle windows.
  std::vector<net::Time> next_at_;

  // Epoch command block, published by main before the start barrier.
  Cmd cmd_ = Cmd::kRun;
  net::Time epoch_start_ = 0;
  net::Time epoch_target_ = 0;

  std::barrier<> sync_;
  std::vector<std::thread> workers_;
};

}  // namespace whisper::sim
