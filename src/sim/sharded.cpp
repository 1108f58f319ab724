#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>

namespace whisper::sim {

ShardedEngine::ShardedEngine(std::vector<Shard> shards, net::Time window)
    : shards_(std::move(shards)),
      window_(std::max<net::Time>(window, 1)),
      box_(shards_.size() * shards_.size()),
      next_at_(shards_.size(), 0),
      sync_(static_cast<std::ptrdiff_t>(shards_.size()) + 1) {
  assert(!shards_.empty());
  for ([[maybe_unused]] const Shard& s : shards_) {
    assert(s.sim != nullptr && s.net != nullptr);
  }
  if (shards_.size() > 1) {
    workers_.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    cmd_ = Cmd::kStop;
    sync_.arrive_and_wait();
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedEngine::enqueue(std::size_t src_shard, std::size_t dst_shard,
                            Network::Delivery d) {
  assert(src_shard < shards_.size() && dst_shard < shards_.size());
  box_[src_shard * shards_.size() + dst_shard].push_back(std::move(d));
  cross_shard_total_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::drain_inboxes(std::size_t s) {
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    std::vector<Network::Delivery>& box = box_[src * shards_.size() + s];
    for (Network::Delivery& d : box) {
      shards_[s].net->schedule_delivery(std::move(d));
    }
    box.clear();
  }
}

// The barrier schedule both sides walk in lockstep. Every participant
// derives the identical window sequence from (start, target, window_) plus
// the published next-event times, so arrival counts always match:
//
//   [window phase] x N:  run events in [ws, we)   -> barrier (sends boxed)
//                        drain inboxes, publish
//                        own next event time      -> barrier (boxes empty)
//                        everyone jumps ws to the global minimum — empty
//                        100 us windows across seconds of idle virtual time
//                        would otherwise dominate the run
//   [close phase]     :  run events at == target  -> barrier
//                        drain own inboxes        -> barrier
//
// The jump is conservative-safe: every event executed so far was < we, and
// every drained delivery is due >= we (window <= latency lower bound), so
// the published minimum never names a time that new work could still slip
// under. The closing drain catches sends emitted by events at exactly
// `target`; their deliveries are due strictly later, so scheduling them now
// leaves them pending for the next epoch — exactly where a single
// simulator's run_until(target) would leave them.
template <typename RunWindow, typename RunClose, typename Drain, typename Publish>
void ShardedEngine::epoch(net::Time start, net::Time target, RunWindow&& run_window,
                          RunClose&& run_close, Drain&& drain, Publish&& publish) {
  net::Time ws = start;
  while (ws < target) {
    const net::Time we = std::min(ws + window_, target);
    run_window(we);
    sync_.arrive_and_wait();  // sends for [ws, we) are in the boxes
    drain();
    publish();
    sync_.arrive_and_wait();  // every shard drained and published
    net::Time next = *std::min_element(next_at_.begin(), next_at_.end());
    ws = std::max(we, std::min(next, target));
  }
  run_close();
  sync_.arrive_and_wait();
  drain();
  sync_.arrive_and_wait();
}

void ShardedEngine::worker_loop(std::size_t s) {
  Simulator& sim = *shards_[s].sim;
  for (;;) {
    sync_.arrive_and_wait();  // command published by main
    if (cmd_ == Cmd::kStop) return;
    epoch(
        epoch_start_, epoch_target_,
        [&](net::Time we) { sim.run_until_before(we); },
        [&] { sim.run_until(epoch_target_); },
        [&] { drain_inboxes(s); },
        [&] { next_at_[s] = sim.next_event_at(); });
  }
}

void ShardedEngine::run_until(net::Time t) {
  if (t <= now_) return;
  if (shards_.size() == 1) {
    // No cross-shard traffic possible; the plain engine is the fast path
    // (and the baseline the determinism gate compares against).
    shards_[0].sim->run_until(t);
    now_ = t;
    return;
  }
  epoch_start_ = now_;
  epoch_target_ = t;
  cmd_ = Cmd::kRun;
  sync_.arrive_and_wait();  // workers pick up the command
  epoch(epoch_start_, epoch_target_, [](net::Time) {}, [] {}, [] {}, [] {});
  now_ = t;
}

std::uint64_t ShardedEngine::executed_events() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sim->executed_events();
  return total;
}

}  // namespace whisper::sim
