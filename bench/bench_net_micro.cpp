// Event-loop micro-benchmarks (google-benchmark): the simulator's
// schedule/cancel/dispatch path and the UDP/epoll backend on loopback.
//
// BM_UdpPingPong/5 runs whisper_noded's stats-export duty cycle on a 5 ms
// timer beside the round trips; its time over BM_UdpPingPong/0's, divided
// by the exports per round trip, is the cost of one export, which
// bench/check_floors.py holds under 3% of noded's 1 s cadence.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/file.hpp"
#include "net/udp.hpp"
#include "sim/simulator.hpp"
#include "telemetry/health.hpp"
#include "telemetry/registry.hpp"

namespace whisper {
namespace {

// 64 self-rescheduling timer chains with no work per event. Each event
// cancels its chain's decoy timer and schedules a new one, so one step()
// runs a dispatch, a cancel and two schedules.
void BM_SimEventLoop(benchmark::State& state) {
  sim::Simulator s;
  constexpr std::size_t kChains = 64;
  std::vector<std::function<void()>> chains(kChains);
  std::vector<net::TimerId> decoys(kChains, 0);
  for (std::size_t c = 0; c < kChains; ++c) {
    chains[c] = [&, c] {
      s.cancel(decoys[c]);
      decoys[c] = s.schedule_after(1000, [] {});
      s.schedule_after(1 + c % 7, chains[c]);
    };
    s.schedule_at(c, chains[c]);
  }
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimEventLoop);

// One serial 64 B round trip through the epoll loop per iteration: a sends,
// b echoes, the loop polls until the echo is back. range(0) > 0 adds the
// stats export every range(0) ms: flatten the registry the backend counts
// into, encode the whole record, publish it atomically.
void BM_UdpPingPong(benchmark::State& state) {
  telemetry::Registry registry;
  net::UdpBackend backend({}, &registry);
  const auto a = backend.reserve_endpoint();
  const auto b = backend.reserve_endpoint();
  if (!a || !b) {
    state.SkipWithError(("bind: " + backend.last_error()).c_str());
    return;
  }
  const Bytes payload(64, 0x5a);
  bool echoed = false;
  backend.attach(*b, [&](const net::Datagram& d) {
    backend.send(*b, d.src, d.payload, net::Proto::kApp);
  });
  backend.attach(*a, [&](const net::Datagram&) { echoed = true; });

  const net::Time interval = static_cast<net::Time>(state.range(0)) * net::kMillisecond;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("bench_net_micro.stats." + std::to_string(::getpid())))
                               .string();
  std::uint64_t exports = 0;
  std::function<void()> publish = [&] {
    telemetry::HealthSnapshot snap;
    snap.node = 1;
    snap.pid = static_cast<std::uint32_t>(::getpid());
    snap.seq = ++exports;
    snap.now_us = static_cast<std::uint64_t>(backend.now());
    snap.metrics = telemetry::registry_values(registry);
    (void)atomic_publish_file(path, telemetry::encode_health_record(snap));
    backend.schedule_after(interval, publish);
  };
  if (interval > 0) backend.schedule_after(interval, publish);

  for (auto _ : state) {
    echoed = false;
    backend.send(*a, *b, payload, net::Proto::kApp);
    while (!echoed) backend.poll(net::kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
  if (interval > 0) {
    state.counters["exports"] =
        benchmark::Counter(static_cast<double>(exports), benchmark::Counter::kAvgIterations);
    std::remove(path.c_str());
  }
}
BENCHMARK(BM_UdpPingPong)->Arg(0)->Arg(5)->Unit(benchmark::kMicrosecond);

// One-way blast: 32 datagrams of 256 B per iteration, poll(0) after each
// batch. Loopback drops on socket-buffer overflow, so the items processed
// are the datagrams delivered, not those sent.
void BM_UdpBlast(benchmark::State& state) {
  net::UdpBackend backend;
  const auto a = backend.reserve_endpoint();
  const auto b = backend.reserve_endpoint();
  if (!a || !b) {
    state.SkipWithError(("bind: " + backend.last_error()).c_str());
    return;
  }
  const Bytes payload(256, 0x3c);
  backend.attach(*a, [](const net::Datagram&) {});
  backend.attach(*b, [](const net::Datagram&) {});
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) backend.send(*a, *b, payload, net::Proto::kApp);
    backend.poll(0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(backend.packets_delivered()));
}
BENCHMARK(BM_UdpBlast)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace whisper

BENCHMARK_MAIN();
