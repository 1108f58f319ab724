// bench_scale — the large-population benchmark for the sharded engine.
// scale_sweep into BENCH_scale.json: a 100k-node deployment booted and run
// to completion at S=1 and S=8, reporting aggregate sim-events per
// wall-second, the S=8/S=1 speedup, and the probe lengths of a DenseMap
// holding each shard's live internal endpoints (the key set of the shard's
// Network and NatFabric tables; the worst shard is reported), and the heap
// the testbed holds per node after boot and after the run: glibc mallinfo2
// deltas (in-use bytes of every arena plus mmapped blocks) from just before
// the testbed is built, over the node count.
//
// Honest-numbers note: the speedup is whatever the hardware gives, and
// the JSON carries "hardware_threads" so the reader can tell parallelism
// from the rest. S=1 and S=8 execute identical events, so on one hardware
// thread only the cost per event can differ. That cost once hid a hash
// collapse: with unmixed Endpoint hashes every endpoint lookup scanned its
// table, so S-times-shorter shard tables made S=8 3.3x faster on one
// thread. The probe stats make such a collapse visible. The determinism
// gate (tests/integration/sharded_determinism_test.cpp) is unconditional
// either way.
//
//   bench_scale [--quick] [--json=<dir>] [--nodes=100000] [--minutes=2]
//
// --quick shrinks to 2k nodes / 1 virtual minute for CI smoke runs.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/densemap.hpp"
#include "whisper/keypool.hpp"
#include "whisper/scale.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Heap in use: every arena's allocated bytes plus mmapped blocks.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double per_node(std::size_t heap, std::size_t base, std::size_t nodes) {
  return (static_cast<double>(heap) - static_cast<double>(base)) / static_cast<double>(nodes);
}

using EndpointMap = whisper::DenseMap<whisper::Endpoint, std::size_t>;

/// Worst probe stats over shards of a DenseMap keyed by each shard's live
/// internal endpoints. Kept out of the registries: merged gauges sum, and
/// probe lengths depend on per-shard table size, so they would break the
/// S-invariant exports.
EndpointMap::ProbeStats endpoint_probe_stats(whisper::ScaleTestbed& tb) {
  EndpointMap::ProbeStats worst;
  for (std::size_t s = 0; s < tb.shard_count(); ++s) {
    EndpointMap eps;
    for (std::size_t i = s; i < tb.node_count(); i += tb.shard_count()) {
      const whisper::WhisperNode& n = *tb.node_at(i);
      if (n.running()) eps[n.internal_endpoint()] = i;
    }
    const auto st = eps.probe_stats();
    worst.max = std::max(worst.max, st.max);
    worst.mean = std::max(worst.mean, st.mean);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace whisper;
  const bool quick = bench::arg_flag(argc, argv, "quick");
  const std::string json_dir = bench::arg_str(argc, argv, "json", ".");
  const std::size_t nodes =
      bench::arg_size(argc, argv, "nodes", quick ? 2'000 : 100'000);
  const std::size_t minutes = bench::arg_size(argc, argv, "minutes", quick ? 1 : 2);

  bench::banner("Scale - sharded engine at large populations",
                "not a paper figure; the 100k-node deliverable");

  bench::Json out;
  out.put("schema", "whisper.bench.scale/v1");
  out.put("quick", quick);
  out.put("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  {
    // --- The 100k-node sweep. PlanetLab latency: its 5 ms lower bound
    // gives the conservative sync a 50x wider lockstep window than the
    // cluster model's 100 us, which is also the realistic model for a
    // planet-scale deployment. Per-node telemetry off (aggregate metrics
    // remain); pooled keys recycled with a pure-index cycle so keygen does
    // not dominate boot.
    bench::Json sweep;
    const std::size_t kKeyCycle = 4'096;
    const auto keygen_start = Clock::now();
    for (std::size_t i = 0; i < std::min(nodes, kKeyCycle); ++i) {
      pooled_keypair(i, 512);
    }
    sweep.put("keygen_wall_seconds", seconds_since(keygen_start));
    double s1_run_wall = 0;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      ScaleConfig cfg;
      cfg.initial_nodes = nodes;
      cfg.shards = shards;
      cfg.natted_fraction = 0.7;
      cfg.latency = "planetlab";
      cfg.seed = 21;
      cfg.node_telemetry = false;
      cfg.key_cycle = kKeyCycle;
      const std::size_t heap_base = heap_in_use();
      const auto boot_start = Clock::now();
      ScaleTestbed tb(cfg);
      const double boot_wall_s = seconds_since(boot_start);
      const double heap_boot = per_node(heap_in_use(), heap_base, nodes);

      const auto run_start = Clock::now();
      tb.run_for(minutes * net::kMinute);
      const double run_wall_s = seconds_since(run_start);
      const double heap_run = per_node(heap_in_use(), heap_base, nodes);
      const double events_per_wall_sec =
          static_cast<double>(tb.executed_events()) / run_wall_s;
      const auto probes = endpoint_probe_stats(tb);

      bench::Json j;
      j.put("shards", static_cast<std::uint64_t>(shards));
      j.put("nodes", static_cast<std::uint64_t>(nodes));
      j.put("virtual_minutes", static_cast<std::uint64_t>(minutes));
      j.put("boot_wall_seconds", boot_wall_s);
      j.put("run_wall_seconds", run_wall_s);
      j.put("sim_events_executed", tb.executed_events());
      j.put("sim_events_per_wall_sec", events_per_wall_sec);
      j.put("cross_shard_messages", tb.cross_shard_messages());
      j.put("alive_nodes", static_cast<std::uint64_t>(tb.alive_count()));
      j.put("endpoint_probe_max", static_cast<std::uint64_t>(probes.max));
      j.put("endpoint_probe_mean", probes.mean);
      j.put("heap_bytes_per_node_boot", heap_boot);
      j.put("heap_bytes_per_node_run", heap_run);
      if (shards == 1) {
        s1_run_wall = run_wall_s;
      } else {
        j.put("speedup_vs_s1", s1_run_wall / run_wall_s);
      }
      sweep.put("s" + std::to_string(shards), j);
      std::printf("scale %zu nodes / S=%zu: boot %.1fs, run %.1fs "
                  "(%.0f events/s, %llu cross-shard, endpoint probe max %zu "
                  "mean %.2f, heap/node %.0f B booted, %.0f B run)\n",
                  nodes, shards, boot_wall_s, run_wall_s, events_per_wall_sec,
                  (unsigned long long)tb.cross_shard_messages(), probes.max,
                  probes.mean, heap_boot, heap_run);
    }
    sweep.put("note",
              "executed-event counts are identical across S; speedup_vs_s1 "
              "is mostly thread parallelism (see hardware_threads). "
              "endpoint_probe_max/mean: the worst shard's DenseMap probe "
              "distances over its live internal endpoints, short at any S "
              "because DenseMap mixes its hashes. heap_bytes_per_node_boot/"
              "_run: glibc mallinfo2 heap held by the testbed after boot and "
              "after the run, over the node count (per-node telemetry off)");
    out.put("scale_sweep", sweep);
  }

  const std::string path = json_dir + "/BENCH_scale.json";
  if (!bench::write_json_file(path, out)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
