// whisper_perfbench — runs one benchmark workload once and prints its raw
// result document (one JSON object) on stdout. perfbench/run.py builds this
// binary, runs it and turns the document into the benchmark's metrics.
//
//   whisper_perfbench --workload groups-1k|churn-20k|onion-live --seed N
//                     --seconds S [--trace 0|1] [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "whisper_perfbench: %s\n"
               "usage: whisper_perfbench --workload groups-1k|churn-20k|onion-live "
               "--seed N --seconds S [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (a.seconds <= 0) return usage("--seconds must be positive");

  perfbench::Json out;
  out.str("workload", a.workload).num("seed", a.seed).num("seconds", a.seconds);
  out.flag("trace", a.trace);
  // The simulator workloads are CPU-bound: churn-20k runs two shard
  // threads, groups-1k one. onion-live stays unpinned: its loopback
  // traffic is processed by the kernel on whichever CPUs are free.
  std::string cpus;
  if (a.workload != "onion-live") {
    for (int c : perfbench::pin_to_fastest_cpus(a.workload == "churn-20k" ? 2 : 1)) {
      cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
    }
  }
  out.str("cpus", cpus);
  int rc = 0;
  if (a.workload == "groups-1k") {
    rc = perfbench::run_groups(a, out);
  } else if (a.workload == "churn-20k") {
    rc = perfbench::run_churn(a, out);
  } else if (a.workload == "onion-live") {
    rc = perfbench::run_onion_live(a, out);
  } else {
    return usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (rc != 0) return rc;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
