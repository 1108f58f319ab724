#!/usr/bin/env python3
"""Run one WHISPER benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload groups-1k --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds perfbench/ (which pulls
in ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs reuse the build. The workload runs in its own process
(whisper_perfbench); this script checks its outputs, stamps provenance,
keeps the full result under <build dir>/results/, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Seconds the reference loop (bench.cpp) takes on an uncontended core of
# the machine the bounds were set on; the unit of the normalised figures.
REFERENCE_S = 0.0027
# Workloads whose cpu_us_per_msg is expressed in reference-machine time
# (see README): the reference loop's instruction mix is groups-1k's (bignum
# arithmetic). It does not track churn-20k's memory-bound tables, and
# onion-live's event loop cannot pause for it.
NORMALISED = {"groups-1k"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in names if not metrics.valid_name(n)]
    if bad or len(names) != len(set(names)):
        raise SystemExit(f"BENCHMARK.json: invalid or repeated names: {bad or names}")
    return bench


def newest_source_mtime():
    newest = 0.0
    for top in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build(build_dir):
    """Configure (once) and build the driver unless it is newer than every
    source; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no WHISPER sources (src/) next to perfbench/")
    binary = os.path.join(build_dir, "whisper_perfbench")
    if os.path.isfile(binary) and os.path.getmtime(binary) > newest_source_mtime():
        return binary
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "whisper_perfbench", "-j4"],
                   check=True, stdout=sys.stderr)
    return binary


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def source_digest():
    """sha256 over src/ and perfbench/ sources: the build's identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(build_dir, seed, digest):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=20).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_digest": digest,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return (xs[n // 2] + xs[(n - 1) // 2]) / 2 if n else None


def timed_cost(timed, normalise):
    """CPU seconds per virtual second over the timed phase. Normalised, each
    slice's CPU time is first expressed in units of the reference loop timed
    right after it: a host slowed for a while by other tenants slows the
    yardstick with it."""
    refs = timed["slice_ref_s"] if normalise else [REFERENCE_S] * len(timed["slice_cpu_s"])
    return sum(c * REFERENCE_S / r for c, r in zip(timed["slice_cpu_s"], refs)) / timed["virt_s"]


def speed(timed):
    """Median over slices of virtual seconds per wall second."""
    return median([v / w for v, w in zip(timed["slice_virt_s"], timed["slice_wall_s"]) if w > 0])


def setup_s(setup):
    """Key generation (paid once per process) plus the median set-up repeat."""
    parts = [setup[k] for k in ("boot_s", "warmup_s", "group_setup_s") if k in setup]
    return setup["keygen_s"] + median([sum(p) for p in zip(*parts)])


def host_slowdown(raw):
    """Median reference-loop time of the run over REFERENCE_S."""
    return median(raw["timed"]["run_ref_s"]) / REFERENCE_S


def end_to_end(raw, counts):
    timed, msgs = raw["timed"], raw["msgs"]
    delivered, attempted = msgs["delivered"], msgs["attempted"]
    normalise = raw["workload"] in NORMALISED
    per_virt_s = delivered / timed["virt_s"]  # messages per second of the deployment's clock
    out = {
        "setup_s": setup_s(raw["setup"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "cpu_us_per_msg": timed_cost(timed, normalise) * 1e6 / per_virt_s if per_virt_s else None,
        "msg_ok_ratio": metrics.Ratio(delivered, attempted).value,
    }
    if "lat_ms" in msgs:
        lat = msgs["lat_ms"]
        out["msg_lat_p50_ms"] = metrics.percentile(lat, 50)
        counts["msg_lat_p99_ms"] = metrics.windowed_percentile(lat, 99)
        counts["msg_lat_samples"] = len(lat)
    else:  # histogram-backed (churn-20k): the rule applies to its count
        n = msgs["lat_count"]
        out["msg_lat_p50_ms"] = msgs["lat_p50_ms"] if metrics.percentile_allowed(n, 50) else None
        counts["msg_lat_p99_ms"] = msgs["lat_p99_ms"] if metrics.percentile_allowed(n, 99) else None
        counts["msg_lat_samples"] = n
    counts["msg_ok_ratio"] = metrics.Ratio(delivered, attempted).as_dict()
    if normalise:
        counts["host_slowdown"] = host_slowdown(raw)
        counts["unnormalised_cpu_us_per_msg"] = (
            timed_cost(timed, False) * 1e6 / per_virt_s if per_virt_s else None)
    return out


def per_layer(raw, counts):
    out = dict(raw["layers"])
    setup, timed, msgs, spans = raw["setup"], raw["timed"], raw["msgs"], raw["spans"]
    out["whisper.keygen_s"] = setup["keygen_s"]
    for key in ("boot_s", "warmup_s", "group_setup_s"):
        if key in setup:
            out["whisper." + key] = median(setup[key])
    for name, metric in (("whisper.spawn", "whisper.spawn_us"), ("whisper.kill", "whisper.kill_us")):
        if name in spans and raw["workload"] == "churn-20k":
            out[metric] = spans[name]["mean_us"]
    out["proc.cpu_busy_share"] = timed["cpu_s"] / timed["wall_s"]
    out["bench.host_slowdown"] = host_slowdown(raw)
    if raw["workload"] != "onion-live":
        out["sim.virt_s_per_s"] = speed(timed)
    out["bench.msgs_per_s"] = msgs["delivered"] / timed["virt_s"] * speed(timed)
    fail = metrics.Ratio(msgs["attempted"] - msgs["delivered"], msgs["attempted"])
    out["bench.msg_fail_ratio"] = fail.value
    out["bench.msgs_attempted"] = msgs["attempted"]
    late = msgs["gen_late_ms"]
    out["bench.gen_late_p99_ms"] = metrics.percentile(late, 99)
    out["bench.gen_late_samples"] = len(late)
    out["bench.lat_samples"] = len(msgs["lat_ms"]) if "lat_ms" in msgs else msgs["lat_count"]
    if "lat_ms" in msgs:
        out["bench.lat_p99_ms"] = metrics.windowed_percentile(msgs["lat_ms"], 99)
    elif metrics.percentile_allowed(msgs["lat_count"], 99):
        out["bench.lat_p99_ms"] = msgs["lat_p99_ms"]
    send = msgs.get("send_app_us", [])
    out["ppss.send_app_us_p50"] = metrics.percentile(send, 50)
    out["ppss.send_app_samples"] = len(send)
    counts["bench.msg_fail_ratio"] = fail.as_dict()
    return out


def check_determinism(build_dir, raw, digest, checks):
    """Deterministic fields must repeat exactly for the same sources,
    workload, seed and length, traced or not. The first run of a key
    records them."""
    det = raw["det"]
    if not det:
        return
    key = f"{digest}-{raw['workload']}-seed{raw['seed']}-len{raw['seconds']:g}.json"
    path = os.path.join(build_dir, "det", key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        diff = sorted(k for k in set(before) | set(det) if before.get(k) != det.get(k))
        checks["same_seed_identical"] = not diff
        if diff:
            log(f"perfbench: deterministic fields differ from an earlier same-seed run: {diff}")
    else:
        with open(path + ".tmp", "w") as f:
            json.dump(det, f, sort_keys=True)
        os.replace(path + ".tmp", path)
        checks["same_seed_identical"] = True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_start = os.getloadavg()[0]
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"perfbench: build failed ({e})")
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace), "--out-dir", runs_dir]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} exited with {proc.returncode}")
    raw_line = proc.stdout.strip().splitlines()[-1]
    raw = json.loads(raw_line)
    with open(os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.raw.json"),
              "w") as f:
        f.write(raw_line + "\n")

    checks = dict(raw["checks"])
    digest = source_digest()
    check_determinism(build_dir, raw, digest, checks)
    counts = {}
    if args.trace:
        values, declared = per_layer(raw, counts), bench["per_layer"]
    else:
        values, declared = end_to_end(raw, counts), bench["end_to_end"]

    result, missing = {}, []
    for m in declared:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
            v = 0.0
        result[m["name"]] = {"value": float(v), "unit": m["unit"]}
    if args.trace:
        # A per-layer metric a workload does not exercise (no UDP on the
        # simulator, no shards on S=1, ...) reads 0; the list says which.
        counts["not_applicable"] = missing
    elif missing or any(result[m]["value"] == 0 for m in result):
        checks["end_to_end_complete"] = False
        log(f"perfbench: end-to-end metrics missing or zero: {missing}")

    msgs = raw["msgs"]
    if args.workload == "churn-20k":
        # The generator's operations here are the churn calls themselves.
        # Every churn step calls kill_random_node once and spawn_node once.
        attempted = 2 * raw["det"]["spawns"]
        failed = raw["det"]["spawns"] - raw["det"]["kills"]
    else:
        attempted = msgs["attempted"]
        failed = msgs["attempted"] - msgs["delivered"]
    correct = all(v for v in checks.values() if isinstance(v, bool))

    prov = provenance(build_dir, args.seed, digest)
    prov["loadavg_1m_start"] = load_start
    prov["loadavg_1m_end"] = os.getloadavg()[0]
    prov["wall_s"] = time.time() - started
    full = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "provenance": prov, "checks": checks, "counts": counts, "metrics": result}
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    print(json.dumps({"provenance": prov, "checks": checks, "counts": counts}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
