#!/usr/bin/env python3
"""Hold the crypto and event-loop micro-benchmarks to their floors.

    python3 bench/check_floors.py --baseline BENCH_crypto.json crypto.json net.json

Reads the --benchmark_format=json output of bench_crypto_micro and
bench_net_micro, run with --benchmark_repetitions=5
--benchmark_enable_random_interleaving=true, and checks every floor on the
per-case medians:

- seal: BM_EnvelopeSeal/256 runs at least 0.8x the baseline's rate;
- crt-512, crt-1024: BM_RsaDecryptNoCrt takes at least 1.5x BM_RsaDecrypt;
- aes: BM_Aes128CtrPortable/1024 takes at least 3x BM_Aes128Ctr/1024;
- mont: BM_MontMul4Portable takes at least 1.22x BM_MontMul4 where the
  results' cpu_flags context shows "bmi2 adx"; elsewhere both run the
  portable kernel and the floor is skipped;
- stats: one stats export, the extra time of BM_UdpPingPong/5 over
  BM_UdpPingPong/0 divided by its exports per round trip, costs at most 3%
  of whisper_noded's 1 s cadence, and the run exported at least once.

Exits 1 when a floor fails, or when a case it reads has no median or
reported an error: a renamed or broken benchmark fails the run instead of
skipping its floor.
"""

import argparse
import json
import sys

SEAL_FLOOR = 0.8
CRT_FLOOR = 1.5
AES_FLOOR = 3.0
MONT_FLOOR = 1.22
STATS_BOUND_PCT = 3.0
STATS_CADENCE_US = 1e6

UNIT_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


class MissingCase(Exception):
    pass


class Results:
    """The median of every case in one or more google-benchmark JSON files,
    the errors they report, and the union of their cpu_flags contexts."""

    def __init__(self, paths):
        self.medians = {}
        self.errors = {}
        self.cpu_flags = set()
        for path in paths:
            with open(path) as f:
                doc = json.load(f)
            self.cpu_flags.update(doc.get("context", {}).get("cpu_flags", "").split())
            for b in doc.get("benchmarks", []):
                name = b.get("run_name", b["name"])
                if b.get("error_occurred"):
                    self.errors[name] = b.get("error_message", "error")
                elif b.get("run_type") == "aggregate" and b.get("aggregate_name") == "median":
                    self.medians[name] = b

    def case(self, name):
        if name in self.errors:
            raise MissingCase(f"{name} reported an error: {self.errors[name]}")
        if name not in self.medians:
            raise MissingCase(f"{name} has no median in the results")
        return self.medians[name]

    def time_us(self, name):
        """Median wall time per iteration of `name`, in microseconds."""
        b = self.case(name)
        return b["real_time"] * UNIT_US[b["time_unit"]]


def seal(run, baseline):
    name = "BM_EnvelopeSeal/256"
    now = 1e6 / run.time_us(name)
    base = 1e6 / baseline.time_us(name)
    ratio = now / base
    return ratio >= SEAL_FLOOR, (f"{name} {now:,.0f} ops/s vs baseline {base:,.0f} "
                                 f"({ratio:.2f}x, floor {SEAL_FLOOR}x)")


def speedup(run, slow, fast, floor):
    ratio = run.time_us(slow) / run.time_us(fast)
    return ratio >= floor, f"{fast} {ratio:.2f}x faster than {slow} (floor {floor}x)"


def crt(bits):
    return lambda run, _: speedup(run, f"BM_RsaDecryptNoCrt/{bits}", f"BM_RsaDecrypt/{bits}",
                                  CRT_FLOOR)


def aes(run, _):
    return speedup(run, "BM_Aes128CtrPortable/1024", "BM_Aes128Ctr/1024", AES_FLOOR)


def mont(run, _):
    ok, msg = speedup(run, "BM_MontMul4Portable", "BM_MontMul4", MONT_FLOOR)
    if not {"bmi2", "adx"} <= run.cpu_flags:
        return None, f"{msg}; skipped: the CPU lacks BMI2 or ADX, so both run the portable kernel"
    return ok, msg


def stats(run, _):
    off = run.time_us("BM_UdpPingPong/0")
    on = run.time_us("BM_UdpPingPong/5")
    exports = run.case("BM_UdpPingPong/5").get("exports", 0.0)
    if not exports > 0:
        return False, "BM_UdpPingPong/5 made no stats exports"
    per_export_us = max(0.0, on - off) / exports
    pct = per_export_us / STATS_CADENCE_US * 100
    return pct <= STATS_BOUND_PCT, (f"{per_export_us:.0f} us per export ({exports:.5f} per round "
                                    f"trip), {pct:.3f}% of the 1 s cadence "
                                    f"(bound {STATS_BOUND_PCT}%)")


FLOORS = [("seal", seal), ("crt-512", crt(512)), ("crt-1024", crt(1024)), ("aes", aes),
          ("mont", mont), ("stats", stats)]


def check(run, baseline):
    """[(floor, verdict, message)]: verdict True (held), False (failed) or
    None (skipped)."""
    out = []
    for name, floor in FLOORS:
        try:
            verdict, msg = floor(run, baseline)
        except MissingCase as e:
            verdict, msg = False, str(e)
        out.append((name, verdict, msg))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed google-benchmark JSON the seal rate is held against")
    ap.add_argument("results", nargs="+", help="google-benchmark JSON output to check")
    args = ap.parse_args(argv)
    failed = 0
    for name, verdict, msg in check(Results(args.results), Results([args.baseline])):
        label = {True: "ok", False: "FAIL", None: "skip"}[verdict]
        print(f"{label:4}  {name:8}  {msg}")
        failed += verdict is False
    print(f"{failed} floor(s) failed" if failed else "every floor held")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
