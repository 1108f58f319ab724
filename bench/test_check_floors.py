"""Unit tests for check_floors.py on small hand-written google-benchmark JSON.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import check_floors

# Per-case median times at ratios like those the floors see on a BMI2/ADX
# host: CRT 6.2x and 3.5x, AES-CTR 27x, mul4 1.9x, 500 us per stats export.
SEAL = {"BM_EnvelopeSeal/256": (4760, "ns")}
CRT = {"BM_RsaDecrypt/512": (16.5, "us"), "BM_RsaDecryptNoCrt/512": (102.0, "us"),
       "BM_RsaDecrypt/1024": (230.0, "us"), "BM_RsaDecryptNoCrt/1024": (805.0, "us")}
AES = {"BM_Aes128Ctr/1024": (760, "ns"), "BM_Aes128CtrPortable/1024": (20500, "ns")}
MONT = {"BM_MontMul4": (14.2, "ns"), "BM_MontMul4Portable": (27.0, "ns")}
STATS = {"BM_UdpPingPong/0": (8.0, "us"), "BM_UdpPingPong/5": (9.0, "us", {"exports": 0.002})}
PASSING = {**SEAL, **CRT, **AES, **MONT, **STATS}


def entry(name, spec, aggregate):
    time, unit = spec[0], spec[1]
    b = {"name": f"{name}_{aggregate}" if aggregate else name, "run_name": name,
         "run_type": "aggregate" if aggregate else "iteration", "repetitions": 5,
         "threads": 1, "iterations": 1000, "real_time": time, "cpu_time": time,
         "time_unit": unit}
    if aggregate:
        b["aggregate_name"] = aggregate
    b.update(spec[2] if len(spec) > 2 else {})
    return b


class FloorTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", SEAL)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, cases, cpu_flags="bmi2 adx", extra=()):
        """A google-benchmark JSON file: one repetition and a median per case."""
        benchmarks = [entry(n, spec, agg) for n, spec in cases.items() for agg in (None, "median")]
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump({"context": {"cpu_flags": cpu_flags},
                       "benchmarks": benchmarks + list(extra)}, f)
        return path

    def verdicts(self, cases, **kw):
        run = check_floors.Results([self.write("run.json", cases, **kw)])
        base = check_floors.Results([self.baseline])
        return {name: verdict for name, verdict, _ in check_floors.check(run, base)}

    def assert_only(self, cases, floor, verdict, **kw):
        got = self.verdicts(cases, **kw)
        want = {name: True for name, _ in check_floors.FLOORS}
        want[floor] = verdict
        self.assertEqual(got, want)

    def test_every_floor_holds_on_passing_results(self):
        self.assertEqual(set(self.verdicts(PASSING).values()), {True})

    def test_every_floor_holds_just_above_its_bound(self):
        near = {
            "seal": {"BM_EnvelopeSeal/256": (4760 / 0.85, "ns")},
            "crt-512": {"BM_RsaDecryptNoCrt/512": (16.5 * 1.6, "us")},
            "crt-1024": {"BM_RsaDecryptNoCrt/1024": (230.0 * 1.6, "us")},
            "aes": {"BM_Aes128CtrPortable/1024": (760 * 3.1, "ns")},
            "mont": {"BM_MontMul4Portable": (14.2 * 1.25, "ns")},
            # 29,000 us per export at 0.002 exports per round trip: +58 us each.
            "stats": {"BM_UdpPingPong/5": (66.0, "us", {"exports": 0.002})},
        }
        for floor, cases in near.items():
            with self.subTest(floor=floor):
                self.assert_only({**PASSING, **cases}, floor, True)

    def test_crt_at_1x_fails(self):
        self.assert_only({**PASSING, "BM_RsaDecryptNoCrt/1024": (230.0, "us")}, "crt-1024", False)

    def test_aes_at_1x_fails(self):
        self.assert_only({**PASSING, "BM_Aes128CtrPortable/1024": (760, "ns")}, "aes", False)

    def test_mont_at_1x_fails_with_bmi2_adx_and_skips_without(self):
        cases = {**PASSING, "BM_MontMul4Portable": (14.2, "ns")}
        self.assert_only(cases, "mont", False)
        self.assert_only(cases, "mont", None, cpu_flags="")

    def test_seal_at_0_7x_baseline_fails(self):
        self.assert_only({**PASSING, "BM_EnvelopeSeal/256": (4760 / 0.7, "ns")}, "seal", False)

    def test_stats_export_over_3_percent_fails(self):
        # 40,000 us per export at 0.002 exports per round trip: +80 us each.
        slow = {"BM_UdpPingPong/5": (88.0, "us", {"exports": 0.002})}
        self.assert_only({**PASSING, **slow}, "stats", False)

    def test_stats_with_no_exports_fails(self):
        none = {"BM_UdpPingPong/5": (8.0, "us", {"exports": 0.0})}
        self.assert_only({**PASSING, **none}, "stats", False)

    def test_stats_export_faster_than_without_costs_zero(self):
        fast = {"BM_UdpPingPong/5": (7.0, "us", {"exports": 0.002})}
        self.assert_only({**PASSING, **fast}, "stats", True)

    def test_missing_case_fails_even_where_the_floor_would_skip(self):
        cases = dict(PASSING)
        del cases["BM_MontMul4"]
        self.assert_only(cases, "mont", False, cpu_flags="")

    def test_errored_case_fails(self):
        cases = dict(PASSING)
        del cases["BM_UdpPingPong/0"]
        error = {**entry("BM_UdpPingPong/0", (0, "us"), None), "error_occurred": True,
                 "error_message": "bind: Address already in use"}
        self.assert_only(cases, "stats", False, extra=[error])

    def test_errored_repetition_fails_beside_a_median(self):
        error = {**entry("BM_Aes128Ctr/1024", (0, "ns"), None), "error_occurred": True,
                 "error_message": "boom"}
        self.assert_only(PASSING, "aes", False, extra=[error])

    def test_main_exits_1_on_a_failed_floor_and_0_when_all_hold(self):
        good = self.write("good.json", PASSING)
        bad = self.write("bad.json", {**PASSING, "BM_Aes128CtrPortable/1024": (760, "ns")})
        with contextlib.redirect_stdout(io.StringIO()) as out:
            self.assertEqual(check_floors.main(["--baseline", self.baseline, good]), 0)
            self.assertEqual(check_floors.main(["--baseline", self.baseline, bad]), 1)
        self.assertIn("FAIL  aes", out.getvalue())

    def test_cases_merge_across_files(self):
        crypto = self.write("crypto.json", {**SEAL, **CRT, **AES, **MONT})
        net = self.write("net.json", STATS, cpu_flags="")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(check_floors.main(["--baseline", self.baseline, crypto, net]), 0)


if __name__ == "__main__":
    unittest.main()
