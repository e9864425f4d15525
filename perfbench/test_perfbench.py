#!/usr/bin/env python3
"""The benchmark's own tests: determinism of its inputs and outputs, the
default-config guard, and the shape of its result line.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs short fixed-work
(--blocks) runs. Scratch output goes to .bench_build/test/.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own launcher)

SCRATCH = os.path.join(run.ROOT, ".bench_build", "test")
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, blocks, trace=0, dump=None, env=None):
    """Runs the binary; returns (returncode, stdout lines)."""
    argv = [run.BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--blocks", str(blocks)]
    if dump:
        os.makedirs(dump, exist_ok=True)
        argv += ["--dump", dump]
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, env=env,
                          timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


class Determinism(unittest.TestCase):
    """Same seed: byte-identical ledger and delivered-packet set on the
    closed loops. Another seed: another ledger."""

    def dumps(self, workload, seed, tag, blocks):
        d = os.path.join(SCRATCH, f"{workload}-{tag}")
        shutil.rmtree(d, ignore_errors=True)
        rc, lines = bench(workload, seed, blocks, dump=d)
        self.assertEqual(rc, 0, lines)
        self.assertTrue(result(lines)["correct"], lines)
        return d

    def check_closed_loop(self, workload, blocks):
        a = self.dumps(workload, 7, "a", blocks)
        b = self.dumps(workload, 7, "b", blocks)
        c = self.dumps(workload, 8, "c", blocks)
        for name in ("ledger.txt", "delivered.txt"):
            self.assertTrue(filecmp.cmp(os.path.join(a, name),
                                        os.path.join(b, name), shallow=False),
                            f"{workload} {name} differs between equal seeds")
        self.assertFalse(filecmp.cmp(os.path.join(a, "ledger.txt"),
                                     os.path.join(c, "ledger.txt"),
                                     shallow=False),
                         f"{workload} ledger ignores the seed")
        self.assertGreater(os.path.getsize(os.path.join(a, "delivered.txt")),
                           0)

    def test_wideband_bank(self):
        self.check_closed_loop("wideband_bank", 150)

    def test_service_saturation(self):
        self.check_closed_loop("service_saturation", 40)


class OpenLoop(unittest.TestCase):
    def test_lateness_is_reported(self):
        rc, lines = bench("service_paced", 3, 30, trace=1)
        self.assertEqual(rc, 0, lines)
        late = [l for l in lines if l.startswith("note generator lateness")]
        self.assertEqual(len(late), 1, lines)
        self.assertIn("over 960 blocks", late[0])
        lag = [l for l in lines if l.startswith("per_layer gen.lag_ms.p99")]
        self.assertEqual(len(lag), 1, lines)
        self.assertIn("(n=960)", lag[0])


class Mirror(unittest.TestCase):
    """The traced run replays the live blocks: channelizer frames and the
    packet sets must match, or the run is not correct."""

    def test_wideband_bank_traced(self):
        rc, lines = bench("wideband_bank", 5, 150, trace=1)
        self.assertEqual(rc, 0, lines)
        self.assertTrue(result(lines)["correct"], lines)
        self.assertTrue(any("channelizer frames" in l and "match" in l
                            for l in lines), lines)
        frames = result(lines)["metrics"]["dsp.channelizer.frames"]["value"]
        self.assertGreater(frames, 0)

    def test_service_saturation_traced(self):
        rc, lines = bench("service_saturation", 5, 40, trace=1)
        self.assertEqual(rc, 0, lines)
        self.assertTrue(result(lines)["correct"], lines)
        self.assertIn("note mirror: live packet set equals the replay", lines)


class ResultLine(unittest.TestCase):
    """The program puts every metric in its result line; run.py keeps the
    ones BENCHMARK.json lists, with the units it lists."""

    def check(self, res, kind):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        listed = {m["name"]: m["unit"] for m in SPEC[kind]}
        for name, unit in listed.items():
            self.assertEqual(res["metrics"][name]["unit"], unit, name)
        kept = run.keep_listed(res, kind == "per_layer")
        self.assertEqual({k: v["unit"] for k, v in kept["metrics"].items()},
                         listed)
        return kept

    def test_untraced_metrics_match_spec(self):
        rc, lines = bench("wideband_bank", 1, 60)
        self.assertEqual(rc, 0, lines)
        res = result(lines)
        for name in ("packet_loss_ratio", "false_packet_ratio",
                     "block_drop_ratio", "throughput_msps",
                     "packet_latency_p99_ms", "cpu_ms_per_msample"):
            self.assertIn(name, res["metrics"])
        for m in self.check(res, "end_to_end")["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_traced_metrics_match_spec(self):
        rc, lines = bench("service_paced", 1, 20, trace=1)
        self.assertEqual(rc, 0, lines)
        self.check(result(lines), "per_layer")

    def test_delivery_is_one_minus_loss(self):
        rc, lines = bench("wideband_bank", 2, 150)
        self.assertEqual(rc, 0, lines)
        m = result(lines)["metrics"]
        self.assertLess(m["packet_delivery_ratio"]["value"], 1)
        self.assertAlmostEqual(m["packet_delivery_ratio"]["value"] +
                               m["packet_loss_ratio"]["value"], 1)


class DefaultsGuard(unittest.TestCase):
    def test_refuses_overridden_defaults(self):
        for var, val in (("ARACHNET_KERNEL_POLICY", "simd"),
                         ("ARACHNET_SIMD_ISA", "generic")):
            env = dict(os.environ, **{var: val})
            rc, lines = bench("wideband_bank", 1, 10, env=env)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(l.startswith("{") for l in lines), lines)


if __name__ == "__main__":
    run.build()
    unittest.main()
