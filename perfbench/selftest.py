"""Fast self-test of the benchmark on tiny shapes.

Checks that both modes print every metric BENCHMARK.json names, with its
unit, that a program whose output is broken or which exits nonzero fails the
run, and that the benchmark refuses to run without the library's sources.

Usage: python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = dict(n=10, m=12, t=300, paths=2, kind="markov")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.ROOT / ".bench_work"


def bench(trace, src=None):
    """Run the benchmark in-process on the tiny shape; return (stdout, result)."""
    run.WORKLOADS["tiny"] = TINY
    saved_src = run.SRC
    if src is not None:
        run.SRC = src
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(
                ["--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", str(trace)]
            )
    finally:
        run.SRC = saved_src
        del run.WORKLOADS["tiny"]
    if code != 0:
        raise AssertionError(f"benchmark exited {code}")
    out = buf.getvalue()
    return out, json.loads(out.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, section):
        out, result = bench(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float))
            self.assertRegex(out, rf"(?m)^{name.replace('.', r'[.]')}\s+\S+ {metric['unit']}$")

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_timed_runs_hold_blas_to_one_thread(self):
        out, _ = bench(0)
        self.assertRegex(out, r'(?m)^env .*"blas_threads": 1,.*"OPENBLAS_NUM_THREADS": "1"')

    def test_traced(self):
        self.check(1, "per_layer")


class BrokenProgramFails(unittest.TestCase):
    """Each case breaks a copy of the library and expects a failed run."""

    def run_broken(self, module, old, new, expect, trace=0):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(run.SRC / "fairpace", src / "fairpace")
            path = src / "fairpace" / module
            text = path.read_text()
            self.assertIn(old, text)
            path.write_text(text.replace(old, new, 1))
            out, result = bench(trace, src=src)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0)
        self.assertIn(expect, out)

    def test_non_finite_value(self):
        self.run_broken("harness.py", "repr(float(v))", "repr(float(v) * float('nan'))",
                        "bad paths.csv row")

    def test_missing_rows(self):
        self.run_broken("harness.py", "for name in METRIC_NAMES:", "for name in METRIC_NAMES[1:]:",
                        "paths.csv has")

    def test_nonzero_exit(self):
        self.run_broken("cli.py", "print(f\"{name}: {entry['mean']:.6g}{err}\")\n    return 0",
                        "print(f\"{name}: {entry['mean']:.6g}{err}\")\n    return 4",
                        "exit code 4")

    def test_claim_broken(self):
        self.run_broken("dual_averaging.py", "raw = 1.0 / (reg.n * g)",
                        "raw = 1.0 / (reg.n * g) * (1 + 1e-9)", "paper claim check failed")

    def test_replay_differs(self):
        # `fairpace run` no longer matches the order of calls the trace replays
        self.run_broken("harness.py", "        hs.beta_hat,\n", "        hs.beta_hat * 1.5,\n",
                        "replayed paths.csv differs", trace=1)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            for rel in SPEC["paths"]:
                shutil.copytree(run.ROOT / rel, Path(tmp) / rel,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"]
                + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
