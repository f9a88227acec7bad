"""End-to-end and per-layer benchmark of `fairpace run`.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the real `fairpace run` (as `python3 -m fairpace.cli run`)
is started as a child process again and again, one run at a time (a closed
loop), while another run still fits in S seconds; each run's outputs are
checked. Between the timed runs, probe processes time the set-up phase and
a fixed reference kernel. The interquartile means of the runs' wall and CPU
time, each over the mean kernel time, are reported with the median peak RSS
and the median set-up time, scaled by the same mean kernel time to a host
on which the kernel takes REFERENCE_NOMINAL_S. With --trace 1 a
probe process replays the same run serially with a span around each layer
call and the untraced run is timed next to it, giving the per-layer
metrics.

The seed sets the experiment's base seed, so it draws every arrival
sequence; the market and the arrival model are fixed per workload, as in
the paper's experiment, which samples many paths of one instance.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Every timed child runs with BLAS held to
one thread (SERIAL_BLAS): with the library's default of one BLAS thread per
core, a single other busy process on a 2-core host made a run ten times
slower. The default is measured on its own by the traced run, as the
`blas.*` metrics and the pooled run's `harness.pool_efficiency`.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
SRC = ROOT / "src"

# n agents, m items, horizon t, paths per run and arrival model. Every
# measured run is serial (`--threads 1`): with the process pool, BLAS threads
# oversubscribe the cores and a run's wall time swings by a factor of four,
# so the pool is measured only by the traced run, as a per-layer metric.
WORKLOADS = {
    # paper scale with fewer paths; path time splits between the hindsight
    # solve, pacing and the Markov sampler
    "paper": dict(n=100, m=300, t=20000, paths=4, kind="markov"),
    # pacing dominates and the dense (t x n) copies set peak memory. Not in
    # BENCHMARK.json: across seeds its wall time spread by a quarter or more
    # of the median on a shared 2-core host; run it by name to see memory.
    "long_horizon": dict(n=100, m=50, t=200000, paths=1, kind="iid"),
    # hindsight and reference solves dominate; empirical weights are sparse
    "wide_market": dict(n=100, m=1500, t=1000, paths=2, kind="corrupted"),
}
POOL_WORKERS = 2  # `--threads` of the pooled run beside each traced replay
# Environment of every child except the runs that measure the BLAS default.
SERIAL_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MARKET_SEED = 1
MODEL_SEED = 2

METRIC_NAMES = (
    "rel_beta_hs",
    "rel_u_hs",
    "rel_beta_star",
    "rel_u_star",
    "mse_beta_star",
    "mse_u_star",
    "mse_expenditure",
    "regret_max",
    "envy_max",
    "baseline_rel_u_hs",
)

END_TO_END_UNITS = {
    "wall_per_ref": "ratio",
    "cpu_per_ref": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with --trace 0 beside the metrics, not part of the result: the
# measured times the metrics are made of.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "reference_s": "s", "setup_measured_s": "s"}
# setup_s is reported as it would read on a host on which the reference
# kernel takes this long (about its median on the host of NOTES.md), so
# that the host's drift between runs cancels from it as from *_per_ref.
REFERENCE_NOMINAL_S = 0.8
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "inputs.reference_s": "s",
    "market.generate_s": "s",
    "eg.reference_s": "s",
    "eg.reference_newton_steps": "count",
    "inputs.sample_s": "s",
    "inputs.sample_ns_per_item": "ns",
    "pace.run_s": "s",
    "pace.us_per_step": "us",
    "pace.path_share": "ratio",
    "eg.hindsight_s": "s",
    "eg.hindsight_newton_steps": "count",
    "eg.hindsight_residual_max": "1",
    "eg.converged_ratio": "ratio",
    "eg.positive_weight_share": "ratio",
    "eg.path_share": "ratio",
    "metrics.series_s": "s",
    "inputs.peak_alloc_mb": "MB",
    "pace.peak_alloc_mb": "MB",
    "eg.peak_alloc_mb": "MB",
    "metrics.peak_alloc_mb": "MB",
    "harness.summarize_s": "s",
    "harness.write_s": "s",
    "harness.output_bytes": "bytes",
    "harness.pool_efficiency": "ratio",
    "blas.default_wall_ratio": "ratio",
    "blas.default_cpu_per_wall": "ratio",
    "harness.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

MIN_REPEATS = 3  # untraced runs per measurement, however long each takes
CHILD_TIMEOUT_S = 150.0


def interquartile_mean(values):
    """Mean of the middle half of the values (of all of them when under four).

    The host switches between a fast and a slow speed every few seconds, so
    one run's timings fall in two clusters; their median jumps between the
    clusters from run to run, while this mean moves with the mix.
    """
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut : len(values) - cut])


class RunFailed(Exception):
    """A child process exited nonzero or left outputs that fail a check."""


def make_config(shape, seed):
    model = {"kind": shape["kind"], "random": {"m": shape["m"], "seed": MODEL_SEED}}
    if shape["kind"] == "corrupted":
        model["corruption"] = {"kind": "decaying"}
    return {
        "schema": 1,
        "market": {
            "generator": {
                "n": shape["n"],
                "m": shape["m"],
                "rank": 10,
                "noise": 0.1,
                "seed": MARKET_SEED,
            }
        },
        "model": model,
        "t": shape["t"],
        "paths": shape["paths"],
        "delta0": 1.0,
        "base_seed": seed,
    }


def grid_size(t, dense_until=100, factor=1.1):
    """Length of the recording grid `fairpace run` writes by default.

    Worked out here, like METRIC_NAMES, so the output check does not rest on
    the code it checks.
    """
    times = list(range(1, min(t, dense_until) + 1))
    cur = float(times[-1])
    while times[-1] < t:
        cur *= factor
        times.append(min(t, max(times[-1] + 1, int(round(cur)))))
    return len(times)


class Child:
    """One finished child process: exit code, wall, CPU and peak RSS of its tree."""

    def __init__(self, argv, log_dir, name, blas_env=SERIAL_BLAS):
        env = {**os.environ, **blas_env}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        stdout_path, stderr_path = log_dir / f"{name}.out", log_dir / f"{name}.err"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4 reports the usage of the child and of every process
                # it waited for, so pool workers are included
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_text()
        self.stderr = stderr_path.read_text()

    def check_exit(self):
        if self.returncode != 0:
            raise RunFailed(f"exit code {self.returncode}: {self.stderr.strip()[-400:]}")

    def json(self):
        self.check_exit()
        return json.loads(self.stdout.strip().splitlines()[-1])


def run_cli(config_path, out_dir, threads, blas_env=SERIAL_BLAS):
    argv = [sys.executable, "-m", "fairpace.cli", "run", "--config", str(config_path)]
    argv += ["--out", str(out_dir), "--threads", str(threads)]
    return Child(argv, out_dir.parent, out_dir.name, blas_env)


def run_probe(mode, config_path, work, name, *extra, blas_env=SERIAL_BLAS):
    argv = [sys.executable, str(PROBE), mode, "--config", str(config_path), *extra]
    return Child(argv, work, name, blas_env)


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_outputs(out_dir, shape, model_kind):
    """Validate the files of one run; return the SHA-256 of both CSVs."""
    grid = grid_size(shape["t"])
    paths_csv = out_dir / "paths.csv"
    aggregate_csv = out_dir / "aggregate.csv"
    with open(paths_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["model", "path_id", "metric", "t", "value"]:
        raise RunFailed(f"paths.csv header is {rows[0]}")
    expected = shape["paths"] * len(METRIC_NAMES) * grid
    if len(rows) - 1 != expected:
        raise RunFailed(f"paths.csv has {len(rows) - 1} rows, expected {expected}")
    keys = set()
    for model, path_id, metric, tau, value in rows[1:]:
        if model != model_kind or metric not in METRIC_NAMES or not _finite(value):
            raise RunFailed(f"bad paths.csv row {[model, path_id, metric, tau, value]}")
        keys.add((int(path_id), metric, int(tau)))
    if len(keys) != expected or {k[0] for k in keys} != set(range(shape["paths"])):
        raise RunFailed("paths.csv rows are not one per path, metric and grid point")
    with open(aggregate_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) - 1 != len(METRIC_NAMES) * grid:
        raise RunFailed(f"aggregate.csv has {len(rows) - 1} rows")
    for model, metric, tau, mean, stderr in rows[1:]:
        stderr_ok = stderr == "" if shape["paths"] == 1 else _finite(stderr)
        if model != model_kind or not _finite(mean) or not stderr_ok:
            raise RunFailed(f"bad aggregate.csv row {[model, metric, tau, mean, stderr]}")
    summary = json.loads((out_dir / "summary.json").read_text())
    if len(summary["provenance"]["path_seeds"]) != shape["paths"]:
        raise RunFailed("summary.json lists the wrong number of path seeds")
    return tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (paths_csv, aggregate_csv)
    )


# What a broken program can raise while its outputs are read and checked.
CHECK_ERRORS = (RunFailed, OSError, ValueError, KeyError, IndexError, TypeError)


class Bench:
    """One benchmark run: a workload, a seed and a scratch directory.

    Every child started is one attempt; a child that exits nonzero or whose
    outputs fail a check is one failure, and its timings are still kept.
    `failures` maps each failed child to the first reason found.
    """

    def __init__(self, workload, seed, seconds, work):
        self.shape = WORKLOADS[workload]
        self.seconds = seconds
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(make_config(self.shape, seed)))
        self.attempted = 0
        self.failures = {}
        # SHA-256 of both CSVs per BLAS environment: the last bits of the
        # results depend on the BLAS thread count, so only runs with the same
        # environment must agree
        self.digests = {}
        self.notes = []

    def fail(self, name, exc):
        self.failures.setdefault(name, str(exc))

    def probe(self, mode, name, *extra, blas_env=SERIAL_BLAS):
        """Parsed output of a probe child, or None if it failed."""
        self.attempted += 1
        child = run_probe(mode, self.config, self.work, name, *extra, blas_env=blas_env)
        try:
            doc = child.json()
        except CHECK_ERRORS as exc:
            self.fail(name, exc)
            return None
        if "env" in doc:
            self.notes.append(f"env {json.dumps(doc['env'], sort_keys=True)}")
        claim = doc.get("claim")
        if claim is not None:
            self.notes.append(f"claim {json.dumps(claim, sort_keys=True)}")
            if not (claim["equivalence_with_da"] and claim["beta_in_box"]):
                self.fail(name, f"paper claim check failed: {claim}")
        return child, doc

    def _fits(self, start, next_s):
        """Whether a step expected to take next_s still ends within --seconds."""
        return time.perf_counter() - start + next_s <= self.seconds

    def untraced(self, threads, name, blas_env=SERIAL_BLAS):
        """One `fairpace run` with its outputs checked; returns child and outputs."""
        self.attempted += 1
        out = self.work / name
        child = run_cli(self.config, out, threads, blas_env)
        try:
            child.check_exit()
            digests = check_outputs(out, self.shape, self.shape["kind"])
            env = json.dumps(blas_env, sort_keys=True)
            if env not in self.digests:
                self.digests[env] = digests
                self.notes.append(
                    f"sha256 with BLAS env {env}: paths.csv {digests[0]} aggregate.csv {digests[1]}"
                )
            elif digests != self.digests[env]:
                raise RunFailed("outputs differ from the first run of this seed")
        except CHECK_ERRORS as exc:
            self.fail(name, exc)
        return child, out

    def measure(self):
        """End-to-end metrics of the untraced program.

        Timed runs alternate with set-up probes, each a fresh process that
        times one set-up and then the reference kernel, so that all three
        sample the host over the whole of --seconds rather than over one
        stretch of it. The host's speed drifts from minute to minute by more
        than the bounds; wall and CPU time over the kernel's time do not.
        """
        start = time.perf_counter()
        probe = self.probe("setup", "setup", "--repeats", "1")
        if probe is None:
            return None
        setup_times, probe_walls = list(probe[1]["setup_s"]), []
        references = [probe[1]["reference_s"]]
        # the first run after the probe is slower by a few percent; it is
        # checked like the others but not timed
        _, warmup_out = self.untraced(1, "warmup")
        shutil.rmtree(warmup_out, ignore_errors=True)
        runs = []
        while len(runs) < MIN_REPEATS or self._fits(
            start,
            statistics.median(c.wall_s for c in runs) + statistics.median(probe_walls),
        ):
            child, out = self.untraced(1, f"run{len(runs)}")
            shutil.rmtree(out, ignore_errors=True)
            runs.append(child)
            probe = self.probe(
                "setup", f"setup{len(runs)}", "--repeats", "1", "--no-check"
            )
            if probe is None:
                return None
            setup_times += probe[1]["setup_s"]
            references.append(probe[1]["reference_s"])
            probe_walls.append(probe[0].wall_s)
        self.notes.append(f"wall_s of each run {[round(c.wall_s, 3) for c in runs]}")
        self.notes.append(f"cpu_s of each run {[round(c.cpu_s, 3) for c in runs]}")
        self.notes.append(f"setup_measured_s of each probe {[round(t, 3) for t in setup_times]}")
        self.notes.append(f"reference_s of each probe {[round(t, 3) for t in references]}")
        wall_s = interquartile_mean(c.wall_s for c in runs)
        cpu_s = interquartile_mean(c.cpu_s for c in runs)
        reference_s = statistics.mean(references)
        return {
            "wall_per_ref": wall_s / reference_s,
            "cpu_per_ref": cpu_s / reference_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "reference_s": reference_s,
            "setup_s": statistics.median(setup_times) * REFERENCE_NOMINAL_S / reference_s,
            "setup_measured_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        }

    def trace(self):
        """Per-layer metrics from traced replays next to untraced runs.

        The memory probe, one pooled run and one serial run run with the BLAS
        thread count the environment gives (the probe records it); then
        traced replays and serial untraced runs, BLAS held to one thread,
        alternate in pairs, each pair in the opposite order to the last,
        until --seconds is used.
        """
        start = time.perf_counter()
        memory = self.probe("memory", "memory", blas_env={})
        if memory is None:
            return None
        pooled, pooled_out = self.untraced(POOL_WORKERS, "pooled", blas_env={})
        shutil.rmtree(pooled_out, ignore_errors=True)
        default, default_out = self.untraced(1, "default_blas", blas_env={})
        shutil.rmtree(default_out, ignore_errors=True)
        passes, pass_s = [], 0.0
        while not passes or self._fits(start, pass_s):
            pass_start = time.perf_counter()
            result = self._trace_pass(len(passes), pooled.wall_s)
            if result is None:
                return None
            passes.append(result)
            pass_s = time.perf_counter() - pass_start
        metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        for layer in ("inputs", "pace", "eg", "metrics"):
            metrics[f"{layer}.peak_alloc_mb"] = memory[1]["peak_alloc_mb"][layer]
        metrics["blas.default_wall_ratio"] = default.wall_s / metrics.pop("serial_wall_s")
        metrics["blas.default_cpu_per_wall"] = default.cpu_s / default.wall_s
        return metrics

    def _trace_pass(self, k, pooled_wall):
        traced_out = self.work / f"traced{k}"
        if k % 2:
            serial, serial_out = self.untraced(1, f"serial{k}")
        traced = self.probe("trace", traced_out.name, "--out", str(traced_out))
        if k % 2 == 0:
            serial, serial_out = self.untraced(1, f"serial{k}")
        if traced is None:
            return None
        for name in ("paths.csv", "aggregate.csv"):
            try:
                same = (traced_out / name).read_bytes() == (serial_out / name).read_bytes()
            except OSError as exc:
                same = exc
            if same is not True:
                self.fail(traced_out.name, f"replayed {name} differs from `fairpace run`: {same}")
        shutil.rmtree(traced_out, ignore_errors=True)
        shutil.rmtree(serial_out, ignore_errors=True)
        traced_child, doc = traced
        return layer_metrics(doc, traced_child.wall_s, serial.wall_s, pooled_wall, self.shape)


def layer_metrics(doc, traced_wall, serial_wall, pooled_wall, shape):
    """Per-layer metrics of one traced replay and the untraced runs beside it."""
    busy = {}
    for name, start, end, _parent in doc["spans"]:
        busy[name] = busy.get(name, 0.0) + end - start
    steps = shape["paths"] * shape["t"]
    solves = doc["hindsight"]
    path_s = busy["harness.path"]
    outside_paths = doc["import_s"] + sum(
        busy[k]
        for k in (
            "harness.resolve_model",
            "inputs.reference",
            "market.generate",
            "eg.reference",
            "harness.summarize",
            "harness.write",
        )
    )
    return {
        "cli.import_s": doc["import_s"],
        "inputs.reference_s": busy["inputs.reference"],
        "market.generate_s": busy["market.generate"],
        "eg.reference_s": busy["eg.reference"],
        "eg.reference_newton_steps": doc["reference_newton_steps"],
        "inputs.sample_s": busy["inputs.sample"],
        "inputs.sample_ns_per_item": busy["inputs.sample"] / steps * 1e9,
        "pace.run_s": busy["pace.run"],
        "pace.us_per_step": busy["pace.run"] / steps * 1e6,
        "pace.path_share": busy["pace.run"] / path_s,
        "eg.hindsight_s": busy["eg.hindsight"],
        "eg.hindsight_newton_steps": statistics.mean(s["newton_steps"] for s in solves),
        "eg.hindsight_residual_max": max(s["residual"] for s in solves),
        "eg.converged_ratio": sum(s["converged"] for s in solves) / len(solves),
        "eg.positive_weight_share": statistics.mean(
            s["positive_weight_share"] for s in solves
        ),
        "eg.path_share": busy["eg.hindsight"] / path_s,
        "metrics.series_s": busy["metrics.series"],
        "harness.summarize_s": busy["harness.summarize"],
        "harness.write_s": busy["harness.write"],
        "harness.output_bytes": doc["output_bytes"],
        "harness.pool_efficiency": path_s / (POOL_WORKERS * (pooled_wall - outside_paths)),
        "harness.overhead_s": serial_wall - outside_paths - path_s,
        "trace.overhead_ratio": traced_wall / serial_wall,
        "serial_wall_s": serial_wall,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark `fairpace run`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairpace" / "cli.py").is_file():
        print(f"fairpace sources not found under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        values = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if values is None:
        for name, reason in bench.failures.items():
            print(f"{name}: {reason}", file=sys.stderr)
        print("no successful run to measure", file=sys.stderr)
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(bench.failures)
    for note in bench.notes:
        print(note)
    for name, reason in bench.failures.items():
        print(f"failed: {name}: {reason}")
    print(f"loadavg before {load_before} after {os.getloadavg()}")
    print(f"fail_ratio {failed / bench.attempted:.4f} ({failed} of {bench.attempted} runs)")
    printed = {**units, **RAW_UNITS} if not args.trace else units
    for name in printed:
        print(f"{name:28s} {values[name]:.6g} {printed[name]}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
