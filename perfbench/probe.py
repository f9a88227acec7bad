"""Child-process half of the fairpace benchmark.

Each mode runs in a fresh interpreter started by `run.py`, calls the
library's public functions in the order `harness.run_experiment` and
`harness._run_path` use them, and prints one JSON object on stdout.

  setup   time the set-up phase of `fairpace run` (everything before the
          first path starts) at least --repeats times and for --seconds,
          with the reference kernel timed before and after, then, unless
          --no-check, check the paper's claim on the first path (untimed)
          and describe the environment
  trace   replay the whole run serially with a span around each layer call
          and write the same output files `fairpace run` writes
  memory  peak traced allocation of each layer call on the first path, then
          the same claim check as `setup`

Usage: python3 probe.py MODE --config CONFIG [--seconds S] [--repeats R] [--no-check]
                        [--out DIR]
"""

import argparse
import ctypes
import inspect
import json
import os
import platform
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

# Steps of the first path replayed through generic dual averaging.
CLAIM_PREFIX = 2000
CLAIM_TOL = 1e-12


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()


class _NoTracer:
    @contextmanager
    def span(self, name):
        yield


class PeakTracer:
    """Per layer, the most bytes tracemalloc saw above the live set in a call.

    Spans of the harness enclose the other layers' calls and are not measured.
    """

    def __init__(self):
        self.peak_mb = {}

    @contextmanager
    def span(self, name):
        layer = name.split(".")[0]
        if layer == "harness":
            yield
            return
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self.peak_mb[layer] = max(self.peak_mb.get(layer, 0.0), peak)


def _import_library():
    """Import what `fairpace run` imports (numpy comes with it), timed."""
    start = time.perf_counter()
    import fairpace.cli  # noqa: F401
    import numpy
    from fairpace import eg, harness, inputs, metrics, pace, prng
    from fairpace.market import ItemSequence

    elapsed = time.perf_counter() - start
    lib = SimpleNamespace(
        np=numpy,
        eg=eg,
        harness=harness,
        inputs=inputs,
        metrics=metrics,
        pace=pace,
        prng=prng,
        ItemSequence=ItemSequence,
    )
    return elapsed, lib


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: v
            for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k == "OMP_THREAD_LIMIT"
        },
        "loadavg": os.getloadavg(),
    }


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None for another BLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _reference_kernel(np):
    """Seconds a fixed piece of work takes; it calls nothing of the library.

    The work mixes what `fairpace run` spends its time on: a pure-Python
    loop, small numpy calls made from a Python loop, and matrix products.
    `run.py` divides the run's times by it, so that the host's speed, which
    drifts by a third or more from minute to minute, cancels.
    """
    rng = np.random.default_rng(0)
    a, b, v0 = rng.random((100, 300)), rng.random((300, 300)), rng.random(300)
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    v = v0
    for _ in range(12_000):
        v = np.minimum(v0 * (1.0 + (a @ v).sum() * 1e-9), 2.0)
    for _ in range(80):
        b @ b
    return time.perf_counter() - start


def _solver_tol(harness):
    return inspect.signature(harness.run_experiment).parameters["solver_tol"].default


def _set_up(lib, config, tracer):
    """Everything `run_experiment` does before its first path starts."""
    eg, harness = lib.eg, lib.harness
    with tracer.span("harness.resolve_model"):
        model = harness.resolve_model(config)
    with tracer.span("inputs.reference"):
        ref = lib.inputs.reference_distribution(model)
    with tracer.span("market.generate"):
        instance = harness.resolve_market(config, ref)
    with tracer.span("eg.reference"):
        problem = eg.market_problem(instance, ref, config.delta0)
        star = eg.solve_dual(problem, tol=_solver_tol(harness))
        if not star.converged:
            raise SystemExit(f"reference solve failed: residual {star.residual:.3g}")
        star_u = eg.equilibrium_utilities(star, instance.n)
    return model, instance, star, star_u


def _replay(lib, config, tracer, paths):
    """The calls `run_experiment` and `_run_path` make, in their order.

    Runs the first `paths` paths; returns the model, the market, the
    reference solve, each path's metric series and each hindsight solve's
    statistics.
    """
    eg, np = lib.eg, lib.np
    tol = _solver_tol(lib.harness)
    model, instance, star, star_u = _set_up(lib, config, tracer)
    grid = lib.metrics.recording_grid(config.t, config.dense_until, config.grid_factor)
    series_list, solves = [], []
    for p in range(paths):
        seed = lib.prng.derive_path_seed(config.base_seed, p)
        with tracer.span("harness.path"):
            with tracer.span("inputs.sample"):
                seq = lib.inputs.sample_sequence(model, config.t, seed)
            with tracer.span("pace.run"):
                trace = lib.pace.run_pace(instance, seq, config.delta0, record_times=grid)
            with tracer.span("eg.hindsight"):
                hs = eg.hindsight_solution(instance, seq, config.delta0, tol=tol)
            if not hs.converged:
                raise SystemExit(f"hindsight solve failed on path {p}")
            with tracer.span("metrics.series"):
                series_list.append(
                    lib.metrics.build_metric_series(
                        trace,
                        instance,
                        seq,
                        hs.beta_hat,
                        eg.equilibrium_utilities(hs, instance.n),
                        star.beta_hat,
                        star_u,
                        metadata={"model": model.kind, "path_id": p, "path_seed": seed},
                    )
                )
        solves.append(
            {
                "newton_steps": hs.iterations,
                "residual": hs.residual,
                "converged": bool(hs.converged),
                "positive_weight_share": np.count_nonzero(np.bincount(seq.items)) / instance.m,
            }
        )
    return model, instance, star, series_list, solves


def _claim_check(lib, config, model, instance):
    """On the first path, PACE equals log-barrier dual averaging and beta stays in its box."""
    pace = lib.pace
    seed = lib.prng.derive_path_seed(config.base_seed, 0)
    seq = lib.inputs.sample_sequence(model, config.t, seed)
    prefix = lib.ItemSequence(seq.items[: min(CLAIM_PREFIX, seq.t)])
    equivalent = pace.equivalence_with_da(instance, prefix, config.delta0, tol=CLAIM_TOL)
    lo, hi = pace.pacing_box(instance.n, config.delta0)
    betas = pace.run_pace(instance, prefix, config.delta0, record_betas=True).betas
    in_box = bool(lib.np.all((betas >= lo) & (betas <= hi)))
    return {"steps": prefix.t, "equivalence_with_da": bool(equivalent), "beta_in_box": in_box}


def _mode_setup(lib, config, args, import_s):
    times = []
    # a sample on each side of the set-up spreads the kernel over more of
    # the probe's time than one sample twice as long
    reference_s = _reference_kernel(lib.np)
    started = time.perf_counter()
    while len(times) < args.repeats or time.perf_counter() - started < args.seconds:
        start = time.perf_counter()
        model, instance, _, _ = _set_up(lib, config, _NoTracer())
        times.append(time.perf_counter() - start)
    reference_s += _reference_kernel(lib.np)
    result = {"setup_s": times, "reference_s": reference_s}
    if args.no_check:
        return result
    return {
        **result,
        "claim": _claim_check(lib, config, model, instance),
        "env": _environment(lib.np),
    }


def _mode_trace(lib, config, args, import_s):
    harness = lib.harness
    tracer = Tracer()
    model, _, star, series_list, solves = _replay(lib, config, tracer, config.paths)
    with tracer.span("harness.summarize"):
        aggregated = harness.summarize(series_list)
    out = Path(args.out)
    with tracer.span("harness.write"):
        harness.write_outputs(out, model.kind, series_list, aggregated)
    return {
        "import_s": import_s,
        "spans": tracer.spans,
        "reference_newton_steps": star.iterations,
        "hindsight": solves,
        "output_bytes": sum(f.stat().st_size for f in out.iterdir()),
    }


def _mode_memory(lib, config, args, import_s):
    tracer = PeakTracer()
    tracemalloc.start()
    model, instance, _, _, _ = _replay(lib, config, tracer, 1)
    tracemalloc.stop()
    return {
        "peak_alloc_mb": tracer.peak_mb,
        "claim": _claim_check(lib, config, model, instance),
        "env": _environment(lib.np),
    }


_MODES = {"setup": _mode_setup, "trace": _mode_trace, "memory": _mode_memory}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(_MODES))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    import_s, lib = _import_library()
    config = lib.harness.load_config(args.config)
    result = _MODES[args.mode](lib, config, args, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
