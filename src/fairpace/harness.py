"""Experiment orchestration: configs, repeated sample paths, aggregation.

An experiment fixes a market, an input model, a horizon, and a base seed,
then runs the auction dynamics over `paths` independently sampled arrival
sequences. Each path is scored against the hindsight dual of its realized
sequence, the reference-distribution dual shared by all paths, and the
proportional-share baseline. Curves are aggregated into means and standard
errors and written as plot-ready CSV plus a JSON summary. The whole run is
reproducible bit for bit from (config, base_seed); only the JSON summary
carries wall-clock provenance.
"""

import csv
import hashlib
import io
import json
import os
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .eg import (
    DualSolution, equilibrium_utilities, hindsight_solution, market_problem, require_converged,
    required_solve, solve_dual,
)
from .errors import ConfigError
from .inputs import InputModel, model_from_dict, reference_distribution, sample_sequences
from .market import (
    MarketInstance,
    ReferenceDistribution,
    as_config_error,
    check_horizon,
    market_from_dict,
    normalize_valuations,
    read_field,
    read_json,
)
from .metrics import METRIC_NAMES, BatchScorer, MetricSeries, recording_grid
from .pace import check_delta0, pace_lockstep
from .prng import derive_path_seed, make_generator

CONFIG_SCHEMA = 1

# Most paths one lockstep pacing run holds at once. Pacing cost per path
# step stops falling much beyond this.
LOCKSTEP_PATHS = 16
# Most bytes of envy sums, paths x n x n doubles, one batch holds while it
# is scored: n = 100 keeps LOCKSTEP_PATHS paths (1.28 MB), and from n = 363
# on a batch is one path, which needs n^2 doubles however it is batched.
LOCKSTEP_ENVY_BYTES = 2**21


class ExperimentConfig(NamedTuple):
    """Validated experiment description; `raw` keeps the original document."""

    market: dict
    model: dict
    t: int
    paths: int
    delta0: float
    base_seed: int
    dense_until: int
    grid_factor: float
    out_dir: Optional[str]
    raw: dict


def config_from_dict(doc: dict, base_dir: Optional[Path] = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA}")
    try:
        market = doc["market"]
        model = doc["model"]
        t = check_horizon(read_field(int, doc, "t"))
        paths = read_field(int, doc, "paths")
    except KeyError as exc:
        raise ConfigError(f"config missing required field {exc}") from exc
    if paths < 1:
        raise ConfigError(f"paths must be positive, got {paths!r}")
    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    dense_until = read_field(int, grid, "dense_until", 100)
    grid_factor = read_field(float, grid, "factor", 1.1)
    with as_config_error("bad grid"):
        recording_grid(t, dense_until, grid_factor)

    def relative(path, name: str) -> str:
        """A path the config names, which is relative to the config's own directory."""
        if not isinstance(path, str):
            raise ConfigError(f"{name} must be a string")
        return path if base_dir is None else str(base_dir / path)

    if isinstance(market, dict) and "path" in market:
        market = {**market, "path": relative(market["path"], "market path")}
    return ExperimentConfig(
        market=market,
        model=model,
        t=t,
        paths=paths,
        delta0=check_delta0(read_field(float, doc, "delta0", 1.0)),
        base_seed=read_field(int, doc, "base_seed", 0),
        dense_until=dense_until,
        grid_factor=grid_factor,
        out_dir=None if doc.get("out") is None else relative(doc["out"], "out"),
        raw=doc,
    )


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"), base_dir=Path(path).parent)


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def generate_market(
    n: int,
    m: int,
    rank: int = 10,
    noise: float = 0.1,
    seed: int = 0,
    ref: Optional[ReferenceDistribution] = None,
) -> MarketInstance:
    """Low-rank-plus-noise valuations, rows normalized against a reference.

    Factors and noise are uniform on [0, 1) (noise shifted to mean zero);
    negatives clip to zero. A row left without positive expected value under
    the reference is redrawn. Defaults to the uniform reference.
    """
    if n < 1 or m < 1:
        raise ConfigError(f"n and m must be at least 1, got n={n}, m={m}")
    if not 1 <= rank <= min(n, m):
        raise ConfigError(f"rank must lie in [1, {min(n, m)}]")
    if not 0.0 <= noise < np.inf:
        raise ConfigError(f"noise must be nonnegative and finite, got {noise!r}")
    if ref is None:
        ref = ReferenceDistribution(np.full(m, 1.0 / m))
    rng = make_generator(seed)
    A = rng.random((n, rank))
    B = rng.random((m, rank))

    def rows(A):
        # max(0, A B^T + noise (E - 0.5)) for noise E drawn after A, finished
        # in E's buffer: entry for entry the same IEEE operations, with no
        # other array of its size live but the product A B^T
        V = rng.random((A.shape[0], m))
        V -= 0.5
        V *= noise
        V += A @ B.T
        return np.maximum(0.0, V, out=V)

    V = rows(A)
    for _ in range(100):
        bad = np.flatnonzero(V @ ref.probs <= 0)
        if bad.size == 0:
            break
        V[bad] = rows(rng.random((bad.size, rank)))
    else:
        raise ValueError("could not draw a market with positive rows")
    # rebinding V frees the drawn matrix before the instance checks the
    # normalized one, which it keeps without a copy
    V = normalize_valuations(V, ref)
    return MarketInstance(V)


def resolve_model(config: ExperimentConfig) -> InputModel:
    """Build the input model: explicit arrays or random generation directives."""
    return model_from_dict(config.model)


def resolve_market(config: ExperimentConfig, ref: ReferenceDistribution) -> MarketInstance:
    """Load or synthesize the market, normalized against the model reference."""
    doc = config.market
    if not isinstance(doc, dict):
        raise ConfigError("market spec must be an object")
    if "path" in doc:
        instance = market_from_dict(read_json(doc["path"], "market"))
        with as_config_error("bad market"):
            return MarketInstance(normalize_valuations(instance.valuations, ref))
    if "generator" in doc:
        g = doc["generator"]
        with as_config_error("bad market generator spec"):
            m = read_field(int, g, "m")
            if m != ref.m:
                raise ConfigError(
                    f"market generator has m={m} items but the input model has m={ref.m}"
                )
            return generate_market(
                n=read_field(int, g, "n"),
                m=m,
                rank=read_field(int, g, "rank", 10),
                noise=read_field(float, g, "noise", 0.1),
                seed=read_field(int, g, "seed", 0),
                ref=ref,
            )
    raise ConfigError("market spec needs either 'path' or 'generator'")


class AggregateReport(NamedTuple):
    """Across-path means and standard errors on the shared grid.

    solver holds the dual solves' counts (see _solve_counts): the reference
    solve's under "reference" and each path's hindsight solve's, in path
    order, under "hindsight". timings holds their process seconds, which
    vary from run to run: the reference solve's under "reference_solve_s"
    and each hindsight solve's, in path order, under "hindsight_solve_s",
    taken in the process that ran it.
    """

    times: np.ndarray
    means: Dict[str, np.ndarray]
    stderrs: Optional[Dict[str, np.ndarray]]
    paths: int
    provenance: Dict[str, object]
    solver: Dict[str, object]
    timings: Dict[str, object]

    def terminal(self) -> Dict[str, Dict[str, Optional[float]]]:
        out = {}
        for name, mean in self.means.items():
            err = None if self.stderrs is None else float(self.stderrs[name][-1])
            out[name] = {"mean": float(mean[-1]), "stderr": err}
        return out


def summarize(series_list: Sequence[MetricSeries]) -> AggregateReport:
    """Arithmetic mean and sample-sd / sqrt(paths) standard error per point.

    The standard error is reported absent (None) for a single path.
    """
    if not series_list:
        raise ConfigError("cannot summarize an empty collection")
    times = series_list[0].times
    names = sorted(series_list[0].values)
    for s in series_list[1:]:
        if not np.array_equal(s.times, times) or sorted(s.values) != names:
            raise ConfigError("series disagree on times or metric names")
    k = len(series_list)
    means = {}
    stderrs = {} if k > 1 else None
    for name in names:
        stack = np.stack([s.values[name] for s in series_list])
        means[name] = stack.mean(axis=0)
        if k > 1:
            stderrs[name] = stack.std(axis=0, ddof=1) / np.sqrt(k)
    return AggregateReport(
        times=times, means=means, stderrs=stderrs, paths=k, provenance={}, solver={}, timings={}
    )


def _solve_counts(solution: DualSolution) -> dict:
    """A dual solve's Newton steps, evaluations, residual and the temperature
    after which its exact crossover was certified (None if it fell back)."""
    return {
        "newton_steps": solution.iterations,
        "evaluations": solution.evaluations,
        "residual": solution.residual,
        "certified_mu": solution.certified_mu,
    }


def _hindsight(instance, seq, delta0, tol, warm, path_index, path_seed):
    """A path's hindsight solve: its optimum's multipliers and utilities,
    its counts and its process seconds. warm is (star_beta, ref_weights)."""
    solve_started = time.process_time()
    with required_solve():
        hs = hindsight_solution(instance, seq, delta0, tol=tol, warm=warm)
    solve_s = time.process_time() - solve_started
    require_converged(hs, f"hindsight solve failed on path {path_index} (seed {path_seed})")
    return (
        hs.beta_hat,
        equilibrium_utilities(hs, instance.n),
        _solve_counts(hs),
        solve_s,
    )


def _run_paths(args) -> List[Tuple[MetricSeries, dict, float]]:
    """Score one batch of paths: sample them, solve each path's hindsight
    dual, then pace the batch in lockstep and score it as it paces.

    Returns each path's metric series with its hindsight solve's counts and
    process seconds. Each hindsight solve starts from the reference optimum
    star_beta, the optimum of the same market under the reference weights
    ref_weights.
    """
    (instance, model, t, delta0, grid, path_ids, path_seeds, hs_tol, star_refs, ref_weights) = args
    seqs = sample_sequences(model, t, path_seeds)
    star_beta, star_u = star_refs
    solves = [
        _hindsight(instance, seq, delta0, hs_tol, (star_beta, ref_weights), path_index, path_seed)
        for path_index, path_seed, seq in zip(path_ids, path_seeds, seqs)
    ]
    hs_beta, hs_u, counts, solve_s = zip(*solves)
    scorer = BatchScorer(instance, grid, hs_beta, hs_u, star_beta, star_u)
    pace_lockstep(instance, seqs, delta0, grid, scorer)
    metadata = [{"model": model.kind, "path_id": path_index} for path_index in path_ids]
    return list(zip(scorer.series(metadata), counts, solve_s))


def _usable_cpus() -> int:
    """CPUs this process may run on; all the host's where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    out_dir: Optional[str] = None,
    solver_tol: float = 1e-8,
) -> AggregateReport:
    """Run all paths, aggregate, and optionally write CSV and JSON outputs.

    A failed path aborts the whole experiment with its path and seed in the
    message. threads below 1 is a ConfigError; no more worker processes
    start than there are paths or CPUs this process may use.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    started = time.time()
    model = resolve_model(config)
    ref = reference_distribution(model)
    instance = resolve_market(config, ref)
    solve_started = time.process_time()
    with required_solve():
        star = solve_dual(market_problem(instance, ref, config.delta0), tol=solver_tol)
    reference_solve_s = time.process_time() - solve_started
    require_converged(star, "reference solve failed")
    star_u = equilibrium_utilities(star, instance.n)
    grid = recording_grid(config.t, config.dense_until, config.grid_factor)
    seeds = [derive_path_seed(config.base_seed, p) for p in range(config.paths)]
    # contiguous batches of at most LOCKSTEP_PATHS paths, and of envy sums
    # within LOCKSTEP_ENVY_BYTES, one per worker when the pool is used; each
    # batch is paced in lockstep
    workers = min(threads, config.paths, _usable_cpus())
    envy_paths = max(1, LOCKSTEP_ENVY_BYTES // (8 * instance.n**2))
    size = min(-(-config.paths // workers), LOCKSTEP_PATHS, envy_paths)
    jobs = [
        (
            instance,
            model,
            config.t,
            config.delta0,
            grid,
            range(start, min(start + size, config.paths)),
            seeds[start : start + size],
            solver_tol,
            (star.beta_hat, star_u),
            ref.probs,
        )
        for start in range(0, config.paths, size)
    ]
    if workers > 1:
        # imported here: the process pool machinery costs memory and import
        # time that a serial run does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_paths, jobs))
    else:
        batches = [_run_paths(job) for job in jobs]
    scored = [path for batch in batches for path in batch]
    series_list = [series for series, _, _ in scored]
    report = summarize(series_list)._replace(
        solver={
            "reference": _solve_counts(star),
            "hindsight": [counts for _, counts, _ in scored],
        },
        timings={
            "reference_solve_s": reference_solve_s,
            "hindsight_solve_s": [solve_s for _, _, solve_s in scored],
        },
        provenance={
            "config": config.raw,
            "config_hash": config_hash(config.raw),
            "base_seed": config.base_seed,
            "path_seeds": seeds,
            "model_kind": model.kind,
            "n": instance.n,
            "m": instance.m,
            "version": __version__,
            "wall_clock_s": time.time() - started,
        },
    )
    target = out_dir or config.out_dir
    if target is not None:
        write_outputs(Path(target), model.kind, series_list, report)
    return report


def _csv_fields(*fields) -> str:
    """The fields as csv.writer writes them, quoted where they need it,
    followed by a comma."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue()[: -len("\r\n")] + ","


def write_paths_csv(path, model_kind: str, series_list: Sequence[MetricSeries]) -> None:
    """One row per (path, metric, time): model,path_id,metric,t,value.

    The rows are those csv.writer writes, with repr of each value, joined
    per (path, metric).
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["model", "path_id", "metric", "t", "value"])
        for series in series_list:
            path_id = series.metadata.get("path_id", 0)
            times = [int(tau) for tau in series.times.tolist()]
            for name in METRIC_NAMES:
                head = _csv_fields(model_kind, path_id, name)
                rows = zip(times, series.values[name].tolist())
                fh.write("".join(f"{head}{tau},{repr(float(v))}\r\n" for tau, v in rows))


def write_aggregate_csv(path, model_kind: str, report: AggregateReport) -> None:
    """One row per (metric, time): model,metric,t,mean,stderr, written as
    write_paths_csv writes its rows; stderr is empty for a single path."""
    times = [int(tau) for tau in report.times.tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["model", "metric", "t", "mean", "stderr"])
        for name in METRIC_NAMES:
            head = _csv_fields(model_kind, name)
            means = report.means[name].tolist()
            if report.stderrs is None:
                errs = [""] * len(times)
            else:
                errs = [repr(err) for err in report.stderrs[name].tolist()]
            rows = zip(times, means, errs)
            fh.write("".join(f"{head}{tau},{mean!r},{err}\r\n" for tau, mean, err in rows))


def write_outputs(
    out_dir: Path,
    model_kind: str,
    series_list: Sequence[MetricSeries],
    report: AggregateReport,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_paths_csv(out_dir / "paths.csv", model_kind, series_list)
    write_aggregate_csv(out_dir / "aggregate.csv", model_kind, report)
    summary = {
        "provenance": report.provenance,
        "terminal": report.terminal(),
        "solver": report.solver,
        "timings": report.timings,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))


def read_paths_csv(path) -> List[MetricSeries]:
    """Parse a per-path CSV back into one series per path, each holding
    every metric of METRIC_NAMES with finite values on one grid.

    A file is one run's: a repeated (path_id, metric, t) row or rows naming
    more than one model is a ConfigError.
    """
    rows: Dict[int, Dict[str, Dict[int, float]]] = {}
    models = set()
    series_list = []
    with as_config_error(f"bad paths CSV {path}"):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                pid, name, tau = int(row["path_id"]), row["metric"], int(row["t"])
                by_t = rows.setdefault(pid, {}).setdefault(name, {})
                if tau in by_t:
                    raise ConfigError(f"path {pid} repeats the {name} row at t={tau}")
                by_t[tau] = float(row["value"])
                models.add(row["model"])
        if len(models) > 1:
            raise ConfigError(f"rows name more than one model: {sorted(models, key=str)}")
        for pid in sorted(rows):
            metrics = rows[pid]
            missing = [name for name in METRIC_NAMES if name not in metrics]
            if missing:
                raise ConfigError(f"path {pid} has no rows for {', '.join(missing)}")
            times = np.asarray(sorted(next(iter(metrics.values()))), dtype=np.int64)
            values = {}
            for name, by_t in metrics.items():
                if sorted(by_t) != times.tolist():
                    raise ConfigError(f"path {pid} metric {name} has a different grid")
                values[name] = np.asarray([by_t[int(tau)] for tau in times])
            series_list.append(
                MetricSeries(
                    times=times,
                    values=values,
                    metadata={"model": next(iter(models)), "path_id": pid},
                )
            )
    if not series_list:
        raise ConfigError(f"no rows found in {path}")
    return series_list
