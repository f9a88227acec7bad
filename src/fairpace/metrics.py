"""Performance metrics of a run relative to equilibrium benchmarks."""

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import DimensionMismatch, NonpositiveReference
from .market import ItemSequence, MarketInstance
from .pace import PaceTrace

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


# build_metric_series builds the envy sum's flat indices for at most this
# many entries at once, 128 KiB of them. Built for a whole grid chunk, up to
# 182 000 entries at t=20000 and n=100, they raised the peak RSS of
# `fairpace run` on that shape by 3.6 MB.
_ENVY_BLOCK = 16384


def recording_grid(t: int, dense_until: int = 100, factor: float = 1.1) -> np.ndarray:
    """Every step up to dense_until, then geometric spacing, always ending at t."""
    if t < 1:
        raise ValueError("horizon must be positive")
    if not 1.0 < factor < np.inf:
        raise ValueError(f"need grid.factor finite and above 1, got {factor!r}")
    times = list(range(1, min(t, dense_until) + 1))
    cur = float(times[-1])
    while times[-1] < t:
        cur *= factor
        times.append(min(t, max(times[-1] + 1, int(round(cur)))))
    return np.asarray(times, dtype=np.int64)


def realized_total_utilities(trace: PaceTrace) -> np.ndarray:
    """Per-agent sum of realized utilities over the whole run."""
    return np.bincount(trace.winners, weights=trace.winner_values, minlength=trace.n)


def regret(trace: PaceTrace, hindsight_u, t: int) -> np.ndarray:
    """Signed shortfall t * hindsight_u_i - (realized total utility of i)."""
    hindsight_u = np.asarray(hindsight_u, dtype=np.float64)
    if trace.t != t:
        raise DimensionMismatch(f"trace has {trace.t} steps, expected {t}")
    if hindsight_u.shape != (trace.n,):
        raise DimensionMismatch("hindsight utilities must have one entry per agent")
    return t * hindsight_u - realized_total_utilities(trace)


def envy(trace: PaceTrace, instance: MarketInstance, seq: ItemSequence) -> np.ndarray:
    """Each agent's preference for the best other bundle over their own, >= 0.

    S[k, i], the value agent i places on winner k's bundle, comes from the
    (winner, item) counts, so no (t, n) matrix is built.
    """
    if trace.t != seq.t:
        raise DimensionMismatch("trace and sequence lengths differ")
    if trace.n != instance.n:
        raise DimensionMismatch("trace and instance agent counts differ")
    n, m = instance.n, instance.m
    if seq.items.max() >= m:
        raise DimensionMismatch("sequence references items outside the universe")
    counts = np.bincount(trace.winners * m + seq.items, minlength=n * m).reshape(n, m)
    S = counts @ instance.valuations.T
    return S.max(axis=0) - np.diag(S)


@dataclass(frozen=True)
class SquaredErrors:
    """Terminal squared distances to a benchmark and the spend target."""

    beta: float
    utility: float
    expenditure: float


def mean_square_errors(trace: PaceTrace, ref_beta, ref_u, n: int) -> SquaredErrors:
    ref_beta = np.asarray(ref_beta, dtype=np.float64)
    ref_u = np.asarray(ref_u, dtype=np.float64)
    if ref_beta.shape != (n,) or ref_u.shape != (n,) or trace.n != n:
        raise DimensionMismatch("reference vectors must have one entry per agent")
    return SquaredErrors(
        beta=float(((trace.beta_at[-1] - ref_beta) ** 2).sum()),
        utility=float(((trace.u_bar_at[-1] - ref_u) ** 2).sum()),
        expenditure=float(((trace.spend_avg_at[-1] - 1.0 / n) ** 2).sum()),
    )


def relative_error_max(actual, reference) -> float:
    """max_i |actual_i - reference_i| / reference_i for positive references."""
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if actual.shape != reference.shape:
        raise DimensionMismatch("vectors must share a shape")
    if np.any(reference <= 0):
        raise NonpositiveReference("reference entries must be strictly positive")
    return float(np.max(np.abs(actual - reference) / reference))


@dataclass(frozen=True)
class MetricSeries:
    """Named error curves over the recording grid of one run."""

    times: np.ndarray
    values: Dict[str, np.ndarray]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for name, vals in self.values.items():
            if len(vals) != len(self.times):
                raise DimensionMismatch(f"metric {name} is not aligned with times")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"metric {name} contains non-finite values")


def build_metric_series(
    trace: PaceTrace,
    instance: MarketInstance,
    seq: ItemSequence,
    hs_beta,
    hs_u,
    star_beta,
    star_u,
    metadata: Optional[Dict[str, object]] = None,
) -> MetricSeries:
    """All standard error curves of one run on its recording grid.

    Multiplier errors compare the post-step multiplier against the
    benchmark; utility, spend, regret, envy, and baseline curves use the
    prefix of steps up to each grid point.
    """
    times = trace.record_times
    n = trace.n
    hs_beta = np.asarray(hs_beta, dtype=np.float64)
    hs_u = np.asarray(hs_u, dtype=np.float64)
    star_beta = np.asarray(star_beta, dtype=np.float64)
    star_u = np.asarray(star_u, dtype=np.float64)

    values: Dict[str, np.ndarray] = {}
    values["rel_beta_hs"] = np.max(np.abs(trace.beta_at - hs_beta) / hs_beta, axis=1)
    values["rel_u_hs"] = np.max(np.abs(trace.u_bar_at - hs_u) / hs_u, axis=1)
    values["rel_beta_star"] = np.max(np.abs(trace.beta_at - star_beta) / star_beta, axis=1)
    values["rel_u_star"] = np.max(np.abs(trace.u_bar_at - star_u) / star_u, axis=1)
    values["mse_beta_star"] = ((trace.beta_at - star_beta) ** 2).sum(axis=1)
    values["mse_u_star"] = ((trace.u_bar_at - star_u) ** 2).sum(axis=1)
    values["mse_expenditure"] = ((trace.spend_avg_at - 1.0 / n) ** 2).sum(axis=1)
    values["regret_max"] = times * np.max(hs_u - trace.u_bar_at, axis=1)

    # prefix walks shared by the envy and baseline curves, one grid chunk
    # of (steps, n) item values at a time. S gathers the chunk's rows by
    # flat index, winner * n + agent: the 1-d np.add.at is several times
    # faster than the 2-d one and adds to each entry in the same step order
    VT = np.ascontiguousarray(instance.valuations.T)  # (m, n)
    S = np.zeros((n, n))
    block_steps = max(1, _ENVY_BLOCK // n)
    agents = np.arange(n)
    value_totals = np.zeros(n)
    envy_max = np.empty(times.size)
    baseline = np.empty(times.size)
    start = 0
    for k, stop in enumerate(times):
        chunk = VT[seq.items[start:stop]]
        winners = trace.winners[start:stop]
        for b in range(0, stop - start, block_steps):
            flat = (winners[b : b + block_steps, None] * n + agents).ravel()
            np.add.at(S.reshape(-1), flat, chunk[b : b + block_steps].ravel())
        value_totals += chunk.sum(axis=0)
        envy_max[k] = np.max(S.max(axis=0) - np.diag(S))
        baseline_u = instance.budgets * value_totals / stop
        baseline[k] = np.max(np.abs(baseline_u - hs_u) / hs_u)
        start = stop
        del chunk  # free it before the next chunk is built
    values["envy_max"] = envy_max
    values["baseline_rel_u_hs"] = baseline

    return MetricSeries(times=times, values=values, metadata=dict(metadata or {}))
