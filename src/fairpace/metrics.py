"""Performance metrics of a run relative to equilibrium benchmarks."""

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import DimensionMismatch
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


# Most points a recording grid may have. A pacing trace keeps three
# (points x n) snapshot arrays per path until its batch is scored, 2.4 MB
# per path at n = 100 and this many points. The default grid (dense to 100,
# factor 1.1) has 156 points at t = 20000 and 197 at t = 1e6, while a factor
# just above 1 records nearly every step: 20 000 points at t = 20000.
MAX_GRID_POINTS = 1000


def recording_grid(t: int, dense_until: int = 100, factor: float = 1.1) -> np.ndarray:
    """Every step up to dense_until, then geometric spacing, always ending at t.

    Raises ValueError for a grid of more than MAX_GRID_POINTS points, before
    building more of it than that.
    """
    if t < 1:
        raise ValueError("horizon must be positive")
    if not 1.0 < factor < np.inf:
        raise ValueError(f"need grid.factor finite and above 1, got {factor!r}")
    too_long = ValueError(
        f"recording grid for t={t} has more than MAX_GRID_POINTS = {MAX_GRID_POINTS} points; "
        "lower grid.dense_until or raise grid.factor"
    )
    if min(t, dense_until) > MAX_GRID_POINTS:
        raise too_long
    times = list(range(1, min(t, dense_until) + 1))
    cur = float(times[-1])
    while times[-1] < t:
        if len(times) == MAX_GRID_POINTS:
            raise too_long
        cur *= factor
        times.append(min(t, max(times[-1] + 1, int(round(cur)))))
    return np.asarray(times, dtype=np.int64)


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
        baseline_u = (1.0 / n) * value_totals / stop
        baseline[k] = np.max(np.abs(baseline_u - hs_u) / hs_u)
        start = stop
        del chunk  # free it before the next chunk is built
    values["envy_max"] = envy_max
    values["baseline_rel_u_hs"] = baseline

    return MetricSeries(times=times, values=values, metadata=dict(metadata or {}))
