"""Performance metrics of a run relative to equilibrium benchmarks."""

from typing import Dict, List, Optional

import numpy as np

from .errors import ConfigError
from .market import ItemSequence, MarketInstance, check_horizon
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


# A BatchScorer gathers the item values of at most this many (step, path,
# agent) entries at once, with their envy-sum flat indices: 128 KiB of each.
# Gathered for a whole grid chunk, which spans about 9% of t, the values
# alone took 13.5 MB at t = 2e5 and n = 100, so the metric layer grew with t.
_ENVY_BLOCK = 16384


# Most points a recording grid may have. `fairpace run` keeps no snapshots:
# per batch it holds the sequences, the (paths, n, n) envy sums, the pacing
# and scoring buffers of fixed size, and each curve's (paths, points)
# values. A recorded trace (`pace.run_pace_paths`) keeps three (points x n)
# snapshot arrays per path, 2.4 MB at n = 100 and this many points. The
# default grid (dense to 100, factor 1.1) has 156 points at t = 20000 and
# 197 at t = 1e6, while a factor just above 1 records nearly every step:
# 20 000 points at t = 20000.
MAX_GRID_POINTS = 1000


def recording_grid(t: int, dense_until: int = 100, factor: float = 1.1) -> np.ndarray:
    """Every step up to dense_until, then geometric spacing, always ending at t.

    Raises ValueError for a grid of more than MAX_GRID_POINTS points, before
    building more of it than that, and ConfigError for a horizon that fails
    `check_horizon`.
    """
    t = check_horizon(t)
    if dense_until < 1:
        raise ValueError(f"grid.dense_until must be positive, got {dense_until!r}")
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


class MetricSeries:
    """Named error curves over the recording grid of one run."""

    def __init__(self, times: np.ndarray, values: Dict[str, np.ndarray], metadata=None):
        for name, vals in values.items():
            if len(vals) != len(times):
                raise ConfigError(f"metric {name} is not aligned with times")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"metric {name} contains non-finite values")
        self.times, self.values = times, values
        self.metadata = {} if metadata is None else metadata


class BatchScorer:
    """All METRIC_NAMES curves of P paths, scored while they are paced.

    A consumer of `pace.pace_lockstep`, which hands it each finished chunk
    of steps and the state at each recording time. hs_beta and hs_u hold a
    row per path; star_beta and star_u are shared.

    Multiplier errors compare the post-step multiplier against the
    benchmark; utility, spend, regret, envy, and baseline curves use the
    prefix of steps up to each grid point. Beside the curves, the scorer
    keeps the envy sums S, (P, n, n), where S[p, w, a] is agent a's total
    value for the items path p gave to w, and buffers of fixed size: its
    memory grows with neither t nor the grid. The envy curve compares S's
    column maxima with its diagonal, and the baseline takes S's sum over
    winners, each agent's value for every item so far. S adds each entry
    in step order whatever the blocks, so the curves do not depend on how
    the steps are batched.
    """

    def __init__(self, instance: MarketInstance, times, hs_beta, hs_u, star_beta, star_u):
        self.times = np.asarray(times, dtype=np.int64)
        self.hs_beta, self.hs_u = (np.asarray(x, dtype=np.float64) for x in (hs_beta, hs_u))
        self.star_beta = np.asarray(star_beta, dtype=np.float64)
        self.star_u = np.asarray(star_u, dtype=np.float64)
        P, n = self.hs_u.shape
        self.VT = instance.by_item
        self.values = {name: np.empty((P, self.times.size)) for name in METRIC_NAMES}
        self.S = np.zeros((P, n, n))
        # S's flat index of (path p, winner w, agent a) is p n^2 + w n + a
        self.path_start = np.arange(P) * (n * n)
        self.agents = np.arange(n)
        # a block of steps' item values, (steps, P, n), and their flat indices
        self.block_steps = max(1, _ENVY_BLOCK // (P * n))
        self.block = np.empty((self.block_steps, P, n))
        self.flat = np.empty((self.block_steps, P, n), dtype=np.intp)
        self.col_max = np.empty((P, n))

    def steps(self, start, items, winners):
        """Add a chunk of steps, (steps, P) items and winners, to the sums;
        start, the chunk's first step, is unused."""
        n = self.hs_u.shape[1]
        S_flat = self.S.reshape(-1)
        for lo in range(0, len(winners), self.block_steps):
            hi = min(lo + self.block_steps, len(winners))
            block = self.block[: hi - lo]
            # items are checked before pacing; mode="clip" writes `block` unbuffered
            self.VT.take(items[lo:hi], axis=0, out=block, mode="clip")
            flat = self.flat[: hi - lo]
            np.add((winners[lo:hi] * n + self.path_start)[:, :, None], self.agents, out=flat)
            # the flat np.add.at is several times faster than the 3-d one and
            # adds to each entry in the same step order
            np.add.at(S_flat, flat.reshape(-1), block.reshape(-1))

    def snapshot(self, rec, beta, u_bar, spend_avg):
        """Score every path at grid point rec from its (P, n) state."""
        P, n = self.hs_u.shape
        stop = self.times[rec]
        hs_beta, hs_u, star_beta, star_u = self.hs_beta, self.hs_u, self.star_beta, self.star_u
        values = self.values
        values["rel_beta_hs"][:, rec] = np.max(np.abs(beta - hs_beta) / hs_beta, axis=1)
        values["rel_u_hs"][:, rec] = np.max(np.abs(u_bar - hs_u) / hs_u, axis=1)
        values["rel_beta_star"][:, rec] = np.max(np.abs(beta - star_beta) / star_beta, axis=1)
        values["rel_u_star"][:, rec] = np.max(np.abs(u_bar - star_u) / star_u, axis=1)
        values["mse_beta_star"][:, rec] = ((beta - star_beta) ** 2).sum(axis=1)
        values["mse_u_star"][:, rec] = ((u_bar - star_u) ** 2).sum(axis=1)
        values["mse_expenditure"][:, rec] = ((spend_avg - 1.0 / n) ** 2).sum(axis=1)
        values["regret_max"][:, rec] = stop * np.max(hs_u - u_bar, axis=1)

        self.S.max(axis=1, out=self.col_max)
        diagonal = self.S.reshape(P, n * n)[:, :: n + 1]
        values["envy_max"][:, rec] = np.max(self.col_max - diagonal, axis=1)
        # summed over winners, S holds each agent's value for every item so far
        baseline_u = (1.0 / n) * self.S.sum(axis=1) / stop
        values["baseline_rel_u_hs"][:, rec] = np.max(np.abs(baseline_u - hs_u) / hs_u, axis=1)

    def series(self, metadata) -> List[MetricSeries]:
        """Each path's curves, given one metadata dict per path."""
        return [
            MetricSeries(
                times=self.times,
                values={name: curves[p] for name, curves in self.values.items()},
                metadata=dict(meta or {}),
            )
            for p, meta in enumerate(metadata)
        ]


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
    """All standard error curves of one recorded run on its recording grid.

    Feeds the trace through a one-path `BatchScorer`, a grid chunk at a
    time, so the curves are bit for bit those of scoring while pacing.
    `fairpace run` does not call it; perfbench's replay and the metric
    tests do.
    """
    instance.check_items(seq.items)
    hs_beta, hs_u = (np.asarray(x, dtype=np.float64)[None] for x in (hs_beta, hs_u))
    scorer = BatchScorer(instance, trace.record_times, hs_beta, hs_u, star_beta, star_u)
    state = (trace.beta_at, trace.u_bar_at, trace.spend_avg_at)
    start = 0
    for rec, stop in enumerate(trace.record_times.tolist()):
        items, winners = seq.items[start:stop, None], trace.winners[start:stop, None]
        scorer.steps(start, items, winners)
        scorer.snapshot(rec, *(x[rec : rec + 1] for x in state))
        start = stop
    return scorer.series([metadata])[0]
