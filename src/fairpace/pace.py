"""Paced first-price auction dynamics.

Every arriving item is sold in a first-price auction where agent i bids
beta_i times their value, ties going to the smallest index. The winner's
realized value feeds a running average utility, and each multiplier is the
clamped reciprocal beta_i = clamp(1 / (n u_bar_i)) over the box
[1 / ((1 + delta0) n), 1 + delta0].

`run_pace` is the one implementation of the auction and the update. The
update is exactly composite dual averaging with the log-barrier
regularizer, and `equivalence_with_da` checks it step by step against the
generic `dual_averaging.da_step`, the independent reference.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .dual_averaging import (
    LogBarrierRegularizer,
    RegretBoundResult,
    da_step,
    initial_state,
    regret_bound_check,
)
from .errors import DimensionMismatch
from .market import ItemSequence, MarketInstance


def pacing_box(n: int, delta0: float) -> Tuple[float, float]:
    """Multiplier bounds [1/((1+delta0) n), 1+delta0]."""
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    return 1.0 / ((1.0 + delta0) * n), 1.0 + delta0


@dataclass(frozen=True)
class PaceTrace:
    """Per-step record of one run plus snapshots on a recording grid.

    Snapshots taken "at step tau" hold the multiplier vector produced by
    that step (the one that will bid on the next item), the running average
    utility over the first tau steps, and the average expenditure over the
    first tau steps.
    """

    n: int
    t: int
    delta0: float
    winners: np.ndarray
    winner_values: np.ndarray
    winning_bids: np.ndarray
    record_times: np.ndarray
    beta_at: np.ndarray
    u_bar_at: np.ndarray
    spend_avg_at: np.ndarray
    beta_final: np.ndarray
    u_bar_final: np.ndarray
    spend_avg_final: np.ndarray
    betas: Optional[np.ndarray] = None


def run_pace(
    instance: MarketInstance,
    seq: ItemSequence,
    delta0: float = 1.0,
    record_times: Optional[Sequence[int]] = None,
    record_betas: bool = False,
) -> PaceTrace:
    """Run the dynamics over a full sequence; deterministic in its inputs."""
    n = instance.n
    items = seq.items
    if items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    t = items.size
    if record_times is None:
        times = np.array([t], dtype=np.int64)
    else:
        times = np.asarray(record_times, dtype=np.int64)
        if times.size and (
            times.min() < 1 or times.max() > t or np.any(np.diff(times) <= 0)
        ):
            raise ValueError("record_times must be strictly increasing within [1, t]")
    lo, hi = pacing_box(n, delta0)
    VT = np.ascontiguousarray(instance.valuations.T)  # (m, n) row per item

    beta = np.full(n, hi)
    u_bar = np.zeros(n)
    spend = np.zeros(n)
    winners = np.empty(t, dtype=np.int64)
    winner_values = np.empty(t)
    winning_bids = np.empty(t)
    betas = None
    if record_betas:
        betas = np.empty((t + 1, n))
        betas[0] = beta
    k = times.size
    beta_at = np.empty((k, n))
    u_bar_at = np.empty((k, n))
    spend_avg_at = np.empty((k, n))
    next_rec = 0

    with np.errstate(divide="ignore"):
        for s, item in enumerate(items.tolist()):
            values = VT[item]
            bids = beta * values
            w = int(np.argmax(bids))
            winners[s] = w
            winner_values[s] = values[w]
            winning_bids[s] = bids[w]
            spend[w] += bids[w]
            tau = s + 1
            scaled = (tau - 1.0) * u_bar
            scaled[w] += values[w]
            u_bar = scaled / tau
            beta = np.clip(1.0 / (n * u_bar), lo, hi)
            if record_betas:
                betas[tau] = beta
            if next_rec < k and times[next_rec] == tau:
                beta_at[next_rec] = beta
                u_bar_at[next_rec] = u_bar
                spend_avg_at[next_rec] = spend / tau
                next_rec += 1

    return PaceTrace(
        n=n,
        t=t,
        delta0=delta0,
        winners=winners,
        winner_values=winner_values,
        winning_bids=winning_bids,
        record_times=times,
        beta_at=beta_at,
        u_bar_at=u_bar_at,
        spend_avg_at=spend_avg_at,
        beta_final=beta,
        u_bar_final=u_bar,
        spend_avg_final=spend / t,
        betas=betas,
    )


def equivalence_with_da(
    instance: MarketInstance,
    seq: ItemSequence,
    delta0: float = 1.0,
    tol: float = 1e-12,
) -> bool:
    """Replay the run through the generic averaging loop and compare.

    The generic route uses the auction subgradient (the winner's value on
    the winner's coordinate) with the log-barrier regularizer on the pacing
    box. Returns True iff both multiplier trajectories agree coordinatewise
    within tol at every step.
    """
    trace = run_pace(instance, seq, delta0, record_betas=True)
    n = instance.n
    reg = LogBarrierRegularizer(n, *pacing_box(n, delta0))
    state = initial_state(reg)
    V = instance.valuations
    for s, item in enumerate(seq.items):
        if np.max(np.abs(state.w - trace.betas[s])) > tol:
            return False
        values = V[:, item]
        winner = int(np.argmax(state.w * values))
        g = np.zeros(n)
        g[winner] = values[winner]
        state = da_step(state, g, reg)
    return bool(np.max(np.abs(state.w - trace.betas[seq.t])) <= tol)


def regret_diagnostic(
    trace: PaceTrace,
    instance: MarketInstance,
    seq: ItemSequence,
    w_ref,
    sigma: Optional[float] = None,
) -> RegretBoundResult:
    """Evaluate the averaging suboptimality bound for a recorded run.

    Requires a trace recorded with record_betas=True. sigma defaults to 1/n,
    the curvature constant the box interval is built around.
    """
    if trace.betas is None:
        raise ValueError("regret diagnostic needs the full multiplier trajectory")
    n = trace.n
    if sigma is None:
        sigma = 1.0 / n
    w_ref = np.asarray(w_ref, dtype=np.float64)
    barrier = -np.log(trace.betas[:-1]).sum(axis=1) / n
    objective_values = trace.winning_bids + barrier
    step_values = instance.valuations.T[seq.items]  # (t, n)
    ref_barrier = -float(np.log(w_ref).sum()) / n
    ref_objective_values = (step_values * w_ref).max(axis=1) + ref_barrier
    # the auction subgradient: the winner's value on the winner's coordinate
    subgradients = np.zeros((trace.t, n))
    subgradients[np.arange(trace.t), trace.winners] = trace.winner_values
    return regret_bound_check(
        trace.betas,
        subgradients,
        objective_values,
        ref_objective_values,
        w_ref,
        sigma,
    )
