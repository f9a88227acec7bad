"""Paced first-price auction dynamics.

Every arriving item is sold in a first-price auction where agent i bids
beta_i times their value, ties going to the smallest index. The winner's
realized value feeds a running average utility, and each multiplier is the
clamped reciprocal beta_i = clamp(1 / (n u_bar_i)) over the box
[1 / ((1 + delta0) n), 1 + delta0].

`run_pace_paths` is the one implementation of the auction and the update;
it runs many sample paths in lockstep, and `run_pace` is its one-path
case. The update is exactly composite dual averaging with the log-barrier
regularizer, and `equivalence_with_da` checks it step by step against the
generic `dual_averaging.da_step`, the independent reference.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, LengthMismatch
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
    first tau steps. The grid ends at t, so the last snapshot is the final
    state.
    """

    n: int
    t: int
    winners: np.ndarray
    winner_values: np.ndarray
    winning_bids: np.ndarray
    record_times: np.ndarray
    beta_at: np.ndarray
    u_bar_at: np.ndarray
    spend_avg_at: np.ndarray
    betas: Optional[np.ndarray] = None


def run_pace_paths(
    instance: MarketInstance,
    seqs: Sequence[ItemSequence],
    delta0: float = 1.0,
    record_times: Optional[Sequence[int]] = None,
    record_betas: bool = False,
) -> List[PaceTrace]:
    """Run the dynamics over P equal-length sequences in lockstep.

    Path p's state is row p of (P, n) arrays, and every step applies the
    same elementwise operations to each row that a single run would, so
    each returned trace is bit-identical to running its sequence alone.
    The recording grid must strictly increase from at least 1 and end at
    t; None records only step t.
    """
    n = instance.n
    P = len(seqs)
    if P == 0:
        raise ValueError("need at least one sequence")
    t = seqs[0].t
    if any(seq.t != t for seq in seqs):
        raise LengthMismatch("lockstep sequences must have equal lengths")
    items = np.stack([seq.items for seq in seqs], axis=1)  # (t, P) row per step
    if items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    times = np.asarray([t] if record_times is None else record_times, dtype=np.int64)
    bounded = times.ndim == 1 and times.size > 0 and times[0] >= 1 and times[-1] == t
    if not bounded or np.any(np.diff(times) <= 0):
        raise ValueError("record_times must strictly increase from at least 1 and end at t")
    lo, hi = pacing_box(n, delta0)
    VT = np.ascontiguousarray(instance.valuations.T)  # (m, n) row per item

    beta = np.full((P, n), hi)
    u_bar = np.zeros((P, n))
    spend = np.zeros((P, n))
    values = np.empty((P, n))
    bids = np.empty((P, n))
    # flat views: row p's winner w sits at p * n + w
    u_flat, spend_flat = u_bar.reshape(-1), spend.reshape(-1)
    values_flat, bids_flat = values.reshape(-1), bids.reshape(-1)
    row_start = np.arange(P) * n
    flat_w = np.empty(P, dtype=np.intp)
    # per-step records, one row per step, transposed to one row per path below
    winners = np.empty((t, P), dtype=np.intp)
    winning_bids = np.empty((t, P))
    betas = None
    if record_betas:
        betas = np.empty((P, t + 1, n))
        betas[:, 0] = beta
    beta_at = np.empty((P, times.size, n))
    u_bar_at = np.empty((P, times.size, n))
    spend_avg_at = np.empty((P, times.size, n))
    # spend is only read at the recording times, so it is summed there:
    # add.at adds each path's winning bids in step order, the same sums a
    # running total makes
    stops = times.tolist()
    summed = rec = 0

    with np.errstate(divide="ignore"):
        for s in range(t):
            # items are checked above; mode="clip" writes `values` unbuffered
            VT.take(items[s], axis=0, out=values, mode="clip")
            np.multiply(beta, values, out=bids)
            np.add(row_start, bids.argmax(axis=1, out=winners[s]), out=flat_w)
            winning_bids[s] = bids_flat[flat_w]
            tau = s + 1
            np.multiply(u_bar, tau - 1.0, out=u_bar)
            u_flat[flat_w] += values_flat[flat_w]
            np.divide(u_bar, tau, out=u_bar)
            np.multiply(u_bar, n, out=beta)
            np.divide(1.0, beta, out=beta)
            np.maximum(beta, lo, out=beta)
            np.minimum(beta, hi, out=beta)
            if record_betas:
                betas[:, tau] = beta
            if tau == stops[rec]:
                np.add.at(
                    spend_flat,
                    (winners[summed:tau] + row_start).reshape(-1),
                    winning_bids[summed:tau].reshape(-1),
                )
                summed = tau
                beta_at[:, rec] = beta
                u_bar_at[:, rec] = u_bar
                np.divide(spend, tau, out=spend_avg_at[:, rec])
                rec += 1

    winners = np.ascontiguousarray(winners.T, dtype=np.int64)
    winning_bids = np.ascontiguousarray(winning_bids.T)
    winner_values = VT[items.T, winners]
    return [
        PaceTrace(
            n=n,
            t=t,
            winners=winners[p],
            winner_values=winner_values[p],
            winning_bids=winning_bids[p],
            record_times=times,
            beta_at=beta_at[p],
            u_bar_at=u_bar_at[p],
            spend_avg_at=spend_avg_at[p],
            betas=None if betas is None else betas[p],
        )
        for p in range(P)
    ]


def run_pace(
    instance: MarketInstance,
    seq: ItemSequence,
    delta0: float = 1.0,
    record_times: Optional[Sequence[int]] = None,
    record_betas: bool = False,
) -> PaceTrace:
    """Run the dynamics over a full sequence; deterministic in its inputs."""
    return run_pace_paths(instance, [seq], delta0, record_times, record_betas)[0]


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
    # imported here and in regret_diagnostic, which `fairpace run` never calls
    from .dual_averaging import LogBarrierRegularizer, da_step, initial_state

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
) -> "RegretBoundResult":
    """Evaluate the averaging suboptimality bound for a recorded run.

    Requires a trace recorded with record_betas=True. sigma defaults to 1/n,
    the curvature constant the box interval is built around.
    """
    from .dual_averaging import regret_bound_check

    if trace.betas is None:
        raise ValueError("regret diagnostic needs the full multiplier trajectory")
    n = trace.n
    if sigma is None:
        sigma = 1.0 / n
    w_ref = np.asarray(w_ref, dtype=np.float64)
    barrier = -np.log(trace.betas[:-1]).sum(axis=1) / n
    objective_values = trace.winning_bids + barrier
    ref_barrier = -float(np.log(w_ref).sum()) / n
    # each item's best bid at w_ref, looked up per step: no (t, n) matrix
    best_bids = (instance.valuations.T * w_ref).max(axis=1)
    ref_objective_values = best_bids[seq.items] + ref_barrier
    # the auction subgradient is the winner's value on the winner's
    # coordinate, so its squared norm is that value squared
    return regret_bound_check(
        trace.betas,
        trace.winner_values**2,
        objective_values,
        ref_objective_values,
        w_ref,
        sigma,
    )
