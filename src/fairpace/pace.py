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

The loop's time is per numpy call, and a Python scalar operand adds to
each call: the ufunc converts it anew every time (NEP 50 promotion). With
numpy 2.4 on (4, 100) arrays a call took 0.67-0.82 us with a scalar and
0.43-0.63 us with a 0-d float64 array of the same value. So every per-step
operand is an array, with tau - 1 and tau as 0-d views into one float64
range; the values, and so every result's bits, are unchanged.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionMismatch, LengthMismatch
from .market import ItemSequence, MarketInstance


# Largest delta0 that a config or `fairpace solve` accepts. The dual solve
# squares the box's upper end 1 + delta0, which overflows above about 1.3e154.
MAX_DELTA0 = 1e150


def pacing_box(n: int, delta0: float) -> Tuple[float, float]:
    """Multiplier bounds [1/((1+delta0) n), 1+delta0].

    Raises ConfigError if the box is empty, as for one agent when 1 + delta0
    rounds to 1 (delta0 below about 1.1e-16).
    """
    if delta0 <= 0:
        raise ValueError("delta0 must be positive")
    lo, hi = 1.0 / ((1.0 + delta0) * n), 1.0 + delta0
    if not lo < hi:
        raise ConfigError(
            f"delta0 {delta0!r} leaves an empty pacing box for n={n}: 1 + delta0 rounds to 1"
        )
    return lo, hi


class PaceTrace(NamedTuple):
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
    # 0-d operands (module docstring); counts[s] is tau - 1 at step s
    n_, one, lo_, hi_ = (np.array(x, dtype=np.float64) for x in (n, 1.0, lo, hi))
    counts = np.arange(t + 1, dtype=np.float64)
    multiply, divide, add = np.multiply, np.divide, np.add
    maximum, minimum = np.maximum, np.minimum
    take, argmax = VT.take, bids.argmax

    start = 0
    with np.errstate(divide="ignore"):
        for rec, stop in enumerate(times.tolist()):
            for s in range(start, stop):
                # items are checked above; mode="clip" writes `values` unbuffered
                take(items[s], axis=0, out=values, mode="clip")
                multiply(beta, values, out=bids)
                add(row_start, argmax(axis=1, out=winners[s]), out=flat_w)
                winning_bids[s] = bids_flat[flat_w]
                multiply(u_bar, counts[s, ...], out=u_bar)
                u_flat[flat_w] += values_flat[flat_w]
                divide(u_bar, counts[s + 1, ...], out=u_bar)
                multiply(u_bar, n_, out=beta)
                divide(one, beta, out=beta)
                maximum(beta, lo_, out=beta)
                minimum(beta, hi_, out=beta)
                if record_betas:
                    betas[:, s + 1] = beta
            # spend is only read at the recording times, so it is summed
            # there: add.at adds each path's winning bids in step order, the
            # same sums a running total makes
            np.add.at(
                spend_flat,
                (winners[start:stop] + row_start).reshape(-1),
                winning_bids[start:stop].reshape(-1),
            )
            beta_at[:, rec] = beta
            u_bar_at[:, rec] = u_bar
            divide(spend, stop, out=spend_avg_at[:, rec])
            start = stop

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
