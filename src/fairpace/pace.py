"""Paced first-price auction dynamics.

Every arriving item is sold in a first-price auction where agent i bids
beta_i times their value, ties going to the smallest index. The winner's
realized value feeds a running average utility, and each multiplier is the
clamped reciprocal beta_i = clamp(1 / (n u_bar_i)) over the box
[1 / ((1 + delta0) n), 1 + delta0].

One loop implements the auction and the update. It runs many sample
paths in lockstep and hands each chunk of steps and each snapshot to a
consumer: `pace_lockstep` takes the consumer (`fairpace run` passes a
`metrics.BatchScorer`, which scores the paths as they pace), and
`run_pace_paths` records traces of the winners and snapshots, with
`run_pace` its one-path case. The update is exactly composite dual
averaging with the log-barrier regularizer, and `equivalence_with_da`
checks it step by step against the generic `dual_averaging.da_step`, the
independent reference.

The loop's time is per numpy call, and a Python scalar operand adds to
each call: the ufunc converts it anew every time (NEP 50 promotion). With
numpy 2.4 on (4, 100) arrays a call took 0.67-0.82 us with a scalar and
0.43-0.63 us with a 0-d float64 array of the same value. So every per-step
operand is an array, with tau - 1 and tau as 0-d views into a float64
range per chunk of steps; the values, and so every result's bits, are
unchanged.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .market import ItemSequence, MarketInstance


# Largest delta0 the package accepts. The dual solve squares the box's
# upper end 1 + delta0, which overflows above about 1.3e154.
MAX_DELTA0 = 1e150


def check_delta0(delta0: float) -> float:
    """delta0, once 0 < delta0 <= MAX_DELTA0 (NaN fails); else ConfigError."""
    if not 0.0 < delta0 <= MAX_DELTA0:
        raise ConfigError(f"delta0 must be positive and at most {MAX_DELTA0:g}, got {delta0!r}")
    return delta0


def pacing_box(n: int, delta0: float) -> Tuple[float, float]:
    """Multiplier bounds [1/((1+delta0) n), 1+delta0].

    Raises ConfigError if delta0 fails `check_delta0` or the box is empty,
    as for one agent when 1 + delta0 rounds to 1 (delta0 below about
    1.1e-16).
    """
    check_delta0(delta0)
    lo, hi = 1.0 / ((1.0 + delta0) * n), 1.0 + delta0
    if not lo < hi:
        raise ConfigError(
            f"delta0 {delta0!r} leaves an empty pacing box for n={n}: 1 + delta0 rounds to 1"
        )
    return lo, hi


class PaceTrace(NamedTuple):
    """Winners of one run plus snapshots on a recording grid.

    Every trace holds `winners`, the winning agent of each of the t steps
    (int64), and the snapshots. Snapshots taken "at step tau" hold the
    multiplier vector produced by that step (the one that will bid on the
    next item), the running average utility over the first tau steps, and
    the average expenditure over the first tau steps. The grid ends at t,
    so the last snapshot is the final state.

    A trace recorded with record_betas=True also holds the full trajectory:
    `betas`, the t + 1 multiplier vectors from the start point on, and each
    step's `winner_values` (v_w,item) and `winning_bids` (beta_w v_w,item,
    the price paid), formed after the run from the winners and `betas`.
    Otherwise those three are None. So a trace keeps 8 bytes per path-step
    plus the snapshots; the full trajectory adds 8 (n + 2) more. `fairpace
    run` keeps no trace: it scores each batch as it paces
    (`pace_lockstep`).
    """

    n: int
    t: int
    winners: np.ndarray
    winner_values: Optional[np.ndarray]
    winning_bids: Optional[np.ndarray]
    record_times: np.ndarray
    beta_at: np.ndarray
    u_bar_at: np.ndarray
    spend_avg_at: np.ndarray
    betas: Optional[np.ndarray] = None


# Most steps one pass of the loop buffers before it adds their winning bids
# to spend and hands them on. Chunks end at every recording time and every
# multiple of _CHUNK, so the buffers stay (_CHUNK, P) at any horizon and
# grid.
_CHUNK = 1024


def _lockstep_times(instance: MarketInstance, seqs: Sequence[ItemSequence], record_times):
    """The recording grid of a lockstep run, once its inputs are valid."""
    if len(seqs) == 0:
        raise ValueError("need at least one sequence")
    t = seqs[0].t
    if any(seq.t != t for seq in seqs):
        raise ConfigError("lockstep sequences must have equal lengths")
    for seq in seqs:
        instance.check_items(seq.items)
    times = np.asarray([t] if record_times is None else record_times, dtype=np.int64)
    bounded = times.ndim == 1 and times.size > 0 and times[0] >= 1 and times[-1] == t
    if not bounded or np.any(np.diff(times) <= 0):
        raise ValueError("record_times must strictly increase from at least 1 and end at t")
    return times


def pace_lockstep(
    instance: MarketInstance,
    seqs: Sequence[ItemSequence],
    delta0: float,
    record_times: Optional[Sequence[int]],
    consumer,
) -> None:
    """Run the dynamics over P equal-length sequences in lockstep, handing
    each chunk and snapshot to consumer; nothing is kept.

    After each chunk of steps the loop calls consumer.steps(start, items,
    winners): the chunk's first step and its (steps, P) items and winners.
    Chunks end at every recording time and every multiple of _CHUNK. At
    each recording time, after its chunk, it calls consumer.snapshot(rec,
    beta, u_bar, spend_avg): the grid index and the (P, n) multipliers,
    average utilities and average expenditure. The arrays are the loop's
    own and change as it goes on.

    The recording grid must strictly increase from at least 1 and end at
    t; None records only step t.
    """
    _pace(instance, seqs, delta0, _lockstep_times(instance, seqs, record_times), consumer)


def _pace(instance, seqs, delta0, times, consumer, betas=None) -> None:
    """The lockstep loop on checked inputs; fills betas (P, t + 1, n) if given."""
    n = instance.n
    P = len(seqs)
    t = seqs[0].t
    lo, hi = pacing_box(n, delta0)
    VT = instance.by_item

    beta = np.full((P, n), hi)
    u_bar = np.zeros((P, n))
    spend = np.zeros((P, n))
    spend_avg = np.empty((P, n))
    values = np.empty((P, n))
    bids = np.empty((P, n))
    # flat views: row p's winner w sits at p * n + w
    u_flat, spend_flat = u_bar.reshape(-1), spend.reshape(-1)
    values_flat, bids_flat = values.reshape(-1), bids.reshape(-1)
    row_start = np.arange(P) * n
    flat_w = np.empty(P, dtype=np.intp)
    grid = times.tolist()
    stops = sorted({*grid, *range(_CHUNK, t, _CHUNK)})
    longest = max(stop - start for start, stop in zip([0, *stops], stops))
    # one row per step of the current chunk
    chunk_items = np.empty((longest, P), dtype=np.int64)
    chunk_winners = np.empty((longest, P), dtype=np.intp)
    chunk_bids = np.empty((longest, P))
    if betas is not None:
        betas[:, 0] = beta
    # 0-d operands (module docstring)
    n_, one, lo_, hi_ = (np.array(x, dtype=np.float64) for x in (n, 1.0, lo, hi))
    multiply, divide, add = np.multiply, np.divide, np.add
    maximum, minimum = np.maximum, np.minimum
    take, argmax = VT.take, bids.argmax

    start = rec = 0
    with np.errstate(divide="ignore"):
        for stop in stops:
            steps = stop - start
            np.stack([seq.items[start:stop] for seq in seqs], axis=1, out=chunk_items[:steps])
            # counts[i] is tau - 1 at the chunk's step i
            counts = np.arange(start, stop + 1, dtype=np.float64)
            for i in range(steps):
                # items are checked above; mode="clip" writes `values` unbuffered
                take(chunk_items[i], axis=0, out=values, mode="clip")
                multiply(beta, values, out=bids)
                add(row_start, argmax(axis=1, out=chunk_winners[i]), out=flat_w)
                chunk_bids[i] = bids_flat[flat_w]
                multiply(u_bar, counts[i, ...], out=u_bar)
                u_flat[flat_w] += values_flat[flat_w]
                divide(u_bar, counts[i + 1, ...], out=u_bar)
                multiply(u_bar, n_, out=beta)
                divide(one, beta, out=beta)
                maximum(beta, lo_, out=beta)
                minimum(beta, hi_, out=beta)
                if betas is not None:
                    betas[:, start + i + 1] = beta
            # add.at adds each path's winning bids in step order, the same
            # sums a running total makes
            np.add.at(
                spend_flat,
                (chunk_winners[:steps] + row_start).reshape(-1),
                chunk_bids[:steps].reshape(-1),
            )
            consumer.steps(start, chunk_items[:steps], chunk_winners[:steps])
            if stop == grid[rec]:
                divide(spend, stop, out=spend_avg)
                consumer.snapshot(rec, beta, u_bar, spend_avg)
                rec += 1
            start = stop


class _TraceRecorder:
    """The consumer that keeps each path's winners and snapshots."""

    def __init__(self, P: int, n: int, t: int, times: np.ndarray):
        self.winners = np.empty((P, t), dtype=np.int64)
        self.beta_at, self.u_bar_at, self.spend_avg_at = np.empty((3, P, times.size, n))

    def steps(self, start, items, winners):
        self.winners[:, start : start + len(winners)] = winners.T

    def snapshot(self, rec, beta, u_bar, spend_avg):
        self.beta_at[:, rec] = beta
        self.u_bar_at[:, rec] = u_bar
        self.spend_avg_at[:, rec] = spend_avg


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
    times = _lockstep_times(instance, seqs, record_times)
    n, P, t = instance.n, len(seqs), seqs[0].t
    recorder = _TraceRecorder(P, n, t, times)
    betas = np.empty((P, t + 1, n)) if record_betas else None
    _pace(instance, seqs, delta0, times, recorder, betas)
    winner_values = winning_bids = None
    if record_betas:
        items = np.stack([seq.items for seq in seqs])
        winner_values = instance.by_item[items, recorder.winners]
        # each step's winning bid is the product the loop formed: the
        # winner's multiplier before the step times its value
        bidders = np.take_along_axis(betas[:, :-1], recorder.winners[:, :, None], axis=2)
        winning_bids = bidders[:, :, 0] * winner_values
    return [
        PaceTrace(
            n=n,
            t=t,
            winners=recorder.winners[p],
            winner_values=None if winner_values is None else winner_values[p],
            winning_bids=None if winning_bids is None else winning_bids[p],
            record_times=times,
            beta_at=recorder.beta_at[p],
            u_bar_at=recorder.u_bar_at[p],
            spend_avg_at=recorder.spend_avg_at[p],
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
