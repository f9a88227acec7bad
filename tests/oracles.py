"""Independent oracles the tests check the library against.

The library computes these quantities only as curves over a recording grid
(metrics.build_metric_series) or in the pacing loop (pace.run_pace_paths);
these direct forms, terminal values and a generic averaging loop, run only
in the tests. The dual solver's tangent takes the smoothed gradient's
derivative in the temperature from Euler's identity; dgrad_dmu takes it
from the bids.
"""

from dataclasses import dataclass

import numpy as np

from fairpace.dual_averaging import LogBarrierRegularizer, da_step, initial_state
from fairpace.errors import DimensionMismatch, FairpaceError
from fairpace.market import ItemSequence, MarketInstance
from fairpace.pace import PaceTrace


class NonpositiveReference(FairpaceError):
    """Relative error requested against a reference with nonpositive entries."""


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


def proportional_share_utilities(instance: MarketInstance, seq: ItemSequence) -> np.ndarray:
    """Average utility when every arriving item is split equally, each agent
    taking their budget's share 1/n of it."""
    if seq.items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    counts = np.bincount(seq.items, minlength=instance.m)
    return (1.0 / instance.n) * (instance.valuations @ counts) / seq.t


def iterate_da(subgradient_fn, reg: LogBarrierRegularizer, data):
    """Run the averaging loop over a data stream.

    subgradient_fn(w, z) must return the subgradient at the current iterate
    for observation z. Returns (ws, gs) with ws holding the t+1 iterates
    w_1..w_{t+1} and gs the t observed subgradients.
    """
    state = initial_state(reg)
    ws = np.empty((len(data) + 1, reg.n))
    gs = np.empty((len(data), reg.n))
    ws[0] = state.w
    for tau, z in enumerate(data):
        g = subgradient_fn(state.w, z)
        gs[tau] = g
        state = da_step(state, g, reg)
        ws[tau + 1] = state.w
    return ws, gs


def dgrad_dmu(beta, valuations, weights, mu, shares):
    """Derivative in mu of the softmax-smoothed dual's gradient, from the bids:

        dg_i/dmu = -(1/mu^2) sum_j w_j v_ij s_ij (z_ij - zbar_j),

    z the bids beta_i v_ij, s the (n, m) softmax shares at beta and zbar_j
    the share-weighted bid on item j.
    """
    z = beta[:, None] * valuations
    z -= np.einsum("ij,ij->j", shares, z)
    z *= shares * valuations
    return -(z @ weights) / (mu * mu)
