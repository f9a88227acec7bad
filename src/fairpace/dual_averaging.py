"""Composite dual averaging over a box with a separable log barrier.

Each step averages the observed subgradients and re-solves the regularized
problem min <g_bar, w> + Psi(w) in closed form. With the log barrier
Psi(w) = -(1/n) sum log w_i on [lo, hi]^n the minimizer is the clamped
coordinatewise reciprocal clamp(1 / (n g_bar_i)), with a zero average
mapping to the upper bound. No stepsize parameter exists anywhere.
"""

from typing import NamedTuple

import numpy as np


class LogBarrierRegularizer:
    """Psi(w) = -(1/n) sum(log w_i) restricted to the box [lo, hi]^n."""

    def __init__(self, n: int, lo: float, hi: float):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if not 0.0 < lo < hi:
            raise ValueError("box must satisfy 0 < lo < hi")
        self.n, self.lo, self.hi = n, lo, hi

    @property
    def modulus(self) -> float:
        """Strong convexity constant of the barrier on the box, 1/(n hi^2)."""
        return 1.0 / (self.n * self.hi**2)

    def argmin(self) -> np.ndarray:
        # the barrier decreases in every coordinate, so its box minimum is at hi
        return np.full(self.n, self.hi)


class DaState(NamedTuple):
    """Step counter, running subgradient average, and current iterate."""

    tau: int
    g_bar: np.ndarray
    w: np.ndarray


def initial_state(reg: LogBarrierRegularizer) -> DaState:
    return DaState(tau=0, g_bar=np.zeros(reg.n), w=reg.argmin())


def composite_argmin(g_bar, reg: LogBarrierRegularizer) -> np.ndarray:
    """Exact minimizer of <g_bar, w> + Psi(w) over the box.

    Coordinates with a zero average map to the upper bound (the reciprocal
    of zero is treated as +inf before clamping).
    """
    g = np.asarray(g_bar, dtype=np.float64)
    with np.errstate(divide="ignore"):
        raw = 1.0 / (reg.n * g)
    return np.clip(raw, reg.lo, reg.hi)


def da_step(state: DaState, g, reg: LogBarrierRegularizer) -> DaState:
    """Fold one subgradient into the average and recompute the iterate."""
    tau = state.tau + 1
    g_bar = ((tau - 1.0) * state.g_bar + g) / tau
    return DaState(tau=tau, g_bar=g_bar, w=composite_argmin(g_bar, reg))


class RegretBoundResult(NamedTuple):
    """Both sides of the suboptimality bound for one run and one reference."""

    lhs: float
    rhs: float
    holds: bool
    regret: float
    grad_term: float


def regret_bound_check(
    iterates,
    sq_norms,
    objective_values,
    ref_objective_values,
    w_ref,
    sigma: float,
    slack: float = 1e-9,
) -> RegretBoundResult:
    """Check ||w_{t+1} - w_ref||^2 <= (2 / (sigma t)) (Delta_t - R_t(w_ref)).

    iterates holds the t+1 points w_1..w_{t+1} and sq_norms the squared
    Euclidean norms ||g_tau||^2 of the t observed subgradients.
    objective_values[k] is the composite value of the k-th pre-step iterate
    on the k-th observation (aligned with iterates[:-1]);
    ref_objective_values holds the composite values of w_ref on the same
    observations. R_t sums their differences, and Delta_t accumulates the
    squared norms as
    (5 ||g_1||^2 + sum_{tau >= 1} ||g_{tau+1}||^2 / tau) / (2 sigma).
    """
    sq = np.asarray(sq_norms, dtype=np.float64)
    ws = np.asarray(iterates, dtype=np.float64)
    t = sq.shape[0]
    if t < 1:
        raise ValueError("need at least one step")
    if ws.shape[0] != t + 1:
        raise ValueError("iterates must hold one more point than squared norms")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    grad_term = float((5.0 * sq[0] + (sq[1:] / np.arange(1, t)).sum()) / (2.0 * sigma))
    regret = float(np.sum(np.asarray(objective_values) - np.asarray(ref_objective_values)))
    lhs = float(((ws[-1] - np.asarray(w_ref)) ** 2).sum())
    rhs = 2.0 / (sigma * t) * (grad_term - regret)
    return RegretBoundResult(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + slack), regret=regret, grad_term=grad_term
    )
