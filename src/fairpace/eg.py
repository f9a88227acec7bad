"""Box-constrained Eisenberg-Gale dual: objective, solver, utilities.

The dual of the equal-budget log-utility allocation program over a weighted
finite item set is

    min_beta  sum_j weights_j max_i beta_i v_ij  -  (1/n) sum_i log beta_i

over the box [1/((1+delta0) n), 1+delta0]. With empirical item frequencies
as weights the minimizer is the hindsight benchmark of a realized sequence;
with a model's reference distribution it is the underlying equilibrium.

The minimizer generically sits at a kink of the piecewise-linear term:
items whose best bids tie between agents are exactly the items a market
equilibrium splits between them, so single-winner subgradient steps cannot
settle there. The solver therefore minimizes a softmax-smoothed objective
with a decreasing temperature, each stage warm-started and solved by a
damped projected Newton method on the n multiplier variables (the Hessian
is an n x n matrix assembled in O(n m + n^2 m) work, cheap at the scales
here). Items of zero weight add exactly nothing to the objective, its
gradient or its Hessian, so the solver drops their columns first; a
hindsight solve over a short sequence works on the items that arrived.
Each Newton step runs one backtracking search that evaluates every trial
point once, by value alone until one passes. The temperature floor tracks the requested tolerance; the
reported residual is the fixed-point gap ||beta - clamp(1 / (n u(beta)))||_inf
where u is the utility vector under the final temperature's tie-splitting
weights, which converges to the exact optimality certificate as the
temperature vanishes.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonpositiveBeta, NoConvergenceWarning, ZeroExpectedValue
from .market import ItemSequence, MarketInstance, ReferenceDistribution
from .pace import pacing_box


@dataclass(frozen=True)
class DualProblem:
    """Valuations, item weights summing to 1, and the multiplier box."""

    valuations: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        v = np.array(self.valuations, dtype=np.float64)
        w = np.array(self.weights, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("valuations must be a 2-d matrix")
        if w.shape != (v.shape[1],):
            raise ValueError("weights length must match the item count")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not 0.0 < self.lo < self.hi:
            raise ValueError("box must satisfy 0 < lo < hi")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "valuations", v)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.valuations.shape[0]

    @property
    def m(self) -> int:
        return self.valuations.shape[1]


def market_problem(instance: MarketInstance, weights, delta0: float = 1.0) -> DualProblem:
    """Dual problem for a market with the pacing box implied by delta0."""
    lo, hi = pacing_box(instance.n, delta0)
    w = weights.probs if isinstance(weights, ReferenceDistribution) else weights
    return DualProblem(instance.valuations, w, lo, hi)


@dataclass(frozen=True)
class DualSolution:
    """Minimizer estimate with its objective, fixed-point residual, and cost.

    iterations counts Newton steps; evaluations counts evaluations of the
    smoothed objective, the value-only ones at rejected trial points and the
    final one that measures the residual included.
    """

    beta_hat: np.ndarray
    objective: float
    residual: float
    iterations: int
    converged: bool
    evaluations: int


def dual_objective(beta, prob: DualProblem) -> float:
    """Weighted winning-bid mass plus the log barrier, at a positive point."""
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(beta <= 0):
        raise NonpositiveBeta("dual objective requires strictly positive beta")
    winning = (beta[:, None] * prob.valuations).max(axis=0)
    return float(winning @ prob.weights - np.log(beta).sum() / prob.n)


def _smoothed_value(beta, prob: DualProblem, mu: float):
    """Softmax relaxation of the objective, with the softmax weights behind it.

    Returns the value, each agent's unnormalized softmax weight per item and
    each item's total weight. Exponents below -746 are left at 0 without
    calling exp: IEEE exp is exactly 0 below about -745.13, so the values
    are those of a plain exp, and at small temperatures nearly every entry
    is that far below its column's top bid.
    """
    z = beta[:, None] * prob.valuations
    top = z.max(axis=0)
    z -= top
    z /= mu
    weights_exp = np.exp(z, out=np.zeros_like(z), where=z > -746.0)
    mass = weights_exp.sum(axis=0)
    prices = mu * np.log(mass) + top
    obj = float(prices @ prob.weights - np.log(beta).sum() / prob.n)
    return obj, weights_exp, mass


def _smoothed_state(beta, prob: DualProblem, mu: float, value=None):
    """Smoothed objective with its gradient, utilities and share weights.

    The shares are each item's softmax tie split across agents; the implied
    utility vector feeds both the gradient and the fixed-point residual.
    value, if given, is _smoothed_value's result at the same point.
    """
    obj, weights_exp, mass = _smoothed_value(beta, prob, mu) if value is None else value
    shares = weights_exp / mass
    utilities = (shares * prob.valuations) @ prob.weights
    grad = utilities - 1.0 / (prob.n * beta)
    return obj, grad, utilities, shares


def _smoothed_hessian(beta, prob: DualProblem, mu: float, shares) -> np.ndarray:
    """Exact Hessian of the smoothed objective; positive definite on the box."""
    V = prob.valuations
    n = prob.n
    scaled = shares * V  # (n, m)
    diag_term = (scaled * V) @ (prob.weights / mu)
    cross = (scaled * (prob.weights / mu)[None, :]) @ scaled.T
    H = -cross
    idx = np.arange(n)
    H[idx, idx] += diag_term + 1.0 / (n * beta**2)
    return H


def _projected_gradient(beta, grad, lo, hi) -> np.ndarray:
    pg = grad.copy()
    pg[(beta <= lo * (1 + 1e-12)) & (grad > 0)] = 0.0
    pg[(beta >= hi * (1 - 1e-12)) & (grad < 0)] = 0.0
    return pg


def _norm(x) -> float:
    return float(np.sqrt((x**2).sum()))


def _step_lengths(first: float):
    """Trial step lengths: 40 halvings from first, then any longer ones from 1."""
    for k in range(40):
        yield first * 0.5**k
    alpha = 1.0
    while alpha > first:
        yield alpha
        alpha *= 0.5


def _newton_stage(beta, prob: DualProblem, mu: float, gtol: float, max_steps: int):
    """Damped projected Newton on the mu-smoothed objective.

    Bound-active coordinates whose gradient points outward are frozen; the
    Newton system is solved on the free block. One backtracking search
    clips each trial step to the box and evaluates every trial point once,
    by value alone unless the value could pass. It accepts the first trial
    point whose objective strictly decreases, or whose objective is flat to
    rounding (within 64 eps of the current value) while its projected
    gradient norm drops below 0.9 times the current one. Near the optimum
    the improvement in stiff directions falls below the floating-point
    resolution of the objective; the second test lets the quadratic phase
    run down to the gradient noise floor.

    The first step of a stage tries the full Newton step; later ones start
    at four times the step length last accepted, capped at 1, since at small
    temperatures the full step overshoots for many steps in a row. Each
    search halves its length up to 40 times, then tries the longer lengths
    from 1 down that it skipped. The stage ends when the projected gradient
    is within gtol, after max_steps steps, or when no trial point is
    accepted. Returns the new point, the number of Newton steps and the
    number of objective evaluations.
    """
    lo, hi = prob.lo, prob.hi
    steps = 0
    obj, grad, _, shares = _smoothed_state(beta, prob, mu)
    evaluations = 1
    pg = _projected_gradient(beta, grad, lo, hi)
    last = 1.0
    while steps < max_steps and np.abs(pg).max() > gtol:
        free = pg != 0.0
        H = _smoothed_hessian(beta, prob, mu, shares)
        direction = np.zeros_like(beta)
        sub = H[np.ix_(free, free)]
        try:
            direction[free] = np.linalg.solve(sub, -grad[free])
        except np.linalg.LinAlgError:
            direction[free] = -grad[free]
        steps += 1
        pg_norm = _norm(pg)
        flat = obj + 64.0 * np.finfo(float).eps * max(1.0, abs(obj))
        accepted = None
        for alpha in _step_lengths(min(1.0, 4.0 * last)):
            candidate = np.clip(beta + alpha * direction, lo, hi)
            if np.any(candidate != beta):
                value = _smoothed_value(candidate, prob, mu)
                evaluations += 1
                if value[0] <= flat:
                    state = _smoothed_state(candidate, prob, mu, value)
                    cand_pg = _projected_gradient(candidate, state[1], lo, hi)
                    if value[0] < obj or _norm(cand_pg) < 0.9 * pg_norm:
                        accepted = (candidate, state, cand_pg)
                        last = alpha
                        break
        if accepted is None:
            break
        beta, (obj, grad, _, shares), pg = accepted
    return beta, steps, evaluations


def _temperatures(start: float, end: float) -> list:
    """Stage temperatures: start, then tenfold decreases, ending at end.

    A temperature that would fall below 2x end is replaced by end, so no two
    stages run at nearly the same temperature. A start at or below end is
    the only stage.
    """
    mus = []
    mu = start
    while mu >= 2.0 * end:
        mus.append(mu)
        mu *= 0.1
    mus.append(min(start, end))
    return mus


def solve_dual(prob: DualProblem, tol: float = 1e-8, max_iters: int = 200_000) -> DualSolution:
    """Minimize the dual over the box by smoothed Newton continuation.

    Only items of positive weight enter the solve. The softmax temperature
    starts near the bid scale and decays by factors of ten down to the
    tolerance; each stage is warm-started from the last. The residual of
    the returned point certifies the fixed point under the final
    temperature's tie split; if it exceeds 10 tol a NoConvergenceWarning is
    emitted and the best iterate is still returned. The returned objective
    never exceeds the starting point's objective.
    """
    expected = prob.valuations @ prob.weights
    if np.any(expected <= 0):
        bad = np.flatnonzero(expected <= 0)
        raise ZeroExpectedValue(f"agents {bad.tolist()} have zero weighted value")
    if tol <= 0:
        raise ValueError("tol must be positive")
    positive = prob.weights > 0
    if not positive.all():
        prob = DualProblem(prob.valuations[:, positive], prob.weights[positive], prob.lo, prob.hi)
    n = prob.n
    init = np.full(n, prob.hi)
    init_objective = dual_objective(init, prob)
    beta = np.full(n, min(1.0, prob.hi))

    scale = float((prob.valuations * prob.weights[None, :]).sum(axis=1).max())
    mu_end = max(tol, 1e-12)
    gtol_final = max(tol / (n * prob.hi**2) * 0.1, 1e-13)
    iterations = evaluations = 0
    ok = True
    for mu in _temperatures(0.1 * max(scale, 1e-6), mu_end):
        budget = max_iters - iterations
        if budget <= 0:
            ok = False
            break
        gtol = gtol_final if mu <= mu_end else max(1e-3 * mu, gtol_final)
        beta, used, evaluated = _newton_stage(beta, prob, mu, gtol, min(budget, 200))
        iterations += used
        evaluations += evaluated

    with np.errstate(divide="ignore"):
        _, _, utilities, _ = _smoothed_state(beta, prob, mu)
        evaluations += 1
        fixed_point = np.clip(1.0 / (n * utilities), prob.lo, prob.hi)
    residual = float(np.max(np.abs(beta - fixed_point)))
    objective = dual_objective(beta, prob)
    if objective > init_objective:
        beta, objective = init, init_objective
        residual = np.inf
        ok = False
    converged = ok and residual <= 10.0 * tol
    if not converged:
        warnings.warn(
            f"dual solve stopped after {iterations} iterations with residual "
            f"{residual:.3g} (tol {tol:.3g}); returning the best iterate",
            NoConvergenceWarning,
        )
    return DualSolution(
        beta_hat=beta,
        objective=objective,
        residual=residual,
        iterations=iterations,
        converged=converged,
        evaluations=evaluations,
    )


def equilibrium_utilities(solution, n: int) -> np.ndarray:
    """Average utilities implied by the dual point: u_i = 1 / (n beta_i)."""
    beta = solution.beta_hat if isinstance(solution, DualSolution) else np.asarray(solution)
    if np.any(beta <= 0):
        raise NonpositiveBeta("utilities require strictly positive beta")
    return 1.0 / (n * beta)


def hindsight_solution(
    instance: MarketInstance,
    seq: ItemSequence,
    delta0: float = 1.0,
    tol: float = 1e-8,
    max_iters: int = 200_000,
) -> DualSolution:
    """Dual optimum of the realized sequence, via its empirical frequencies."""
    if seq.items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    weights = np.bincount(seq.items, minlength=instance.m) / seq.t
    return solve_dual(market_problem(instance, weights, delta0), tol=tol, max_iters=max_iters)


def solution_to_dict(solution: DualSolution) -> dict:
    return {
        "beta": solution.beta_hat.tolist(),
        "objective": solution.objective,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "evaluations": solution.evaluations,
    }

