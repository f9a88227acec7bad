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
Each Newton step runs one backtracking search that evaluates its trial
points by value alone until one passes.

A softmax weight whose bid lies more than 690 mu below its item's top bid,
mu the temperature, is taken as exactly 0 (see _EXP_CUTOFF), so no weight
or share is subnormal, and at small temperatures nearly every weight is
that far down. Each stage then evaluates on a working set of the pairs
near their item's top bid while the multipliers stay within a trust radius
in which that is exact (see _WorkingSet), and assembles the Hessian's cross
term from the pairs of agents that split an item. Outside the radius the
set's value is a lower bound on the dense one: a trial point whose bound
already fails the line search is rejected without a dense evaluation. A
stage whose set would hold 40% of the pairs or more runs dense.

The temperature floor tracks the requested tolerance; the reported
residual is the fixed-point gap ||beta - clamp(1 / (n u(beta)))||_inf
where u is the utility vector under the final temperature's tie-splitting
weights, which converges to the exact optimality certificate as the
temperature vanishes.
"""

import warnings
from dataclasses import asdict, dataclass
from typing import Optional

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
class StageCounts:
    """Work of one temperature stage.

    evaluations counts evaluations of the smoothed objective, the value-only
    ones at rejected trial points and the bound evaluations included.
    set_evaluations of them ran on the working set at points within its
    trust radius. A point outside the radius is first evaluated on the set
    as a bound: bound_rejections counts the points that bound rejected, and
    dense_fallbacks the others, which were then evaluated on the whole
    matrix. rebuilds counts the working sets built after accepting such a
    point, and set_share is the share of the n m pairs in the stage's last
    set (at or above _DENSE_SHARE when the stage ran dense, None when it
    took no step and built no set).
    """

    mu: float
    steps: int
    evaluations: int
    set_evaluations: int
    bound_rejections: int
    dense_fallbacks: int
    rebuilds: int
    set_share: Optional[float]


@dataclass(frozen=True)
class DualSolution:
    """Minimizer estimate with its objective, fixed-point residual, and cost.

    stages holds each temperature stage's counts; iterations and
    evaluations are their totals of Newton steps and objective evaluations.
    """

    beta_hat: np.ndarray
    objective: float
    residual: float
    converged: bool
    stages: tuple

    @property
    def iterations(self) -> int:
        return sum(s.steps for s in self.stages)

    @property
    def evaluations(self) -> int:
        return sum(s.evaluations for s in self.stages)


def dual_objective(beta, prob: DualProblem) -> float:
    """Weighted winning-bid mass plus the log barrier, at a positive point."""
    beta = np.asarray(beta, dtype=np.float64)
    if np.any(beta <= 0):
        raise NonpositiveBeta("dual objective requires strictly positive beta")
    winning = (beta[:, None] * prob.valuations).max(axis=0)
    return float(winning @ prob.weights - np.log(beta).sum() / prob.n)


# Exponents below this cutoff are left at 0 without calling exp. IEEE exp
# turns subnormal below about -708.4 and multiplying subnormals is slow, so
# the cutoff keeps every weight at or above e^-690, about 3e-300, and every
# share (a weight over its column's mass, which lies between 1 and n) normal
# for n up to about 1e8. The top weight of a column is exactly 1, so a
# dropped weight is over 1e299 times smaller: the column's mass, and with
# it the value, is the same as with a plain exp.
_EXP_CUTOFF = -690.0

# A working set holds the pairs within _SET_WIDTH mu of their column's top
# bid. Past the 690 mu that can carry weight, the slack sets the trust
# radius: an excluded bid must close a gap of at least (_SET_WIDTH - 691) mu
# before its weight can be nonzero. A narrower set is left sooner, and each
# exit costs an evaluation on the set and, when that does not rule the trial
# point out, a dense one. On the benchmark's shapes a width of 1000 left
# the set about twice as often as 3000, rebuilt it 2-7 times per solve
# where 3000 never did, and took 10-14% more solve time; widths of 2000 and
# 6000 took the time of 3000 to within 2%.
_SET_WIDTH = 3000.0

# A set holding this share of the n m pairs or more is not used and its
# stage runs dense. Per pair the set's gathers and scatters cost more than
# the dense evaluation's contiguous passes. On the benchmark's shapes, a
# whole stage at a temperature between 1e-5 and 1e-4, started from the same
# point and run on the set, took 0.74-0.80 times its dense time where the
# set held 28-30% of the pairs, 0.92-0.99 times at 40-43% and 1.10-1.31
# times at 56-58%.
_DENSE_SHARE = 0.4

# Newton steps per temperature stage; a stage that reaches it hands its
# point to the next one.
_MAX_STAGE_STEPS = 200


class _WorkingSet:
    """The pairs that can carry softmax weight while beta stays near a center.

    Holds the (agent, item) pairs whose bid at the center lies within
    _SET_WIDTH mu of their column's top bid, grouped by column with agents
    ascending, and the trust radius

        R = min over excluded pairs of (gap_ij - 691 mu) / (v_ij + v_wj)

    where gap_ij is the pair's distance below its column's top bid and w
    the column's top bidder, both at the center. While
    |beta - center|_inf <= R every excluded pair's exponent stays a unit
    below the cutoff, more than the rounding of the bids can make up, and
    each column's top bid is one of the set's, so the value, shares,
    utilities and Hessian computed on the set equal the dense ones, the
    Hessian up to summation order. Outside R the set's value is still a
    lower bound on the dense one (see _bound_rejects).
    """

    def __init__(self, center, radius: float, inside, prob: DualProblem):
        flat = np.flatnonzero(inside)
        rows, cols = np.divmod(flat, prob.m)
        order = np.argsort(cols, kind="stable")
        self.center, self.radius = center, radius
        self.rows, self.cols = rows[order], cols[order]
        self.values = prob.valuations[self.rows, self.cols]
        counts = np.bincount(self.cols, minlength=prob.m)
        self.starts = np.cumsum(counts) - counts

    def covers(self, beta) -> bool:
        return float(np.abs(beta - self.center).max()) <= self.radius


def _working_set(center, prob: DualProblem, mu: float):
    """The working set at center and its share of the n m pairs.

    The set is None when it would hold _DENSE_SHARE of the pairs or more.
    Besides a bool mask, building it takes one more (n, m) float temporary
    than the bids, as many as a dense evaluation makes.
    """
    V = prob.valuations
    items = np.arange(prob.m)
    z = center[:, None] * V
    top_bidder = z.argmax(axis=0)
    z -= z[top_bidder, items]
    inside = z >= -_SET_WIDTH * mu
    share = np.count_nonzero(inside) / inside.size
    if share >= _DENSE_SHARE:
        return None, share
    np.negative(z, out=z)
    z += (_EXP_CUTOFF - 1.0) * mu
    np.putmask(z, inside, np.inf)
    z /= V + V[top_bidder, items]
    return _WorkingSet(center, float(z.min()), inside, prob), share


def _smoothed_value(beta, prob: DualProblem, mu: float, working=None):
    """Softmax relaxation of the objective, with the softmax weights behind it.

    Returns the value, each agent's unnormalized softmax weight per item and
    each item's total weight. Exponents below the cutoff are left at 0
    without calling exp, so the value is that of a plain exp, and at small
    temperatures nearly every entry is that far below its column's top bid.
    Given a working set, the weights are those of the set's pairs, in its
    order; they are the dense ones when the set covers beta.
    """
    if working is None:
        z = beta[:, None] * prob.valuations
        top = z.max(axis=0)
        z -= top
    else:
        z = beta[working.rows] * working.values
        top = np.maximum.reduceat(z, working.starts)
        z -= top[working.cols]
    z /= mu
    weights_exp = np.exp(z, out=np.zeros_like(z), where=z >= _EXP_CUTOFF)
    if working is None:
        mass = weights_exp.sum(axis=0)
    else:
        mass = np.bincount(working.cols, weights_exp, prob.m)
    prices = mu * np.log(mass) + top
    obj = float(prices @ prob.weights - np.log(beta).sum() / prob.n)
    return obj, weights_exp, mass


def _smoothed_state(beta, prob: DualProblem, mu: float, value=None, working=None):
    """Smoothed objective with its gradient, utilities and share weights.

    The shares are each item's softmax tie split across agents; the implied
    utility vector feeds both the gradient and the fixed-point residual.
    value, if given, is _smoothed_value's result at the same point and on
    the same working set.
    """
    obj, weights_exp, mass = _smoothed_value(beta, prob, mu, working) if value is None else value
    if working is None:
        shares = weights_exp / mass
        scaled = shares * prob.valuations
    else:
        shares = weights_exp / mass[working.cols]
        # summed over the set alone the utilities differ from the dense ones
        # in the last bits, and near the stopping rule's noise floor that
        # moved some solves' final point by 5e-14. The dense product sums in
        # an order set by the shape, and the zeros add nothing.
        scaled = np.zeros((prob.n, prob.m))
        scaled[working.rows, working.cols] = shares * working.values
    utilities = scaled @ prob.weights
    grad = utilities - 1.0 / (prob.n * beta)
    return obj, grad, utilities, shares


def _smoothed_hessian(beta, prob: DualProblem, mu: float, shares, working=None) -> np.ndarray:
    """Exact Hessian of the smoothed objective; positive definite on the box.

    On a working set only the tied columns enter, those where two or more
    pairs have nonzero share: in any other column a pair's share is 0 or
    exactly 1, and a share of 1 adds equal diagonal and cross terms, which
    cancel. The cross term sums, by bincount over (agent, agent) indices,
    the products of every two of a tied column's pairs, each pair with
    itself included.
    """
    n = prob.n
    if working is None:
        V, c = prob.valuations, prob.weights / mu
        scaled = shares * V  # (n, m)
        diag_term = (scaled * V) @ c
        H = -((scaled * c[None, :]) @ scaled.T)
    else:
        nonzero = shares > 0
        per_column = np.bincount(working.cols[nonzero], minlength=prob.m)
        pick = np.flatnonzero(nonzero & (per_column >= 2)[working.cols])
        rows, cols, values = working.rows[pick], working.cols[pick], working.values[pick]
        scaled = shares[pick] * values
        c = prob.weights[cols] / mu
        diag_term = np.bincount(rows, scaled * values * c, n)
        # the picked entries are grouped by column: entry e pairs with the k[e]
        # entries of its column, which start at the column's first entry
        k = per_column[cols]
        left = np.repeat(np.arange(pick.size), k)
        offset = np.arange(left.size) - np.repeat(np.cumsum(k) - k, k)
        right = np.repeat(np.searchsorted(cols, cols), k) + offset
        cross = np.bincount(
            rows[left] * n + rows[right], scaled[left] * scaled[right] * c[left], n * n
        )
        # -1.0 * and not -: over no pairs bincount returns integers
        H = -1.0 * cross.reshape(n, n)
    idx = np.arange(n)
    H[idx, idx] += diag_term + 1.0 / (n * beta**2)
    return H


def _bound_rejects(candidate, prob: DualProblem, mu: float, working, flat: float) -> bool:
    """Whether the working set's value at candidate shows that the dense
    value exceeds flat, so that the line search would reject the point.

    The set's value sums a subset of each column's exponential terms, so
    wherever candidate lies it is at most the dense value, up to rounding.
    Each value rounds by at most (m + n + 4) eps times its price term plus
    the magnitude of its log barrier. The box bounds the barrier by
    max |log beta|, and the price term by the value plus that; the bound
    must clear flat by the two values' rounding together.
    """
    bound = _smoothed_value(candidate, prob, mu, working)[0]
    barrier = max(abs(np.log(prob.lo)), abs(np.log(prob.hi)))
    margin = 2.0 * (prob.m + prob.n + 4) * np.finfo(float).eps * (abs(flat) + 2.0 * barrier)
    return bound > flat + margin


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


def _newton_stage(beta, prob: DualProblem, mu: float, gtol: float):
    """Damped projected Newton on the mu-smoothed objective.

    Bound-active coordinates whose gradient points outward are frozen; the
    Newton system is solved on the free block. One backtracking search
    clips each trial step to the box and evaluates each trial point by
    value alone unless the value could pass. It accepts the first trial
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
    is within gtol, after _MAX_STAGE_STEPS steps, or when no trial point is
    accepted.

    The first step builds a working set at the stage's point. Points within
    its trust radius are evaluated on the set. At a point outside it the
    set's value is a lower bound on the dense one; a bound above the
    acceptance threshold rejects the point, as its dense value would, and
    otherwise the point is evaluated on the whole matrix. Accepting such a
    point rebuilds the set there. Rebuilding at every trial point outside
    the radius instead rebuilds many times per solve for trial points the
    search then rejects. A set holding _DENSE_SHARE of the pairs or more is
    dropped, and the stage runs dense from then on. Returns the new point,
    its utilities under this stage's tie split and the stage's StageCounts.
    """
    lo, hi = prob.lo, prob.hi
    steps = set_evaluations = bound_rejections = dense_fallbacks = sets_built = 0
    obj, grad, utilities, shares = _smoothed_state(beta, prob, mu)
    evaluations = 1
    pg = _projected_gradient(beta, grad, lo, hi)
    last = 1.0
    working, stale, share = None, True, None
    while steps < _MAX_STAGE_STEPS and np.abs(pg).max() > gtol:
        if stale:
            working, share = _working_set(beta, prob, mu)
            sets_built += 1
            if working is not None:
                shares = shares[working.rows, working.cols]
            stale = False
        free = pg != 0.0
        H = _smoothed_hessian(beta, prob, mu, shares, working)
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
            if not np.any(candidate != beta):
                continue
            outside = working is not None and not working.covers(candidate)
            if outside:
                evaluations += 1
                if _bound_rejects(candidate, prob, mu, working, flat):
                    bound_rejections += 1
                    continue
                dense_fallbacks += 1
            on = None if outside else working
            value = _smoothed_value(candidate, prob, mu, on)
            evaluations += 1
            set_evaluations += on is not None
            if value[0] <= flat:
                state = _smoothed_state(candidate, prob, mu, value, on)
                cand_pg = _projected_gradient(candidate, state[1], lo, hi)
                if value[0] < obj or _norm(cand_pg) < 0.9 * pg_norm:
                    accepted = (candidate, state, cand_pg)
                    stale = outside
                    last = alpha
                    break
        if accepted is None:
            break
        beta, (obj, grad, utilities, shares), pg = accepted
    counts = StageCounts(
        mu=mu,
        steps=steps,
        evaluations=evaluations,
        set_evaluations=set_evaluations,
        bound_rejections=bound_rejections,
        dense_fallbacks=dense_fallbacks,
        rebuilds=max(sets_built - 1, 0),
        set_share=share,
    )
    return beta, utilities, counts


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


def solve_dual(prob: DualProblem, tol: float = 1e-8) -> DualSolution:
    """Minimize the dual over the box by smoothed Newton continuation.

    Only items of positive weight enter the solve. The softmax temperature
    starts near the bid scale and decays by factors of ten down to the
    tolerance; each stage is warm-started from the last and takes at most
    _MAX_STAGE_STEPS Newton steps. The residual of the returned point
    certifies the fixed point under the final temperature's tie split,
    whose utilities the last stage returns; if it exceeds 10 tol a
    NoConvergenceWarning is emitted and the best iterate is still returned.
    The returned objective never exceeds the starting point's objective.
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
    stages = []
    for mu in _temperatures(0.1 * max(scale, 1e-6), mu_end):
        gtol = gtol_final if mu <= mu_end else max(1e-3 * mu, gtol_final)
        beta, utilities, counts = _newton_stage(beta, prob, mu, gtol)
        stages.append(counts)

    with np.errstate(divide="ignore"):
        fixed_point = np.clip(1.0 / (n * utilities), prob.lo, prob.hi)
    residual = float(np.max(np.abs(beta - fixed_point)))
    objective = dual_objective(beta, prob)
    if objective > init_objective:
        beta, objective = init, init_objective
        residual = np.inf
    solution = DualSolution(
        beta_hat=beta,
        objective=objective,
        residual=residual,
        converged=residual <= 10.0 * tol,
        stages=tuple(stages),
    )
    if not solution.converged:
        warnings.warn(
            f"dual solve stopped after {solution.iterations} iterations with residual "
            f"{residual:.3g} (tol {tol:.3g}); returning the best iterate",
            NoConvergenceWarning,
        )
    return solution


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
) -> DualSolution:
    """Dual optimum of the realized sequence, via its empirical frequencies."""
    if seq.items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    weights = np.bincount(seq.items, minlength=instance.m) / seq.t
    return solve_dual(market_problem(instance, weights, delta0), tol=tol)


def solution_to_dict(solution: DualSolution) -> dict:
    return {
        "beta": solution.beta_hat.tolist(),
        "objective": solution.objective,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "evaluations": solution.evaluations,
        "stages": [asdict(stage) for stage in solution.stages],
    }

