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
damped projected Newton method on the n multiplier variables. Items of
zero weight add nothing to the objective or its derivatives, so the solver
drops their columns first. Each Newton step runs one backtracking search
that evaluates its trial points by value alone until one passes.

The dense second-order work comes from one factor per problem, R = V
sqrt(w). An accepted point's softmax weights become, in place, its root
array, each pair's share times R: the utilities are root @ sqrt(w), and mu
times the price term's Hessian is diag(sum_j root R) - root root^T, the
cross term one symmetric rank-k product. So the Newton loop holds one
(n, m) array besides V and R, and one more while it evaluates a point.

A cold solve starts from beta = 1, clipped to the box, at a temperature a
tenth of the bid scale. A hindsight solve in an experiment starts instead
from the reference optimum, the same market's optimum under the reference
distribution's weights: moving weight TV, the total variation distance
between the two weight vectors, moves the optimal objective by at most
about 2 TV times a price, so the solve skips the stages above TV times the
first temperature (on the benchmark's shapes a paper path starts at mu ~
1e-3 and a wide_market path at mu ~ 1e-2). Between stages a tangent
predictor follows the central path: the smoothed price term, its cutoff
included, is jointly homogeneous of degree 1 in (beta, mu), so by Euler's
identity the gradient's derivative in mu is -H_p beta / mu, H_p the price
term's Hessian, and one linear solve with the full Hessian gives
d beta / d mu. As in predictor-corrector path following, the prediction,
clipped to the box, is where the next stage starts. Every stage but the
last only hands its point on, to the next stage or to a crossover, and
stops at a projected gradient of 0.1 mu; the last stops at a floor set by
the tolerance.

The stages at temperatures down to 1e-2 times the first, unless one is the
last, run in single precision (mixed-precision refinement, Buttari et al.
2007; Carson & Higham 2018): on a view of the problem that holds float32 V,
sqrt(w) and R, with its own exponent cutoff (see _SingleView). beta, the
objective's sum over the prices, the utilities, the gradient and the n x n
Newton system stay float64. On the benchmark's shapes these are the stages
that run dense, and a float32 evaluation, state or Hessian takes about half
the time of a float64 one. A problem whose bids or Hessian sums would leave
float32's normal range, as unnormalized valuations can, runs them in double
too (see _fits_single). Every later stage, every crossover and the
fallback residual run in double. The crossover fixes its point in double
from the forest and the multipliers on a bound alone, so the single stages
reach beta_hat only through the forest: a path that reaches the same
forest ends at the same point bit for bit, and on the solves checked so far
the single stages left beta_hat unchanged. At a degenerate optimum,
though, two forests can both certify, one with a tie pair whose fraction is
0, and their points can differ in the last bits, so a path that stops
elsewhere can end a few ulps away.

A softmax weight whose bid lies more than 100 mu below its item's top bid
(40 mu in the single stages), mu the temperature, is taken as exactly 0
(see _EXP_CUTOFF): it is below half an ulp of its item's mass, so the value
and every kept share equal a plain exp's, and no weight, share or Hessian
entry is subnormal. At small temperatures nearly every weight is that far
down, so each stage first builds, at its start point, a working set of the
pairs near their item's top bid and evaluates every point of the stage on
it (see _WorkingSet); its Hessian's cross term sums over the pairs of
agents that split an item. So a stage on a set passes over the whole
matrix once, to build it. At its start point the set's value and shares
are the dense ones; elsewhere the set may miss a pair that carries weight,
and its value is a lower bound on the dense one. The crossover's
certificate, which prices every item over all agents, is the solve's one
exactness gate. A stage whose set would hold 40% of the pairs or more runs
dense; on the benchmark's shapes those are the stages above mu ~ 1e-4.

Once the temperature has fallen to 1e-4 times the first stage's, each
stage is followed by an exact crossover (see _crossover), the crossover
step of interior-point methods applied to the forest structure of linear
Fisher equilibria. The softmax flow at the stage's point names the items
the optimum splits: a maximum spanning forest of it fixes the kink optimum
and an allocation that certifies it, and a failed check pivots the forest
and tries again. A certified point ends the solve, on the benchmark's
shapes after the mu ~ 1e-5 stage; otherwise the stages go on down to a
temperature floor that tracks the requested tolerance.

The reported residual is the fixed-point gap
||beta - clamp(1 / (n u))||_inf, u the utility vector under an allocation.
For a certified point that allocation is the certificate's, exact up to
rounding, so the residual is of rounding size (1e-15 to 1e-13 on the
benchmark's problems) and the point is the exact minimizer. For a point the
stages end on, u comes from the last temperature's softmax tie split over
every pair, which converges to an optimal allocation only as the
temperature vanishes.
"""

import contextlib
import warnings
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, NonpositiveBeta, NoConvergenceWarning, ZeroExpectedValue
from .market import ItemSequence, MarketInstance, ReferenceDistribution
from .pace import pacing_box


class DualProblem:
    """Valuations, item weights summing to 1, and the multiplier box."""

    def __init__(self, valuations: np.ndarray, weights: np.ndarray, lo: float, hi: float):
        v = np.asarray(valuations, dtype=np.float64)
        if v.flags.writeable:  # a read-only array is kept, not copied
            v = v.copy()
        w = np.array(weights, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("valuations must be a 2-d matrix")
        if w.shape != (v.shape[1],):
            raise ValueError("weights length must match the item count")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not 0.0 < lo < hi:
            raise ValueError("box must satisfy 0 < lo < hi")
        v.setflags(write=False)
        w.setflags(write=False)
        self.valuations, self.weights, self.lo, self.hi = v, w, lo, hi

    @property
    def n(self) -> int:
        return self.valuations.shape[0]

    @property
    def m(self) -> int:
        return self.valuations.shape[1]

    @cached_property
    def root_weights(self) -> np.ndarray:
        """sqrt(w), the item side of R."""
        return np.sqrt(self.weights)

    @cached_property
    def root_factor(self) -> np.ndarray:
        """R = V sqrt(w), built on first use (see the module's docstring)."""
        return self.valuations * self.root_weights


def market_problem(instance: MarketInstance, weights, delta0: float = 1.0) -> DualProblem:
    """Dual problem for a market with the pacing box implied by delta0."""
    lo, hi = pacing_box(instance.n, delta0)
    w = weights.probs if isinstance(weights, ReferenceDistribution) else weights
    return DualProblem(instance.valuations, w, lo, hi)


class StageCounts(NamedTuple):
    """Work of one temperature stage.

    evaluations counts evaluations of the smoothed objective, the start
    point's and rejected trial points' included. predicted says whether the
    stage was given a slope and so started from the tangent predictor's
    point (see _newton_stage).
    """

    mu: float
    steps: int
    evaluations: int
    predicted: bool


class DualSolution(NamedTuple):
    """Minimizer estimate with its objective, fixed-point residual, and cost.

    stages holds each temperature stage's counts; iterations and
    evaluations are their totals of Newton steps and objective evaluations.
    certified_mu is the temperature of the stage after which the exact
    crossover certified beta_hat, or None when the solve ran all its stages
    and beta_hat is the last stage's point. crossover_attempts counts the
    crossover attempts, one after each stage from the cold ladder's stage
    _CROSSOVER_STAGE on and one after the last, and pivots the forest
    pivots made over all of them.
    """

    beta_hat: np.ndarray
    objective: float
    residual: float
    converged: bool
    stages: tuple
    certified_mu: Optional[float]
    crossover_attempts: int
    pivots: int

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


# Exponents below this cutoff are left at 0 without calling exp. The top
# weight of a column is exactly 1, so a dropped weight is below e^-100,
# about 3.7e-44, of its column's mass, which is at least 1: a column's n
# dropped weights sum to less than half an ulp of it for any n below 1e27,
# and the mass, the value and every kept share are those of a plain exp.
# A product of two kept shares is at least e^-200, about 1.4e-87, so the
# Hessian's cross term and its LU factors stay far above the subnormal
# range, on which arithmetic is slow: at a cutoff of -690 the seed-5
# wide_market Hessians at mu ~ 1e-4 held a median of 202 subnormal entries
# and np.linalg.solve took 420 us on them, against 170 us at -100. The
# single-precision stages, whose weights are float32, cut at
# _SINGLE_EXP_CUTOFF instead.
_EXP_CUTOFF = -100.0

# The cutoff of the single-precision stages (see _SingleView). A dropped
# weight is below e^-40, about 4.2e-18, of its column's mass: a column's n
# dropped weights sum to less than half a float32 ulp of it for any n below
# about 7e9. A product of two kept weights is at least e^-80, about 1.8e-35,
# above float32's smallest normal, 1.2e-38.
_SINGLE_EXP_CUTOFF = -40.0

# A working set holds the pairs within _SET_WIDTH mu of their column's top
# bid at its stage's start point. Past the 100 mu that can carry weight, the
# slack covers the stage's moves: a pair left out must close a gap of about
# (_SET_WIDTH - 100) mu before its weight can be nonzero. A wider set runs
# its stage dense sooner (_DENSE_SHARE). At 600 the mu ~ 1e-4 stage's set
# holds 9-10% of the pairs on the benchmark's shapes and the mu ~ 1e-5
# stage's 1.4-1.7%. Median solve time at seeds 5 and 11, over that of a
# cutoff of -690 with width 3000, measured when a stage also rebuilt its set
# at points that moved too far: widths 250, 400, 600 and 1000 took 0.76,
# 0.67, 0.65 and 0.73 of it on wide_market and 0.80, 0.74, 0.76 and 0.80 on
# paper; the cutoff alone, at width 3000, took 0.90 and 0.88.
_SET_WIDTH = 600.0

# A set holding this share of the n m pairs or more is not used and its
# stage runs dense. Per pair the set's gathers and scatters cost more than
# the dense evaluation's contiguous passes. On the benchmark's shapes, a
# whole stage at a temperature between 1e-5 and 1e-4, started from the same
# point and run on the set, took 0.74-0.80 times its dense time where the
# set held 28-30% of the pairs, 0.92-0.99 times at 40-43% and 1.10-1.31
# times at 56-58%. With a set width of 600, the sets on those shapes hold
# nearly all pairs at temperatures of 1e-3 and above and at most 10% below,
# so any threshold between the two runs the same stages; sets on every
# stage (a threshold above 1) took 18-41 times the solve time.
_DENSE_SHARE = 0.4

# Newton steps per temperature stage; a stage that reaches it hands its
# point to the next one.
_MAX_STAGE_STEPS = 200


class _WorkingSet:
    """The pairs that can carry softmax weight near the point a set is
    built at.

    Holds the (agent, item) pairs that inside, an (n, m) mask, names,
    grouped by column with agents ascending. Built at a point from the
    pairs whose bid lies within _SET_WIDTH mu of their column's top bid,
    every excluded pair's exponent there is below the cutoff and each
    column's top bid is one of the set's, so at that point the value and
    shares computed on the set are the dense ones bit for bit (each
    column's mass sums its agents in the same order, less terms of exactly
    0), and the utilities and Hessian equal the dense ones up to summation
    order. On the single-precision view a set sums each column's mass in
    float64 and the dense pass in float32, so there they agree to float32
    rounding. At any point the set's value sums a subset of each column's
    terms, a lower bound on the dense one.
    """

    def __init__(self, inside, prob: DualProblem):
        # the transposed mask's flat order is by item, agents ascending
        self.cols, self.rows = np.divmod(np.flatnonzero(inside.T), prob.n)
        self.values = prob.valuations[self.rows, self.cols]
        # R's entries bit for bit, without building R
        self.root_weights = prob.root_weights[self.cols]
        self.roots = self.values * self.root_weights
        counts = np.bincount(self.cols, minlength=prob.m)
        self.starts = np.cumsum(counts) - counts


class _SingleView:
    """The arrays of a problem in single precision, for the early stages.

    Holds float32 V, sqrt(w) and R = V sqrt(w), and the problem's float64
    weights, which weigh the prices in the objective. The kernels run on it
    as on the problem: they cast beta to the arrays' dtype where it meets V,
    take their exponent cutoff from it (_SINGLE_EXP_CUTOFF for float32),
    and return the objective, utilities and Hessian in float64 (see
    solve_dual). Only a problem that _fits_single passes gets a view.
    """

    def __init__(self, prob: DualProblem):
        self.n, self.m, self.lo, self.hi = prob.n, prob.m, prob.lo, prob.hi
        self.weights = prob.weights
        self.valuations = prob.valuations.astype(np.float32)
        self.root_weights = prob.root_weights.astype(np.float32)
        self.root_factor = self.valuations * self.root_weights


def _fits_single(prob: DualProblem) -> bool:
    """Whether every number a stage forms on prob's single-precision view
    stays within float32's normal range.

    On the view a bid beta V reaches hi max V, which also bounds a
    utility, at most an agent's expected value, and a price. A Hessian
    entry or diagonal term sums m products of root entries, each at most
    max R^2. Those must stay below half of float32's largest number, about
    3.4e38, since a sum that overflows turns to inf and a difference of
    two to NaN. Every positive bid, at least lo V, and the largest R^2
    must stay above float32's smallest normal, about 1.2e-38, below which
    digits are lost. A problem outside runs every stage in double: its
    valuations need not be normalized (fairpace solve passes a market
    file's as they are).
    """
    limits = np.finfo(np.float32)
    v = prob.valuations
    tops = v.max(axis=0)
    v_max = float(tops.max())
    v_min = float(np.min(v, where=v > 0.0, initial=np.inf))
    r_max = float((tops * prob.root_weights).max())
    return (
        max(prob.hi * v_max, prob.m * r_max * r_max) <= 0.5 * float(limits.max)
        and min(prob.lo * v_min, r_max * r_max) >= float(limits.tiny)
    )


def _working_set(beta, prob: DualProblem, mu: float):
    """The working set at beta, or None when it would hold _DENSE_SHARE of
    the pairs or more."""
    z = beta.astype(prob.valuations.dtype, copy=False)[:, None] * prob.valuations
    z -= z.max(axis=0)
    inside = z >= -_SET_WIDTH * mu
    if np.count_nonzero(inside) / inside.size >= _DENSE_SHARE:
        return None
    return _WorkingSet(inside, prob)


def _smoothed_value(beta, prob: DualProblem, mu: float, working=None):
    """Softmax relaxation of the objective, with the softmax weights behind it.

    Returns the value, each agent's unnormalized softmax weight per item and
    each item's total weight. Exponents below the cutoff of their dtype
    (_EXP_CUTOFF, or _SINGLE_EXP_CUTOFF for float32) give weights of
    exactly 0, so the value is that of a plain exp, and at small
    temperatures nearly every entry is that far below its column's top bid.
    The weights have the dtype of the problem's arrays; the value is summed
    over the prices in float64.
    Given a working set, the weights are those of the set's pairs, in its
    order; at the point the set was built at they are the dense ones.
    """
    bid_beta = beta.astype(prob.valuations.dtype, copy=False)
    if working is None:
        z = bid_beta[:, None] * prob.valuations
        top = z.max(axis=0)
        z -= top
    else:
        z = bid_beta[working.rows] * working.values
        top = np.maximum.reduceat(z, working.starts)
        z -= top[working.cols]
    z /= mu
    # exp of every entry, raised first to 10 below the cutoff so that none
    # turns subnormal, then zeroed below the cutoff: the same weights as exp
    # taken where the exponent reaches the cutoff, on numpy's vector path
    cut = _SINGLE_EXP_CUTOFF if z.dtype == np.float32 else _EXP_CUTOFF
    keep = z >= cut
    np.maximum(z, cut - 10.0, out=z)
    weights_exp = np.exp(z, out=z)
    weights_exp *= keep
    if working is None:
        # agent by agent, as numpy sums the rows of a wider array and as
        # bincount sums a set's columns; one column it would sum pairwise
        mass = weights_exp.sum(axis=0) if prob.m > 1 else np.cumsum(weights_exp, axis=0)[-1]
    else:
        mass = np.bincount(working.cols, weights_exp, prob.m)
    prices = mu * np.log(mass) + top
    obj = float(prices @ prob.weights - np.log(beta).sum() / prob.n)
    return obj, weights_exp, mass


def _smoothed_state(beta, prob: DualProblem, mu: float, value=None, working=None):
    """Smoothed objective with its gradient, utilities and root array.

    value, if given, is _smoothed_value's result at the same point and on
    the same working set; its weights become the root array in place.
    """
    obj, root, mass = _smoothed_value(beta, prob, mu, working) if value is None else value
    if working is None:
        root /= mass
        root *= prob.root_factor
        # OpenBLAS's float32 matrix-vector product can raise the invalid
        # flag on finite operands, from lanes it discards: about a third of
        # fresh processes did so on one 6 x 5 stage, whose result was right
        single = root.dtype == np.float32
        with np.errstate(invalid="ignore") if single else contextlib.nullcontext():
            utilities = (root @ prob.root_weights).astype(np.float64, copy=False)
    else:
        root /= mass[working.cols]
        root *= working.roots
        utilities = np.bincount(working.rows, root * working.root_weights, prob.n)
    grad = utilities - 1.0 / (prob.n * beta)
    return obj, grad, utilities, root


def _smoothed_hessian(prob: DualProblem, mu: float, root, working=None):
    """Exact Hessian of the smoothed price term, in float64; adding the
    barrier's diagonal 1 / (n beta^2) makes it the objective's, positive
    definite.

    On a working set a column enters only if two or more of its pairs have
    nonzero root, or one has a share below 1 (other shares lie on pairs of
    valuation 0): in any other column a pair's share is 0 or exactly 1, and
    its diagonal and cross terms cancel. The cross term sums, by bincount
    over (agent, agent) indices, the products of every two of an entering
    column's pairs, each pair with itself included.
    """
    n = prob.n
    if working is None:
        diag_term = np.einsum("ij,ij->i", root, prob.root_factor)
        # a product of a matrix with its own transpose runs as a symmetric
        # rank-k update, half the flops of a general product
        H = (root @ root.T).astype(np.float64, copy=False)
    else:
        nonzero = root > 0
        per_column = np.bincount(working.cols[nonzero], minlength=prob.m)
        pick = np.flatnonzero(nonzero & ((per_column >= 2)[working.cols] | (root < working.roots)))
        rows, cols, picked = working.rows[pick], working.cols[pick], root[pick]
        diag_term = np.bincount(rows, picked * working.roots[pick], n)
        # the picked entries are grouped by column: entry e pairs with the k[e]
        # entries of its column, which start at the column's first entry
        k = per_column[cols]
        left = np.repeat(np.arange(pick.size), k)
        offset = np.arange(left.size) - np.repeat(np.cumsum(k) - k, k)
        right = np.repeat(np.searchsorted(cols, cols), k) + offset
        # 1.0 *: over no pairs bincount returns integers
        H = 1.0 * np.bincount(rows[left] * n + rows[right], picked[left] * picked[right], n * n)
        H = H.reshape(n, n)
    H.flat[:: n + 1] -= diag_term
    H /= -mu
    return H


def _projected_gradient(beta, grad, lo, hi) -> np.ndarray:
    pg = grad.copy()
    pg[(beta <= lo * (1 + 1e-12)) & (grad > 0)] = 0.0
    pg[(beta >= hi * (1 - 1e-12)) & (grad < 0)] = 0.0
    return pg


def _norm(x) -> float:
    return float(np.sqrt((x**2).sum()))


def _newton_stage(beta, prob: DualProblem, mu: float, gtol: float, slope=None):
    """Damped projected Newton on the mu-smoothed objective.

    Given slope, the pair (mu0, d beta / d mu at beta) that _tangent
    returns for the stage at mu0 that ended at beta, the stage starts from
    its predicted point on the central path, clip(beta + (mu - mu0) slope);
    without one, from beta. It builds its working set at the start point
    and evaluates every point of the stage on it, the start first (dense
    when no set is built).

    Bound-active coordinates whose gradient points outward are frozen; the
    Newton system is solved on the free block. One backtracking search
    clips each trial step to the box and evaluates each trial point by
    value alone unless the value could pass. It accepts the first trial
    point whose objective strictly decreases, or whose objective is flat to
    rounding (within 64 eps of the current value, eps that of the problem's
    arrays, float32's on the single-precision view) while its projected
    gradient norm drops below 0.9 times the current one. Near the optimum
    the improvement in stiff directions falls below the floating-point
    resolution of the objective; the second test lets the quadratic phase
    run down to the gradient noise floor.

    The first step of a stage tries the full Newton step; later ones start
    at four times the step length last accepted, capped at 1, since at small
    temperatures the full step overshoots for many steps in a row. Each
    search halves its length up to 40 times. The stage ends when the
    projected gradient is within gtol, after _MAX_STAGE_STEPS steps, or
    when no trial point is accepted.

    Returns the new point, its utilities under this stage's tie split over
    the set's pairs, its root array (see _smoothed_state) with the stage's
    working set (None for a dense stage) and the stage's StageCounts.
    """
    lo, hi = prob.lo, prob.hi
    if slope is not None:
        beta = np.clip(beta + (mu - slope[0]) * slope[1], lo, hi)
    working = _working_set(beta, prob, mu)
    obj, grad, utilities, root = _smoothed_state(beta, prob, mu, working=working)
    pg = _projected_gradient(beta, grad, lo, hi)
    steps, evaluations, last = 0, 1, 1.0
    while steps < _MAX_STAGE_STEPS and np.abs(pg).max() > gtol:
        free = pg != 0.0
        H = _smoothed_hessian(prob, mu, root, working)
        H.flat[:: prob.n + 1] += 1.0 / (prob.n * beta**2)
        direction = np.zeros_like(beta)
        sub = H[np.ix_(free, free)]
        try:
            direction[free] = np.linalg.solve(sub, -grad[free])
        except np.linalg.LinAlgError:
            direction[free] = -grad[free]
        steps += 1
        pg_norm = _norm(pg)
        flat = obj + 64.0 * np.finfo(prob.valuations.dtype).eps * max(1.0, abs(obj))
        first, accepted = min(1.0, 4.0 * last), None
        for k in range(40):
            alpha = first * 0.5**k
            candidate = np.clip(beta + alpha * direction, lo, hi)
            if not np.any(candidate != beta):
                continue
            # a rejected point's dense arrays go before the next evaluation
            found = state = None
            found = _smoothed_value(candidate, prob, mu, working)
            evaluations += 1
            if found[0] <= flat:
                state = _smoothed_state(candidate, prob, mu, found, working)
                cand_pg = _projected_gradient(candidate, state[1], lo, hi)
                if state[0] < obj or _norm(cand_pg) < 0.9 * pg_norm:
                    accepted = (candidate, state, cand_pg)
                    last = alpha
                    break
        if accepted is None:
            break
        beta, (obj, grad, utilities, root), pg = accepted
    return beta, utilities, (root, working), StageCounts(mu, steps, evaluations, slope is not None)


def _tangent(beta, prob: DualProblem, mu: float, utilities, root, working):
    """The central path's slope d beta / d mu at a stage's end point.

    utilities, root and working are the stage's, as _newton_stage returns
    them. On the path the gradient g vanishes on the free coordinates, so
    there H d beta / d mu = -dg/dmu = H_p beta / mu by Euler's identity (see
    the module's docstring), H_p beta taken before the barrier's diagonal is
    added, which it would largely cancel. The frozen coordinates' slope is
    0. Returns None when the free block of the Hessian is singular.
    """
    n = prob.n
    free = _projected_gradient(beta, utilities - 1.0 / (n * beta), prob.lo, prob.hi) != 0.0
    H = _smoothed_hessian(prob, mu, root, working)
    rhs = (H @ beta) / mu
    H.flat[:: n + 1] += 1.0 / (n * beta**2)
    slope = np.zeros_like(beta)
    try:
        slope[free] = np.linalg.solve(H[np.ix_(free, free)], rhs[free])
    except np.linalg.LinAlgError:
        return None
    return slope


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


# The crossover's forest is drawn from the pairs whose softmax share at the
# stage's point exceeds _SHARE_FLOOR. It is tried after the last stage and
# after each stage from _CROSSOVER_STAGE on, where the temperature has
# fallen to 1e-4 times the first stage's, and pivots its forest in at most
# _PIVOT_ROUNDS rounds per attempt. On the benchmark's shapes, after that
# stage, the forest of the stage's flow named the optimum's ties in every
# solve of seeds 5, 11 and 12 within 5 pivots and 6 certificates, each
# 0.75-0.9 ms at n = 100 and 730 items of positive weight.
_SHARE_FLOOR = 1e-3
_CROSSOVER_STAGE = 4
_PIVOT_ROUNDS = 8

# The stages before this one in the cold ladder, at temperatures down to
# 1e-2 times the first, run on the problem in single precision unless they
# are the last (see solve_dual). It lies below _CROSSOVER_STAGE, so every
# crossover runs in double. A float32 exponent (bid - top) / mu rounds by
# about eps top / mu, tenfold more with each stage while the stage's stop,
# 0.1 mu, shrinks tenfold: with the 1e-3 stage in single precision too, 135
# of the 1763 stages of the cold and warm solves of
# test_every_stage_ends_at_its_gradient_tolerance ended above their stop, all
# of them single, against none at 3.
_DOUBLE_STAGE = 3

# Every stage but the last only hands its point on, to the next stage or to
# a crossover, so it stops at a projected gradient of _LOOSE_GTOL mu; the
# last stops at the tolerance's floor. On the benchmark's solves at seeds 5,
# 11 and 12 (warm-started, with the predictor, interleaved in one process),
# 0.1 mu in the stages before _CROSSOVER_STAGE took 0.93-0.95 of the solve
# time of 1e-3 mu on paper and 0.91-0.97 on wide_market, with beta_hat
# bit-identical; 0.3 mu was no faster than 0.1 within the noise, and 1.0 mu
# took 1.2-1.4 times as long as 0.1 on wide_market. The stages that feed a
# crossover need no tighter stop: moving them from 1e-3 mu to 0.1 mu, with
# each stage started at its predicted point, kept those solves' beta_hat bit
# for bit and cut their Newton steps from 474 to 458 on paper and from 293
# to 284 on wide_market.
_LOOSE_GTOL = 0.1


def _candidates(prob: DualProblem, root, working):
    """The crossover's candidate pairs, grouped by item with agents
    ascending: their agents, items, valuations and flows, share times item
    weight.

    The shares are the root array's entries over R's, dense or on the
    working set. A pair is a candidate when its share exceeds _SHARE_FLOOR
    or is the largest of its item's, which is the top bid's, and its
    valuation is positive. So every item of positive price has a candidate.
    """
    R = prob.root_factor if working is None else working.roots
    shares = np.divide(root, R, out=np.zeros_like(root), where=R > 0)
    if working is None:
        picked = (shares > _SHARE_FLOOR) | (shares == shares.max(axis=0))
        cols, rows = np.divmod(np.flatnonzero(picked.T), prob.n)
        shares = shares[rows, cols]
    else:
        largest = np.maximum.reduceat(shares, working.starts)[working.cols]
        picked = (shares > _SHARE_FLOOR) | (shares == largest)
        rows, cols, shares = working.rows[picked], working.cols[picked], shares[picked]
    values = prob.valuations[rows, cols]
    positive = values > 0
    rows, cols, values = rows[positive], cols[positive], values[positive]
    return rows, cols, values, shares[positive] * prob.weights[cols]


def _flow_forest(pairs, forced, banned, n: int, m: int):
    """Kruskal's maximum spanning forest of the shared items' pairs.

    pairs lists the candidate pairs (agent, item) of the shared items, the
    items that two or more candidates or a forced pair name, by decreasing
    flow. Forced pairs enter first, then the candidates in order, each one
    unless it is banned or closes a cycle (union-find over agents and
    items). Rebuilding so gives the maximum spanning forest that each
    pivot's update in place would: a forced pair closes at most one cycle,
    whose lightest pair leaves, and a banned pair's two sides are joined
    again by the heaviest pair across them, if there is one. Returns the
    forest's agents and items.
    """
    root = list(range(n + m))
    agents, items = [], []
    for i, j in forced + pairs:
        if banned and (i, j) in banned:
            continue
        a, b = i, n + j
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[a] = b
            agents.append(i)
            items.append(j)
    return agents, items


def _certificate(beta, prob: DualProblem, tol: float, forest, whole, at_bound):
    """The exact optimum a forest of ties implies, if certified, or the
    pivots it needs.

    Two agents the forest joins through an item bid the same price for it,
    so each tree fixes its agents' multipliers up to one scale. A tree
    whose root is box-bound (their multiplier at beta lies on a bound)
    keeps the root there; the scale of any other tree makes the spend on
    its items, weights times prices, equal its agents' budgets of 1/n each.
    Peeling leaves gives the allocation: an item that one agent bids on goes
    to them whole, and in each tree every agent but the root takes from the
    item above them what their budget still lacks, the root taking the
    rest. The point is certified when it lies in the box and, up to
    rounding,

    - every fraction lies in [0, 1];
    - each item's top bid over all agents is the price its tree sets, so
      no agent outbids the allocation;
    - an agent on the lower bound spends at least their budget, and one on
      the upper bound at most it;
    - the fixed-point residual under the allocation is at most 10 tol.

    The allocation then satisfies the dual's optimality conditions at the
    point, which is therefore the exact minimizer. Returns the point and
    its residual, or None, then the pivots that would mend a failed check:
    the pairs of each outbid item's top bidder, to force into the forest,
    else the forest's pairs of negative fraction, to ban from it. Both are
    empty when the point is certified or fails a check no pivot mends.
    """
    n, V, w = prob.n, prob.valuations, prob.weights
    lo, hi = prob.lo, prob.hi
    # the forest's pairs and then the whole items', grouped by item with
    # agents ascending
    forest_rows = np.array(forest[0], dtype=np.int64)
    forest_cols = np.array(forest[1], dtype=np.int64)
    rows = np.concatenate((forest_rows, whole[0]))
    cols = np.concatenate((forest_cols, whole[1]))
    values = np.concatenate((V[forest_rows, forest_cols], whole[2]))
    by_item = np.argsort(cols * n + rows)
    rows, cols, values, tied = rows[by_item], cols[by_item], values[by_item], by_item < forest_rows.size
    tied_rows, tied_items = rows[tied].tolist(), (cols[tied] + n).tolist()

    neighbors = {}
    for i, j in zip(tied_rows, tied_items):
        neighbors.setdefault(i, []).append(j)
        neighbors.setdefault(j, []).append(i)
    # breadth-first trees, started from the box-bound agents first, so a
    # tree that holds one has a box-bound root
    parent, orders = {}, []
    for root in sorted((i for i in neighbors if i < n), key=lambda i: not at_bound[i]):
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for node in order:
            up = parent[node]
            for other in neighbors[node]:
                if other != up:
                    parent[other] = node
                    order.append(other)
        orders.append(order)

    # each agent's multiplier relative to their tree's root, which names it
    ratio, tree = [1.0] * n, list(range(n))
    for order in orders:
        for node in order[1:]:
            if node < n:
                item = parent[node]
                above = parent[item]
                ratio[node] = ratio[above] * V[above, item - n] / V[node, item - n]
                tree[node] = order[0]
    ratio, tree = np.array(ratio), np.array(tree)
    # the spend on each tree's items at scale 1, pricing each item by the
    # bid of its first agent
    first = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    unit_spend = w[cols[first]] * ratio[rows[first]] * values[first]
    unit_spend = np.bincount(tree[rows[first]], unit_spend, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.bincount(tree, minlength=n) / (n * unit_spend)
    bound_root = at_bound & (tree == np.arange(n))
    scale[bound_root] = beta[bound_root]
    beta_hat = scale[tree] * ratio
    if not np.all((beta_hat >= lo) & (beta_hat <= hi)):
        return None, [], []

    eps = np.finfo(float).eps
    prices = (beta_hat[:, None] * V).max(axis=0)
    # two of a tree's bids on one item differ by at most six roundings of
    # eps/2: a ratio's product and division, and each bid's two products
    outbid = prices[cols] - beta_hat[rows] * values > 4.0 * eps * prices[cols]
    if np.any(outbid):
        items = np.flatnonzero(np.bincount(cols[outbid], minlength=prob.m))
        top = (beta_hat[:, None] * V[:, items]).argmax(axis=0)
        return None, list(zip(top.tolist(), items.tolist())), []

    spend = w * prices
    got = np.bincount(rows[~tied], spend[cols[~tied]], n).tolist()
    remain = dict(zip(tied_items, spend[cols[tied]].tolist()))
    taken = {}
    for order in orders:
        for node in reversed(order[1:]):
            up = parent[node]
            if node < n:
                taken[node, up] = 1.0 / n - got[node]
                remain[up] -= taken[node, up]
            else:
                taken[up, node] = remain[node]
                got[up] += remain[node]
    pair_spend = spend[cols]
    pair_spend[tied] = [taken[pair] for pair in zip(tied_rows, tied_items)]
    # each spend above is a signed sum of at most m + n item spends and
    # budgets, accumulated through partial sums below their total, so it
    # rounds by (m + n) eps/2 of at most twice max(total spend, 1); each
    # item spend adds eps of its own from its price and weight
    slack = (prob.m + n + 1) * eps * max(spend.sum(), 1.0)
    negative = pair_spend < -slack
    if np.any(negative):
        return None, [], list(zip(rows[negative].tolist(), cols[negative].tolist()))
    if np.any(pair_spend > spend[cols] + slack):
        return None, [], []
    agent_spend = np.bincount(rows, pair_spend, n)
    if np.any((beta_hat == lo) & (agent_spend < 1.0 / n - slack)) or np.any(
        (beta_hat == hi) & (agent_spend > 1.0 / n + slack)
    ):
        return None, [], []
    utilities = np.bincount(rows, pair_spend * values / prices[cols], n)
    with np.errstate(divide="ignore"):
        fixed_point = np.clip(1.0 / (n * utilities), lo, hi)
    residual = float(np.max(np.abs(beta_hat - fixed_point)))
    if residual > 10.0 * tol:
        return None, [], []
    return (beta_hat, residual), [], []


def _crossover(beta, prob: DualProblem, tol: float, root, working):
    """The exact dual optimum the flow at beta implies, if certified.

    root is the root array at beta, dense (working None) or on the working
    set, as _newton_stage returns it.

    Builds the forest of the candidates' flow (see _flow_forest) and checks
    the point and allocation it implies (see _certificate). Each failed
    check that a pivot mends pivots the forest, for at most _PIVOT_ROUNDS
    rounds: an outbid item forces its pair with its top bidder into the
    forest, and a negative fraction bans its pair, each undoing an earlier
    pivot on the same pair. A forest an earlier round already checked, with
    the same shared items, ends the attempt: its certificate would fail
    again. Returns the certified point and its residual, or None, with the
    number of pivots made.
    """
    n, m = prob.n, prob.m
    rows, cols, values, flow = _candidates(prob, root, working)
    by_flow = np.argsort(-flow, kind="stable")
    multiple = np.bincount(cols, minlength=m) >= 2
    at_bound = (beta == prob.lo) | (beta == prob.hi)
    forced, banned, pivots, checked = [], set(), 0, set()
    for rounds in range(_PIVOT_ROUNDS + 1):
        shared = multiple.copy()
        shared[[j for _, j in forced]] = True
        pick = by_flow[shared[cols[by_flow]]]
        pairs = list(zip(rows[pick].tolist(), cols[pick].tolist()))
        forest = _flow_forest(pairs, forced, banned, n, m)
        # the certificate depends on the forest's pairs, not their order
        state = (frozenset(zip(*forest)), shared.tobytes())
        if state in checked:
            return None, pivots
        checked.add(state)
        alone = ~shared[cols]
        whole = rows[alone], cols[alone], values[alone]
        exact, force, ban = _certificate(beta, prob, tol, forest, whole, at_bound)
        if not (force or ban) or rounds == _PIVOT_ROUNDS:
            return exact, pivots
        forced = [pair for pair in forced if pair not in ban] + force
        banned = banned.difference(force).union(ban)
        pivots += len(force) + len(ban)


def solve_dual(prob: DualProblem, tol: float = 1e-8, warm=None) -> DualSolution:
    """Minimize the dual over the box by smoothed Newton continuation.

    Only items of positive weight enter the solve. The softmax temperature
    starts near the bid scale and decays by factors of ten down to the
    tolerance; each stage takes at most _MAX_STAGE_STEPS Newton steps, and
    each after the first starts from the tangent predictor's point unless
    the tangent's linear solve failed (see _newton_stage and _tangent).
    Every stage but the last stops at a projected gradient of
    _LOOSE_GTOL mu, and the last at the tolerance's gradient floor. The
    stages before _DOUBLE_STAGE, unless one is the last, run on a
    _SingleView of the problem, built when the first of them starts and
    dropped when the first double stage starts, if the problem's numbers
    fit float32 (see _fits_single); otherwise they run in double. From stage
    _CROSSOVER_STAGE on, and after the last stage, _crossover tries to
    certify the exact optimum the stage's softmax flow implies, and the
    first point it certifies is returned with its certificate's residual.
    Otherwise the residual of the last stage's point is the fixed-point gap
    under that temperature's tie split over every pair, one dense
    evaluation in double: the stage's working set may miss a pair that
    carries weight there.
    If the residual exceeds 10 tol a NoConvergenceWarning is emitted and the
    best iterate is still returned.

    warm, if given, is (beta, weights): the optimum of the same market under
    other item weights summing to 1. The solve then starts from beta,
    clipped to the box, and skips the stages above TV times the first
    temperature, TV the total variation distance between the two weight
    vectors, but never the last; skipped stages keep their place in the
    ladder, so the crossover follows the same temperatures. The returned
    objective never exceeds the starting point's objective (the box's upper
    corner for a cold solve).
    """
    expected = prob.valuations @ prob.weights
    if np.any(expected <= 0):
        bad = np.flatnonzero(expected <= 0)
        raise ZeroExpectedValue(f"agents {bad.tolist()} have zero weighted value")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if warm is not None:
        warm_beta, warm_weights = (np.asarray(x, dtype=np.float64) for x in warm)
        if warm_beta.shape != (prob.n,) or warm_weights.shape != (prob.m,):
            raise ValueError("warm start must hold n multipliers and m item weights")
        # the total variation distance, which is 1 - sum min(w, w') for
        # weights summing to 1: exactly 1 for disjoint supports
        distance = 1.0 - float(np.minimum(prob.weights, warm_weights).sum())
    positive = prob.weights > 0
    if not positive.all():
        # compress keeps the valuations row-major; a column mask would leave
        # them in Fortran order, on which the dense passes over items are slower
        valuations = np.compress(positive, prob.valuations, axis=1)
        valuations.setflags(write=False)
        prob = DualProblem(valuations, prob.weights[positive], prob.lo, prob.hi)
    n = prob.n
    if warm is None:
        init = np.full(n, prob.hi)
        beta = np.full(n, min(1.0, prob.hi))
    else:
        init = beta = np.clip(warm_beta, prob.lo, prob.hi)
    init_objective = dual_objective(init, prob)

    scale = float(expected.max())
    mu_end = max(tol, 1e-12)
    gtol_final = max(tol / (n * prob.hi**2) * 0.1, 1e-13)
    mus = _temperatures(0.1 * max(scale, 1e-6), mu_end)
    last = len(mus) - 1
    first = 0
    if warm is not None:
        # moving weight TV between items moves the optimal objective by at
        # most about 2 TV times a price, a gap the stages above TV times the
        # first temperature smooth over
        while first < last and mus[first] > distance * mus[0]:
            first += 1
    stages, certified_mu = [], None
    attempts, pivots, slope, single = 0, 0, None, None
    # the stages before this one, unless one is the last, run in single
    # precision; every stage runs in double on a problem outside float32
    double_from = _DOUBLE_STAGE if first < _DOUBLE_STAGE and _fits_single(prob) else 0
    for k in range(first, last + 1):
        mu = mus[k]
        gtol = gtol_final if k == last else max(_LOOSE_GTOL * mu, gtol_final)
        # the stage's problem: the single-precision view or, from the first
        # double stage on, the problem itself
        if k >= double_from or k == last:
            single = None
        elif single is None:
            single = _SingleView(prob)
        on = prob if single is None else single
        beta, utilities, root, counts = _newton_stage(beta, on, mu, gtol, slope)
        stages.append(counts)
        if k >= _CROSSOVER_STAGE or k == last:
            exact, made = _crossover(beta, prob, tol, *root)
            attempts += 1
            pivots += made
            if exact is not None:
                (beta, residual), certified_mu = exact, mu
                break
        if k < last:
            tangent = _tangent(beta, on, mu, utilities, *root)
            slope = None if tangent is None else (mu, tangent)
        # a dense root array is an (n, m) array the next stage must not hold
        del root

    if certified_mu is None:
        utilities = _smoothed_state(beta, prob, mu)[2]
        with np.errstate(divide="ignore"):
            fixed_point = np.clip(1.0 / (n * utilities), prob.lo, prob.hi)
        residual = float(np.max(np.abs(beta - fixed_point)))
    objective = dual_objective(beta, prob)
    if objective > init_objective:
        beta, objective = init, init_objective
        residual, certified_mu = np.inf, None
    solution = DualSolution(
        beta_hat=beta,
        objective=objective,
        residual=residual,
        converged=residual <= 10.0 * tol,
        stages=tuple(stages),
        certified_mu=certified_mu,
        crossover_attempts=attempts,
        pivots=pivots,
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
    warm=None,
) -> DualSolution:
    """Dual optimum of the realized sequence, via its empirical frequencies.

    warm is solve_dual's: the optimum of the market under other weights,
    such as the reference distribution's, with those weights.
    """
    if seq.items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    weights = np.bincount(seq.items, minlength=instance.m) / seq.t
    return solve_dual(market_problem(instance, weights, delta0), tol=tol, warm=warm)


def solution_to_dict(solution: DualSolution) -> dict:
    return {
        "beta": solution.beta_hat.tolist(),
        "objective": solution.objective,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "evaluations": solution.evaluations,
        "stages": [stage._asdict() for stage in solution.stages],
        "certified_mu": solution.certified_mu,
        "crossover_attempts": solution.crossover_attempts,
        "pivots": solution.pivots,
    }

