import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from fairpace import eg, harness
from fairpace.eg import (
    DualProblem,
    dual_objective,
    equilibrium_utilities,
    hindsight_solution,
    market_problem,
    solution_to_dict,
    solve_dual,
)
from fairpace.errors import (
    DimensionMismatch,
    NonpositiveBeta,
    NoConvergenceWarning,
    ZeroExpectedValue,
)
from fairpace.inputs import reference_distribution
from fairpace.market import ItemSequence, MarketInstance
from tests.conftest import random_instance, traced_peak
from tests.oracles import dgrad_dmu


class TestDualObjective:
    def test_single_agent_uniform(self):
        prob = market_problem(MarketInstance(np.array([[1.0, 1.0]])), np.array([0.5, 0.5]))
        assert dual_objective(np.array([1.0]), prob) == pytest.approx(1.0)

    def test_identical_rows(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0]])
        prob = market_problem(MarketInstance(v), np.array([0.5, 0.5]))
        assert dual_objective(np.array([1.0, 1.0]), prob) == pytest.approx(1.0)

    def test_diagonal_example(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = market_problem(MarketInstance(v), np.array([0.5, 0.5]))
        value = dual_objective(np.array([0.5, 1.0]), prob)
        assert value == pytest.approx(0.75 - 0.5 * np.log(0.5))

    def test_rejects_nonpositive(self):
        prob = market_problem(MarketInstance(np.array([[1.0]])), np.array([1.0]))
        with pytest.raises(NonpositiveBeta):
            dual_objective(np.array([0.0]), prob)


class TestSolveDual:
    def test_single_agent_closed_form(self, rng):
        for _ in range(5):
            v = rng.random((1, 4)) + 0.05
            w = rng.random(4)
            w /= w.sum()
            prob = market_problem(MarketInstance(v), w)
            sol = solve_dual(prob)
            expected = np.clip(1.0 / (v[0] @ w), prob.lo, prob.hi)
            assert abs(sol.beta_hat[0] - expected) < 1e-8

    def test_identical_rows_symmetric_optimum(self):
        v = np.ones((2, 3))
        prob = market_problem(MarketInstance(v), np.full(3, 1 / 3))
        sol = solve_dual(prob)
        assert np.allclose(sol.beta_hat, 1.0, atol=1e-6)
        assert np.allclose(equilibrium_utilities(sol, 2), 0.5, atol=1e-6)

    def test_disjoint_supports(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = market_problem(MarketInstance(v), np.array([0.5, 0.5]))
        sol = solve_dual(prob)
        assert np.allclose(sol.beta_hat, 1.0, atol=1e-8)

    def test_zero_weighted_value_rejected(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        prob = market_problem(MarketInstance(v), np.array([1.0, 0.0]))
        with pytest.raises(ZeroExpectedValue):
            solve_dual(prob)

    def test_optimality_sandwich(self, rng):
        inst = random_instance(rng, 4, 6)
        prob = market_problem(inst, np.full(6, 1 / 6))
        sol = solve_dual(prob)
        for _ in range(100):
            probe = prob.lo + rng.random(4) * (prob.hi - prob.lo)
            assert sol.objective <= dual_objective(probe, prob) + 1e-10

    def test_interior_bound_normalized(self, rng):
        # with normalized rows and delta0 >= 1 the optimum sits in [1/n, 1]
        for trial in range(5):
            n, m = int(rng.integers(2, 7)), int(rng.integers(3, 9))
            inst = random_instance(rng, n, m)
            weights = np.full(m, 1 / m)
            sol = solve_dual(market_problem(inst, weights, delta0=1.0))
            assert np.all(sol.beta_hat >= 1 / n - 1e-6)
            assert np.all(sol.beta_hat <= 1.0 + 1e-6)

    def test_utility_feasibility(self, rng):
        inst = random_instance(rng, 3, 5)
        weights = rng.random(5)
        weights /= weights.sum()
        prob = market_problem(inst, weights)
        sol = solve_dual(prob)
        utils = equilibrium_utilities(sol, 3)
        welfare_cap = (inst.valuations.max(axis=0) * weights).sum()
        assert utils.sum() <= welfare_cap + 1e-8

    def test_residual_within_tolerance(self, rng):
        inst = random_instance(rng, 5, 8)
        weights = rng.random(8)
        weights /= weights.sum()
        sol = solve_dual(market_problem(inst, weights), tol=1e-8)
        assert sol.converged
        assert sol.residual <= 1e-7

    def test_deterministic(self, rng):
        inst = random_instance(rng, 4, 6)
        prob = market_problem(inst, np.full(6, 1 / 6))
        a = solve_dual(prob)
        b = solve_dual(prob)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.iterations == b.iterations

    def test_noconvergence_warning_on_tiny_budget(self, rng):
        # at tol = 1e-300 only a certificate of residual exactly 0 would end
        # the solve; on these twin rows every attempt's is a rounding error
        # above 0, so the stages run to their floor and stop above tol
        v = random_instance(rng, 4, 6).valuations.copy()
        v[1] = v[0]
        prob = market_problem(MarketInstance(v), np.full(6, 1 / 6))
        with pytest.warns(NoConvergenceWarning):
            sol = solve_dual(prob, tol=1e-300)
        assert not sol.converged
        assert sol.certified_mu is None
        # still no worse than the starting point
        assert sol.objective <= dual_objective(np.full(4, prob.hi), prob) + 1e-12

    def test_zero_weight_columns_dropped(self, rng):
        inst = random_instance(rng, 6, 12)
        weights = rng.random(12)
        weights[[1, 4, 5, 10]] = 0.0
        weights /= weights.sum()
        keep = weights > 0
        full = solve_dual(market_problem(inst, weights))
        cut = solve_dual(market_problem(MarketInstance(inst.valuations[:, keep]), weights[keep]))
        assert full.converged and cut.converged
        assert np.max(np.abs(full.beta_hat - cut.beta_hat)) <= 1e-12

    def test_zero_weighted_value_rejected_before_columns_dropped(self):
        # agent 1 values only the zero-weight items; dropping those columns
        # first would leave an all-zero row instead of the error
        v = np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0], [0.5, 1.0, 0.0, 1.0]])
        prob = market_problem(MarketInstance(v), np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ZeroExpectedValue, match=r"\[1\]"):
            solve_dual(prob)

    def test_evaluations_counted(self, monkeypatch):
        # objective evaluations the earlier two-loop line search made here
        parent_evaluations = 336
        rng = np.random.default_rng(7)
        v = rng.random((20, 60)) + 0.05
        w = rng.random(60)
        w /= w.sum()
        prob = market_problem(MarketInstance(v), w)
        calls = []
        value = eg._smoothed_value

        def counted(*args):
            calls.append(1)
            return value(*args)

        monkeypatch.setattr(eg, "_smoothed_value", counted)
        sol = solve_dual(prob)
        assert sol.converged
        # the count includes the predictor's evaluations at each stage's start
        assert any(stage.predicted for stage in sol.stages)
        assert sol.evaluations == len(calls)
        assert sol.evaluations < parent_evaluations

    def test_peak_allocation(self):
        # at the wide_market reference shape the solve holds the valuations'
        # root factor, one root array and the array of the point under
        # evaluation, with a few smaller temporaries: about 3.3 (n, m)
        # float arrays. One more live (n, m) array breaks the bound
        rng = np.random.default_rng(3)
        n, m = 100, 1500
        prob = market_problem(random_instance(rng, n, m), rng.dirichlet(np.ones(m)))
        sol, peak = traced_peak(solve_dual, prob)
        assert sol.converged
        assert peak < 4.0 * n * m * 8

    def test_stage_temperatures_spaced(self, monkeypatch):
        # a bid scale of 1.0016 used to end with stages at 1.0016e-8 and 1e-8.
        # The crossover would end these solves early, so it is made to fail
        # and every stage runs
        monkeypatch.setattr(eg, "_crossover", lambda *args: (None, 0))
        stage = eg._newton_stage
        for scale in (1.0016, 1.0, 0.37, 2.5e-7):
            seen = []

            def recorded(beta, prob, mu, gtol, slope=None):
                seen.append(mu)
                return stage(beta, prob, mu, gtol, slope)

            monkeypatch.setattr(eg, "_newton_stage", recorded)
            prob = market_problem(MarketInstance(np.full((1, 2), scale)), np.array([0.5, 0.5]))
            solve_dual(prob, tol=1e-8)
            assert seen[-1] == 1e-8
            for higher, lower in zip(seen, seen[1:]):
                assert higher >= 2.0 * lower
        for start, end in ((0.10016, 1e-8), (1e-3, 1e-8), (1.5e-8, 1e-8), (3e-9, 1e-8)):
            mus = eg._temperatures(start, end)
            assert mus[-1] == min(start, end)
            assert all(a >= 2.0 * b for a, b in zip(mus, mus[1:]))

    def test_every_stage_ends_at_its_gradient_tolerance(self, monkeypatch):
        # no stage of these cold solves, nor of the warm solves started from
        # their optima, ends on a line search that found nothing in its 40
        # halvings, or on its step limit
        stage = eg._newton_stage
        ends = []

        def recorded(beta, prob, mu, gtol, slope=None):
            out = stage(beta, prob, mu, gtol, slope)
            grad = out[1] - 1.0 / (prob.n * out[0])
            pg = eg._projected_gradient(out[0], grad, prob.lo, prob.hi)
            ends.append((np.abs(pg).max(), gtol))
            return out

        monkeypatch.setattr(eg, "_newton_stage", recorded)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 20)), int(rng.integers(2, 80))
            prob = boxed_problem(seed, n, m, (0.02, 0.1, 1.0)[seed % 3], seed % 2 == 1)
            if prob is None:
                continue
            weights = other_weights(prob, seed)
            other = solve_dual(DualProblem(prob.valuations, weights, prob.lo, prob.hi))
            solve_dual(prob, warm=(other.beta_hat, weights))
        assert len(ends) > 1500
        assert all(pg <= gtol for pg, gtol in ends)


class TestSmoothedState:
    @staticmethod
    def plain_exp(beta, prob, mu):
        """Objective, weights and shares with exp taken of every entry."""
        bids = beta[:, None] * prob.valuations
        top = bids.max(axis=0)
        weights_exp = np.exp((bids - top) / mu)
        mass = weights_exp.sum(axis=0)
        prices = mu * np.log(mass) + top
        obj = float(prices @ prob.weights - np.log(beta).sum() / prob.n)
        return obj, weights_exp, weights_exp / mass

    def test_masked_exp_matches_plain_exp(self, rng):
        # exponents (bid - top) / mu of exactly 0, at and around the cutoff,
        # around -690, between it and -708.4 where exp turns subnormal,
        # around -708.4, around -745.13 where exp underflows to 0, and far
        # below
        cut = -eg._EXP_CUTOFF
        gaps = np.array(
            [
                [0.0, 0.0, 744.4, 0.0, cut - 1e-9, 690.0],
                [745.0, 0.0, 0.0, 745.13, 0.0, 0.0],
                [745.2, 745.9, 746.0, 745.14, cut, 689.5],
                [746.5, 800.0, 1e4, 3.0, cut + 1e-9, 0.0],
                [cut - 0.5, cut + 0.5, 708.0, 709.0, 1.0, 690.5],
            ]
        )
        beta = 0.5 + rng.random(5)
        cases = [(np.ones(5), 1000.0 - gaps, 1.0)]
        cases += [(beta, (1.0 - mu * gaps) / beta[:, None], mu) for mu in (1e-5, 1e-8)]
        gaps = rng.uniform(0.0, 800.0, size=(8, 50))
        beta = 0.5 + rng.random(8)
        cases.append((beta, (1.0 - 1e-6 * gaps) / beta[:, None], 1e-6))
        floor = np.exp(eg._EXP_CUTOFF)
        for beta, v, mu in cases:
            prob = DualProblem(v, np.full(v.shape[1], 1.0 / v.shape[1]), 0.1, 2.0)
            obj, weights, mass = eg._smoothed_value(beta, prob, mu)
            shares = weights / mass
            ref_obj, ref_weights, ref_shares = self.plain_exp(beta, prob, mu)
            assert obj == ref_obj
            kept = ref_weights >= floor
            assert np.array_equal(shares[kept], ref_shares[kept])
            assert np.all(shares[~kept] == 0.0)
            assert np.all(ref_shares[~kept] < floor)
            # the state's root array is the shares times R
            root = eg._smoothed_state(beta, prob, mu)[3]
            assert np.array_equal(root, shares * prob.root_factor)

    def test_masked_exp_is_exp_where_the_cutoff_is_reached(self):
        # exponents from -800 to 0, at and around the cutoff, at -690, where
        # exp turns subnormal (-708.4) and where it underflows (-745): the
        # clamped exp times the mask gives the weights of exp taken only
        # where the exponent reaches the cutoff, bit for bit
        gaps = np.concatenate((np.linspace(0.0, 800.0, 8001), [690.0, 708.4, 745.0]))
        cut = -eg._EXP_CUTOFF
        near = [np.nextafter(cut, 0.0), np.nextafter(cut, np.inf), cut - 1e-9, cut + 1e-9]
        gaps = np.concatenate((gaps, near, [cut - 0.5, cut + 0.5]))
        v = np.vstack((np.full(gaps.size, 1000.0), 1000.0 - gaps))
        prob = DualProblem(v, np.full(gaps.size, 1.0 / gaps.size), 0.1, 2.0)
        beta = np.ones(2)
        weights = eg._smoothed_value(beta, prob, 1.0)[1]
        z = beta[:, None] * v
        z -= z.max(axis=0)
        z /= 1.0
        expected = np.exp(z, out=np.zeros_like(z), where=z >= eg._EXP_CUTOFF)
        assert np.array_equal(weights.view(np.int64), expected.view(np.int64))
        assert {-690.0, -745.0, -cut - 0.5, -cut + 0.5} <= set(z[1].tolist())
        assert np.any(weights[1] > 0.0) and np.any((weights[1] == 0.0) & (z[1] > -746.0))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    def test_no_subnormal_weights_shares_or_hessian(self, seed, n, m, log_mu):
        mu = 10.0**log_mu
        prob, center, _ = tied_problem(seed, n, m, mu)
        assert_no_subnormal(prob, center, mu)

    def test_no_subnormal_hessian_beside_a_tied_column(self):
        # in column 0 agent 0 bids on top and agents 1 and 2 bid 365 mu
        # below; column 1 ties agents 0 and 3. A cutoff that kept the two
        # shares of e^-365 would make the Hessian entry of agents 1 and 2
        # their product times 500 v^2, a subnormal of about 2e-315
        mu, gap = 1e-3, 365.0
        v = np.array([[1.0, 0.5], [1.0 - gap * mu, 0.0], [1.0 - gap * mu, 0.0], [0.3, 0.5]])
        prob = DualProblem(v, np.array([0.5, 0.5]), 0.1, 2.0)
        assert_no_subnormal(prob, np.ones(4), mu)


def assert_no_subnormal(prob, center, mu):
    """No softmax weight, share or Hessian entry at center is subnormal,
    dense or on the working set there."""
    with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
        working = eg._working_set(center, prob, mu)
    for on in (None, working):
        obj, weights, mass = eg._smoothed_value(center, prob, mu, on)
        shares = weights / (mass if on is None else mass[on.cols])
        root = eg._smoothed_state(center, prob, mu, (obj, weights.copy(), mass), on)[3]
        H = eg._smoothed_hessian(prob, mu, root, on)
        for x in (weights, shares, root, np.abs(H)):
            assert not np.any((0.0 < x) & (x < np.finfo(float).tiny))


def tied_problem(seed, n, m, mu):
    """Random problem and center in the box with near-tied top bids.

    About half the columns get a second bid within _SET_WIDTH mu of the top,
    so the working set at center holds it. Half of those bids lie within
    -_EXP_CUTOFF mu of the top, so their column's shares split. A fifth of
    the valuations are zero.
    """
    rng = np.random.default_rng(seed)
    v = (rng.random((n, m)) + 0.05) * (rng.random((n, m)) > 0.2)
    lo, hi = 0.5 / n, 2.0
    center = lo + rng.random(n) * (hi - lo)
    bids = center[:, None] * v
    for j in np.flatnonzero(rng.random(m) < 0.5):
        top = bids[:, j].max()
        k = rng.integers(n)
        if bids[k, j] < top and top > eg._SET_WIDTH * mu:
            width = eg._SET_WIDTH if rng.random() < 0.5 else -eg._EXP_CUTOFF
            v[k, j] = (top - rng.uniform(0, width) * mu) / center[k]
    w = rng.random(m) + 0.01
    return DualProblem(v, w / w.sum(), lo, hi), center, rng


def assert_set_matches_dense(prob, center, mu, rng):
    """The working set at center gives the dense value, utilities, root array
    and Hessian at center and at points inside and exactly at its radius."""
    n, m = prob.n, prob.m
    with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
        working = eg._working_set(center, prob, mu)
    radius = working.radius if np.isfinite(working.radius) else 0.5
    # some coordinates move by exactly the radius, upward where moving down
    # would leave beta <= 0
    steps = rng.uniform(-1.0, 1.0, size=(7, n))
    steps[rng.random((7, n)) < 0.4] = 1.0
    steps[1:3] = rng.choice([-1.0, 1.0], size=(2, n))
    steps[:, center - radius <= 0] = np.abs(steps[:, center - radius <= 0])
    steps[-1] = 0.0
    for beta in center + radius * steps:
        dense = eg._smoothed_state(beta, prob, mu)
        sparse = eg._smoothed_state(beta, prob, mu, working=working)
        assert sparse[0] == pytest.approx(dense[0], rel=1e-12, abs=0.0)
        assert np.all(np.abs(sparse[2] - dense[2]) <= 1e-12 * np.abs(dense[2]))
        root = np.zeros((n, m))
        root[working.rows, working.cols] = sparse[3]
        assert np.array_equal(root > 0, dense[3] > 0)
        assert np.allclose(root, dense[3], rtol=1e-12, atol=0.0)
        H = eg._smoothed_hessian(prob, mu, dense[3])
        H_set = eg._smoothed_hessian(prob, mu, sparse[3], working)
        assert H_set.dtype == np.float64
        # the dense Hessian adds and cancels terms up to the diagonal sum
        # below, so it is exact only to a rounding error of that size
        terms = np.einsum("ij,ij->i", dense[3], prob.root_factor) / mu
        assert np.all(np.abs(H_set - H) <= 1e-12 * terms.max())
    return working


def record_sets(monkeypatch):
    """Record the solver's working-set calls: each evaluation's temperature,
    point and set (None for a dense one), each set build's temperature and
    result, and each bound's temperature and whether it rejected its point.

    A bound must evaluate once, on the set it is given, and a point it
    rejects must have a dense value above the threshold, so that the dense
    search would reject it too."""
    value, rejects, build = eg._smoothed_value, eg._bound_rejects, eg._working_set
    evaluated, built, bounds = [], [], []

    def recorded_value(beta, prob, mu, working=None):
        evaluated.append((mu, beta.copy(), working))
        return value(beta, prob, mu, working)

    def checked_bound(candidate, prob, mu, working, flat):
        before = len(evaluated)
        rejected = rejects(candidate, prob, mu, working, flat)
        assert len(evaluated) == before + 1 and evaluated[-1][2] is working
        assert not rejected or value(candidate, prob, mu)[0] > flat
        bounds.append((mu, rejected))
        return rejected

    def recorded_build(center, prob, mu):
        built.append((mu, build(center, prob, mu)))
        return built[-1][1]

    monkeypatch.setattr(eg, "_smoothed_value", recorded_value)
    monkeypatch.setattr(eg, "_bound_rejects", checked_bound)
    monkeypatch.setattr(eg, "_working_set", recorded_build)
    return evaluated, built, bounds


class TestWorkingSet:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    def test_matches_dense(self, seed, n, m, log_mu):
        mu = 10.0**log_mu
        prob, center, rng = tied_problem(seed, n, m, mu)
        assert_set_matches_dense(prob, center, mu, rng)

    def test_matches_dense_edge_cases(self, rng):
        mu = 1e-5

        def check(v, weights, lo, nonzero_per_column):
            n, m = v.shape
            prob = DualProblem(v, np.array(weights), lo, 2.0)
            working = assert_set_matches_dense(prob, np.ones(n), mu, rng)
            root = eg._smoothed_state(np.ones(n), prob, mu, working=working)[3]
            nonzero = np.bincount(working.cols[root > 0], minlength=m)
            assert nonzero.tolist() == nonzero_per_column

        # one agent or one item: no tied column
        check(np.array([[0.7]]), [1.0], 0.5, [1])
        check(np.array([[0.7, 0.2, 1.3]]), [0.2, 0.3, 0.5], 0.5, [1, 1, 1])
        check(np.array([[0.7], [0.9], [0.4]]), [1.0], 0.2, [1])
        # every column won by one agent far ahead: no tied column
        v = np.array([[1.0, 0.1, 0.2, 0.9], [0.3, 1.0, 0.1, 0.2], [0.2, 0.4, 1.0, 0.1]])
        check(v, [0.25, 0.25, 0.25, 0.25], 0.2, [1, 1, 1, 1])
        # columns with three, four and two nonzero shares
        v = np.ones((5, 3))
        v[:, 0] -= mu * np.array([0.0, 0.5, 2.0, 900.0, 4000.0])
        v[:, 1] -= mu * np.array([3.0, 0.0, 1.0, 700.0, 0.0])
        v[:, 2] -= mu * np.array([5000.0, 2.0, 0.0, 5000.0, 800.0])
        check(v, [0.5, 0.3, 0.2], 0.1, [3, 4, 2])

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    def test_bound_never_rejects_an_acceptable_point(self, seed, n, m, log_mu):
        # anywhere in the box the set's value is at most the dense one, so a
        # threshold at the dense value, or at the bound itself, is never
        # rejected, while one a hair below the bound is
        mu = 10.0**log_mu
        prob, center, rng = tied_problem(seed, n, m, mu)
        with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
            working = eg._working_set(center, prob, mu)
        for beta in prob.lo + rng.random((6, n)) * (prob.hi - prob.lo):
            bound = eg._smoothed_value(beta, prob, mu, working)[0]
            dense = eg._smoothed_value(beta, prob, mu)[0]
            assert bound <= dense + 1e-12 * max(1.0, abs(dense))
            assert not eg._bound_rejects(beta, prob, mu, working, dense)
            assert not eg._bound_rejects(beta, prob, mu, working, bound)
            assert eg._bound_rejects(beta, prob, mu, working, bound - 1e-9 * max(1.0, abs(bound)))

    @staticmethod
    def solve_problem():
        # a solve whose 1e-5 stage leaves its set's trust radius twice, each
        # time rejected by the bound
        rng = np.random.default_rng(41)
        return market_problem(random_instance(rng, 20, 60), rng.dirichlet(np.ones(60)))

    @staticmethod
    def recorded_solve(monkeypatch, prob):
        """The solve, with the temperatures of its dense evaluations and of
        its set evaluations inside the trust radius, each bound's temperature
        with whether it rejected its point, and each set build's temperature
        with whether it returned a set (see record_sets). Outside the radius
        a set is evaluated only as a bound."""
        evaluated, built, bounds = record_sets(monkeypatch)
        sol = solve_dual(prob)
        monkeypatch.undo()
        dense, inside, outside = [], [], []
        for mu, beta, working in evaluated:
            if working is None:
                dense.append(mu)
            else:
                far = np.abs(beta - working.center).max() > working.radius
                (outside if far else inside).append(mu)
        assert outside == [mu for mu, _ in bounds]
        return sol, dense, inside, bounds, [(mu, working is not None) for mu, working in built]

    @staticmethod
    def assert_evaluations_accounted(sol, dense, inside, bounds, builds):
        """Each stage's evaluations are exactly its set evaluations inside
        the radius, its bound evaluations and its dense ones. Each bound
        evaluation either rejects its point or is followed by a set built at
        it, and a stage on a set evaluates densely only where such a build
        returned no set."""
        assert sol.evaluations == len(dense) + len(inside) + len(bounds)
        for stage in sol.stages:
            rejected = [rejected for mu, rejected in bounds if mu == stage.mu]
            built = [on_set for mu, on_set in builds if mu == stage.mu]
            assert len(built) == 1 + rejected.count(False)
            assert stage.evaluations == inside.count(stage.mu) + len(rejected) + dense.count(stage.mu)
            if built[0] and all(built[1:]):
                assert dense.count(stage.mu) == 0

    def test_no_set_evaluation_outside_radius(self, monkeypatch):
        sol, *recorded = self.recorded_solve(monkeypatch, self.solve_problem())
        _, inside, bounds, _ = recorded
        assert sol.converged
        assert inside and bounds
        # every bound rejects, so the stages on a set, their entries
        # included, evaluate on it alone
        assert all(rejected for _, rejected in bounds)
        self.assert_evaluations_accounted(sol, *recorded)

    def test_rebuilds_accounted(self, monkeypatch):
        # with one agent valuing everything 20 times more, the stage at 1e-4
        # times the first temperature takes a predicted point outside its
        # set's radius, and a later step leaves the set taken there
        prob = boxed_problem(354, 29, 186, 0.02, True)
        sol, *recorded = self.recorded_solve(monkeypatch, prob)
        rebuilds = [mu for mu, rejected in recorded[2] if not rejected]
        assert sol.converged
        assert any(rebuilds.count(s.mu) >= 2 and s.predicted for s in sol.stages)
        self.assert_evaluations_accounted(sol, *recorded)

    def test_reference_solve_at_wide_market_shape(self, monkeypatch):
        # the reference problem of a run at n = 100, m = 1500 with a
        # corrupted model, built as run_experiment builds it: its two stages
        # on a set never evaluate densely, and it takes the Newton steps it
        # took when every stage entered with dense evaluations
        config = harness.config_from_dict(
            {
                "schema": 1,
                "market": {"generator": {"n": 100, "m": 1500, "rank": 10, "noise": 0.1, "seed": 1}},
                "model": {
                    "kind": "corrupted",
                    "random": {"m": 1500, "seed": 2},
                    "corruption": {"kind": "decaying"},
                },
                "t": 1000,
                "paths": 2,
            }
        )
        ref = reference_distribution(harness.resolve_model(config))
        prob = market_problem(harness.resolve_market(config, ref), ref, config.delta0)
        sol, *recorded = self.recorded_solve(monkeypatch, prob)
        dense, builds = recorded[0], recorded[3]
        assert sol.converged and sol.certified_mu == sol.stages[-1].mu
        assert [s.steps for s in sol.stages] == [1, 3, 5, 10, 18]
        assert [s.predicted for s in sol.stages] == [False, True, True, True, True]
        self.assert_evaluations_accounted(sol, *recorded)
        # a stage's first build is at its entry
        entered = {}
        for mu, on_set in builds:
            entered.setdefault(mu, on_set)
        on_set = [mu for mu in entered if entered[mu]]
        assert len(on_set) == 2 and not any(dense.count(mu) for mu in on_set)

    def test_bound_rejection_keeps_the_dense_decisions(self, monkeypatch):
        # against a solve whose bound never rejects, each point the bound
        # rejects costs the other solve an evaluation on a set built at it,
        # and every stage takes the same steps and ends on the same set
        stage, solves = eg._newton_stage, []

        def recorded_stage(*args):
            out = stage(*args)
            on = out[2][1]
            solves[-1].append(None if on is None else on.center.tobytes())
            return out

        def never_rejects(candidate, prob, mu, working, flat):
            eg._smoothed_value(candidate, prob, mu, working)
            return False

        for bound in (eg._bound_rejects, never_rejects):
            solves.append([])
            monkeypatch.setattr(eg, "_newton_stage", recorded_stage)
            monkeypatch.setattr(eg, "_bound_rejects", bound)
            sol, *recorded = self.recorded_solve(monkeypatch, self.solve_problem())
            self.assert_evaluations_accounted(sol, *recorded)
            solves[-1] = (sol, recorded[1], recorded[2], solves[-1])
        (bounded, a_inside, a_bounds, a_ends), (dense, b_inside, b_bounds, b_ends) = solves
        assert np.array_equal(bounded.beta_hat, dense.beta_hat)
        assert (bounded.objective, bounded.residual) == (dense.objective, dense.residual)
        assert any(rejected for _, rejected in a_bounds)
        assert not any(rejected for _, rejected in b_bounds)
        assert a_ends == b_ends
        for a, b in zip(bounded.stages, dense.stages, strict=True):
            assert (a.mu, a.steps) == (b.mu, b.steps)
            # each trial point outside the radius costs a bound evaluation and,
            # unless the bound rejects it, an evaluation on a set built at it
            rejected = [rejected for mu, rejected in a_bounds if mu == a.mu]
            assert len(rejected) == [mu for mu, _ in b_bounds].count(b.mu)
            assert a_inside.count(a.mu) + rejected.count(True) == b_inside.count(b.mu)
            assert a.evaluations == b.evaluations - rejected.count(True)

    def test_rejected_point_outside_the_radius(self, monkeypatch):
        # started a hundredth off the optimum, the stage at mu = 1e-5 tries
        # trial points outside its set's radius; some pass the bound, are
        # evaluated on a set built at them, and are rejected by the search
        prob = boxed_problem(13, 4, 10, 1.0, False)
        mu = 1e-5
        noise = 0.01 * np.random.default_rng(13).standard_normal(prob.n)
        beta = np.clip(solve_dual(prob).beta_hat * (1.0 + noise), prob.lo, prob.hi)
        state, hessian = eg._smoothed_state, eg._smoothed_hessian
        states, stepped = [], []

        def recorded_state(beta, prob, mu, value=None, working=None):
            states.append((beta, working))
            return state(beta, prob, mu, value, working)

        def recorded_hessian(prob, mu, root, working=None):
            # each Newton step starts on the set its point was evaluated on,
            # which covers the point
            point, on = states[-1]
            assert working is on and on.covers(point) and root.size == on.rows.size
            stepped.append(working)
            return hessian(prob, mu, root, working)

        evaluated, built, bounds = record_sets(monkeypatch)
        monkeypatch.setattr(eg, "_smoothed_state", recorded_state)
        monkeypatch.setattr(eg, "_smoothed_hessian", recorded_hessian)
        end, _, (root, on), counts = eg._newton_stage(beta, prob, mu, 1e-3 * mu)
        monkeypatch.undo()
        built = [working for _, working in built]
        rejected = [rejected for _, rejected in bounds]
        assert len(built) - 1 == rejected.count(False)
        assert rejected.count(True) > 0
        assert counts.evaluations == len(evaluated)
        # the sets built at the points the search rejected, which the stage
        # never stepped from
        taken = stepped + [on]
        assert [working for working in built[1:] if all(working is not w for w in taken)]
        # apart from the evaluation at its own center, a set the stage did
        # not take is never evaluated: a rejected point leaves the stage on
        # its set
        for _, point, working in evaluated:
            assert any(working is w for w in taken) or np.array_equal(point, working.center)
        assert on.covers(end) and any(on is working for working in built)
        # on a set that covers end the shares, and so the root array, are
        # the dense ones bit for bit
        dense = eg._smoothed_state(end, prob, mu)[3]
        assert np.array_equal(root, dense[on.rows, on.cols])


def fallback_solve(prob, tol=1e-8, warm=None):
    """The solve with every crossover attempt failing."""
    with mock.patch.object(eg, "_crossover", lambda *args: (None, 0)):
        return solve_dual(prob, tol=tol, warm=warm)


def crossover(beta, prob, mu, tol, rounds=None):
    """The crossover at beta from its dense root array at temperature mu,
    with at most rounds pivot rounds (the solver's bound if None)."""
    beta = np.asarray(beta, dtype=np.float64)
    root = eg._smoothed_state(beta, prob, mu)[3]
    if rounds is None:
        return eg._crossover(beta, prob, tol, root, None)
    with mock.patch.object(eg, "_PIVOT_ROUNDS", rounds):
        return eg._crossover(beta, prob, tol, root, None)


def objective_rounding(prob, objective):
    """Rounding bound on dual_objective, as _bound_rejects bounds the smoothed value."""
    barrier = max(abs(np.log(prob.lo)), abs(np.log(prob.hi)))
    return 2.0 * (prob.m + prob.n + 4) * np.finfo(float).eps * (abs(objective) + 2.0 * barrier)


def boxed_problem(seed, n, m, delta0, heavy):
    """Random problem with zero valuations and zero weights, or None when
    an agent values the weighted items at 0. Small boxes, and with heavy one
    agent valuing everything 20 times more, put multipliers on both bounds."""
    rng = np.random.default_rng(seed)
    v = (rng.random((n, m)) + 0.05) * (rng.random((n, m)) > 0.3)
    v[0] *= 20.0 if heavy else 1.0
    w = rng.random(m) * (rng.random(m) > 0.2)
    w[0] += w.sum() == 0
    w /= w.sum()
    if not np.all(v @ w > 0):
        return None
    return market_problem(MarketInstance(v), w, delta0)


def stage_points(prob, tol=1e-8, predict=False):
    """Continuation stages without a crossover: for each, the problem on the
    items of positive weight, the temperature, the stage's point, its
    utilities and its root array with its working set.

    With predict these are the stages a cold solve_dual runs: each after
    the first is offered the tangent predictor's point, and each before
    _CROSSOVER_STAGE but the last stops at _LOOSE_GTOL mu. Without it each
    stage starts from the last one's point and stops at 1e-3 mu, the plain
    continuation the crossover tests below take their points from."""
    # the bid scale from the whole problem, as solve_dual takes it
    scale = float((prob.valuations @ prob.weights).max())
    keep = prob.weights > 0
    # row-major, as solve_dual keeps them: the Hessian's sums over items run
    # in an order set by the layout
    valuations = np.compress(keep, prob.valuations, axis=1)
    prob = DualProblem(valuations, prob.weights[keep], prob.lo, prob.hi)
    beta = np.full(prob.n, min(1.0, prob.hi))
    gtol_final = max(tol / (prob.n * prob.hi**2) * 0.1, 1e-13)
    mu_end = max(tol, 1e-12)
    slope = None
    for k, mu in enumerate(eg._temperatures(0.1 * max(scale, 1e-6), mu_end)):
        factor = eg._LOOSE_GTOL if predict and k < eg._CROSSOVER_STAGE else 1e-3
        gtol = gtol_final if mu <= mu_end else max(factor * mu, gtol_final)
        beta, utilities, root, _ = eg._newton_stage(beta, prob, mu, gtol, slope)
        yield prob, mu, beta, utilities, root
        if predict:
            tangent = eg._tangent(beta, prob, mu, utilities, *root)
            slope = None if tangent is None else (mu, tangent)


class TestCrossover:
    def test_certifies_after_the_first_eligible_stage(self):
        prob = TestWorkingSet.solve_problem()
        sol = solve_dual(prob)
        fallback = fallback_solve(prob)
        assert len(sol.stages) == eg._CROSSOVER_STAGE + 1
        assert sol.certified_mu == sol.stages[-1].mu
        assert sol.converged and sol.residual <= 1e-13
        assert fallback.certified_mu is None and len(fallback.stages) > len(sol.stages)
        assert np.max(np.abs(sol.beta_hat - fallback.beta_hat)) <= 1e-6
        assert sol.objective <= fallback.objective + objective_rounding(prob, fallback.objective)
        assert sol.iterations < fallback.iterations
        doc = solution_to_dict(sol)
        assert doc["certified_mu"] == sol.certified_mu
        assert doc["crossover_attempts"] == sol.crossover_attempts == 1
        assert doc["pivots"] == sol.pivots

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        delta0=st.sampled_from([0.02, 0.1, 1.0]),
        heavy=st.booleans(),
    )
    def test_certified_point_is_the_optimum(self, seed, n, m, delta0, heavy):
        prob = boxed_problem(seed, n, m, delta0, heavy)
        assume(prob is not None)
        sol = solve_dual(prob)
        fallback = fallback_solve(prob)
        assert sol.converged and fallback.converged
        if sol.certified_mu is None:
            assert np.array_equal(sol.beta_hat, fallback.beta_hat)
            return
        assert np.all((sol.beta_hat >= prob.lo) & (sol.beta_hat <= prob.hi))
        assert np.max(np.abs(sol.beta_hat - fallback.beta_hat)) <= 1e-6
        assert sol.objective <= fallback.objective + objective_rounding(prob, fallback.objective)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        m=st.integers(2, 12),
        delta0=st.sampled_from([0.02, 0.1]),
        heavy=st.booleans(),
    )
    @example(seed=360, n=7, m=11, delta0=0.02, heavy=True)
    @example(seed=233, n=4, m=8, delta0=0.1, heavy=False)
    def test_pivoted_certificate_is_the_optimum(self, seed, n, m, delta0, heavy):
        # after the stages at 1e-2 to 1e-4 times the first temperature the
        # forest often needs pivots; the two examples certify after 4 and 3
        prob = boxed_problem(seed, n, m, delta0, heavy)
        assume(prob is not None)
        fallback = fallback_solve(prob)
        assert fallback.converged
        made = 0
        for k, (reduced, _, beta, _, root) in enumerate(stage_points(prob)):
            if k < 2:
                continue
            exact, pivots = eg._crossover(beta, reduced, 1e-8, *root)
            made += pivots
            if exact is not None:
                beta_hat = exact[0]
                assert np.all((beta_hat >= prob.lo) & (beta_hat <= prob.hi))
                assert np.max(np.abs(beta_hat - fallback.beta_hat)) <= 1e-6
                objective = dual_objective(beta_hat, prob)
                assert objective <= fallback.objective + objective_rounding(prob, fallback.objective)
            if k == 4:
                break
        target(float(made))

    def test_pivots_certify_where_the_first_forest_fails(self):
        # the two examples above, from the stage at 1e-2 times the first
        # temperature: refused without pivots, certified with them
        for seed, n, m, delta0, heavy in ((360, 7, 11, 0.02, True), (233, 4, 8, 0.1, False)):
            prob = boxed_problem(seed, n, m, delta0, heavy)
            reduced, _, beta, _, root = list(itertools.islice(stage_points(prob), 3))[-1]
            with mock.patch.object(eg, "_PIVOT_ROUNDS", 0):
                assert eg._crossover(beta, reduced, 1e-8, *root) == (None, 0)
            exact, pivots = eg._crossover(beta, reduced, 1e-8, *root)
            assert exact is not None and pivots >= 3
            assert np.max(np.abs(exact[0] - fallback_solve(prob).beta_hat)) <= 1e-6

    def test_repeated_forest_ends_the_attempt(self):
        # at the stage at 1e-1 times the first temperature, banning one pair
        # leaves its item outbid and forcing it back makes its fraction
        # negative again: the third forest is the first, so the attempt ends
        # after two certificates instead of running every round
        prob = boxed_problem(0, 6, 10, 1.0, False)
        reduced, _, beta, _, root = list(itertools.islice(stage_points(prob), 2))[-1]
        with mock.patch.object(eg, "_certificate", wraps=eg._certificate) as certificate:
            assert eg._crossover(beta, reduced, 1e-8, *root) == (None, 2)
        assert certificate.call_count == 2

    @staticmethod
    def staged_solve(prob, tol=1e-8):
        """Every stage down to the tolerance, and the residual under the last
        stage's tie split: the solve without a crossover."""
        for _, _, beta, utilities, _ in stage_points(prob, tol, predict=True):
            pass
        fixed_point = np.clip(1.0 / (prob.n * utilities), prob.lo, prob.hi)
        return beta, float(np.max(np.abs(beta - fixed_point)))

    def test_fallback_reproduces_the_stages(self, rng):
        # identical rows and columns, whose ties close cycles, and a random
        # problem: with every attempt failing the solve is its stages bit
        # for bit and counts its attempts, and the forest breaks the cycles
        # and certifies the optimum after the stage at 1e-4 times the first
        # temperature
        twins = random_instance(rng, 4, 6).valuations.copy()
        twins[2] = twins[0]
        problems = [
            market_problem(MarketInstance(np.ones((2, 3))), np.full(3, 1 / 3)),
            market_problem(MarketInstance(twins), np.full(6, 1 / 6)),
            market_problem(random_instance(rng, 5, 8), rng.dirichlet(np.ones(8))),
        ]
        for prob in problems:
            staged = self.staged_solve(prob)
            with mock.patch.object(eg, "_crossover", return_value=(None, 0)) as attempts:
                fallback = solve_dual(prob)
            assert fallback.crossover_attempts == attempts.call_count
            # a loose tolerance ends the stages before _CROSSOVER_STAGE, and
            # only the last stage is followed by an attempt
            with mock.patch.object(eg, "_crossover", return_value=(None, 0)) as attempts:
                short = solve_dual(prob, tol=1e-3)
            assert len(short.stages) < eg._CROSSOVER_STAGE
            assert short.crossover_attempts == attempts.call_count == 1
            assert fallback.certified_mu is None
            assert np.array_equal(fallback.beta_hat, staged[0])
            assert fallback.residual == staged[1]
            assert fallback.stages[-1].mu == 1e-8
            sol = solve_dual(prob)
            assert sol.certified_mu == sol.stages[eg._CROSSOVER_STAGE].mu
            assert np.max(np.abs(sol.beta_hat - staged[0])) <= 1e-6
            assert sol.objective <= fallback.objective + objective_rounding(prob, fallback.objective)

    @staticmethod
    def problem(v, weights, delta0=1.0):
        return market_problem(MarketInstance(np.array(v, dtype=float)), np.array(weights), delta0)

    def test_cycle_is_broken_at_the_least_flow(self):
        # two agents tied on two items close a cycle, and the forest drops
        # its pair of least flow, share times item weight; each forest here
        # certifies without a pivot, and dropping another pair would not
        mu = 1e-6
        # equal shares and weights: the last pair in item order goes, and
        # agent 0 takes item 1 whole
        prob = self.problem([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5])
        (beta, residual), pivots = crossover(np.ones(2), prob, mu, 1e-8, rounds=0)
        assert np.array_equal(beta, [1.0, 1.0]) and residual <= 1e-15
        # equal shares, item 1 heavier: a pair of item 0 goes. Item 1 whole
        # would cost one agent 0.7, above their budget of 0.5
        prob = self.problem([[1.0, 1.0], [1.0, 1.0]], [0.3, 0.7])
        (beta, residual), pivots = crossover(np.ones(2), prob, mu, 1e-8, rounds=0)
        assert np.array_equal(beta, [1.0, 1.0]) and residual <= 1e-15
        # equal weights, agent 0 bids mu less on item 1, so their share of
        # it is 1 / (1 + e) and their pair goes. Item 1 whole to agent 0
        # would be outbid by agent 1
        prob = self.problem([[1.0, 1.0 - mu], [1.0, 1.0]], [0.5, 0.5])
        (beta, residual), pivots = crossover(np.ones(2), prob, mu, 1e-8, rounds=0)
        assert np.array_equal(beta, [1.0, 1.0]) and residual <= 1e-15

    def test_fraction_outside_unit_interval_is_refused(self):
        # agent 0 wins item 0 alone and ties with agent 1 on item 1; agent 1
        # needs budget 0.5 from item 1, which is worth 0.2 at the tree's
        # prices, so agent 0's fraction of it is negative and agent 1's
        # above 1. Banning agent 0's pair leaves agent 1 a multiplier of 2.5,
        # above the box
        v = [[1.0, 1.0], [0.0, 1.0]]
        assert crossover(np.ones(2), self.problem(v, [0.8, 0.2]), 1e-6, 1e-8) == (None, 1)
        (beta, residual), pivots = crossover(np.ones(2), self.problem(v, [0.2, 0.8]), 1e-6, 1e-8)
        assert np.allclose(beta, 1.0, rtol=1e-15) and residual <= 1e-15 and pivots == 0
        # agents 1 and 2 each take 2/3 of item 0, leaving agent 0 a negative
        # fraction while every other fraction lies in [0, 1]. Banning that
        # pair gives agent 0 item 1 alone, and the optimum (2/3, 4/3, 4/3)
        prob = self.problem([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        assert crossover(np.ones(3), prob, 1e-6, 1e-8, rounds=0) == (None, 0)
        (beta, residual), pivots = crossover(np.ones(3), prob, 1e-6, 1e-8)
        assert pivots == 1 and residual <= 1e-15
        assert np.allclose(beta, [2 / 3, 4 / 3, 4 / 3], rtol=1e-15, atol=0.0)

    def test_outbid_allocation_is_refused(self):
        # each agent wins one item alone at beta, but the scale that spends
        # agent 2's budget on item 2 makes them outbid agents 0 and 1.
        # Forcing agent 2's pairs with items 0 and 1 joins the three agents
        # in one tree, at the optimum (1.35, 1.35, 1.5)
        v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.9, 0.9, 0.2]]
        prob = self.problem(v, [1 / 3, 1 / 3, 1 / 3], delta0=10.0)
        beta = np.array([1.0, 1.0, 0.5])
        assert crossover(beta, prob, 1e-6, 1e-8, rounds=0) == (None, 0)
        (beta_hat, residual), pivots = crossover(beta, prob, 1e-6, 1e-8)
        assert pivots == 2 and residual <= 1e-15
        assert np.allclose(beta_hat, [1.35, 1.35, 1.5], rtol=1e-15, atol=0.0)
        assert np.max(np.abs(beta_hat - fallback_solve(prob).beta_hat)) <= 1e-6

    def test_box_bound_spend_inequalities(self):
        # one agent, box [0.5, 2]: at the lower bound they must spend at
        # least their budget, at the upper one at most; tol = 1 lets the
        # residual pass, so only the spend check refuses
        cases = ((1.0, 0.5, False), (1.0, 2.0, False), (10.0, 0.5, True), (0.1, 2.0, True))
        for value, at, certified in cases:
            exact, pivots = crossover(np.array([at]), self.problem([[value]], [1.0]), 1e-6, 1.0)
            assert (exact is not None) == certified and pivots == 0
            if certified:
                assert exact[0][0] == at and exact[1] == 0.0

    def test_point_outside_the_box_is_refused(self):
        # spending the budget of 1 on an item valued 0.1 takes beta = 10,
        # above the box [0.5, 2]; tol = 1 lets the residual of 8 pass
        assert crossover(np.ones(1), self.problem([[0.1]], [1.0]), 1e-6, 1.0) == (None, 0)

    def test_residual_gate(self):
        prob = self.problem([[1.0, 1.0, 0.0], [0.0, 0.7, 1.0]], [0.3, 0.3, 0.4])
        beta = np.array([1.0, 1.0 / 0.7])
        (beta_hat, residual), _ = crossover(beta, prob, 1e-6, 1e-8)
        assert 0.0 < residual <= 1e-15
        assert crossover(beta, prob, 1e-6, 0.09 * residual) == (None, 0)
        assert np.array_equal(crossover(beta, prob, 1e-6, 0.1 * residual)[0][0], beta_hat)


def ladder(prob, tol=1e-8):
    """Every temperature of the cold ladder: the stages of a solve whose
    crossover attempts all fail."""
    return [stage.mu for stage in fallback_solve(prob, tol).stages]


def other_weights(prob, seed):
    """Random item weights summing to 1 under which every agent values
    some weighted item; about a third of them are zero when that allows."""
    rng = np.random.default_rng(seed)
    m = prob.m
    weights = rng.random(m) * (rng.random(m) > 0.3)
    if not np.all(prob.valuations @ weights > 0):
        weights = rng.random(m) + 0.01
    return weights / weights.sum()


class TestTangent:
    @staticmethod
    def cases(count, log_mu_low):
        """Random problems with near-tied columns, each at its center, a
        temperature between 10^log_mu_low and 1e-1 and the dense shares
        and working set there."""
        for seed in range(count):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            mu = 10.0 ** rng.uniform(log_mu_low, -1.0)
            prob, center, _ = tied_problem(seed, n, m, mu)
            with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
                working = eg._working_set(center, prob, mu)
            _, weights, mass = eg._smoothed_value(center, prob, mu)
            yield prob, center, mu, weights / mass, working

    @staticmethod
    def system(prob, beta, mu, working):
        """The matrix and right-hand side _tangent solves at beta, the free
        coordinates and the root array there."""
        _, grad, utilities, root = eg._smoothed_state(beta, prob, mu, working=working)
        solve, solved = np.linalg.solve, []

        def recorded(a, b):
            solved.append((a, b))
            return solve(a, b)

        with mock.patch.object(np.linalg, "solve", recorded):
            eg._tangent(beta, prob, mu, utilities, root, working)
        free = eg._projected_gradient(beta, grad, prob.lo, prob.hi) != 0.0
        return *solved[0], free, root

    @staticmethod
    def scale(prob, beta, mu, shares):
        """The largest term beta_i sum_j w_j v_ij^2 s_ij / mu^2 of -dg/dmu's
        expansion, which the identity's sum cancels down to it."""
        return float((beta * ((shares * prob.valuations**2) @ prob.weights)).max()) / mu**2

    def test_matches_the_bids_derivative(self):
        # the right-hand side -dg/dmu from Euler's identity against the bids'
        # form, dense and on the working set, at temperatures from 1e-6 to
        # 1e-1 (within 4e-16 of the scale here); the matrix is the full
        # Hessian, the barrier's diagonal included
        checked = 0
        for prob, beta, mu, shares, working in self.cases(300, -6.0):
            expected = -dgrad_dmu(beta, prob.valuations, prob.weights, mu, shares)
            for on in (None, working):
                H, rhs, free, root = self.system(prob, beta, mu, on)
                assert np.all(np.abs(rhs - expected[free]) <= 1e-12 * self.scale(prob, beta, mu, shares))
                full = eg._smoothed_hessian(prob, mu, root, on)
                full.flat[:: prob.n + 1] += 1.0 / (prob.n * beta**2)
                assert np.array_equal(H, full[np.ix_(free, free)])
                checked += bool(np.any(rhs != 0.0))
        assert checked >= 400

    def test_matches_a_central_difference(self):
        # at temperatures from 1e-2 to 1e-1 the dense gradient's central
        # difference in mu, with step 1e-5 mu, agrees within 2e-12 of the
        # scale here
        checked = 0
        for prob, beta, mu, shares, working in self.cases(200, -2.0):
            h = 1e-5 * mu
            above = eg._smoothed_state(beta, prob, mu + h)[1]
            below = eg._smoothed_state(beta, prob, mu - h)[1]
            difference = (above - below) / (2.0 * h)
            for on in (None, working):
                _, rhs, free, _ = self.system(prob, beta, mu, on)
                assert np.all(np.abs(rhs + difference[free]) <= 1e-10 * self.scale(prob, beta, mu, shares))
                checked += bool(np.any(rhs != 0.0))
        assert checked >= 200


class TestShorterPaths:
    def test_predicted_point_taken_only_when_lower(self):
        # from the first stage's end point the next stage is offered the
        # tangent's prediction, its reverse and a zero slope; at gtol inf
        # it takes no step, so it returns the point it started from: the
        # predicted one exactly when its smoothed value is strictly lower
        prob = TestWorkingSet.solve_problem()
        reduced, mu0, beta, utilities, root = next(stage_points(prob))
        tangent = eg._tangent(beta, reduced, mu0, utilities, *root)
        mu = 0.1 * mu0
        value = eg._smoothed_value(beta, reduced, mu)[0]
        for slope, taken in ((tangent, True), (-tangent, False), (np.zeros_like(beta), False)):
            guess = np.clip(beta + (mu - mu0) * slope, reduced.lo, reduced.hi)
            assert (eg._smoothed_value(guess, reduced, mu)[0] < value) == taken
            start, _, _, counts = eg._newton_stage(beta, reduced, mu, np.inf, (mu0, slope))
            assert counts.predicted == taken
            assert (counts.steps, counts.evaluations) == (0, 2)
            assert np.array_equal(start, guess if taken else beta)

    def test_predicted_point_outside_the_radius(self, monkeypatch):
        # the stage at 1e-4 times the first temperature, entered from the
        # second stage's end point, builds its set there. Aimed at that
        # stage's own end point, the prediction leaves the set's radius: the
        # bound cannot reject it, the stage builds its set there, and the
        # value on that set, the dense one, is lower. Aimed at the box's
        # upper corner, the bound rejects it and no set is built
        points = list(itertools.islice(stage_points(TestWorkingSet.solve_problem()), 5))
        reduced, mu0, beta, _, _ = points[1]
        mu, end = points[4][1], points[4][2]
        working = eg._working_set(beta, reduced, mu)
        value = eg._smoothed_value(beta, reduced, mu)[0]
        for target, taken in ((end, True), (np.full(reduced.n, reduced.hi), False)):
            guess = np.clip(target, reduced.lo, reduced.hi)
            assert not working.covers(guess)
            assert (eg._smoothed_value(guess, reduced, mu)[0] < value) == taken
            slope = (guess - beta) / (mu - mu0)
            evaluated, built, bounds = record_sets(monkeypatch)
            start, _, (_, on), counts = eg._newton_stage(beta, reduced, mu, np.inf, (mu0, slope))
            monkeypatch.undo()
            assert counts.predicted == taken
            assert np.array_equal(start, guess if taken else beta)
            assert np.array_equal(on.center, start)
            # the entry's set evaluation, the bound on that set, and if taken
            # the evaluation on the set built at the prediction, which the
            # stage keeps
            sets = [working for _, working in built]
            assert len(sets) == 1 + taken and on is sets[-1]
            assert bounds == [(mu, not taken)]
            on_sets = [sets[0], sets[0], *sets[1:]]
            assert [id(working) for _, _, working in evaluated] == [id(w) for w in on_sets]
            assert counts.evaluations == 2 + taken

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 2),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        delta0=st.sampled_from([0.02, 0.1, 1.0]),
        heavy=st.booleans(),
    )
    @example(seed=7249, n=7, m=4, delta0=0.02, heavy=False)
    def test_warm_start_finds_the_cold_optimum(self, seed, n, m, delta0, heavy):
        # warm-started from the optimum of other weights on the same market,
        # the solve runs the cold ladder's stages from the first at or below
        # TV times its first temperature and ends at the cold optimum
        prob = boxed_problem(seed, n, m, delta0, heavy)
        assume(prob is not None)
        other = other_weights(prob, seed + 1)
        start = solve_dual(DualProblem(prob.valuations, other, prob.lo, prob.hi))
        warm = solve_dual(prob, warm=(start.beta_hat, other))
        cold = solve_dual(prob)
        assert warm.converged and cold.converged
        assert np.max(np.abs(warm.beta_hat - cold.beta_hat)) <= 1e-6
        assert warm.objective <= cold.objective + objective_rounding(prob, cold.objective)
        mus = ladder(prob)
        # TV as the solver computes it: half the absolute differences'
        # sum rounds otherwise, and reads 1 - 1e-16 for weights on disjoint
        # items (seed 7249), where the solver's TV is exactly 1
        distance = 1.0 - np.minimum(prob.weights, other).sum()
        first = next((k for k, mu in enumerate(mus) if mu <= distance * mus[0]), len(mus) - 1)
        ran = [stage.mu for stage in warm.stages]
        assert ran == mus[first : first + len(ran)]
        assert warm.crossover_mu == cold.crossover_mu

    def test_warm_start_at_full_distance_runs_the_full_ladder(self, rng):
        # warm weights on the other half of the items: TV = 1, no stage is
        # skipped. From the problem's own optimum, TV = 0: only the last runs
        inst = random_instance(rng, 5, 8)
        weights = np.r_[rng.dirichlet(np.ones(4)), np.zeros(4)]
        other = np.r_[np.zeros(4), rng.dirichlet(np.ones(4))]
        prob, far = market_problem(inst, weights), market_problem(inst, other)
        start = solve_dual(far).beta_hat
        warm = fallback_solve(prob, warm=(start, other))
        assert [stage.mu for stage in warm.stages] == ladder(prob)
        cold = solve_dual(prob)
        same = solve_dual(prob, warm=(cold.beta_hat, weights))
        assert [stage.mu for stage in same.stages] == ladder(prob)[-1:]
        assert same.converged and np.max(np.abs(same.beta_hat - cold.beta_hat)) <= 1e-6
        with pytest.raises(ValueError):
            solve_dual(prob, warm=(start[:-1], other))
        with pytest.raises(ValueError):
            solve_dual(prob, warm=(start, other[:-1]))

    def test_attempts_counted_after_skipped_stages(self, rng):
        # a warm start at TV about 0.05 skips the first two stages; every
        # stage at or below the cold ladder's _CROSSOVER_STAGE temperature is
        # still followed by an attempt, which len(stages) - _CROSSOVER_STAGE
        # would undercount by the two skipped
        inst = random_instance(rng, 5, 8)
        weights = rng.dirichlet(np.ones(8))
        other = 0.95 * weights + 0.05 * rng.dirichlet(np.ones(8))
        start = solve_dual(market_problem(inst, other)).beta_hat
        with mock.patch.object(eg, "_crossover", return_value=(None, 0)) as attempts:
            warm = solve_dual(market_problem(inst, weights), warm=(start, other))
        mus = ladder(market_problem(inst, weights))
        assert [stage.mu for stage in warm.stages] == mus[2:]
        assert warm.crossover_attempts == attempts.call_count == len(mus) - eg._CROSSOVER_STAGE
        assert warm.crossover_mu == mus[eg._CROSSOVER_STAGE]


class TestEquilibriumUtilities:
    def test_examples(self):
        assert np.allclose(equilibrium_utilities(np.array([1.0, 1.0]), 2), [0.5, 0.5])
        assert np.allclose(equilibrium_utilities(np.array([0.5, 1.0]), 2), [1.0, 0.5])
        assert np.allclose(equilibrium_utilities(np.array([1.0]), 1), [1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveBeta):
            equilibrium_utilities(np.array([0.0, 1.0]), 2)


class TestHindsight:
    def test_single_item_sequence_single_agent(self):
        inst = MarketInstance(np.array([[0.4, 1.6]]))
        seq = ItemSequence(np.ones(10, dtype=np.int64))
        sol = hindsight_solution(inst, seq)
        assert sol.beta_hat[0] == pytest.approx(1 / 1.6, abs=1e-8)

    def test_disjoint_equal_frequencies(self):
        # each agent values only their own item; with equal frequencies the
        # stationarity condition 1/(n * 0.5) puts both multipliers at 1
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        inst = MarketInstance(v)
        seq = ItemSequence(np.array([0, 1, 0, 1]))
        sol = hindsight_solution(inst, seq)
        assert np.allclose(sol.beta_hat, 1.0, atol=1e-8)

    def test_respects_empirical_weights(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=500))
        sol = hindsight_solution(inst, seq)
        weights = np.bincount(seq.items, minlength=4) / seq.t
        direct = solve_dual(market_problem(inst, weights))
        assert np.allclose(sol.beta_hat, direct.beta_hat, atol=1e-12)

    def test_item_outside_universe(self):
        inst = MarketInstance(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(DimensionMismatch):
            hindsight_solution(inst, ItemSequence(np.array([0, 5])))


def test_solution_json_round_trip(rng):
    inst = random_instance(rng, 3, 4)
    sol = solve_dual(market_problem(inst, np.full(4, 0.25)))
    doc = json.loads(json.dumps(solution_to_dict(sol)))
    assert set(doc) >= {"beta", "objective", "residual"}
    assert doc["beta"] == sol.beta_hat.tolist()
    assert doc["objective"] == sol.objective
    assert doc["evaluations"] == sol.evaluations > 0
    assert len(doc["stages"]) == len(sol.stages)
    assert doc["iterations"] == sum(stage["steps"] for stage in doc["stages"])
    fields = set(eg.StageCounts._fields)
    assert fields == {"mu", "steps", "evaluations", "predicted"}
    assert all(set(stage) == fields for stage in doc["stages"])
    assert doc["evaluations"] == sum(stage["evaluations"] for stage in doc["stages"])


def test_dual_problem_validation():
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.6]), 0.25, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.5]), 0.0, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([1.0]), 0.25, 2.0)
