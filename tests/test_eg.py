import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpace import eg
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
from fairpace.market import ItemSequence, MarketInstance
from tests.conftest import random_instance


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
        inst = random_instance(rng, 4, 6)
        prob = market_problem(inst, np.full(6, 1 / 6))
        with pytest.warns(NoConvergenceWarning):
            sol = solve_dual(prob, tol=1e-300)
        assert not sol.converged
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
        assert sol.evaluations == len(calls)
        assert sol.evaluations < parent_evaluations

    def test_stage_temperatures_spaced(self, monkeypatch):
        # a bid scale of 1.0016 used to end with stages at 1.0016e-8 and 1e-8
        stage = eg._newton_stage
        for scale in (1.0016, 1.0, 0.37, 2.5e-7):
            seen = []

            def recorded(beta, prob, mu, gtol):
                seen.append(mu)
                return stage(beta, prob, mu, gtol)

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
        # around -708.4 where exp turns subnormal, around -745.13 where it
        # underflows to 0, and far below
        cut = -eg._EXP_CUTOFF
        gaps = np.array(
            [
                [0.0, 0.0, 744.4, 0.0, cut - 1e-9],
                [745.0, 0.0, 0.0, 745.13, 0.0],
                [745.2, 745.9, 746.0, 745.14, cut],
                [746.5, 800.0, 1e4, 3.0, cut + 1e-9],
                [cut - 0.5, cut + 0.5, 708.0, 709.0, 1.0],
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
            obj, _, _, shares = eg._smoothed_state(beta, prob, mu)
            ref_obj, ref_weights, ref_shares = self.plain_exp(beta, prob, mu)
            assert obj == ref_obj
            kept = ref_weights >= floor
            assert np.array_equal(shares[kept], ref_shares[kept])
            assert np.all(shares[~kept] == 0.0)
            assert np.all(ref_shares[~kept] < floor)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    def test_no_subnormal_weights_or_shares(self, seed, n, m, log_mu):
        mu = 10.0**log_mu
        prob, center, _ = tied_problem(seed, n, m, mu)
        with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
            working, _ = eg._working_set(center, prob, mu)
        for on in (None, working):
            value = eg._smoothed_value(center, prob, mu, on)
            shares = eg._smoothed_state(center, prob, mu, value, on)[3]
            for x in (value[1], shares):
                assert not np.any((0.0 < x) & (x < np.finfo(float).tiny))


def tied_problem(seed, n, m, mu):
    """Random problem and center in the box with near-tied top bids.

    About half the columns get a second bid within 1000 mu of the top,
    so their shares split, and a fifth of the valuations are zero.
    """
    rng = np.random.default_rng(seed)
    v = (rng.random((n, m)) + 0.05) * (rng.random((n, m)) > 0.2)
    lo, hi = 0.5 / n, 2.0
    center = lo + rng.random(n) * (hi - lo)
    bids = center[:, None] * v
    for j in np.flatnonzero(rng.random(m) < 0.5):
        top = bids[:, j].max()
        k = rng.integers(n)
        if bids[k, j] < top and top > 1000 * mu:
            v[k, j] = (top - rng.uniform(0, 1000) * mu) / center[k]
    w = rng.random(m) + 0.01
    return DualProblem(v, w / w.sum(), lo, hi), center, rng


def assert_set_matches_dense(prob, center, mu, rng):
    """The working set at center gives the dense value, utilities, shares and
    Hessian at center and at points inside and exactly at its radius."""
    n, m = prob.n, prob.m
    with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
        working, share = eg._working_set(center, prob, mu)
    assert share == working.rows.size / (n * m)
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
        shares = np.zeros((n, m))
        shares[working.rows, working.cols] = sparse[3]
        assert np.array_equal(shares > 0, dense[3] > 0)
        assert np.allclose(shares, dense[3], rtol=1e-12, atol=0.0)
        H = eg._smoothed_hessian(beta, prob, mu, dense[3])
        H_set = eg._smoothed_hessian(beta, prob, mu, sparse[3], working)
        assert H_set.dtype == np.float64
        # the dense Hessian adds and cancels terms up to the diagonal sum
        # below, so it is exact only to a rounding error of that size
        terms = (dense[3] * prob.valuations**2) @ (prob.weights / mu) + 1.0 / (n * beta**2)
        assert np.all(np.abs(H_set - H) <= 1e-12 * terms.max())
    return working


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
            shares = eg._smoothed_state(np.ones(n), prob, mu, working=working)[3]
            nonzero = np.bincount(working.cols[shares > 0], minlength=m)
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
            working, _ = eg._working_set(center, prob, mu)
        for beta in prob.lo + rng.random((6, n)) * (prob.hi - prob.lo):
            bound = eg._smoothed_value(beta, prob, mu, working)[0]
            dense = eg._smoothed_value(beta, prob, mu)[0]
            assert bound <= dense + 1e-12 * max(1.0, abs(dense))
            assert not eg._bound_rejects(beta, prob, mu, working, dense)
            assert not eg._bound_rejects(beta, prob, mu, working, bound)
            assert eg._bound_rejects(beta, prob, mu, working, bound - 1e-9 * max(1.0, abs(bound)))

    @staticmethod
    def solve_problem():
        rng = np.random.default_rng(11)
        return market_problem(random_instance(rng, 20, 60), rng.dirichlet(np.ones(60)))

    def test_no_set_evaluation_outside_radius(self, monkeypatch):
        # outside its trust radius the set is evaluated only as a bound, and
        # every point that bound rejects has a dense value above the
        # acceptance threshold, so the dense search would reject it too
        value, rejects = eg._smoothed_value, eg._bound_rejects
        inside, outside, bounds = [], [], []

        def checked_value(beta, prob, mu, working=None):
            if working is not None:
                far = np.abs(beta - working.center).max() > working.radius
                (outside if far else inside).append(mu)
            return value(beta, prob, mu, working)

        def checked_bound(candidate, prob, mu, working, flat):
            before = len(outside)
            rejected = rejects(candidate, prob, mu, working, flat)
            assert len(outside) == before + 1
            assert rejected
            assert value(candidate, prob, mu)[0] > flat
            bounds.append(mu)
            return rejected

        monkeypatch.setattr(eg, "_smoothed_value", checked_value)
        monkeypatch.setattr(eg, "_bound_rejects", checked_bound)
        sol = solve_dual(self.solve_problem())
        assert sol.converged
        assert inside and outside
        assert outside == bounds
        assert len(inside) == sum(s.set_evaluations for s in sol.stages)
        assert len(outside) == sum(s.bound_rejections + s.dense_fallbacks for s in sol.stages)
        for stage in sol.stages:
            spent = stage.set_evaluations + stage.bound_rejections + 2 * stage.dense_fallbacks
            assert spent < stage.evaluations
            assert stage.rebuilds <= stage.dense_fallbacks

    def test_bound_rejection_keeps_the_dense_decisions(self, monkeypatch):
        bounded = solve_dual(self.solve_problem())

        def never_rejects(candidate, prob, mu, working, flat):
            eg._smoothed_value(candidate, prob, mu, working)
            return False

        monkeypatch.setattr(eg, "_bound_rejects", never_rejects)
        dense = solve_dual(self.solve_problem())
        assert np.array_equal(bounded.beta_hat, dense.beta_hat)
        assert (bounded.objective, bounded.residual) == (dense.objective, dense.residual)
        assert sum(s.bound_rejections for s in bounded.stages) > 0
        for a, b in zip(bounded.stages, dense.stages, strict=True):
            assert (a.mu, a.steps, a.set_evaluations, a.rebuilds, a.set_share) == (
                b.mu,
                b.steps,
                b.set_evaluations,
                b.rebuilds,
                b.set_share,
            )
            # each trial point outside the radius costs a bound evaluation and,
            # unless the bound rejects it, a dense one
            assert b.bound_rejections == 0
            assert a.bound_rejections + a.dense_fallbacks == b.dense_fallbacks
            assert a.evaluations == b.evaluations - a.bound_rejections


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
    assert all({"bound_rejections", "dense_fallbacks"} <= set(stage) for stage in doc["stages"])
    assert doc["evaluations"] == sum(stage["evaluations"] for stage in doc["stages"])


def test_dual_problem_validation():
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.6]), 0.25, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.5]), 0.0, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([1.0]), 0.25, 2.0)
