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
        """Shares and objective with exp taken of every entry."""
        bids = beta[:, None] * prob.valuations
        top = bids.max(axis=0)
        weights_exp = np.exp((bids - top) / mu)
        mass = weights_exp.sum(axis=0)
        prices = mu * np.log(mass) + top
        obj = float(prices @ prob.weights - np.log(beta).sum() / prob.n)
        return obj, weights_exp / mass

    def test_masked_exp_matches_plain_exp(self, rng):
        # exponents (bid - top) / mu of exactly 0, around -745 where exp
        # underflows to 0, and below -746 where exp is skipped
        gaps = np.array(
            [
                [0.0, 0.0, 744.4, 0.0],
                [745.0, 0.0, 0.0, 745.13],
                [745.2, 745.9, 746.0, 745.14],
                [746.5, 800.0, 1e4, 3.0],
            ]
        )
        beta = 0.5 + rng.random(4)
        cases = [(np.ones(4), 1000.0 - gaps, 1.0)]
        cases += [(beta, (1.0 - mu * gaps) / beta[:, None], mu) for mu in (1e-5, 1e-8)]
        gaps = rng.uniform(0.0, 800.0, size=(8, 50))
        beta = 0.5 + rng.random(8)
        cases.append((beta, (1.0 - 1e-6 * gaps) / beta[:, None], 1e-6))
        for beta, v, mu in cases:
            prob = DualProblem(v, np.full(v.shape[1], 1.0 / v.shape[1]), 0.1, 2.0)
            obj, _, _, shares = eg._smoothed_state(beta, prob, mu)
            ref_obj, ref_shares = self.plain_exp(beta, prob, mu)
            assert obj == ref_obj
            assert np.array_equal(shares, ref_shares)


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
        with mock.patch.object(eg, "_DENSE_SHARE", 2.0):
            working, share = eg._working_set(center, prob, mu)
        assert share == working.rows.size / (n * m)
        radius = working.radius if np.isfinite(working.radius) else 0.5
        # points inside the radius and at it: some coordinates move by
        # exactly the radius, upward where moving down would leave beta <= 0
        steps = rng.uniform(-1.0, 1.0, size=(6, n))
        steps[rng.random((6, n)) < 0.4] = 1.0
        steps[1:3] = rng.choice([-1.0, 1.0], size=(2, n))
        steps[:, center - radius <= 0] = np.abs(steps[:, center - radius <= 0])
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
            # the dense Hessian adds and cancels terms up to the diagonal
            # sum below, so it is exact only to a rounding error of that size
            terms = (dense[3] * prob.valuations**2) @ (prob.weights / mu) + 1.0 / (n * beta**2)
            assert np.all(np.abs(H_set - H) <= 1e-12 * terms.max())

    def test_no_set_evaluation_outside_radius(self, monkeypatch):
        rng = np.random.default_rng(11)
        prob = market_problem(random_instance(rng, 20, 60), rng.dirichlet(np.ones(60)))
        value = eg._smoothed_value
        on_set, outside = [], []

        def checked(beta, prob, mu, working=None):
            if working is not None:
                on_set.append(mu)
                if np.abs(beta - working.center).max() > working.radius:
                    outside.append(mu)
            return value(beta, prob, mu, working)

        monkeypatch.setattr(eg, "_smoothed_value", checked)
        sol = solve_dual(prob)
        assert sol.converged
        assert on_set and not outside
        assert len(on_set) == sum(s.set_evaluations for s in sol.stages)
        for stage in sol.stages:
            assert stage.set_evaluations + stage.dense_fallbacks < stage.evaluations
            assert stage.rebuilds <= stage.dense_fallbacks


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
    assert doc["evaluations"] == sum(stage["evaluations"] for stage in doc["stages"])


def test_dual_problem_validation():
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.6]), 0.25, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.5]), 0.0, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([1.0]), 0.25, 2.0)
