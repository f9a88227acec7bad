import itertools
import json
import warnings
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
from fairpace.errors import ConfigError, NoConvergenceWarning
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
        with pytest.raises(ConfigError, match="strictly positive beta"):
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
        refused = r"agents \[1\] have no positive value under the item weights"
        with pytest.raises(ConfigError, match=refused):
            solve_dual(prob)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_refuses_valuations_that_overflow_double(self, scale):
        # their float64 Hessian sums overflowed, the Newton step turned NaN
        # and the next stage's empty working set raised an IndexError
        for seed in range(6):
            prob = boxed_problem(seed, 4 + seed, 12 + 5 * seed, 1.0, seed % 2 == 1)
            if prob is None:
                continue
            scaled = DualProblem(scale * prob.valuations, prob.weights, prob.lo, prob.hi)
            with pytest.raises(ConfigError, match="overflow the dual solve in double precision"):
                solve_dual(scaled)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
    def test_converges_on_valuations_far_above_one(self, scale):
        # at 1e5 the box's lower bound holds all but a few agents, whose
        # prices dwarf their budgets, and an agent off it takes about 3e-4
        # of one tied item, a share below the crossover's floor: the
        # certificate then forces that agent's pair on the first item their
        # bid would tie inside the box (2 of 12 converged without it)
        converged = 0
        for seed in range(12):
            prob = boxed_problem(seed, 6 + seed, 20 + 3 * seed, 1.0, seed % 2 == 1)
            scaled = DualProblem(scale * prob.valuations, prob.weights, prob.lo, prob.hi)
            converged += solve_dual(scaled).converged
        assert converged == 12

    def test_solves_valuations_below_float64_normals(self):
        # float32's underflow test does not apply in double
        for seed in range(6):
            prob = boxed_problem(seed, 4 + seed, 12 + 5 * seed, 1.0, seed % 2 == 1)
            if prob is None:
                continue
            scaled = DualProblem(1e-300 * prob.valuations, prob.weights, prob.lo, prob.hi)
            assert solve_dual(scaled).converged

    @staticmethod
    def fail_first_solve_in(monkeypatch, name):
        """Make the first np.linalg.solve called inside eg.<name> raise
        LinAlgError. Returns a record of whether it raised and of what each
        call of eg.<name> returned."""
        solve, wrapped = np.linalg.solve, getattr(eg, name)
        record = {"inside": False, "raised": False, "results": []}

        def failing_solve(a, b):
            if record["inside"] and not record["raised"]:
                record["raised"] = True
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, b)

        def wrapper(*args, **kwargs):
            record["inside"] = True
            try:
                record["results"].append(wrapped(*args, **kwargs))
            finally:
                record["inside"] = False
            return record["results"][-1]

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        monkeypatch.setattr(eg, name, wrapper)
        return record

    def test_singular_newton_system_takes_a_gradient_step(self, rng, monkeypatch):
        prob = market_problem(random_instance(rng, 5, 8), rng.dirichlet(np.ones(8)))
        record = self.fail_first_solve_in(monkeypatch, "_newton_stage")
        sol = solve_dual(prob)
        assert record["raised"] and sol.converged

    def test_singular_tangent_system_starts_the_next_stage_unpredicted(self, rng, monkeypatch):
        prob = market_problem(random_instance(rng, 5, 8), rng.dirichlet(np.ones(8)))
        record = self.fail_first_solve_in(monkeypatch, "_tangent")
        sol = solve_dual(prob)
        slopes = record["results"]
        assert record["raised"] and slopes[0] is None
        assert all(slope is not None for slope in slopes[1:])
        assert [stage.predicted for stage in sol.stages[:3]] == [False, False, True]
        assert sol.converged

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
        with pytest.raises(ConfigError, match=r"\[1\]"):
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
        # the count includes each stage's evaluation of its start point
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
        # halvings, or on its step limit. Every stage but the last of the
        # ladder, at mu = tol, is given _LOOSE_GTOL mu, and the last the
        # tolerance's floor, which bounds them all from below
        stage = eg._newton_stage
        ends = []

        def recorded(beta, prob, mu, gtol, slope=None):
            floor = max(1e-8 / (prob.n * prob.hi**2) * 0.1, 1e-13)
            assert gtol == (floor if mu == 1e-8 else max(eg._LOOSE_GTOL * mu, floor))
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

    def test_single_precision_stages_keep_beta_hat(self):
        # the crossover fixes beta_hat from the forest in double, so on these
        # problems, cold and warm-started, the solve gives the same bits as
        # one with every stage in double
        checked = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 30)), int(rng.integers(4, 160))
            prob = boxed_problem(seed, n, m, 10.0 ** rng.uniform(-2.0, 1.0), seed % 2 == 1)
            if prob is None:
                continue
            weights = other_weights(prob, seed)
            start = solve_dual(DualProblem(prob.valuations, weights, prob.lo, prob.hi)).beta_hat
            for warm in (None, (start, weights)):
                sol = solve_dual(prob, warm=warm)
                with mock.patch.object(eg, "_DOUBLE_STAGE", 0):
                    double = solve_dual(prob, warm=warm)
                assert np.array_equal(sol.beta_hat, double.beta_hat)
                assert sol.certified_mu == double.certified_mu and sol.converged == double.converged
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("scale", [1e-40, 1e-20, 1e20, 1e39])
    def test_single_precision_only_where_float32_fits(self, monkeypatch, scale):
        # valuations scaled by 1e-40 give float32 bids below its smallest
        # normal, by 1e-20 a largest R^2 below it, by 1e20 Hessian sums
        # above float32's largest number and by 1e39 valuations above it:
        # those solves, cold and warm, build no single-precision view and
        # give the bits of a solve with every stage in double. Unscaled, the
        # same problems build one
        views = []
        view = eg._SingleView
        monkeypatch.setattr(eg, "_SingleView", lambda prob: views.append(prob.n) or view(prob))
        for seed in range(6):
            prob = boxed_problem(seed, 4 + seed, 12 + 5 * seed, 1.0, seed % 2 == 1)
            if prob is None:
                continue
            weights = other_weights(prob, seed)
            solve_dual(prob)
            assert views and eg._fits(prob, np.float32, prob.valuations.max(axis=0))
            views.clear()
            scaled = DualProblem(scale * prob.valuations, prob.weights, prob.lo, prob.hi)
            assert not eg._fits(scaled, np.float32, scaled.valuations.max(axis=0))
            with warnings.catch_warnings():
                # scaled far from 1 a solve may stop short of the tolerance
                warnings.simplefilter("ignore", NoConvergenceWarning)
                other = DualProblem(scaled.valuations, weights, prob.lo, prob.hi)
                start = solve_dual(other).beta_hat
                for warm in (None, (start, weights)):
                    sol = solve_dual(scaled, warm=warm)
                    with mock.patch.object(eg, "_DOUBLE_STAGE", 0):
                        double = solve_dual(scaled, warm=warm)
                    assert np.array_equal(sol.beta_hat, double.beta_hat)
                    assert sol.certified_mu == double.certified_mu
                    assert sol.converged == double.converged
            assert not views

    def test_early_stages_run_in_single_precision(self, monkeypatch):
        # the stages at temperatures of at least 1e-2 times the cold
        # ladder's first that are not the last run on float32 arrays, every
        # other stage and the fallback residual on float64: in a cold solve,
        # in a warm solve that starts at 1e-2 times the first temperature,
        # and in a solve at tol 1e-3 whose last stage is the third
        stage, state = eg._newton_stage, eg._smoothed_state
        seen, states = [], []

        def recorded_stage(beta, prob, mu, gtol, slope=None):
            out = stage(beta, prob, mu, gtol, slope)
            seen.append((mu, prob.valuations.dtype, out[2][0].dtype))
            return out

        def recorded_state(beta, prob, mu, value=None, working=None):
            out = state(beta, prob, mu, value, working)
            states.append((prob.valuations.dtype, working is None, out[2].dtype))
            return out

        monkeypatch.setattr(eg, "_newton_stage", recorded_stage)
        monkeypatch.setattr(eg, "_smoothed_state", recorded_state)
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 5, 8)
        weights = rng.dirichlet(np.ones(8))
        other = 0.95 * weights + 0.05 * rng.dirichlet(np.ones(8))
        prob = market_problem(inst, weights)
        start = solve_dual(market_problem(inst, other)).beta_hat
        # tolerance, warm start, first stage and single stages of each solve
        solves = [(1e-8, None, 0, 3), (1e-8, (start, other), 2, 1), (1e-3, None, 0, 2)]
        for tol, warm, first, singles in solves:
            mus = ladder(prob, tol)
            for crossover in (eg._crossover, lambda *args: (None, 0)):
                seen.clear()
                states.clear()
                with mock.patch.object(eg, "_crossover", crossover):
                    sol = solve_dual(prob, tol=tol, warm=warm)
                assert [mu for mu, _, _ in seen] == mus[first : first + len(seen)]
                for mu, dtype, root_dtype in seen:
                    single = mu >= 1e-2 * (1.0 - 1e-12) * mus[0] and mu != mus[-1]
                    assert dtype == root_dtype == (np.float32 if single else np.float64)
                assert sum(dtype == np.float32 for _, dtype, _ in seen) == singles
                assert len(seen) > singles and sol.converged
                assert all(utilities == np.float64 for _, _, utilities in states)
                if sol.certified_mu is None:
                    # the fallback residual: one dense evaluation in double
                    assert seen[-1][0] == mus[-1] and states[-1][:2] == (np.float64, True)
            # the tol 1e-3 ladder ends at its third stage
            assert len(mus) == 3 if tol == 1e-3 else len(mus) > 4


class TestSmoothedState:
    @staticmethod
    def plain_exp(beta, prob, mu):
        """Objective, weights and shares with exp taken of every entry, in
        the dtype of the problem's arrays."""
        bids = beta.astype(prob.valuations.dtype)[:, None] * prob.valuations
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
        # below; the same on the single-precision view, with its cutoff and
        # exponents around -87.3, where float32's exp turns subnormal, and
        # -103.97, where it underflows
        for single in (False, True):
            cut = -(eg._SINGLE_EXP_CUTOFF if single else eg._EXP_CUTOFF)
            gaps = np.array(
                [
                    [0.0, 0.0, 744.4, 0.0, cut - 1e-9, 690.0, 87.0],
                    [745.0, 0.0, 0.0, 745.13, 0.0, 0.0, 0.0],
                    [745.2, 745.9, 746.0, 745.14, cut, 689.5, 87.5],
                    [746.5, 800.0, 1e4, 3.0, cut + 1e-9, 0.0, 103.9],
                    [cut - 0.5, cut + 0.5, 708.0, 709.0, 1.0, 690.5, 104.1],
                ]
            )
            beta = 0.5 + rng.random(5)
            cases = [(np.ones(5), 1000.0 - gaps, 1.0)]
            cases += [(beta, (1.0 - mu * gaps) / beta[:, None], mu) for mu in (1e-5, 1e-8)]
            gaps = rng.uniform(0.0, 800.0, size=(8, 50))
            beta = 0.5 + rng.random(8)
            cases.append((beta, (1.0 - 1e-6 * gaps) / beta[:, None], 1e-6))
            for beta, v, mu in cases:
                prob = DualProblem(v, np.full(v.shape[1], 1.0 / v.shape[1]), 0.1, 2.0)
                if single:
                    prob = eg._SingleView(prob)
                floor = np.exp(prob.valuations.dtype.type(-cut))
                obj, weights, mass = eg._smoothed_value(beta, prob, mu)
                assert weights.dtype == prob.valuations.dtype
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
        # where the exponent reaches the cutoff, bit for bit. The same on the
        # single-precision view, around its cutoff and where float32's exp
        # turns subnormal (-87.3) and underflows (-103.97); there the top
        # bid is 0, so that every exponent is exactly its float32 gap
        cases = ((False, 1000.0, [690.0, 745.0]), (True, 0.0, [87.5, 104.0]))
        for single, top, landmarks in cases:
            dtype = np.float32 if single else np.float64
            cut = -(eg._SINGLE_EXP_CUTOFF if single else eg._EXP_CUTOFF)
            gaps = np.concatenate((np.linspace(0.0, 800.0, 8001), [690.0, 708.4, 745.0, 87.5, 104.0]))
            near = [np.nextafter(dtype(cut), dtype(0)), np.nextafter(dtype(cut), dtype(np.inf))]
            gaps = np.concatenate((gaps, near, [cut - 1e-9, cut + 1e-9, cut - 0.5, cut + 0.5]))
            v = np.vstack((np.full(gaps.size, top), top - gaps))
            prob = DualProblem(v, np.full(gaps.size, 1.0 / gaps.size), 0.1, 2.0)
            if single:
                prob = eg._SingleView(prob)
            beta = np.ones(2)
            weights = eg._smoothed_value(beta, prob, 1.0)[1]
            z = beta.astype(dtype)[:, None] * prob.valuations
            z -= z.max(axis=0)
            z /= 1.0
            expected = np.exp(z, out=np.zeros_like(z), where=z >= -cut)
            assert weights.dtype == dtype
            assert np.array_equal(weights.view(np.uint8), expected.view(np.uint8))
            # with a top of 1000 the float64 gaps next to the cutoff round
            reached = [-x for x in landmarks + [cut - 0.5, cut + 0.5] + (near if single else [])]
            assert set(np.array(reached, dtype).tolist()) <= set(z[1].tolist())
            below = (weights[1] == 0.0) & (z[1] > -landmarks[-1] - 1.0)
            assert np.any(weights[1] > 0.0) and np.any(below)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    def test_no_subnormal_weights_shares_or_hessian(self, seed, n, m, log_mu):
        mu = 10.0**log_mu
        prob, center = tied_problem(seed, n, m, mu)
        assert_no_subnormal(prob, center, mu)
        # on the single-precision view, with half the near ties within its
        # cutoff: no float32 weight, share or root entry, nor any Hessian
        # entry, lies below float32's smallest normal
        prob, center = tied_problem(seed, n, m, mu, eg._SINGLE_EXP_CUTOFF)
        assert_no_subnormal(eg._SingleView(prob), center, mu)

    def test_single_precision_view_agrees_with_double(self):
        # at random points and temperatures from 1e-4 to 1e-1, dense and on
        # the working set there, the single-precision view's value, gradient
        # and Hessian lie within bounds from float32's unit roundoff u of
        # the double ones. A bid rounds by 3u of itself, so the exponent of a
        # kept weight, (bid - top) / mu, by at most 7u top / mu + 42u, and the
        # weight by that plus 2u; a column's mass adds n u and a share
        # doubles it. A price, mu log(mass) + top, so rounds by 14u of its top
        # bid and mu u (45 + n + 3 log n); R and the sums over items add
        # (m + 8) u to the utilities and the Hessian, whose entries are at
        # most twice its largest diagonal term. Weights the view drops, below
        # e^-40, move a share by at most n e^-40, and the float64 gradient
        # rounds by eps / (n beta)
        u = np.finfo(np.float32).eps / 2
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            mu = 10.0 ** rng.uniform(-4.0, -1.0)
            prob, center = tied_problem(seed, n, m, mu, eg._SINGLE_EXP_CUTOFF)
            view = eg._SingleView(prob)
            top = (center[:, None] * prob.valuations).max(axis=0)
            share = 2.0 * u * (7.0 * top.max() / mu + 44.0) + (n + 1) * u
            summed = share + (m + 8) * u
            dropped = n * np.exp(-40.0)
            value_bound = u * (14.0 * (top @ prob.weights) + mu * (45.0 + n + 3.0 * np.log(n + 1)))
            _, _, utilities, root = eg._smoothed_state(center, prob, mu)
            grad_bound = summed * utilities + dropped * (prob.valuations @ prob.weights)
            grad_bound += np.finfo(float).eps / (n * center)
            terms = np.einsum("ij,ij->i", root, prob.root_factor).max()
            hessian_bound = 2.0 * (share + summed) * terms + dropped * m * prob.root_factor.max() ** 2
            hessian_bound /= mu
            for on_set in (False, True):
                working = working_set(center, prob, mu) if on_set else None
                view_working = working_set(center, view, mu) if on_set else None
                obj, grad, _, root = eg._smoothed_state(center, prob, mu, working=working)
                view_state = eg._smoothed_state(center, view, mu, working=view_working)
                assert abs(view_state[0] - obj) <= value_bound
                assert np.all(np.abs(view_state[1] - grad) <= grad_bound)
                H = eg._smoothed_hessian(prob, mu, root, working)
                view_H = eg._smoothed_hessian(view, mu, view_state[3], view_working)
                assert np.all(np.abs(view_H - H) <= hessian_bound)

    def test_no_subnormal_hessian_beside_a_tied_column(self):
        # in column 0 agent 0 bids on top and agents 1 and 2 bid 365 mu
        # below; column 1 ties agents 0 and 3. A cutoff that kept the two
        # shares of e^-365 would make the Hessian entry of agents 1 and 2
        # their product times 500 v^2, a subnormal of about 2e-315
        mu, gap = 1e-3, 365.0
        v = np.array([[1.0, 0.5], [1.0 - gap * mu, 0.0], [1.0 - gap * mu, 0.0], [0.3, 0.5]])
        prob = DualProblem(v, np.array([0.5, 0.5]), 0.1, 2.0)
        assert_no_subnormal(prob, np.ones(4), mu)


def working_set(center, prob, mu):
    """The working set at center, whatever share of the pairs it holds: the
    pairs within _SET_WIDTH mu of their column's top bid there."""
    z = center[:, None] * prob.valuations
    z -= z.max(axis=0)
    return eg._WorkingSet(z >= -eg._SET_WIDTH * mu, prob)


def assert_no_subnormal(prob, center, mu):
    """No softmax weight, share or Hessian entry at center is subnormal in
    the dtype of the problem's arrays, dense or on the working set there."""
    working = working_set(center, prob, mu)
    tiny = np.finfo(prob.valuations.dtype).tiny
    for on in (None, working):
        obj, weights, mass = eg._smoothed_value(center, prob, mu, on)
        shares = (weights / (mass if on is None else mass[on.cols])).astype(weights.dtype)
        root = eg._smoothed_state(center, prob, mu, (obj, weights.copy(), mass), on)[3]
        H = eg._smoothed_hessian(prob, mu, root, on)
        assert weights.dtype == root.dtype == prob.valuations.dtype and H.dtype == np.float64
        for x in (weights, shares, root, np.abs(H)):
            assert not np.any((0.0 < x) & (x < tiny))


def tied_problem(seed, n, m, mu, cutoff=eg._EXP_CUTOFF):
    """Random problem and center in the box with near-tied top bids.

    About half the columns get a second bid within _SET_WIDTH mu of the top,
    so the working set at center holds it. Half of those bids lie within
    -cutoff mu of the top, so their column's shares split. A fifth of the
    valuations are zero.
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
            width = eg._SET_WIDTH if rng.random() < 0.5 else -cutoff
            v[k, j] = (top - rng.uniform(0, width) * mu) / center[k]
    w = rng.random(m) + 0.01
    return DualProblem(v, w / w.sum(), lo, hi), center


def assert_set_matches_dense(prob, center, mu):
    """At the point it is built at, the working set gives the dense value,
    shares and root array bit for bit, and the dense utilities and Hessian
    up to summation order."""
    n, m = prob.n, prob.m
    working = working_set(center, prob, mu)
    obj, weights, mass = eg._smoothed_value(center, prob, mu)
    set_obj, set_weights, set_mass = eg._smoothed_value(center, prob, mu, working)
    assert set_obj == obj
    shares = np.zeros((n, m))
    shares[working.rows, working.cols] = set_weights / set_mass[working.cols]
    assert np.array_equal(shares, weights / mass)
    dense = eg._smoothed_state(center, prob, mu)
    sparse = eg._smoothed_state(center, prob, mu, working=working)
    assert np.all(np.abs(sparse[2] - dense[2]) <= 1e-12 * np.abs(dense[2]))
    root = np.zeros((n, m))
    root[working.rows, working.cols] = sparse[3]
    assert np.array_equal(root, dense[3])
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
    point and set (None for a dense one), and each set build's temperature,
    point and result."""
    value, build = eg._smoothed_value, eg._working_set
    evaluated, built = [], []

    def recorded_value(beta, prob, mu, working=None):
        evaluated.append((mu, beta.copy(), working))
        return value(beta, prob, mu, working)

    def recorded_build(beta, prob, mu):
        built.append((mu, beta.copy(), build(beta, prob, mu)))
        return built[-1][2]

    monkeypatch.setattr(eg, "_smoothed_value", recorded_value)
    monkeypatch.setattr(eg, "_working_set", recorded_build)
    return evaluated, built


class TestWorkingSet:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        log_mu=st.floats(-8.0, -2.0),
    )
    # one item and eight agents: numpy sums a single column pairwise, and
    # the dense mass differed from the set's in the last bit
    @example(seed=1, n=8, m=1, log_mu=-2.0)
    def test_matches_dense(self, seed, n, m, log_mu):
        mu = 10.0**log_mu
        prob, center = tied_problem(seed, n, m, mu)
        assert_set_matches_dense(prob, center, mu)

    def test_matches_dense_edge_cases(self):
        mu = 1e-5

        def check(v, weights, lo, nonzero_per_column):
            n, m = v.shape
            prob = DualProblem(v, np.array(weights), lo, 2.0)
            working = assert_set_matches_dense(prob, np.ones(n), mu)
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

    @staticmethod
    def solve_problem():
        # a solve whose stages at 1e-4 and 1e-5 times the first temperature
        # run on sets, certified after the second
        rng = np.random.default_rng(41)
        return market_problem(random_instance(rng, 20, 60), rng.dirichlet(np.ones(60)))

    @staticmethod
    def recorded_solve(monkeypatch, prob):
        """A certified solve with, per stage, the set it built and the sets
        of its evaluations (see record_sets). Each stage builds one set, at
        the first point it evaluates, and its evaluations are exactly those
        at its temperature."""
        evaluated, built = record_sets(monkeypatch)
        sol = solve_dual(prob)
        monkeypatch.undo()
        assert sol.certified_mu is not None
        assert [mu for mu, _, _ in built] == [stage.mu for stage in sol.stages]
        assert sol.evaluations == len(evaluated)
        sets = []
        for stage, (mu, start, working) in zip(sol.stages, built):
            at = [(point, on) for m, point, on in evaluated if m == mu]
            assert len(at) == stage.evaluations and np.array_equal(at[0][0], start)
            sets.append((working, [on for _, on in at]))
        return sol, sets

    def assert_one_set_per_stage(self, monkeypatch, prob):
        """Every evaluation of a stage, the predicted point's included, is on
        the set built at the stage's start point, or dense where none was
        built; returns the stages on a set."""
        sol, sets = self.recorded_solve(monkeypatch, prob)
        assert sol.converged
        for working, evaluated_on in sets:
            assert all(on is working for on in evaluated_on)
        return [stage for stage, (working, _) in zip(sol.stages, sets) if working is not None]

    def test_no_set_evaluation_outside_radius(self, monkeypatch):
        # a set has no trust radius: the stages on a set, their entries and
        # predicted points included, evaluate on it alone
        on_set = self.assert_one_set_per_stage(monkeypatch, self.solve_problem())
        assert on_set and any(stage.predicted for stage in on_set)

    def test_rebuilds_accounted(self, monkeypatch):
        # a stage builds its set once, at its first point, and never
        # rebuilds it (see recorded_solve). With one agent valuing everything
        # 20 times more, stages on a set take predicted points on it
        prob = boxed_problem(354, 29, 186, 0.02, True)
        on_set = self.assert_one_set_per_stage(monkeypatch, prob)
        assert on_set and any(stage.predicted for stage in on_set)

    def test_reference_solve_at_wide_market_shape(self, monkeypatch):
        # the reference problem of a run at n = 100, m = 1500 with a
        # corrupted model, built as run_experiment builds it: its two stages
        # on a set never evaluate densely, and every stage after the first
        # starts at its predicted point
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
        sol, sets = self.recorded_solve(monkeypatch, prob)
        assert sol.converged and sol.certified_mu == sol.stages[-1].mu
        assert [s.steps for s in sol.stages] == [1, 3, 5, 10, 17]
        assert [s.predicted for s in sol.stages] == [False, True, True, True, True]
        on_set = [evaluated_on for working, evaluated_on in sets if working is not None]
        assert len(on_set) == 2 and not any(on is None for ons in on_set for on in ons)

    def test_uncertified_residual_is_dense(self, monkeypatch):
        # two agents tie on both items. The last stage gets a set without
        # agent 1's pair on item 0, so on the set agent 0 takes item 0 whole,
        # and the stage ends where agent 1 bids more for it. Under the set's
        # tie split the point is a fixed point; over every pair it is far
        # from one, so with every crossover attempt failing the solve must
        # report no convergence
        prob = market_problem(MarketInstance(np.ones((2, 2))), np.array([0.5, 0.5]))
        last = ladder(prob)[-1]
        missing = eg._WorkingSet(np.array([[True, True], [False, True]]), prob)
        build = eg._working_set
        monkeypatch.setattr(
            eg, "_working_set", lambda beta, prob, mu: missing if mu == last else build(beta, prob, mu)
        )
        with pytest.warns(NoConvergenceWarning):
            sol = fallback_solve(prob)
        beta = sol.beta_hat
        assert sol.stages[-1].mu == last and np.isfinite(sol.residual) and not sol.converged
        assert beta[1] > beta[0]
        utilities = eg._smoothed_state(beta, prob, last, working=missing)[2]
        on_set = np.abs(beta - np.clip(1.0 / (prob.n * utilities), prob.lo, prob.hi)).max()
        assert on_set <= 1e-8 < 0.1 < sol.residual


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
    """Rounding bound on dual_objective, for two values compared: each
    rounds by at most (m + n + 4) eps times its price term plus the
    magnitude of its log barrier, and the box bounds the barrier by
    max |log beta| and the price term by the value plus that."""
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
    the first starts at the tangent predictor's point, each but the last
    stops at _LOOSE_GTOL mu, and those before _DOUBLE_STAGE but the last
    run on the problem's single-precision view, so their root arrays are
    float32. Without it each stage runs in double, starts from the last
    one's point and stops at 1e-3 mu, the plain continuation the crossover
    tests below take their points from."""
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
    mus = eg._temperatures(0.1 * max(scale, 1e-6), mu_end)
    for k, mu in enumerate(mus):
        factor = eg._LOOSE_GTOL if predict else 1e-3
        gtol = gtol_final if mu <= mu_end else max(factor * mu, gtol_final)
        single = predict and k < min(eg._DOUBLE_STAGE, len(mus) - 1)
        on = eg._SingleView(prob) if single else prob
        beta, utilities, root, _ = eg._newton_stage(beta, on, mu, gtol, slope)
        yield prob, mu, beta, utilities, root
        if predict:
            tangent = eg._tangent(beta, on, mu, utilities, *root)
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
        stage's tie split over every pair: the solve without a crossover."""
        for reduced, mu, beta, _, _ in stage_points(prob, tol, predict=True):
            pass
        utilities = eg._smoothed_state(beta, reduced, mu)[2]
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
            prob, center = tied_problem(seed, n, m, mu)
            working = working_set(center, prob, mu)
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
    def test_stage_starts_at_the_prediction(self):
        # from the first stage's end point the next stage is given the
        # tangent, its reverse and a zero slope; at gtol inf it takes no
        # step, so it returns the point it started from: the clipped
        # prediction, evaluated once, even where its smoothed value lies
        # above the end point's, as it does for the reversed tangent
        prob = TestWorkingSet.solve_problem()
        reduced, mu0, beta, utilities, root = next(stage_points(prob))
        tangent = eg._tangent(beta, reduced, mu0, utilities, *root)
        mu = 0.1 * mu0
        value = eg._smoothed_value(beta, reduced, mu)[0]
        for slope, higher in ((tangent, False), (-tangent, True), (np.zeros_like(beta), False)):
            guess = np.clip(beta + (mu - mu0) * slope, reduced.lo, reduced.hi)
            assert (eg._smoothed_value(guess, reduced, mu)[0] > value) == higher
            start, _, _, counts = eg._newton_stage(beta, reduced, mu, np.inf, (mu0, slope))
            assert counts == (mu, 0, 1, True)
            assert np.array_equal(start, guess)
        start, _, _, counts = eg._newton_stage(beta, reduced, mu, np.inf)
        assert counts == (mu, 0, 1, False)
        assert np.array_equal(start, beta)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 2),
        n=st.integers(1, 8),
        m=st.integers(1, 12),
        delta0=st.sampled_from([0.02, 0.1, 1.0]),
        heavy=st.booleans(),
    )
    @example(seed=7249, n=7, m=4, delta0=0.02, heavy=False)
    # an agent who wins nothing ends the warm stages a rounding below the
    # upper bound: the certificate puts them on it
    @example(seed=2**32 - 2, n=8, m=6, delta0=1.0, heavy=True)
    def test_warm_start_finds_the_cold_optimum(self, seed, n, m, delta0, heavy):
        # warm-started from the optimum of other weights on the same market,
        # the solve runs the cold ladder's stages from the first at or below
        # TV times its first temperature and ends at the cold optimum
        prob = boxed_problem(seed, n, m, delta0, heavy)
        assume(prob is not None)
        other = other_weights(prob, seed + 1)
        start = solve_dual(DualProblem(prob.valuations, other, prob.lo, prob.hi))
        with mock.patch.object(eg, "_crossover", wraps=eg._crossover) as attempts:
            warm = solve_dual(prob, warm=(start.beta_hat, other))
        assert warm.crossover_attempts == attempts.call_count
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


class TestEquilibriumUtilities:
    def test_examples(self):
        assert np.allclose(equilibrium_utilities(np.array([1.0, 1.0]), 2), [0.5, 0.5])
        assert np.allclose(equilibrium_utilities(np.array([0.5, 1.0]), 2), [1.0, 0.5])
        assert np.allclose(equilibrium_utilities(np.array([1.0]), 1), [1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="strictly positive beta"):
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

    @pytest.mark.parametrize("block", [7, 500, 8192])
    def test_blocked_counts_keep_the_weights(self, rng, monkeypatch, block):
        # the items are counted a block at a time, to bound bincount's copy
        monkeypatch.setattr(eg, "_COUNT_BLOCK", block)
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=500))
        weights = np.bincount(np.array(seq.items), minlength=4) / seq.t
        direct = solve_dual(market_problem(inst, weights))
        assert np.array_equal(hindsight_solution(inst, seq).beta_hat, direct.beta_hat)

    def test_item_outside_universe(self):
        inst = MarketInstance(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ConfigError, match="outside the universe"):
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


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf, 1e300])
def test_solve_dual_refuses_a_tol_that_is_not_positive(tol):
    # a NaN tol used to end the solve after 0 Newton steps, and an infinite
    # or huge one to return the start point as converged: its residual gate
    # of 10 tol passed every point of the box
    prob = market_problem(MarketInstance(np.array([[1.0, 0.5], [0.2, 1.0]])), np.full(2, 0.5))
    with pytest.raises(ConfigError, match="tol must be positive"):
        solve_dual(prob, tol=tol)


def test_dual_problem_validation():
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.6]), 0.25, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([0.5, 0.5]), 0.0, 2.0)
    with pytest.raises(ValueError):
        DualProblem(np.ones((2, 2)), np.array([1.0]), 0.25, 2.0)
    # NaN weights used to pass the sum check and crash solve_dual with an IndexError
    with pytest.raises(ValueError, match="weights entries must be finite"):
        DualProblem(np.ones((2, 2)), np.array([np.nan, 1.0]), 0.25, 2.0)
