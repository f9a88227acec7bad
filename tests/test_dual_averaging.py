import numpy as np
import pytest

from fairpace.dual_averaging import (
    DaState,
    LogBarrierRegularizer,
    composite_argmin,
    da_step,
    initial_state,
    iterate_da,
    regret_bound_check,
)

BOX = LogBarrierRegularizer(n=2, lo=0.25, hi=2.0)


class TestCompositeArgmin:
    def test_interior(self):
        assert np.allclose(composite_argmin([0.5, 0.5], BOX), [1.0, 1.0])

    def test_zero_clamps_high(self):
        assert np.allclose(composite_argmin([0.0, 1.0], BOX), [2.0, 0.5])

    def test_against_1d_grid(self):
        g = np.array([1.0, 0.5])
        out = composite_argmin(g, BOX)
        assert np.allclose(out, [0.5, 1.0])
        # each coordinate minimizes its separable objective on a fine grid
        grid = np.linspace(0.25, 2.0, 20001)
        for i in range(2):
            vals = g[i] * grid - np.log(grid) / 2
            assert abs(grid[vals.argmin()] - out[i]) <= 1e-4

    def test_monotone_in_average(self, rng):
        for _ in range(50):
            a = rng.random(4) * 2
            b = a + rng.random(4)  # coordinatewise larger
            reg = LogBarrierRegularizer(n=4, lo=0.1, hi=3.0)
            assert np.all(composite_argmin(b, reg) <= composite_argmin(a, reg) + 1e-15)

    def test_box_membership(self, rng):
        reg = LogBarrierRegularizer(n=3, lo=0.2, hi=1.5)
        for _ in range(100):
            w = composite_argmin(rng.random(3) * 10, reg)
            assert np.all(w >= reg.lo) and np.all(w <= reg.hi)


class TestDaStep:
    def test_first_step(self):
        state = da_step(initial_state(BOX), np.array([0.0, 1.0]), BOX)
        assert state.tau == 1
        assert np.allclose(state.g_bar, [0.0, 1.0])
        assert np.allclose(state.w, [2.0, 0.5])

    def test_fixed_point_of_averaging(self):
        state = DaState(tau=3, g_bar=np.array([0.4, 0.6]), w=composite_argmin([0.4, 0.6], BOX))
        nxt = da_step(state, state.g_bar, BOX)
        assert np.allclose(nxt.g_bar, state.g_bar)
        assert np.allclose(nxt.w, state.w)

    def test_two_steps(self):
        state = initial_state(BOX)
        state = da_step(state, np.array([0.0, 1.0]), BOX)
        state = da_step(state, np.array([1.0, 0.0]), BOX)
        assert np.allclose(state.g_bar, [0.5, 0.5])
        assert np.allclose(state.w, [1.0, 1.0])

    def test_average_identity(self, rng):
        reg = LogBarrierRegularizer(n=3, lo=0.1, hi=2.0)
        state = initial_state(reg)
        gs = rng.random((40, 3))
        for g in gs:
            state = da_step(state, g, reg)
        assert np.allclose(state.g_bar, gs.mean(axis=0), atol=1e-10)

    def test_initialization_at_barrier_argmin(self):
        state = initial_state(BOX)
        assert state.tau == 0
        assert np.allclose(state.w, 2.0)
        assert np.allclose(state.g_bar, 0.0)


class TestRegretBoundCheck:
    def test_degenerate_single_point_domain(self):
        # collapse the box to (almost) a point: F is constant, the gradient is
        # zero, and both sides vanish
        reg = LogBarrierRegularizer(n=1, lo=1.0, hi=1.0 + 1e-15)
        ws = np.array([[reg.hi], [reg.hi]])
        gs = np.array([[0.0]])
        res = regret_bound_check(
            ws, (gs**2).sum(axis=1), [1.0], [1.0], np.array([reg.hi]), sigma=1.0
        )
        assert res.holds
        assert res.lhs == pytest.approx(0.0, abs=1e-20)
        assert res.rhs == pytest.approx(0.0, abs=1e-12)
        assert res.grad_term == 0.0

    def test_formula_values(self):
        ws = np.array([[2.0], [1.0], [0.5]])
        gs = np.array([[1.0], [2.0]])
        f_run = [3.0, 4.0]
        f_ref = [2.5, 3.0]
        sigma = 0.5
        res = regret_bound_check(ws, (gs**2).sum(axis=1), f_run, f_ref, np.array([1.0]), sigma)
        # grad term: (5 * 1 + 4 / 1) / (2 * 0.5) = 9
        assert res.grad_term == pytest.approx(9.0)
        assert res.regret == pytest.approx(1.5)
        assert res.lhs == pytest.approx(0.25)
        assert res.rhs == pytest.approx(2.0 / (0.5 * 2) * (9.0 - 1.5))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            regret_bound_check(np.ones((3, 1)), np.ones(1), [1.0], [1.0], np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            regret_bound_check(np.ones((2, 1)), np.ones(1), [1.0], [1.0], np.array([1.0]), -1.0)


def test_iterate_da_matches_manual_loop(rng):
    reg = LogBarrierRegularizer(n=2, lo=0.25, hi=2.0)
    data = rng.random((30, 2))

    def oracle(w, z):
        return z

    ws, gs = iterate_da(oracle, reg, list(data))
    state = initial_state(reg)
    for tau, z in enumerate(data):
        assert np.array_equal(ws[tau], state.w)
        state = da_step(state, z, reg)
    assert np.array_equal(ws[-1], state.w)
    assert np.array_equal(gs, data)


def test_one_step_stability_bound(rng):
    # consecutive iterates move at most 2 G / (tau sigma) with the barrier's
    # own curvature constant on the box
    reg = LogBarrierRegularizer(n=3, lo=0.1, hi=2.0)
    G = 1.0
    data = rng.random((200, 3))
    ws, _ = iterate_da(lambda w, z: z, reg, list(data))
    diffs = np.sqrt(((ws[1:] - ws[:-1]) ** 2).sum(axis=1))
    taus = np.arange(1, len(data) + 1)
    bound = 2 * G / (taus * reg.modulus)
    assert np.all(diffs[1:] <= bound[1:] + 1e-12)
