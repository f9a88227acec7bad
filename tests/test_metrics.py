import numpy as np
import pytest

from fairpace import metrics
from fairpace.eg import equilibrium_utilities, hindsight_solution
from fairpace.market import ItemSequence, MarketInstance
from fairpace.metrics import METRIC_NAMES, build_metric_series, recording_grid
from fairpace.errors import DimensionMismatch
from fairpace.pace import PaceTrace, run_pace
from tests.conftest import random_instance, tie_free_run
from tests.oracles import (
    NonpositiveReference,
    envy,
    mean_square_errors,
    proportional_share_utilities,
    realized_total_utilities,
    regret,
    relative_error_max,
)


def _trace_with_winners(winners, inst, seq):
    """Minimal trace with a prescribed winner sequence."""
    t = seq.t
    n = inst.n
    values = inst.valuations[winners, seq.items]
    zero = np.zeros((1, n))
    return PaceTrace(
        n=n,
        t=t,
        winners=np.asarray(winners, dtype=np.int64),
        winner_values=values,
        winning_bids=values,
        record_times=np.array([t]),
        beta_at=zero.copy(),
        u_bar_at=zero.copy(),
        spend_avg_at=zero.copy(),
    )


class TestRecordingGrid:
    def test_short_horizon_is_dense(self):
        assert recording_grid(7).tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_long_horizon_shape(self):
        grid = recording_grid(20000)
        assert grid[0] == 1
        assert grid[-1] == 20000
        assert np.all(np.diff(grid) >= 1)
        dense = grid[grid <= 100]
        assert dense.tolist() == list(range(1, 101))
        # geometric tail stays within the rounding of the 1.1 factor
        tail = grid[grid >= 100].astype(float)
        ratios = tail[1:] / tail[:-1]
        assert ratios.max() <= 1.11

    def test_includes_endpoint(self):
        for t in (99, 100, 101, 1234):
            assert recording_grid(t)[-1] == t

    def test_length_is_bounded(self):
        # the default grid at paper scale; a grid exactly at the bound; a
        # factor just above 1 and a huge dense part, refused before they are
        # built
        assert len(recording_grid(20000)) == 156
        assert len(recording_grid(metrics.MAX_GRID_POINTS, dense_until=10**9)) == 1000
        for t, dense_until, factor in ((20000, 100, 1.0001), (10**12, 10**12, 1.1), (1001, 1001, 1.1)):
            with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
                recording_grid(t, dense_until, factor)


class TestRegret:
    def test_zero_when_realized_matches(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(rng.integers(0, 3, size=40))
        trace = run_pace(inst, seq)
        realized_avg = realized_total_utilities(trace) / seq.t
        assert np.allclose(regret(trace, realized_avg, seq.t), 0.0, atol=1e-9)

    def test_identity_with_realized_total(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=60))
        trace = run_pace(inst, seq)
        hs = hindsight_solution(inst, seq)
        hs_u = equilibrium_utilities(hs, 3)
        reg = regret(trace, hs_u, seq.t)
        assert np.allclose(
            reg + realized_total_utilities(trace), seq.t * hs_u, atol=1e-9 * seq.t
        )

    def test_dimension_mismatch(self, rng):
        inst = random_instance(rng, 2, 3)
        trace = run_pace(inst, ItemSequence(rng.integers(0, 3, size=10)))
        with pytest.raises(DimensionMismatch):
            regret(trace, np.array([1.0, 1.0]), 11)


class TestEnvy:
    def test_single_agent_zero(self, rng):
        inst = random_instance(rng, 1, 3)
        seq = ItemSequence(rng.integers(0, 3, size=20))
        assert envy(run_pace(inst, seq), inst, seq).tolist() == [0.0]

    def test_loser_envies_winner(self):
        # trace where agent 0 won both items; agent 1 values them 0.3 and 0.7
        v = np.array([[1.0, 1.0], [0.3, 0.7]])
        inst = MarketInstance(v)
        seq = ItemSequence(np.array([0, 1]))
        trace = _trace_with_winners(np.array([0, 0]), inst, seq)
        out = envy(trace, inst, seq)
        assert out[1] == pytest.approx(1.0)
        assert out[0] == pytest.approx(0.0)

    def test_disjoint_supports_no_envy(self):
        v = np.array([[1.0, 1e-9], [1e-9, 1.0]])
        inst = MarketInstance(v)
        seq = ItemSequence(np.array([0, 1, 0, 1]))
        out = envy(run_pace(inst, seq), inst, seq)
        assert np.allclose(out, 0.0, atol=1e-8)

    def test_matches_dense_bundle_sum(self, rng):
        # S from (winner, item) counts against S summed over a (t, n) matrix
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            inst = random_instance(rng, n, m)
            seq = ItemSequence(rng.integers(0, m, size=200))
            trace = run_pace(inst, seq)
            S = np.zeros((n, n))
            np.add.at(S, trace.winners, inst.valuations.T[seq.items])
            dense = S.max(axis=0) - np.diag(S)
            assert np.allclose(envy(trace, inst, seq), dense, rtol=1e-12, atol=1e-12)

    def test_item_outside_universe(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(np.array([0, 1, 2]))
        with pytest.raises(DimensionMismatch):
            envy(run_pace(inst, seq), inst, ItemSequence(np.array([0, 1, 3])))

    def test_nonnegative(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            inst = random_instance(rng, n, m)
            seq = ItemSequence(rng.integers(0, m, size=50))
            assert np.all(envy(run_pace(inst, seq), inst, seq) >= 0)


class TestMeanSquareErrors:
    def test_exact_reference_gives_zero(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(rng.integers(0, 3, size=30))
        trace = run_pace(inst, seq)
        out = mean_square_errors(trace, trace.beta_at[-1], trace.u_bar_at[-1], 2)
        assert out.beta == 0.0
        assert out.utility == 0.0

    def test_expenditure_target(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(rng.integers(0, 3, size=30))
        trace = run_pace(inst, seq)
        expected = float(((trace.spend_avg_at[-1] - 0.5) ** 2).sum())
        out = mean_square_errors(trace, trace.beta_at[-1], trace.u_bar_at[-1], 2)
        assert out.expenditure == pytest.approx(expected)

    def test_permutation_equivariance(self, rng):
        inst, seq = tie_free_run(rng, 3, 4, 100)
        perm = np.array([2, 0, 1])
        permuted = MarketInstance(inst.valuations[perm])
        ref_beta = rng.random(3) + 0.5
        ref_u = rng.random(3) + 0.5
        a = mean_square_errors(run_pace(inst, seq), ref_beta, ref_u, 3)
        b = mean_square_errors(run_pace(permuted, seq), ref_beta[perm], ref_u[perm], 3)
        assert a.beta == pytest.approx(b.beta)
        assert a.utility == pytest.approx(b.utility)
        assert a.expenditure == pytest.approx(b.expenditure)


class TestRelativeErrorMax:
    def test_examples(self):
        ref = np.array([1.0, 1.0])
        assert relative_error_max(ref, ref) == 0.0
        assert relative_error_max(2 * ref, ref) == pytest.approx(1.0)
        assert relative_error_max(np.array([1.1, 0.9]), ref) == pytest.approx(0.1)

    def test_scale_invariance(self, rng):
        actual = rng.random(5) + 0.1
        ref = rng.random(5) + 0.1
        c = 3.7
        assert relative_error_max(c * actual, c * ref) == pytest.approx(
            relative_error_max(actual, ref)
        )

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(NonpositiveReference):
            relative_error_max(np.array([1.0]), np.array([0.0]))


class TestMetricSeries:
    def test_build_covers_all_metrics(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=200))
        grid = recording_grid(200)
        trace = run_pace(inst, seq, record_times=grid)
        hs = hindsight_solution(inst, seq)
        hs_u = equilibrium_utilities(hs, 3)
        star_beta = np.full(3, 0.8)
        star_u = equilibrium_utilities(star_beta, 3)
        series = build_metric_series(
            trace, inst, seq, hs.beta_hat, hs_u, star_beta, star_u, {"model": "iid"}
        )
        assert set(series.values) == set(METRIC_NAMES)
        assert all(len(series.values[k]) == len(grid) for k in METRIC_NAMES)
        assert np.all(series.values["envy_max"] >= 0)

    def test_terminal_points_match_direct_metrics(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=150))
        grid = recording_grid(150)
        trace = run_pace(inst, seq, record_times=grid)
        hs = hindsight_solution(inst, seq)
        hs_u = equilibrium_utilities(hs, 3)
        star_beta = hs.beta_hat
        star_u = hs_u
        series = build_metric_series(trace, inst, seq, hs.beta_hat, hs_u, star_beta, star_u)

        assert series.values["rel_beta_hs"][-1] == pytest.approx(
            relative_error_max(trace.beta_at[-1], hs.beta_hat)
        )
        assert series.values["rel_u_hs"][-1] == pytest.approx(
            relative_error_max(trace.u_bar_at[-1], hs_u)
        )
        mses = mean_square_errors(trace, star_beta, star_u, 3)
        assert series.values["mse_beta_star"][-1] == pytest.approx(mses.beta)
        assert series.values["mse_u_star"][-1] == pytest.approx(mses.utility)
        assert series.values["mse_expenditure"][-1] == pytest.approx(mses.expenditure)
        assert series.values["envy_max"][-1] == pytest.approx(
            envy(trace, inst, seq).max()
        )
        assert series.values["regret_max"][-1] == pytest.approx(
            regret(trace, hs_u, seq.t).max()
        )

    def test_baseline_matches_proportional_share(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(rng.integers(0, 3, size=60))
        trace = run_pace(inst, seq, record_times=[60])
        hs = hindsight_solution(inst, seq)
        hs_u = equilibrium_utilities(hs, 2)
        series = build_metric_series(trace, inst, seq, hs.beta_hat, hs_u, hs.beta_hat, hs_u)
        baseline_u = proportional_share_utilities(inst, seq)
        assert series.values["baseline_rel_u_hs"][-1] == pytest.approx(
            relative_error_max(baseline_u, hs_u)
        )

    @pytest.mark.parametrize("block", [16384, 70, 7, 1])
    def test_envy_curve_matches_two_dimensional_sum(self, rng, monkeypatch, block):
        # the flat-index np.add.at adds each step to S in the order the 2-d
        # form np.add.at(S, winners, values) does, in index blocks of any
        # size, so the curve is bit-identical
        monkeypatch.setattr(metrics, "_ENVY_BLOCK", block)
        inst = random_instance(rng, 7, 9)
        seq = ItemSequence(rng.integers(0, 9, size=900))
        grid = recording_grid(900, dense_until=20, factor=1.3)
        trace = run_pace(inst, seq, record_times=grid)
        ones = np.ones(7)
        series = build_metric_series(trace, inst, seq, ones, ones, ones, ones)
        S = np.zeros((7, 7))
        expected, start = [], 0
        for stop in grid:
            np.add.at(S, trace.winners[start:stop], inst.valuations.T[seq.items[start:stop]])
            expected.append(np.max(S.max(axis=0) - np.diag(S)))
            start = stop
        assert np.array_equal(series.values["envy_max"], expected)
