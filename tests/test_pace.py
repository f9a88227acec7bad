import numpy as np
import pytest

from fairpace.eg import hindsight_solution
from fairpace.market import ItemSequence, MarketInstance
from fairpace.pace import (
    equivalence_with_da,
    pacing_box,
    regret_diagnostic,
    run_pace,
    run_pace_paths,
)
from fairpace.errors import DimensionMismatch, LengthMismatch
from fairpace.inputs import random_iid_model, random_markov_model, sample_sequence
from tests.conftest import has_bid_tie, random_instance, tie_free_run


def each_item_once(values):
    """Market with one item per column of `values` and a sequence visiting each in order."""
    values = np.asarray(values, dtype=np.float64)
    return MarketInstance(values), ItemSequence(np.arange(values.shape[1]))


class TestAuctionStep:
    def test_highest_bid_wins(self):
        inst, seq = each_item_once([[0.5], [1.0]])
        trace = run_pace(inst, seq, delta0=1.0)
        assert trace.winners.tolist() == [1]
        assert trace.winning_bids[0] == 2.0
        assert np.allclose(trace.u_bar_at[-1], [0.0, 1.0])
        assert np.allclose(trace.spend_avg_at[-1], [0.0, 2.0])

    def test_tie_breaks_to_smallest_index(self):
        inst, seq = each_item_once([[1.0], [1.0]])
        assert run_pace(inst, seq).winners.tolist() == [0]

    def test_single_agent(self):
        inst, seq = each_item_once([[0.7]])
        trace = run_pace(inst, seq, delta0=0.5)
        assert trace.winners.tolist() == [0]
        assert trace.winning_bids[0] == pytest.approx(1.05)

    def test_spend_identity(self, rng):
        # 50 auctions on fresh random value vectors, each won by the highest bid
        inst, seq = each_item_once(rng.random((5, 50)))
        trace = run_pace(inst, seq, record_betas=True)
        V = inst.valuations
        for s in range(seq.t):
            bids = trace.betas[s] * V[:, s]
            w = trace.winners[s]
            assert w == int(np.argmax(bids))
            assert trace.winning_bids[s] == bids[w]
            assert trace.winner_values[s] == V[w, s]
        per_agent = np.bincount(trace.winners, weights=trace.winning_bids, minlength=5)
        assert np.allclose(trace.spend_avg_at[-1] * seq.t, per_agent, rtol=1e-12, atol=0)


class TestPaceUpdate:
    def test_hand_executed_two_steps(self):
        # step 1 values [0.5, 1.0], step 2 values [1.0, 0.2]
        inst, seq = each_item_once([[0.5, 1.0], [1.0, 0.2]])
        trace = run_pace(inst, seq, delta0=1.0, record_times=[1, 2], record_betas=True)
        assert np.allclose(trace.betas[0], 2.0)
        assert trace.winners.tolist() == [1, 0]
        assert np.allclose(trace.u_bar_at[0], [0.0, 1.0])
        assert np.allclose(trace.beta_at[0], [2.0, 0.5])
        assert np.allclose(trace.u_bar_at[1], [0.5, 0.5])
        assert np.allclose(trace.beta_at[1], [1.0, 1.0])
        assert np.allclose(trace.spend_avg_at[-1] * seq.t, [2.0, 2.0])

    def test_single_agent_closed_form(self):
        for v in (0.6, 1.7, 2.0):
            inst, seq = each_item_once([[v]])
            trace = run_pace(inst, seq, delta0=1.0, record_betas=True)
            assert trace.betas[0, 0] == 2.0
            assert trace.beta_at[-1, 0] == pytest.approx(1.0 / v)

    def test_box_invariant(self, rng):
        inst, seq = each_item_once(rng.random((3, 100)) * 3)
        lo, hi = pacing_box(3, 0.5)
        trace = run_pace(
            inst, seq, delta0=0.5, record_times=np.arange(1, 101), record_betas=True
        )
        assert np.all(trace.betas >= lo) and np.all(trace.betas <= hi)
        assert np.all(trace.u_bar_at >= 0)


class TestRunPace:
    def test_two_step_hand_example(self):
        inst = MarketInstance(np.array([[0.5, 1.0], [1.0, 0.2]]).T)
        # items arranged so arrivals replay the hand example values
        v = np.array([[0.5, 1.0], [1.0, 0.2]])  # v[:, 0] then v[:, 1]
        inst = MarketInstance(v)
        trace = run_pace(inst, ItemSequence(np.array([0, 1])), record_betas=True)
        assert trace.winners.tolist() == [1, 0]
        assert np.allclose(trace.betas[1], [2.0, 0.5])
        assert np.allclose(trace.betas[2], [1.0, 1.0])
        assert np.allclose(trace.u_bar_at[-1], [0.5, 0.5])

    def test_zero_value_agents_never_win_positive(self):
        v = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        v[1, 0] = 1e-12  # keep rows valid but negligible
        v[2, 1] = 1e-12
        inst = MarketInstance(v)
        seq = ItemSequence(np.array([0, 1] * 10))
        trace = run_pace(inst, seq)
        realized = np.bincount(trace.winners, weights=trace.winner_values, minlength=3)
        assert realized[0] == pytest.approx(realized.sum(), rel=1e-9)

    def test_dimension_mismatch(self, rng):
        inst = random_instance(rng, 2, 3)
        with pytest.raises(DimensionMismatch):
            run_pace(inst, ItemSequence(np.array([0, 3])))

    def test_permutation_symmetry(self, rng):
        inst, seq = tie_free_run(rng, 4, 5, 200)
        perm = rng.permutation(4)
        permuted = MarketInstance(inst.valuations[perm])
        a = run_pace(inst, seq, record_betas=True)
        b = run_pace(permuted, seq, record_betas=True)
        assert np.allclose(a.betas[:, perm], b.betas)
        assert np.array_equal(perm[b.winners], a.winners)

    def test_snapshots_align_with_full_trajectory(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=50))
        times = [1, 7, 20, 50]
        trace = run_pace(inst, seq, record_times=times, record_betas=True)
        for k, tau in enumerate(times):
            assert np.array_equal(trace.beta_at[k], trace.betas[tau])
        assert np.array_equal(trace.record_times, times)

    def test_spend_identity_along_run(self, rng):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=80))
        trace = run_pace(inst, seq)
        spend_total = trace.winning_bids.sum()
        assert trace.spend_avg_at[-1].sum() * seq.t == pytest.approx(spend_total, rel=1e-12)


class TestLockstep:
    def assert_same_traces(self, lockstep, single):
        assert len(lockstep) == len(single)
        for a, b in zip(lockstep, single):
            for name in a.__dataclass_fields__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(y, np.ndarray):
                    assert x.dtype == y.dtype and x.shape == y.shape, name
                    assert x.tobytes() == y.tobytes(), name
                else:
                    assert x == y, name

    def run_both(self, inst, seqs, **kwargs):
        lockstep = run_pace_paths(inst, seqs, **kwargs)
        self.assert_same_traces(lockstep, [run_pace(inst, seq, **kwargs) for seq in seqs])

    def test_three_paths_match_single_runs(self, rng):
        inst = random_instance(rng, 6, 9)
        seqs = [ItemSequence(rng.integers(0, 9, size=400)) for _ in range(3)]
        self.run_both(inst, seqs, delta0=0.7, record_times=[1, 2, 5, 40, 399, 400])
        self.run_both(inst, seqs, delta0=1.0, record_betas=True)
        self.run_both(inst, seqs, record_times=[3, 17, 400], record_betas=True)

    def test_tied_bids(self, rng):
        # agents 0 and 1 value everything alike, so their bids tie until one wins
        v = rng.random((4, 5)) + 0.05
        v[1] = v[0]
        inst = MarketInstance(v)
        seqs = [ItemSequence(rng.integers(0, 5, size=200)) for _ in range(3)]
        assert all(has_bid_tie(inst, seq) for seq in seqs)
        self.run_both(inst, seqs, record_times=np.arange(1, 201), record_betas=True)

    def test_paths_are_independent(self, rng):
        inst = random_instance(rng, 3, 4)
        seqs = [ItemSequence(rng.integers(0, 4, size=60)) for _ in range(3)]
        alone = run_pace_paths(inst, seqs[1:2], record_betas=True)
        together = run_pace_paths(inst, seqs, record_betas=True)
        self.assert_same_traces(together[1:2], alone)

    def test_spend_matches_running_sum(self, rng):
        inst = random_instance(rng, 4, 6)
        seqs = [ItemSequence(rng.integers(0, 6, size=50)) for _ in range(3)]
        times = [2, 9, 30, 50]
        for trace in run_pace_paths(inst, seqs, record_times=times):
            spend = np.zeros(4)
            for s, (w, bid) in enumerate(zip(trace.winners, trace.winning_bids)):
                spend[w] += bid
                if s + 1 in times:
                    k = times.index(s + 1)
                    assert trace.spend_avg_at[k].tobytes() == (spend / (s + 1)).tobytes()
            assert trace.spend_avg_at[-1].tobytes() == (spend / 50).tobytes()

    def test_unequal_lengths(self, rng):
        inst = random_instance(rng, 2, 3)
        seqs = [ItemSequence(np.array([0, 1, 2])), ItemSequence(np.array([0, 1]))]
        with pytest.raises(LengthMismatch):
            run_pace_paths(inst, seqs)

    def test_refuses_grids_that_do_not_end_at_t(self, rng):
        inst = random_instance(rng, 2, 3)
        seqs = [ItemSequence(rng.integers(0, 3, size=10)) for _ in range(2)]
        for times in ([], [3, 9], [2, 5, 12], [3, 3, 10], [5, 2, 10], [0, 4, 10], [-1, 10]):
            with pytest.raises(ValueError, match="end at t"):
                run_pace_paths(inst, seqs, record_times=times)

    def test_needs_a_sequence(self, rng):
        with pytest.raises(ValueError):
            run_pace_paths(random_instance(rng, 2, 3), [])

    def test_dimension_mismatch_on_any_path(self, rng):
        inst = random_instance(rng, 2, 3)
        seqs = [ItemSequence(np.array([0, 1])), ItemSequence(np.array([0, 3]))]
        with pytest.raises(DimensionMismatch):
            run_pace_paths(inst, seqs)


class TestDaEquivalence:
    def test_small_random_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            inst = random_instance(rng, n, m)
            seq = ItemSequence(rng.integers(0, m, size=300))
            assert equivalence_with_da(inst, seq, delta0=1.0)

    def test_single_agent(self, rng):
        inst = random_instance(rng, 1, 3)
        seq = ItemSequence(rng.integers(0, 3, size=100))
        assert equivalence_with_da(inst, seq)

    def test_longer_run(self, rng):
        inst = random_instance(rng, 5, 10)
        model = random_iid_model(10, seed=3)
        seq = sample_sequence(model, 1000, path_seed=17)
        assert equivalence_with_da(inst, seq)


class TestRegretDiagnostic:
    def test_holds_on_random_run(self, rng):
        inst = random_instance(rng, 3, 5)
        model = random_markov_model(5, seed=9)
        seq = sample_sequence(model, 100, path_seed=2)
        trace = run_pace(inst, seq, record_betas=True)
        hs = hindsight_solution(inst, seq)
        res = regret_diagnostic(trace, inst, seq, hs.beta_hat)
        assert res.holds

    def test_repeated_single_item(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(np.zeros(50, dtype=np.int64))
        trace = run_pace(inst, seq, record_betas=True)
        hs = hindsight_solution(inst, seq)
        res = regret_diagnostic(trace, inst, seq, hs.beta_hat)
        assert res.holds
        assert res.lhs < 1e-3

    def test_requires_full_trajectory(self, rng):
        inst = random_instance(rng, 2, 3)
        seq = ItemSequence(np.array([0, 1, 2]))
        trace = run_pace(inst, seq)
        with pytest.raises(ValueError):
            regret_diagnostic(trace, inst, seq, np.array([1.0, 1.0]))
