import numpy as np
import pytest

from fairpace import pace
from fairpace.eg import hindsight_solution
from fairpace.market import ItemSequence, MarketInstance
from fairpace.pace import (
    equivalence_with_da,
    pacing_box,
    regret_diagnostic,
    run_pace,
    run_pace_paths,
)
from fairpace.errors import ConfigError
from fairpace.inputs import random_iid_model, random_markov_model, sample_sequence
from fairpace.metrics import recording_grid
from tests.conftest import has_bid_tie, random_instance, tie_free_run, traced_peak
from tests.oracles import paced_reference


def assert_same_traces(actual, expected):
    """Every field of each trace equal, arrays byte for byte."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        for name in a._fields:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name
            else:
                assert x == y, name


# the fields only a trace recorded with record_betas=True holds
FULL_TRAJECTORY = {"winner_values": None, "winning_bids": None, "betas": None}


def each_item_once(values):
    """Market with one item per column of `values` and a sequence visiting each in order."""
    values = np.asarray(values, dtype=np.float64)
    return MarketInstance(values), ItemSequence(np.arange(values.shape[1]))


class TestAuctionStep:
    def test_highest_bid_wins(self):
        inst, seq = each_item_once([[0.5], [1.0]])
        trace = run_pace(inst, seq, delta0=1.0, record_betas=True)
        assert trace.winners.tolist() == [1]
        assert trace.winning_bids[0] == 2.0
        assert np.allclose(trace.u_bar_at[-1], [0.0, 1.0])
        assert np.allclose(trace.spend_avg_at[-1], [0.0, 2.0])

    def test_tie_breaks_to_smallest_index(self):
        inst, seq = each_item_once([[1.0], [1.0]])
        assert run_pace(inst, seq).winners.tolist() == [0]

    def test_single_agent(self):
        inst, seq = each_item_once([[0.7]])
        trace = run_pace(inst, seq, delta0=0.5, record_betas=True)
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


@pytest.mark.parametrize("delta0", [np.nan, -1.0, 0.0, 1e300])
def test_pacing_box_refuses_delta0_out_of_range(delta0):
    # 1e300 used to overflow the dual solve, and NaN to read as an empty box
    with pytest.raises(ConfigError, match=r"delta0 must be positive and at most 1e\+150, got"):
        pacing_box(3, delta0)


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
        trace = run_pace(inst, seq, record_betas=True)
        realized = np.bincount(trace.winners, weights=trace.winner_values, minlength=3)
        assert realized[0] == pytest.approx(realized.sum(), rel=1e-9)

    def test_dimension_mismatch(self, rng):
        inst = random_instance(rng, 2, 3)
        with pytest.raises(ConfigError, match="outside the universe"):
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
        trace = run_pace(inst, seq, record_betas=True)
        spend_total = trace.winning_bids.sum()
        assert trace.spend_avg_at[-1].sum() * seq.t == pytest.approx(spend_total, rel=1e-12)


class TestLockstep:
    def run_both(self, inst, seqs, **kwargs):
        lockstep = run_pace_paths(inst, seqs, **kwargs)
        assert_same_traces(lockstep, [run_pace(inst, seq, **kwargs) for seq in seqs])

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

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("grid", [True, False])
    def test_default_trace_is_the_full_trace_without_its_trajectory(self, rng, tied, grid):
        # longer than a chunk, so the chunks end at recording times and at
        # multiples of pace._CHUNK
        t = 2 * pace._CHUNK + 300
        v = rng.random((4, 5)) + 0.05
        if tied:
            v[1] = v[0]
        inst = MarketInstance(v)
        seqs = [ItemSequence(rng.integers(0, 5, size=t)) for _ in range(3)]
        assert not tied or all(has_bid_tie(inst, seq) for seq in seqs)
        times = recording_grid(t) if grid else None
        default = run_pace_paths(inst, seqs, 0.7, times)
        full = run_pace_paths(inst, seqs, 0.7, times, record_betas=True)
        assert_same_traces(default, [trace._replace(**FULL_TRAJECTORY) for trace in full])

    @pytest.mark.parametrize("grid", [[1, 2, 5, 1000, 1030, 2100], "default", []])
    def test_consumer_sees_chunks_then_snapshots(self, rng, grid):
        # pace_lockstep's consumer contract: chunks tile [0, t) in order,
        # none longer than pace._CHUNK or across a recording time; their
        # items are the sequences' slices; one snapshot per recording time
        # comes right after the chunk that ends there
        t = 2 * pace._CHUNK + 300
        inst = random_instance(rng, 4, 5)
        seqs = [ItemSequence(rng.integers(0, 5, size=t)) for _ in range(3)]
        times = recording_grid(t).tolist() if grid == "default" else [*grid, t]
        calls = []

        class Consumer:
            def steps(self, start, items, winners):
                calls.append(("steps", start, items.copy(), winners.copy()))

            def snapshot(self, rec, beta, u_bar, spend_avg):
                calls.append(("snapshot", rec))

        pace.pace_lockstep(inst, seqs, 0.7, times, Consumer())
        chunks = [call for call in calls if call[0] == "steps"]
        traces = run_pace_paths(inst, seqs, 0.7, times)
        stop, rec = 0, 0
        for k, call in enumerate(calls):
            if call[0] == "snapshot":
                continue
            _, start, items, winners = call
            assert start == stop
            stop = start + len(items)
            assert 0 < len(items) <= pace._CHUNK
            assert not any(start < time < stop for time in times)
            for p, (seq, trace) in enumerate(zip(seqs, traces)):
                assert np.array_equal(items[:, p], seq.items[start:stop])
                assert np.array_equal(winners[:, p], trace.winners[start:stop])
            after = calls[k + 1] if k + 1 < len(calls) else None
            if stop in times:
                assert after == ("snapshot", rec)
                rec += 1
            else:
                assert after is None or after[0] == "steps"
        assert stop == t and rec == len(times)
        assert len(calls) == len(chunks) + len(times)

    def test_paths_are_independent(self, rng):
        inst = random_instance(rng, 3, 4)
        seqs = [ItemSequence(rng.integers(0, 4, size=60)) for _ in range(3)]
        alone = run_pace_paths(inst, seqs[1:2], record_betas=True)
        together = run_pace_paths(inst, seqs, record_betas=True)
        assert_same_traces(together[1:2], alone)

    def test_spend_matches_running_sum(self, rng):
        inst = random_instance(rng, 4, 6)
        seqs = [ItemSequence(rng.integers(0, 6, size=50)) for _ in range(3)]
        times = [2, 9, 30, 50]
        for trace in run_pace_paths(inst, seqs, record_times=times, record_betas=True):
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
        with pytest.raises(ConfigError, match="equal lengths"):
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
        with pytest.raises(ConfigError, match="outside the universe"):
            run_pace_paths(inst, seqs)


class TestReferenceLoop:
    """run_pace_paths against the per-step loop on Python floats, bit for bit."""

    @pytest.mark.parametrize("paths", [1, 5])
    @pytest.mark.parametrize("record_betas", [False, True])
    def test_traces_equal_the_reference_loop(self, rng, paths, record_betas):
        t = 120
        # the lone agent's multiplier meets the lower bound whenever its
        # average utility exceeds 1 + delta0; agents 0 and 1 of the tied
        # market bid alike until one of them wins, as in
        # TestLockstep.test_tied_bids; item 2 of the last is worth 0 to all
        tied = rng.random((4, 5)) + 0.05
        tied[1] = tied[0]
        zero = rng.random((3, 4)) + 0.05
        zero[:, 2] = 0.0
        markets = [
            random_instance(rng, 6, 9),
            MarketInstance(rng.random((1, 3)) * 2 + 1),
            MarketInstance(tied),
            MarketInstance(zero),
        ]
        runs = [
            (inst, [ItemSequence(rng.integers(0, inst.m, size=t)) for _ in range(paths)])
            for inst in markets
        ]
        lo = pacing_box(1, 0.7)[0]
        lone = paced_reference(markets[1], runs[1][1][0], 0.7, [t]).betas
        assert np.isin(lo, lone) and np.any(lone > lo)
        assert has_bid_tie(markets[2], runs[2][1][0], 0.7)
        assert all(np.isin(2, seq.items) for seq in runs[3][1])
        for inst, seqs in runs:
            for times in (np.arange(1, t + 1), [1, 2, 7, 40, t - 1, t], [t]):
                traces = run_pace_paths(inst, seqs, 0.7, times, record_betas)
                expected = [paced_reference(inst, seq, 0.7, times) for seq in seqs]
                if not record_betas:
                    expected = [trace._replace(**FULL_TRAJECTORY) for trace in expected]
                assert_same_traces(traces, expected)

    @pytest.mark.parametrize("record_betas", [False, True])
    def test_chunks_leave_the_traces_unchanged(self, rng, monkeypatch, record_betas):
        # chunks of 7 steps end between recording times, at them and inside
        # the dense start of the grid
        monkeypatch.setattr(pace, "_CHUNK", 7)
        inst = random_instance(rng, 5, 6)
        seqs = [ItemSequence(rng.integers(0, 6, size=150)) for _ in range(3)]
        for times in (recording_grid(150, dense_until=10), [3, 7, 8, 21, 150], None):
            traces = run_pace_paths(inst, seqs, 0.7, times, record_betas)
            grid = [150] if times is None else times
            expected = [paced_reference(inst, seq, 0.7, grid) for seq in seqs]
            if not record_betas:
                expected = [trace._replace(**FULL_TRAJECTORY) for trace in expected]
            assert_same_traces(traces, expected)


def test_peak_memory_is_the_winners_and_the_snapshots():
    # a default trace keeps each step's int64 winners, 8 bytes per
    # path-step, beside the snapshots; the chunk buffers are of fixed size.
    # Holding the items, the winning bids and values and transposed copies
    # of them, pacing took 36.6 bytes per path-step here
    n, m, t, P = 100, 50, 50_000, 2
    rng = np.random.default_rng(3)
    inst = MarketInstance(rng.random((n, m)) + 0.05)
    seqs = [ItemSequence(rng.integers(0, m, size=t)) for _ in range(P)]
    grid = recording_grid(t)
    _, peak = traced_peak(run_pace_paths, inst, seqs, record_times=grid)
    snapshots = 3 * P * grid.size * n * 8  # beta_at, u_bar_at and spend_avg_at
    assert peak < snapshots + 12 * P * t, (peak - snapshots) / (P * t)


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

    # a power of two: shifted by it, the multipliers in (1/16, 2] differ
    # from the averaging loop's by exactly TOL
    TOL = 2.0**-30

    @pytest.mark.parametrize(
        "steps, shift, equal",
        [
            (3, 10 * TOL, False),  # caught mid-run
            (-1, 10 * TOL, False),  # caught only at the final state
            (slice(None), TOL, True),  # within tolerance everywhere
        ],
    )
    def test_detects_shifted_trajectory(self, rng, monkeypatch, steps, shift, equal):
        inst = random_instance(rng, 3, 4)
        seq = ItemSequence(rng.integers(0, 4, size=50))
        run = pace.run_pace

        def shifted(*args, **kwargs):
            trace = run(*args, **kwargs)
            betas = trace.betas.copy()
            betas[steps] += shift
            assert np.all(betas[steps] - trace.betas[steps] == shift)
            return trace._replace(betas=betas)

        monkeypatch.setattr(pace, "run_pace", shifted)
        assert equivalence_with_da(inst, seq, tol=self.TOL) is equal


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
