import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpace import inputs
from fairpace.errors import ConfigError, NoConvergence
from fairpace.inputs import (
    CorruptionSchedule,
    InputModel,
    corruption_step_distributions,
    model_from_dict,
    model_to_dict,
    random_corrupted_model,
    random_markov_model,
    random_periodic_model,
    reference_distribution,
    sample_sequence,
    sample_sequences,
    stationary_distribution,
)
from fairpace.market import ReferenceDistribution
from fairpace.prng import make_generator
from tests.conftest import traced_peak


def point_mass(m, j):
    p = np.zeros(m)
    p[j] = 1.0
    return ReferenceDistribution(p)


class TestSampling:
    def test_iid_point_mass(self):
        model = InputModel("iid", base=point_mass(5, 3))
        seq = sample_sequence(model, 5, path_seed=1)
        assert seq.items.tolist() == [3, 3, 3, 3, 3]

    def test_markov_absorbing(self):
        model = InputModel("markov", base=point_mass(3, 0), transition=np.eye(3))
        seq = sample_sequence(model, 4, path_seed=9)
        assert seq.items.tolist() == [0, 0, 0, 0]

    def test_periodic_one_per_position(self):
        dists = np.zeros((2, 4))
        dists[0, 1] = 1.0
        dists[1, 2] = 1.0
        model = InputModel("periodic", period_dists=dists)
        seq = sample_sequence(model, 4, path_seed=5)
        assert sorted(seq.items[:2].tolist()) == [1, 2]
        assert sorted(seq.items[2:].tolist()) == [1, 2]

    def test_invalid_horizon(self):
        with pytest.raises(ConfigError, match="horizon must be a positive integer"):
            sample_sequence(InputModel("iid", base=point_mass(2, 0)), 0, path_seed=1)

    def test_determinism(self):
        model = random_markov_model(6, seed=11)
        a = sample_sequence(model, 200, path_seed=42)
        b = sample_sequence(model, 200, path_seed=42)
        assert np.array_equal(a.items, b.items)
        c = sample_sequence(model, 200, path_seed=43)
        assert not np.array_equal(a.items, c.items)

    def test_prefix_stability(self):
        for model in (
            random_markov_model(4, seed=2),
            random_periodic_model(4, q=3, seed=2),
            InputModel(
                "corrupted",
                base=ReferenceDistribution(np.full(4, 0.25)),
                corruption=CorruptionSchedule("decaying", scale=0.5),
                seed=2,
            ),
        ):
            short = sample_sequence(model, 30, path_seed=7)
            long = sample_sequence(model, 90, path_seed=7)
            assert np.array_equal(long.items[:30], short.items)

    def test_iid_empirical_frequencies(self):
        base = ReferenceDistribution(np.array([0.5, 0.3, 0.15, 0.05]))
        seq = sample_sequence(InputModel("iid", base=base), 100_000, path_seed=123)
        freq = np.bincount(seq.items, minlength=4) / seq.t
        assert 0.5 * np.abs(freq - base.probs).sum() < 0.02


class TestCorruption:
    def test_budgeted_hits_target_exactly(self):
        base = ReferenceDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
        for target in (0.0, 0.05, 0.2):
            model = InputModel(
                "corrupted", base=base, corruption=CorruptionSchedule("budgeted", target=target), seed=3
            )
            dists = np.concatenate(list(corruption_step_distributions(model, 500)))
            tv = 0.5 * np.abs(dists - base.probs).sum(axis=1)
            assert np.allclose(tv, target, atol=1e-12)

    def test_budgeted_zero_matches_iid_draws(self):
        base = ReferenceDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
        corrupted = InputModel(
            "corrupted", base=base, corruption=CorruptionSchedule("budgeted", target=0.0), seed=3
        )
        iid = InputModel("iid", base=base, seed=3)
        a = sample_sequence(corrupted, 100, path_seed=5)
        b = sample_sequence(iid, 100, path_seed=5)
        assert np.array_equal(a.items, b.items)

    def test_decaying_drift_shrinks(self):
        base = ReferenceDistribution(np.full(5, 0.2))
        model = InputModel(
            "corrupted", base=base, corruption=CorruptionSchedule("decaying", scale=1.0), seed=1
        )
        dists = np.concatenate(list(corruption_step_distributions(model, 200)))
        drift = 0.5 * np.abs(dists - base.probs).sum(axis=1)
        assert drift[0] > 10 * drift[-1]
        assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("m", [4, 1500])
    def test_largest_decaying_scale_samples(self, m):
        # step 1's row sums to under 1 + m * scale, which overflowed for a
        # scale of 1e308: the row came out all zeros, with a RuntimeWarning
        limit = np.finfo(np.float64).max / (2 * m)
        model = random_corrupted_model(m, CorruptionSchedule("decaying", scale=limit), seed=2)
        dists = np.concatenate(list(corruption_step_distributions(model, 5)))
        assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-12)
        sample_sequence(model, 5, path_seed=3)
        with pytest.raises(ValueError, match="overflows the row sum"):
            random_corrupted_model(
                m, CorruptionSchedule("decaying", scale=np.nextafter(limit, np.inf)), seed=2
            )

    def test_budgeted_infeasible_target(self):
        base = point_mass(3, 0)
        model = InputModel(
            "corrupted", base=base, corruption=CorruptionSchedule("budgeted", target=0.5), seed=0
        )
        # headroom of corners 1 and 2 is 1.0 >= 0.5, so this is feasible;
        # a target above every headroom must fail when the model is built
        list(corruption_step_distributions(model, 5))
        with pytest.raises(ValueError):
            InputModel(
                "corrupted",
                base=ReferenceDistribution(np.array([0.5, 0.5])),
                corruption=CorruptionSchedule("budgeted", target=0.7),
                seed=0,
            )


def dense_corrupted_items(model, t, path_seed):
    """Items of a corrupted path from one (t, m) table of per-step CDFs."""
    base, sched = model.base.probs, model.corruption
    rng = make_generator(model.seed)
    if sched.kind == "decaying":
        eps = sched.scale / np.arange(1, t + 1, dtype=np.float64)
        raw = base[None, :] + eps[:, None] * rng.random((t, base.size))
        dists = raw / raw.sum(axis=1, keepdims=True)
    else:
        headroom = 1.0 - base
        feasible = np.flatnonzero(headroom >= sched.target)
        corners = feasible[(rng.random(t) * feasible.size).astype(np.int64)]
        eps = sched.target / headroom[corners]
        dists = base[None, :] * (1.0 - eps)[:, None]
        dists[np.arange(t), corners] += eps
    cdfs = np.cumsum(dists, axis=1)
    cdfs[:, -1] = 1.0
    u = make_generator(path_seed).random(t)
    return (cdfs < u[:, None]).sum(axis=1)


CORRUPTIONS = [
    CorruptionSchedule("decaying", scale=1.0),
    CorruptionSchedule("budgeted", target=0.2),
]


class TestCorruptedBlocks:
    @pytest.mark.parametrize("schedule", CORRUPTIONS, ids=["decaying", "budgeted"])
    def test_blocks_match_one_table(self, schedule):
        # m = 300 puts 218 steps in a block, so none of these t is a multiple
        model = random_corrupted_model(300, schedule, seed=2)
        for t in (1, 777, 5000):
            items = sample_sequence(model, t, path_seed=9).items
            assert np.array_equal(items, dense_corrupted_items(model, t, 9))

    @pytest.mark.parametrize("schedule", CORRUPTIONS, ids=["decaying", "budgeted"])
    def test_batch_paths_are_the_single_paths(self, schedule):
        # a batch builds each block of distributions once for all its paths;
        # each path is still the one its seed draws alone, and the one-table
        # computation's
        model = random_corrupted_model(300, schedule, seed=2)
        seeds = [9, 4, 9, 2**63 + 5]
        batch = sample_sequences(model, 777, seeds)
        assert len(batch) == len(seeds)
        for seed, seq in zip(seeds, batch):
            assert np.array_equal(seq.items, sample_sequence(model, 777, seed).items)
            assert np.array_equal(seq.items, dense_corrupted_items(model, 777, seed))
        assert not np.array_equal(batch[0].items, batch[1].items)

    def test_batch_of_other_models(self):
        # the other models draw path by path
        for model in (random_markov_model(6, seed=1), random_periodic_model(6, 3, seed=1)):
            batch = sample_sequences(model, 50, [3, 8])
            for seed, seq in zip([3, 8], batch):
                assert np.array_equal(seq.items, sample_sequence(model, 50, seed).items)

    @pytest.mark.parametrize("schedule", CORRUPTIONS, ids=["decaying", "budgeted"])
    def test_peak_allocation(self, schedule):
        # one (t, m) float table at t = 20000, m = 300 is 48 MB, and sampling
        # from such tables peaked at 96 MB
        model = random_corrupted_model(300, schedule, seed=2)
        _, peak = traced_peak(sample_sequence, model, 20000, path_seed=9)
        assert peak < 8e6


class TestStationary:
    def test_rank_one_chain(self):
        r = np.array([0.2, 0.5, 0.3])
        pi = stationary_distribution(np.tile(r, (3, 1)))
        assert np.allclose(pi.probs, r, atol=1e-10)

    def test_two_state_exact(self):
        P = np.array([[0.7, 0.3], [0.6, 0.4]])
        pi = stationary_distribution(P, tol=1e-14)
        assert np.allclose(pi.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_identity_accepts_uniform_fixed_point(self):
        pi = stationary_distribution(np.eye(4))
        assert np.allclose(pi.probs, 0.25)

    def test_periodic_chain_from_uniform_is_fixed(self):
        # the two-cycle has uniform stationary vector, which is the start point
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(P)
        assert np.allclose(pi.probs, 0.5)

    def test_no_convergence_periodic_unbalanced(self):
        # period-2 chain whose sides {0} and {1, 2} hold unequal mass from
        # the uniform start, so the iteration oscillates forever
        P = np.array(
            [
                [0.0, 0.5, 0.5],
                [1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
        with pytest.raises(NoConvergence):
            stationary_distribution(P, tol=1e-10)

    def test_refuses_a_matrix_that_is_not_square_and_nonempty(self):
        # the empty matrix used to end in a ZeroDivisionError
        for P in (np.zeros((0, 0)), np.full((2, 3), 1 / 3), np.array([1.0])):
            with pytest.raises(ValueError, match="square and nonempty"):
                stationary_distribution(P)

    def test_keeps_a_models_matrix(self):
        # the model has checked its matrix and holds it read-only, so the
        # solve copies nothing of its size (the copy peaked above 1.1 x it)
        P = random_markov_model(400, seed=2).transition
        _, peak = traced_peak(stationary_distribution, P)
        assert peak < P.nbytes / 4


def test_reference_distribution_per_kind():
    base = ReferenceDistribution(np.array([0.6, 0.4]))
    assert np.allclose(reference_distribution(InputModel("iid", base=base)).probs, base.probs)
    P = np.array([[0.7, 0.3], [0.6, 0.4]])
    markov = InputModel("markov", base=base, transition=P)
    assert np.allclose(reference_distribution(markov).probs, [2 / 3, 1 / 3], atol=1e-11)
    periodic = random_periodic_model(3, q=2, seed=0)
    expected = periodic.period_dists.mean(axis=0)
    assert np.allclose(reference_distribution(periodic).probs, expected)


def test_model_json_round_trip():
    models = [
        random_markov_model(3, seed=5),
        random_periodic_model(3, q=2, seed=5),
        InputModel(
            "corrupted",
            base=ReferenceDistribution([0.2, 0.8]),
            corruption=CorruptionSchedule("budgeted", target=0.1),
            seed=9,
        ),
    ]
    for model in models:
        back = model_from_dict(model_to_dict(model))
        assert back.kind == model.kind
        assert back.seed == model.seed
        seq_a = sample_sequence(model, 50, path_seed=3)
        seq_b = sample_sequence(back, 50, path_seed=3)
        assert np.array_equal(seq_a.items, seq_b.items)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    model_seed=st.integers(min_value=0, max_value=2**32 - 1),
    path_seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_markov_sampler_matches_searchsorted(m, model_seed, path_seed):
    # the sampler's stream: t uniforms, the first drawn from the start
    # distribution and each next one from the current state's row; about
    # half the transitions are zero, so rows repeat CDF values
    rng = np.random.default_rng(model_seed)
    raw = rng.random((m, m)) * (rng.random((m, m)) < 0.5)
    raw[np.arange(m), rng.integers(0, m, size=m)] += 0.1
    model = InputModel("markov", base=np.full(m, 1.0 / m), transition=raw / raw.sum(axis=1, keepdims=True))
    t = 300
    u = make_generator(path_seed).random(t)
    start = np.cumsum(model.base.probs)
    start[-1] = 1.0
    rows = np.cumsum(model.transition, axis=1)
    rows[:, -1] = 1.0
    expected = [int(np.searchsorted(start, u[0], side="left"))]
    for x in u[1:]:
        expected.append(int(np.searchsorted(rows[expected[-1]], x, side="left")))
    assert sample_sequence(model, t, path_seed).items.tolist() == expected


def test_inverse_cdf_tables_are_built_once_per_call(monkeypatch):
    # a Markov model's (m, m) transition table was built once per path
    shapes = []
    categorical_cdf = inputs.categorical_cdf

    def counted(probs):
        shapes.append(np.shape(probs))
        return categorical_cdf(probs)

    monkeypatch.setattr(inputs, "categorical_cdf", counted)
    seeds = [1, 2, 3]
    for model, built in (
        (random_markov_model(40, seed=4), [(40,), (40, 40)]),
        (random_periodic_model(30, q=7, seed=5), [(7, 30)]),
    ):
        shapes.clear()
        seqs = sample_sequences(model, 500, seeds)
        assert sorted(shapes) == built
        for seed, seq in zip(seeds, seqs):
            assert np.array_equal(seq.items, sample_sequence(model, 500, seed).items)

