"""Generative invariant checks over randomized instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpace.dual_averaging import LogBarrierRegularizer, composite_argmin
from fairpace.inputs import (
    random_iid_model,
    random_markov_model,
    random_periodic_model,
    sample_sequence,
)
from fairpace.market import ItemSequence, ReferenceDistribution, normalize_valuations
from fairpace.metrics import envy, relative_error_max
from fairpace.pace import pacing_box, run_pace
from tests.conftest import random_instance

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SMALL = st.integers(min_value=1, max_value=6)


def _dist(rng, m):
    u = rng.random(m) + 1e-9
    return u / u.sum()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=SMALL)
def test_composite_argmin_box_and_monotone(seed, n):
    rng = np.random.default_rng(seed)
    reg = LogBarrierRegularizer(n=n, lo=0.1 + rng.random() * 0.2, hi=1.5 + rng.random())
    g = rng.random(n) * 5
    w = composite_argmin(g, reg)
    assert np.all(w >= reg.lo) and np.all(w <= reg.hi)
    bigger = g + rng.random(n)
    assert np.all(composite_argmin(bigger, reg) <= w + 1e-15)


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, n=SMALL, m=SMALL, t=st.integers(min_value=1, max_value=120))
def test_pace_run_invariants(seed, n, m, t):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, n, m)
    seq = ItemSequence(rng.integers(0, m, size=t))
    delta0 = float(0.5 + rng.random())
    trace = run_pace(inst, seq, delta0=delta0, record_betas=True)
    lo, hi = pacing_box(n, delta0)

    # multipliers stay inside the box at every step
    assert np.all(trace.betas >= lo) and np.all(trace.betas <= hi)
    # per-step spend identity and single-winner integrality
    values = inst.valuations[trace.winners, seq.items]
    assert np.array_equal(values, trace.winner_values)
    assert np.all(trace.winning_bids >= 0)
    # running-average identity holds exactly at the end of the run
    totals = np.bincount(trace.winners, weights=trace.winner_values, minlength=n)
    assert np.allclose(trace.u_bar_final, totals / t, atol=1e-12)
    assert np.all(trace.u_bar_final <= inst.valuations.max() + 1e-12)
    # envy of the realized allocation is nonnegative
    assert np.all(envy(trace, inst, seq) >= 0)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(["iid", "markov", "periodic"]))
def test_sampling_deterministic_by_seed(seed, kind):
    if kind == "iid":
        model = random_iid_model(5, seed=seed % 1000)
    elif kind == "markov":
        model = random_markov_model(5, seed=seed % 1000)
    else:
        model = random_periodic_model(5, q=3, seed=seed % 1000)
    a = sample_sequence(model, 64, path_seed=seed)
    b = sample_sequence(model, 64, path_seed=seed)
    assert np.array_equal(a.items, b.items)
    assert a.items.min() >= 0 and a.items.max() < 5


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=6), m=st.integers(min_value=2, max_value=6))
def test_normalization_idempotent(seed, n, m):
    rng = np.random.default_rng(seed)
    ref = ReferenceDistribution(_dist(rng, m))
    v = rng.random((n, m)) + 1e-6
    once = normalize_valuations(v, ref)
    assert np.allclose(normalize_valuations(once, ref), once, atol=1e-12)
    assert np.allclose(once @ ref.probs, 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, c=st.floats(min_value=1e-3, max_value=1e3))
def test_relative_error_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    actual = rng.random(4) + 0.1
    ref = rng.random(4) + 0.1
    base = relative_error_max(actual, ref)
    scaled = relative_error_max(c * actual, c * ref)
    assert np.isclose(base, scaled, rtol=1e-9)
