import tracemalloc

import numpy as np
import pytest

from fairpace.market import (
    ItemSequence,
    MarketInstance,
    ReferenceDistribution,
    normalize_valuations,
)
from fairpace.pace import run_pace


def random_instance(rng, n, m, normalized=True, ref=None):
    """Dense random market with positive rows; optionally row-normalized."""
    v = rng.random((n, m)) + 0.05
    if not normalized:
        return MarketInstance(v)
    if ref is None:
        ref = ReferenceDistribution(np.full(m, 1.0 / m))
    return MarketInstance(normalize_valuations(v, ref))


def has_bid_tie(inst, seq, delta0=1.0):
    """Whether any auction along the run has a tied winning bid.

    Exact ties are common early on: an agent whose whole average utility
    came from item j bids exactly tau/n when j arrives again.
    """
    trace = run_pace(inst, seq, delta0, record_betas=True)
    for s, item in enumerate(seq.items):
        bids = trace.betas[s] * inst.valuations[:, item]
        if (bids == bids.max()).sum() > 1:
            return True
    return False


def tie_free_run(rng, n, m, t, delta0=1.0, attempts=50):
    """Random (instance, sequence) whose run never ties a winning bid."""
    for _ in range(attempts):
        inst = random_instance(rng, n, m)
        seq = ItemSequence(rng.integers(0, m, size=t))
        if not has_bid_tie(inst, seq, delta0):
            return inst, seq
    raise AssertionError("could not draw a tie-free run")


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak bytes tracemalloc saw allocated in it."""
    tracemalloc.start()
    try:
        value = fn(*args, **kwargs)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
