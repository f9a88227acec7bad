import json

import numpy as np
import pytest

from fairpace.market import (
    ItemSequence,
    MarketInstance,
    ReferenceDistribution,
    market_from_dict,
    market_to_dict,
    normalize_valuations,
)
from fairpace.errors import ConfigError, DimensionMismatch, ZeroExpectedValue
from tests.oracles import proportional_share_utilities


def test_reference_distribution_validation():
    ReferenceDistribution(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        ReferenceDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ReferenceDistribution(np.array([-0.1, 1.1]))


def test_market_instance_defaults_and_invariants():
    inst = MarketInstance(np.array([[1.0, 0.0], [0.5, 2.0]]))
    assert inst.n == 2 and inst.m == 2
    with pytest.raises(ValueError):
        MarketInstance(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        MarketInstance(np.array([[1.0, -0.5]]))


def test_market_arrays_are_read_only():
    inst = MarketInstance(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        inst.valuations[0, 0] = 5.0


def test_item_sequence_validation():
    seq = ItemSequence(np.array([0, 1, 2], dtype=np.int64))
    assert seq.t == 3
    with pytest.raises(ValueError):
        ItemSequence(np.array([0, -1]))
    with pytest.raises(ValueError):
        ItemSequence(np.array([0.5, 1.0]))


def test_normalize_valuations_examples():
    ref = ReferenceDistribution(np.array([0.5, 0.5]))
    assert np.allclose(normalize_valuations([[1.0, 1.0]], ref), [[1.0, 1.0]])
    assert np.allclose(normalize_valuations([[2.0, 2.0]], ref), [[1.0, 1.0]])
    ref2 = ReferenceDistribution(np.array([0.25, 0.75]))
    out = normalize_valuations([[1.0, 3.0]], ref2)
    assert np.allclose(out, [[0.4, 1.2]], atol=1e-12)


def test_normalize_valuations_postcondition_and_errors(rng):
    ref = ReferenceDistribution(np.array([0.2, 0.3, 0.5]))
    v = rng.random((4, 3)) + 0.01
    out = normalize_valuations(v, ref)
    assert np.allclose(out @ ref.probs, 1.0, atol=1e-12)
    with pytest.raises(ZeroExpectedValue):
        normalize_valuations([[0.0, 0.0, 1.0]], ReferenceDistribution([0.5, 0.5, 0.0]))


def test_normalize_valuations_idempotent_and_ratio_preserving(rng):
    ref = ReferenceDistribution(np.array([0.1, 0.6, 0.3]))
    v = rng.random((5, 3)) + 0.02
    once = normalize_valuations(v, ref)
    twice = normalize_valuations(once, ref)
    assert np.allclose(once, twice, atol=1e-12)
    # within-row ratios preserved
    assert np.allclose(once[:, 0] / once[:, 2], v[:, 0] / v[:, 2])


def test_proportional_share_examples():
    one = MarketInstance(np.array([[1.0, 1.0]]))
    seq = ItemSequence(np.array([0, 1, 0], dtype=np.int64))
    assert np.allclose(proportional_share_utilities(one, seq), [1.0])

    two = MarketInstance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    seq2 = ItemSequence(np.array([0, 1], dtype=np.int64))
    assert np.allclose(proportional_share_utilities(two, seq2), [0.25, 0.25])


def test_proportional_share_dimension_check():
    inst = MarketInstance(np.array([[1.0, 2.0]]))
    with pytest.raises(DimensionMismatch):
        proportional_share_utilities(inst, ItemSequence(np.array([0, 5])))


def test_market_json_round_trip(rng):
    inst = MarketInstance(rng.random((3, 4)) + 0.1)
    doc = json.loads(json.dumps(market_to_dict(inst)))
    back = market_from_dict(doc)
    assert np.array_equal(back.valuations, inst.valuations)
    assert set(doc) == {"n", "m", "valuations"}
    assert doc["n"] == 3 and doc["m"] == 4


def test_market_budgets_must_be_uniform(rng):
    # files from earlier versions carry budgets; only the uniform 1/n that
    # every computation assumes is accepted
    doc = market_to_dict(MarketInstance(rng.random((3, 4)) + 0.1))
    for budgets in ([1 / 3] * 3, [0.333333333333, 0.3333333333333, 1 / 3]):
        back = market_from_dict({**doc, "budgets": budgets})
        assert np.array_equal(back.valuations, market_from_dict(doc).valuations)
    for budgets in ([0.8, 0.1, 0.1], [0.33333333333, 1 / 3, 1 / 3], [0.5, 0.5], [1 / 3] * 4,
                    [float("nan")] * 3, 1 / 3, "1/3", None, [[1 / 3] * 3]):
        with pytest.raises(ConfigError, match="bad market"):
            market_from_dict({**doc, "budgets": budgets})
