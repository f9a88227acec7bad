"""Malformed documents fail at the input boundary with a ConfigError.

A parser may raise nothing else; only the config path, which also solves a
Markov model's stationary distribution, may raise NoConvergence, since a
well-formed periodic chain is a numerical failure, not a malformed document.

Each fuzzed document is a valid one with up to two of its fields, at any
depth, replaced by arbitrary JSON or removed, so the fuzz reaches every
check of every parser rather than stopping at the first. Sizes stay small
so that the documents that do parse are cheap to build.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpace.errors import ConfigError, NoConvergence
from fairpace.harness import config_from_dict, resolve_market, resolve_model
from fairpace.inputs import model_from_dict, reference_distribution
from fairpace.market import market_from_dict, sequence_from_dict

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.sampled_from([2.5, 2**63, 2**64, -(2**64), 10**400, "2", "nan", "inf"])
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SIZES = st.integers(1, 4)


def dist(m):
    return [1.0 / m] * m


def matrix(rows, m):
    return [dist(m) for _ in range(rows)]


@st.composite
def models(draw, m):
    kind = draw(st.sampled_from(["iid", "corrupted", "markov", "periodic"]))
    doc = {"kind": kind, "seed": draw(st.integers(0, 9))}
    if kind == "corrupted":
        doc["corruption"] = {"kind": draw(st.sampled_from(["decaying", "budgeted"])), "target": 0.1}
    if draw(st.booleans()):
        doc["random"] = {"m": m, "seed": 3, "q": 2}
    elif kind == "periodic":
        doc["period_dists"] = matrix(2, m)
    else:
        doc["base"] = dist(m)
        doc["transition"] = matrix(m, m)
    return doc


@st.composite
def markets(draw, m):
    n = draw(SIZES)
    return {"n": n, "m": m, "valuations": matrix(n, m), "budgets": dist(n)}


@st.composite
def configs(draw):
    m = draw(SIZES)
    if draw(st.booleans()):
        market = {"generator": {"n": draw(SIZES), "m": m, "rank": 1, "noise": 0.1, "seed": 1}}
    else:
        market = {"path": draw(st.sampled_from(["valid.json", "broken.json", "no_m.json", "no.json"]))}
    return {
        "schema": 1,
        "market": market,
        "model": draw(models(m)),
        "t": 5,
        "paths": 1,
        "delta0": 1.0,
        "base_seed": 0,
        "grid": {"dense_until": 2, "factor": 1.5},
        "out": "out",
    }


def _fields(doc):
    """(container, key) of every field and list entry inside doc."""
    keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
    for key in list(keys):
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from _fields(doc[key])


@st.composite
def mutated(draw, valid):
    """A valid document with up to two fields replaced by junk or removed."""
    doc = copy.deepcopy(draw(valid))
    for _ in range(draw(st.integers(0, 2))):
        fields = list(_fields(doc))
        if not fields:
            break
        container, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON)
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc), JSON))


def only_refusals(parse, doc, allowed=(ConfigError,)):
    try:
        parse(doc)
    except allowed:
        pass


@pytest.fixture(scope="module")
def market_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("markets")
    (root / "valid.json").write_text(json.dumps({"n": 1, "m": 2, "valuations": [[1.0, 0.5]]}))
    (root / "broken.json").write_text("{not json")
    (root / "no_m.json").write_text(json.dumps({"n": 1, "valuations": [[1.0, 0.5]]}))
    return root


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(doc=mutated(configs()))
def test_config_to_market(market_dir, doc):
    def parse(doc):
        config = config_from_dict(doc, base_dir=market_dir)
        resolve_market(config, reference_distribution(resolve_model(config)))

    only_refusals(parse, doc, (ConfigError, NoConvergence))


@FUZZ
@given(doc=mutated(SIZES.flatmap(models)))
def test_model_documents(doc):
    only_refusals(model_from_dict, doc)


@FUZZ
@given(doc=mutated(SIZES.flatmap(markets)))
def test_market_documents(doc):
    only_refusals(market_from_dict, doc)


@FUZZ
@given(doc=mutated(st.lists(st.integers(0, 4), min_size=1, max_size=5).map(lambda i: {"items": i})))
def test_sequence_documents(doc):
    only_refusals(sequence_from_dict, doc)
