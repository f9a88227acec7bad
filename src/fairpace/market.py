"""Market instances: agents with equal budgets, a finite item universe, valuations.

Instances are not modified after construction, and their arrays are
read-only, so they can be shared freely across worker threads or processes.

`read_json`, `read_field` and `as_config_error` are the one input boundary
of every JSON document the package reads: configs, markets, sequences and
input models.
"""

import json
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, FairpaceError


def read_json(path, what: str):
    """The parsed contents of a JSON file; any failure is a ConfigError."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def read_field(kind, section: dict, key: str, default=None):
    """section[key] (or the default when it is absent) as an int or a float.

    Booleans, and for ints any float with a fractional part, are refused
    rather than truncated into a different experiment than the one written.
    """
    value = section[key] if default is None else section.get(key, default)
    error = ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise error
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error from exc


@contextmanager
def as_config_error(what: str):
    """Re-raise what parsing a bad or unreadable document raises as a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what}: missing field {exc}") from exc
    except (FairpaceError, OSError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def as_read_only(array, dtype=np.float64) -> np.ndarray:
    """array if it is a read-only ndarray of dtype owning its memory, else a read-only copy.

    The one keep-or-copy rule of every array the package's value types
    hold. Whoever hands over a kept array gives it up and must not make it
    writeable again. Anything else, a writeable array or a read-only view of
    one included, is copied, so a caller's later writes cannot reach the
    holder.
    """
    if not (
        type(array) is np.ndarray
        and array.dtype == dtype
        and array.flags.owndata
        and not array.flags.writeable
    ):
        array = np.array(array, dtype=dtype)
        array.setflags(write=False)
    return array


def check_probabilities(probs: np.ndarray, name: str) -> np.ndarray:
    """probs, once every entry is finite and nonnegative and each row sums to 1.

    Rows lie along the last axis, and sum to 1 within 1e-12; a vector is
    one row. Raises ValueError otherwise.
    """
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError(f"{name} entries must be finite and nonnegative")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-12):
        raise ValueError(f"{name} must sum to 1 along each row")
    return probs


class ReferenceDistribution:
    """Categorical distribution over the item universe."""

    def __init__(self, probs):
        probs = as_read_only(probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        self.probs = check_probabilities(probs, "probs")

    @property
    def m(self) -> int:
        return self.probs.size


class MarketInstance:
    """n agents valuing m items, each agent holding a per-step budget of 1/n.

    valuations is an (n, m) nonnegative matrix of utility-per-unit-item;
    every row must have at least one strictly positive entry. The budgets
    are not stored: pacing, the dual solves and the metrics all assume the
    uniform 1/n, which sums to 1 per time step. The matrix is kept or
    copied as `as_read_only` says.
    """

    def __init__(self, valuations):
        v = as_read_only(valuations)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("valuations must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("valuations must be finite and nonnegative")
        if np.any(v.max(axis=1) <= 0):
            raise ValueError("every agent needs at least one positive valuation")
        self.valuations = v

    @property
    def n(self) -> int:
        return self.valuations.shape[0]

    @property
    def m(self) -> int:
        return self.valuations.shape[1]

    @cached_property
    def by_item(self) -> np.ndarray:
        """The valuations item-major, (m, n) in C order: row j holds every
        agent's value for item j. Built on first use and kept read-only, so
        pacing and scoring share one copy."""
        VT = np.ascontiguousarray(self.valuations.T)
        VT.setflags(write=False)
        return VT

    def check_items(self, items: np.ndarray) -> np.ndarray:
        """items, an array of a sequence's indices, once each names one of the
        m items; raises ConfigError otherwise."""
        if items.max() >= self.m:
            raise ConfigError("sequence references items outside the universe")
        return items


def check_horizon(t) -> int:
    """t as an int once it is an integer of at least 1; else ConfigError.

    The one rule on a horizon: a config's `t`, `fairpace sample --t` and a
    recording grid meet it before any work.
    """
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise ConfigError(f"horizon must be a positive integer, got {t!r}")
    return int(t)


class ItemSequence:
    """Realized arrival order of items, stored as indices into the universe."""

    def __init__(self, items):
        items = np.asarray(items)
        if items.ndim != 1 or items.size == 0:
            raise ValueError("items must be a nonempty 1-d vector")
        if not np.issubdtype(items.dtype, np.integer):
            raise ValueError("items must be integer indices")
        if items.min() < 0 or items.max() > np.iinfo(np.int64).max:
            raise ValueError("item indices must be nonnegative 64-bit integers")
        self.items = as_read_only(items, np.int64)

    @property
    def t(self) -> int:
        return self.items.size


def expected_values(valuations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each agent's value under the item weights, valuations @ weights.

    The one rule that every agent values the weighted items: raises
    ConfigError, naming the agents, if a value is not positive.
    """
    expected = valuations @ weights
    if np.any(expected <= 0):
        bad = np.flatnonzero(expected <= 0)
        raise ConfigError(f"agents {bad.tolist()} have no positive value under the item weights")
    return expected


def normalize_valuations(valuations, ref: ReferenceDistribution) -> np.ndarray:
    """Scale each row so its expected value under ref equals 1.

    The result is a fresh read-only array, which a MarketInstance keeps
    uncopied. Raises ConfigError if some agent values nothing in the support
    of the reference distribution.
    """
    v = np.asarray(valuations, dtype=np.float64)
    if v.shape[1] != ref.m:
        raise ConfigError(
            f"valuations have {v.shape[1]} items but reference has {ref.m}"
        )
    expected = expected_values(v, ref.probs)
    # a row whose expected value is tiny beside its entries overflows here;
    # MarketInstance refuses the result, and the warning would only repeat that
    with np.errstate(over="ignore"):
        v = v / expected[:, None]
    v.setflags(write=False)
    return v


def market_to_dict(instance: MarketInstance) -> dict:
    return {
        "n": instance.n,
        "m": instance.m,
        "valuations": instance.valuations.tolist(),
    }


def market_from_dict(doc: dict) -> MarketInstance:
    """The market a document describes.

    A budgets entry, which files written by earlier versions carry, is
    accepted only when every budget is within 1e-12 of the uniform 1/n
    that the package runs: any other would be silently ignored.
    """
    with as_config_error("bad market"):
        n, m = read_field(int, doc, "n"), read_field(int, doc, "m")
        v = np.array(doc["valuations"], dtype=np.float64)
        if v.shape != (n, m):
            raise ConfigError(f"valuations shape {v.shape} does not match n={n}, m={m}")
        v.setflags(write=False)  # fresh from the document, so kept uncopied
        instance = MarketInstance(v)
        if "budgets" in doc:
            b = np.asarray(doc["budgets"], dtype=np.float64)
            if b.shape != (n,) or not np.all(np.abs(b - 1.0 / n) <= 1e-12):
                raise ConfigError(
                    f"budgets must all be 1/n = {1.0 / n!r}: unequal budgets are not supported"
                )
        return instance


def sequence_to_dict(seq: ItemSequence) -> dict:
    return {"t": seq.t, "items": seq.items.tolist()}


def sequence_from_dict(doc: dict) -> ItemSequence:
    with as_config_error("bad sequence"):
        items = np.array(doc["items"])
        items.setflags(write=False)  # fresh from the document, so kept uncopied
        return ItemSequence(items)
