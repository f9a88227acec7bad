"""Market instances: agents, a finite item universe, valuations, budgets.

All types are immutable value data; the backing arrays are marked read-only
so instances can be shared freely across worker threads or processes.

`read_json`, `read_field` and `as_config_error` are the one input boundary
of every JSON document the package reads: configs, markets, sequences and
input models.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, FairpaceError, ZeroExpectedValue


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


@dataclass(frozen=True)
class ReferenceDistribution:
    """Categorical distribution over the item universe."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probs must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1, got {probs.sum()!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class MarketInstance:
    """n agents valuing m items, each agent holding a per-step budget.

    valuations is an (n, m) nonnegative matrix of utility-per-unit-item;
    every row must have at least one strictly positive entry. Budgets
    default to the uniform 1/n, which makes them sum to 1 per time step.
    """

    valuations: np.ndarray
    budgets: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.array(self.valuations, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("valuations must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("valuations must be finite and nonnegative")
        if np.any(v.max(axis=1) <= 0):
            raise ValueError("every agent needs at least one positive valuation")
        n = v.shape[0]
        if self.budgets is None:
            b = np.full(n, 1.0 / n)
        else:
            b = np.array(self.budgets, dtype=np.float64)
            if b.shape != (n,):
                raise DimensionMismatch(f"budgets must have length {n}")
            if not np.all(np.isfinite(b)) or np.any(b <= 0):
                raise ValueError("budgets must be finite and positive")
        v.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "valuations", v)
        object.__setattr__(self, "budgets", b)

    @property
    def n(self) -> int:
        return self.valuations.shape[0]

    @property
    def m(self) -> int:
        return self.valuations.shape[1]


@dataclass(frozen=True)
class ItemSequence:
    """Realized arrival order of items, stored as indices into the universe."""

    items: np.ndarray

    def __post_init__(self):
        items = np.array(self.items)
        if items.ndim != 1 or items.size == 0:
            raise ValueError("items must be a nonempty 1-d vector")
        if not np.issubdtype(items.dtype, np.integer):
            raise ValueError("items must be integer indices")
        if items.min() < 0 or items.max() > np.iinfo(np.int64).max:
            raise ValueError("item indices must be nonnegative 64-bit integers")
        items = items.astype(np.int64)
        items.setflags(write=False)
        object.__setattr__(self, "items", items)

    @property
    def t(self) -> int:
        return self.items.size


def normalize_valuations(valuations, ref: ReferenceDistribution) -> np.ndarray:
    """Scale each row so its expected value under ref equals 1.

    Raises ZeroExpectedValue if some agent values nothing in the support
    of the reference distribution.
    """
    v = np.asarray(valuations, dtype=np.float64)
    if v.shape[1] != ref.m:
        raise DimensionMismatch(
            f"valuations have {v.shape[1]} items but reference has {ref.m}"
        )
    expected = v @ ref.probs
    if np.any(expected <= 0):
        bad = np.flatnonzero(expected <= 0)
        raise ZeroExpectedValue(f"rows {bad.tolist()} have zero expected value")
    return v / expected[:, None]


def proportional_share_utilities(instance: MarketInstance, seq: ItemSequence) -> np.ndarray:
    """Average utility when every arriving item is split in proportion to budgets."""
    if seq.items.max() >= instance.m:
        raise DimensionMismatch("sequence references items outside the universe")
    counts = np.bincount(seq.items, minlength=instance.m)
    return instance.budgets * (instance.valuations @ counts) / seq.t


def market_to_dict(instance: MarketInstance) -> dict:
    return {
        "n": instance.n,
        "m": instance.m,
        "valuations": instance.valuations.tolist(),
        "budgets": instance.budgets.tolist(),
    }


def market_from_dict(doc: dict) -> MarketInstance:
    with as_config_error("bad market"):
        n, m = read_field(int, doc, "n"), read_field(int, doc, "m")
        v = np.asarray(doc["valuations"], dtype=np.float64)
        if v.shape != (n, m):
            raise DimensionMismatch(f"valuations shape {v.shape} does not match n={n}, m={m}")
        return MarketInstance(v, doc.get("budgets"))


def sequence_to_dict(seq: ItemSequence) -> dict:
    return {"t": seq.t, "items": seq.items.tolist()}


def sequence_from_dict(doc: dict) -> ItemSequence:
    with as_config_error("bad sequence"):
        return ItemSequence(doc["items"])
