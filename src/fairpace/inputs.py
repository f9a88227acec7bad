"""Item-arrival models: their sampling, reference distributions and documents.

Four arrival processes over a finite item universe:

  iid        independent draws from a fixed base distribution
  corrupted  independent draws whose per-step distributions drift away from
             the base under a corruption schedule
  markov     a time-homogeneous finite chain started from the base
  periodic   fixed-length blocks; one draw per within-block position
             distribution, shuffled uniformly inside each block

A model owns a model-level seed that drives distribution-level randomness
(the corruption perturbations), so the per-step marginals are a property of
the model and shared by all sample paths. Item draws come from an explicit
per-path seed, so distinct paths are independent and any (model, horizon,
path seed) triple reproduces bit-identically. Longer horizons extend
shorter ones: the first t draws of a horizon-t' > t sequence equal the
horizon-t sequence.
"""

import math
from bisect import bisect_left
from typing import List

import numpy as np

from .errors import ConfigError, NoConvergence
from .market import (
    ItemSequence, ReferenceDistribution, as_config_error, as_read_only, check_horizon,
    check_probabilities, read_field,
)
from .prng import categorical_cdf, make_generator, sample_categorical

KINDS = ("iid", "corrupted", "markov", "periodic")


class CorruptionSchedule:
    """Rule producing the per-step distributions of a corrupted model.

    decaying  adds a per-coordinate uniform perturbation of amplitude
              scale/step to the base and renormalizes, so the drift at step
              tau is of order 1/tau and the average corruption vanishes
              with the horizon.
    budgeted  mixes the base toward one random item corner per step, with
              the mixing weight chosen so that every step sits exactly
              `target` away from the base in total variation; the average
              corruption then equals `target` exactly.
    """

    def __init__(self, kind: str, scale: float = 1.0, target: float = 0.0):
        if kind not in ("decaying", "budgeted"):
            raise ValueError(f"unknown corruption schedule kind {kind!r}")
        if kind == "decaying" and not 0.0 <= scale < np.inf:
            raise ValueError("scale must be nonnegative and finite")
        if kind == "budgeted" and not 0.0 <= target < 1.0:
            raise ValueError("target must lie in [0, 1)")
        self.kind, self.scale, self.target = kind, scale, target


def _transition_matrix(matrix) -> np.ndarray:
    """matrix kept or copied as `market.as_read_only` says, checked square and row-stochastic."""
    P = as_read_only(matrix)
    if P.ndim != 2 or not 0 < P.shape[0] == P.shape[1]:
        raise ValueError("transition matrix must be square and nonempty")
    return check_probabilities(P, "transition")


class InputModel:
    """Tagged description of an arrival process over m items.

    The base is converted to a ReferenceDistribution; the matrices are kept
    or copied as `market.as_read_only` says and checked row-stochastic. A
    budgeted corruption whose target no corner's headroom reaches, and a
    decaying one whose first row's sum could overflow, are refused here,
    before any sampling.
    """

    def __init__(
        self, kind: str, base=None, transition=None, period_dists=None, corruption=None, seed=0
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown input model kind {kind!r}")
        if kind in ("iid", "corrupted", "markov") and base is None:
            raise ValueError(f"{kind} model requires a base distribution")
        if base is not None and not isinstance(base, ReferenceDistribution):
            base = ReferenceDistribution(base)
        if kind == "corrupted":
            if corruption is None:
                raise ValueError("corrupted model requires a corruption schedule")
            if corruption.kind == "budgeted" and corruption.target > 0.0:
                _feasible_corners(1.0 - base.probs, corruption.target)
            if corruption.kind == "decaying":
                # step 1's row sums to under 1 + m * scale; half the float
                # range leaves room for the rounding of that sum
                limit = float(np.finfo(np.float64).max) / (2 * base.m)
                if corruption.scale > limit:
                    raise ValueError(
                        f"decaying corruption scale {corruption.scale!r} overflows the row "
                        f"sum of m={base.m} items; the largest is {limit!r}"
                    )
        if kind == "markov":
            if transition is None:
                raise ValueError("markov model requires a transition matrix")
            transition = _transition_matrix(transition)
            if transition.shape[0] != base.m:
                raise ValueError("transition size must match the base distribution")
        if kind == "periodic":
            if period_dists is None:
                raise ValueError("periodic model requires per-position distributions")
            period_dists = as_read_only(period_dists)
            if period_dists.ndim != 2 or period_dists.shape[0] < 1:
                raise ValueError("period_dists must be a 2-d matrix of at least one row")
            check_probabilities(period_dists, "period_dists")
        self.kind, self.base, self.corruption, self.seed = kind, base, corruption, seed
        self.transition, self.period_dists = transition, period_dists

    @property
    def m(self) -> int:
        if self.kind == "periodic":
            return self.period_dists.shape[1]
        return self.base.m


def _feasible_corners(headroom: np.ndarray, target: float) -> np.ndarray:
    """Items j whose headroom 1 - base_j reaches a budgeted target.

    Only a step mixed toward such a corner sits exactly `target` from the
    base in total variation. Raises ValueError when no corner qualifies.
    """
    feasible = np.flatnonzero(headroom >= target)
    if feasible.size == 0:
        raise ValueError(f"corruption target {target} exceeds the headroom of every corner")
    return feasible


# Entries per block of per-step distributions: a corrupted sample path holds
# a few (block x m) arrays at a time, about 0.5 MB each, instead of (t x m).
_BLOCK_ENTRIES = 1 << 16


def corruption_step_distributions(model: InputModel, t: int):
    """Per-step marginals s^1..s^t of a corrupted model, in blocks of rows.

    Yields consecutive (rows, m) arrays, together one row per step, of at
    most max(1, _BLOCK_ENTRIES // m) rows each. Every row is computed on its
    own from the model stream, which is read in step order, so the rows
    equal those of one (t, m) computation. Deterministic in (model.seed, t)
    and prefix-stable in t.
    """
    if model.kind != "corrupted":
        raise ValueError("only corrupted models have a corruption schedule")
    base = model.base.probs
    sched = model.corruption
    rng = make_generator(model.seed)
    rows = max(1, _BLOCK_ENTRIES // base.size)
    if sched.kind == "budgeted" and sched.target > 0.0:
        headroom = 1.0 - base
        feasible = _feasible_corners(headroom, sched.target)
    for start in range(0, t, rows):
        count = min(rows, t - start)
        if sched.kind == "decaying":
            eps = sched.scale / np.arange(start + 1, start + count + 1, dtype=np.float64)
            raw = rng.random((count, base.size))
            raw *= eps[:, None]
            raw += base
            raw /= raw.sum(axis=1, keepdims=True)
            yield raw
        elif sched.target == 0.0:
            yield np.tile(base, (count, 1))
        else:
            corners = feasible[(rng.random(count) * feasible.size).astype(np.int64)]
            # mixing weight per step so that TV(s^tau, base) == target exactly
            eps = sched.target / headroom[corners]
            dists = base[None, :] * (1.0 - eps)[:, None]
            dists[np.arange(count), corners] += eps
            yield dists


def sample_sequences(model: InputModel, t: int, path_seeds) -> List[ItemSequence]:
    """Draw a length-t item sequence per path seed, each from its own stream.

    Each path equals sample_sequence(model, t, seed) for its seed. The
    per-step distributions of a corrupted model, and their CDFs, depend on
    the model alone, so each block of them is built once for all the paths.
    """
    t = check_horizon(t)
    if model.kind != "corrupted":
        return _sample_paths(model, t, path_seeds)
    uniforms = [make_generator(seed).random(t) for seed in path_seeds]
    items = [np.empty(t, dtype=np.int64) for _ in uniforms]
    start = 0
    for dists in corruption_step_distributions(model, t):
        stop = start + len(dists)
        cdf = categorical_cdf(dists)
        for path_items, u in zip(items, uniforms):
            # row-wise inverse CDF with lower-index ties, one uniform per step
            path_items[start:stop] = (cdf < u[start:stop, None]).sum(axis=1)
        start = stop
    for path_items in items:
        path_items.setflags(write=False)
    return [ItemSequence(path_items) for path_items in items]


def sample_sequence(model: InputModel, t: int, path_seed: int) -> ItemSequence:
    """Draw a length-t item sequence from the model using the path stream."""
    return sample_sequences(model, t, [path_seed])[0]


def _sample_paths(model: InputModel, t: int, path_seeds) -> List[ItemSequence]:
    """The paths of an iid, markov or periodic model, one per seed. The
    inverse-CDF tables depend on the model alone: each is built once."""
    streams = [make_generator(seed) for seed in path_seeds]
    paths = []
    if model.kind == "iid":
        cdf = categorical_cdf(model.base.probs)
        paths = [sample_categorical(cdf, rng.random(t)) for rng in streams]
    elif model.kind == "markov":
        base_cdf = categorical_cdf(model.base.probs)
        m = model.m
        # bisect_left over row `state` of the flat CDF table is searchsorted
        # with side="left", without a numpy call per step
        flat = memoryview(categorical_cdf(model.transition).reshape(-1))
        for rng in streams:
            u = rng.random(t)
            items = np.empty(t, dtype=np.int64)
            out = memoryview(items)
            state = int(sample_categorical(base_cdf, u[0]))
            out[0] = state
            for tau, x in enumerate(memoryview(u[1:]), 1):
                lo = state * m
                state = bisect_left(flat, x, lo, lo + m) - lo
                out[tau] = state
            paths.append(items)
    else:
        q, m = model.period_dists.shape
        cdfs = categorical_cdf(model.period_dists)
        blocks = math.ceil(t / q)
        for rng in streams:
            # each block consumes q item uniforms then q shuffle keys, so the
            # stream is prefix-stable across horizons
            u = rng.random((blocks, 2 * q))
            drawn = np.empty((blocks, q), dtype=np.int64)
            for k in range(q):
                drawn[:, k] = sample_categorical(cdfs[k], u[:, k])
            # uniform within-block shuffle via random sort keys
            order = np.argsort(u[:, q:], axis=1)
            paths.append(np.take_along_axis(drawn, order, axis=1).reshape(-1)[:t])
    for items in paths:
        items.setflags(write=False)
    return [ItemSequence(items) for items in paths]


# Power iterations before a chain is declared periodic or reducible.
_POWER_ITERATIONS = 100_000


def stationary_distribution(transition, tol: float = 1e-12) -> ReferenceDistribution:
    """Fixed point of the chain by power iteration from the uniform vector.

    Returns a vector pi with ||pi P - pi||_1 <= tol. Raises NoConvergence
    after _POWER_ITERATIONS iterations, which signals a periodic or
    reducible chain. Reducible chains whose uniform vector happens to be a
    fixed point (for example the identity transition) converge immediately
    to uniform; that degenerate acceptance is by design.
    """
    P = _transition_matrix(transition)
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(_POWER_ITERATIONS):
        nxt = pi @ P
        if np.abs(nxt - pi).sum() <= tol:
            return ReferenceDistribution(pi)
        pi = nxt / nxt.sum()
    raise NoConvergence(
        f"power iteration did not reach tol={tol} in {_POWER_ITERATIONS} iterations"
    )


def reference_distribution(model: InputModel) -> ReferenceDistribution:
    """The model's long-run item distribution.

    The base for iid and corrupted models, the stationary distribution for
    markov models, and the per-period average for periodic models.
    """
    if model.kind in ("iid", "corrupted"):
        return model.base
    if model.kind == "markov":
        return stationary_distribution(model.transition)
    avg = model.period_dists.mean(axis=0)
    return ReferenceDistribution(avg / avg.sum())


def _random_base(m: int, seed: int = 0) -> np.ndarray:
    """Random categorical distribution with uniform [0, 1) weights, normalized."""
    u = make_generator(seed).random(m)
    return u / u.sum()


def random_iid_model(m: int, seed: int = 0) -> InputModel:
    return InputModel("iid", base=_random_base(m, seed), seed=seed)


def random_corrupted_model(m: int, corruption: CorruptionSchedule, seed: int = 0) -> InputModel:
    return InputModel("corrupted", base=_random_base(m, seed), corruption=corruption, seed=seed)


def random_markov_model(m: int, seed: int = 0) -> InputModel:
    """Dense random chain (row-normalized uniforms) with a random start."""
    rng = make_generator(seed)
    transition = rng.random((m, m))
    transition /= transition.sum(axis=1, keepdims=True)
    transition.setflags(write=False)
    start = rng.random(m)
    return InputModel("markov", base=start / start.sum(), transition=transition, seed=seed)


def random_periodic_model(m: int, q: int, seed: int = 0) -> InputModel:
    """q random per-position distributions (row-normalized uniforms)."""
    dists = make_generator(seed).random((q, m))
    dists /= dists.sum(axis=1, keepdims=True)
    dists.setflags(write=False)
    return InputModel("periodic", period_dists=dists, seed=seed)


def model_to_dict(model: InputModel) -> dict:
    doc: dict = {"kind": model.kind, "seed": model.seed}
    if model.base is not None:
        doc["base"] = model.base.probs.tolist()
    if model.transition is not None:
        doc["transition"] = model.transition.tolist()
    if model.period_dists is not None:
        doc["period_dists"] = model.period_dists.tolist()
    if model.corruption is not None:
        doc["corruption"] = {
            "kind": model.corruption.kind,
            "scale": model.corruption.scale,
            "target": model.corruption.target,
        }
    return doc


def _corruption(doc: dict) -> CorruptionSchedule:
    return CorruptionSchedule(
        kind=doc.get("kind", "decaying"),
        scale=read_field(float, doc, "scale", 1.0),
        target=read_field(float, doc, "target", 0.0),
    )


def model_from_dict(doc: dict) -> InputModel:
    """The model a document describes; ConfigError if it is malformed.

    The document holds the model's arrays, as `model_to_dict` writes them,
    or a `random` directive: `m`, `seed` and, for periodic models, `q`. A
    budgeted corruption target above every corner's headroom is malformed.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("model spec must be an object with a 'kind'")
    kind, c = doc["kind"], doc.get("corruption", {})
    if not isinstance(doc.get("random", {}), dict) or not isinstance(c, dict):
        raise ConfigError("model 'random' and 'corruption' must be objects")
    if "random" not in doc:
        with as_config_error("bad model spec"):
            return InputModel(
                kind=kind,
                base=doc.get("base"),
                transition=doc.get("transition"),
                period_dists=doc.get("period_dists"),
                corruption=_corruption(c) if "corruption" in doc else None,
                seed=read_field(int, doc, "seed", 0),
            )
    directive = doc["random"]
    with as_config_error("bad random model directive"):
        m = read_field(int, directive, "m")
        seed = read_field(int, directive, "seed", 0)
        if kind == "iid":
            return random_iid_model(m, seed)
        if kind == "corrupted":
            return random_corrupted_model(m, _corruption(c), seed)
        if kind == "markov":
            return random_markov_model(m, seed)
        if kind == "periodic":
            return random_periodic_model(m, read_field(int, directive, "q"), seed)
    raise ConfigError(f"unknown model kind {kind!r}")
