"""Deterministic, platform-stable random streams.

All randomness flows through counter-based Philox generators keyed by 64-bit
integers, so a given (seed, consumption order) pair reproduces bit-identical
draws on any platform. Per-path seeds are derived from the experiment base
seed by XOR with a golden-ratio multiple of the path index followed by a
splitmix64 finalizer, so consecutive path indices yield decorrelated streams.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer; a bijective scramble of a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_path_seed(base_seed: int, path_index: int) -> int:
    """64-bit seed for one sample path of an experiment."""
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    return mix64((base_seed ^ (path_index * _GOLDEN)) & _MASK64)


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def categorical_cdf(probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF table along the last axis; each row's last entry pinned to 1."""
    cdf = np.cumsum(np.asarray(probs, dtype=np.float64), axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def sample_categorical(cdf: np.ndarray, uniforms) -> np.ndarray:
    """Inverse-CDF draw; a uniform equal to a CDF boundary takes the lower index."""
    return np.searchsorted(cdf, uniforms, side="left")
