"""Deterministic instance generation for tests and benchmarks.

Instances are reproducible across platforms: the generator is a self
contained splitmix64 stream, so a (seed, shape, distribution) triple pins
the instance bytes forever, independent of Python's hash or RNG evolution.
``tests/test_gen.py`` freezes them by SHA-256 digest.

splitmix64 is counter-based (Steele, Lea & Flood 2014): draw k of the
stream, counting from 1, is mix(seed + k * GAMMA) mod 2^64.
``generate_instance`` therefore computes a chunk of draws at once as numpy
``uint64`` arrays; ``SplitMix64`` steps the same stream one draw at a time.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .core import _integer

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Items per array chunk: three uint64 draws per item stay under 400 KB.
_CHUNK = 1 << 14

DISTRIBUTIONS = ("uniform", "clustered", "hard-equal-weights")


def _mix(z):
    """splitmix64's output mix of a state: a Python int or a ``uint64`` array."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64: additive gamma 0x9E3779B97F4A7C15, two xor-multiply mixes."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return _mix(self.state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish draw in [lo, hi] by modulo; bias is < 2^-40 for the
        ranges used here and determinism matters more than the last bit."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


def _draws(seed: int, first: int, count: int) -> np.ndarray:
    """Draws ``first + 1 .. first + count`` of the stream from ``seed``, as uint64."""
    k = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return _mix(k * GAMMA + (seed & MASK64))


def _randint(z: np.ndarray, lo: int, hi: int, dtype) -> np.ndarray:
    """``SplitMix64.randint(lo, hi)`` of each draw in ``z``, as ``dtype``.

    A range of 2^64 or more leaves the draw as it is (z % range == z).
    ``dtype`` is object unless every value derived from the result fits int64.
    """
    span = hi - lo + 1
    return (z % span if span <= MASK64 else z).astype(dtype) + lo


def generate_instance(
    n: int,
    w_max: int,
    p_max: int,
    t_frac: float,
    seed: int,
    dist: str = "uniform",
):
    """Return (items, capacity) for the given shape.

    uniform             independent weights and profits.
    clustered           weights gather around ~sqrt(w_max) centers, stressing
                        the residue-class structure of the batch updates.
    hard-equal-weights  many items on few distinct weights just below w_max,
                        profits strongly correlated to weight, producing deep
                        rank classes and near-ties around the greedy break.

    Each item reads its draws by stride from the stream: ``uniform`` takes
    (weight, profit), ``hard-equal-weights`` (weight, jitter) and
    ``clustered`` (center index, offset, profit) after its k center draws.
    n, w_max, p_max and seed must be integers and t_frac a real number
    (bools refused).
    """
    n = _integer(n, "n")
    w_max = _integer(w_max, "w_max")
    p_max = _integer(p_max, "p_max")
    seed = _integer(seed, "seed")
    if n < 1 or w_max < 1 or p_max < 1:
        raise ValueError("n, w_max and p_max must be >= 1")
    if isinstance(t_frac, bool) or not isinstance(t_frac, Real):
        raise ValueError(f"t_frac must be a real number, got {t_frac!r}")
    if not 0.0 <= t_frac <= 1.0:
        raise ValueError("t_frac must be in [0, 1]")
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    # int64 holds every intermediate value below 2^62, including w * p_max.
    bound = w_max * p_max if dist == "hard-equal-weights" else max(w_max, p_max)
    dtype = np.int64 if bound < 1 << 62 else object
    first = 0
    if dist == "clustered":
        k = max(1, math.isqrt(w_max))
        centers = np.concatenate([
            _randint(_draws(seed, a, min(_CHUNK, k - a)), 1, w_max, dtype)
            for a in range(0, k, _CHUNK)
        ])
        spread = max(1, w_max // 64)
        first = k
    elif dist == "hard-equal-weights":
        lo = max(1, w_max - max(1, w_max // 16))
        jitter = max(1, p_max // 100)
    stride = 3 if dist == "clustered" else 2
    items = []
    total_w = 0
    for a in range(0, n, _CHUNK):
        m = min(_CHUNK, n - a)
        z = _draws(seed, first + stride * a, stride * m).reshape(m, stride)
        if dist == "uniform":
            w = _randint(z[:, 0], 1, w_max, dtype)
            p = _randint(z[:, 1], 1, p_max, dtype)
        elif dist == "clustered":
            c = centers[_randint(z[:, 0], 0, k - 1, np.intp)]
            w = np.clip(c + _randint(z[:, 1], -spread, spread, dtype), 1, w_max)
            p = _randint(z[:, 2], 1, p_max, dtype)
        else:  # hard-equal-weights
            w = _randint(z[:, 0], lo, w_max, dtype)
            p = np.maximum(w * p_max // w_max, 1)
            p = np.clip(p + _randint(z[:, 1], 0, jitter, dtype) - jitter // 2, 1, p_max)
        ws = w.tolist()
        total_w += sum(ws)
        items += zip(ws, p.tolist())
    capacity = int(t_frac * total_w)
    return items, capacity
