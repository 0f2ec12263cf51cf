"""Strong typicality: membership tests and the quantitative bounds.

A pair of length-n sequences is strongly epsilon-typical for a joint law p
when every empirical cell frequency is strictly within epsilon/(#cells) of
the corresponding probability; for a single sequence the divisor is the
alphabet size.  Membership is decided exactly: the admissible integer count
interval per cell is derived once with rational arithmetic, so boundary
behaviour is reproducible and identical between scalar checks and the
vectorized scans used by the encoders.

Quantities:
    epsilon_m(p, eps) = -eps * ln(min nonzero entry of p)
    delta_t(n, eps, sizes) = (n+1)**prod(sizes) * exp(-n eps^2 / (2 prod(sizes)^2))

delta_t's exponent is in natural-log units, matching the e^{nR} codebook
sizing used throughout; it may exceed 1, in which case any bound built from
it is vacuous (and is clamped where a probability is returned).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .probkit import ProbsLike, ZERO_TOL, as_probs, entropy, mutual_information

_EXP_OVERFLOW = 700.0


def epsilon_m(j: ProbsLike, epsilon: float) -> float:
    """-epsilon * ln(p_min) with p_min the smallest nonzero probability.

    Zero cells are excluded: a literal zero would make the slack infinite,
    and the quantity is only ever applied on the support.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    arr = as_probs(j).reshape(-1)
    support = arr[arr > ZERO_TOL]
    if support.size == 0:
        raise ValueError("distribution has empty support")
    return -epsilon * math.log(float(support.min()))


def delta_t(n: int, epsilon: float, sizes) -> float:
    """(n+1)**k * exp(-n eps^2 / (2 k^2)) with k the alphabet-size product.

    Returns inf rather than overflowing; values above 1 are meaningful (the
    bound is simply vacuous there).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    k = 1
    for s in np.atleast_1d(np.asarray(sizes, dtype=np.int64)):
        k *= int(s)
    log_value = k * math.log(n + 1) - n * epsilon * epsilon / (2.0 * k * k)
    if log_value > _EXP_OVERFLOW:
        return math.inf
    return math.exp(log_value)


@lru_cache(maxsize=256)
def _count_bounds_cached(probs_bytes: bytes, shape: tuple, n: int, epsilon: float):
    probs = np.frombuffer(probs_bytes, dtype=np.float64).reshape(shape)
    bound = Fraction(epsilon) / probs.size
    lo = np.empty(probs.size, dtype=np.int64)
    hi = np.empty(probs.size, dtype=np.int64)
    flat = probs.reshape(-1)
    for i, p in enumerate(flat):
        center = Fraction(float(p))
        # strict |c/n - p| < bound  <=>  n(p - bound) < c < n(p + bound)
        low = n * (center - bound)
        high = n * (center + bound)
        lo[i] = math.floor(low) + 1
        hi[i] = math.ceil(high) - 1
    np.clip(lo, 0, n, out=lo)
    np.clip(hi, -1, n, out=hi)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo.reshape(shape), hi.reshape(shape)


def count_bounds(j: ProbsLike, n: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive admissible count interval per cell for strong typicality.

    A sequence (pair) of length n is typical iff every cell count c satisfies
    lo <= c <= hi.  The interval is computed with exact rational arithmetic
    from the float cell probabilities, so the strict-inequality boundary is
    decided identically everywhere.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    probs = np.ascontiguousarray(as_probs(j), dtype=np.float64)
    return _count_bounds_cached(probs.tobytes(), probs.shape, n, epsilon)


def counts_typical(counts: np.ndarray, j: ProbsLike, n: int, epsilon: float) -> bool:
    """Typicality decision on precomputed integer cell counts."""
    lo, hi = count_bounds(j, n, epsilon)
    return bool(np.all((counts >= lo) & (counts <= hi)))


def is_strongly_typical(x_seq, y_seq, j: ProbsLike, epsilon: float) -> bool:
    """Joint typicality of a sequence pair for the 2-d law j."""
    probs = as_probs(j)
    if probs.ndim != 2:
        raise ValueError("is_strongly_typical requires a 2-d joint law")
    sx, sy = probs.shape
    x = np.asarray(x_seq, dtype=np.int64)
    y = np.asarray(y_seq, dtype=np.int64)
    if x.shape != y.shape:
        raise ValueError("sequences must have equal length")
    counts = np.bincount(x * sy + y, minlength=sx * sy).reshape(sx, sy)
    return counts_typical(counts, probs, x.size, epsilon)


def is_marginally_typical(seq, p: ProbsLike, epsilon: float) -> bool:
    """Single-sequence typicality: cell bound epsilon / alphabet size."""
    probs = as_probs(p)
    if probs.ndim != 1:
        raise ValueError("is_marginally_typical requires a 1-d law")
    x = np.asarray(seq, dtype=np.int64)
    counts = np.bincount(x, minlength=probs.size)
    return counts_typical(counts, probs, x.size, epsilon)


def _bounded_exp(log_value: float) -> float:
    return math.inf if log_value > _EXP_OVERFLOW else math.exp(log_value)


def typical_set_size_bound(j: ProbsLike, n: int, epsilon: float) -> float:
    """Upper bound e^{n (H(X,Y) + eps_m)} on the joint typical set size."""
    return _bounded_exp(n * (entropy(j) + epsilon_m(j, epsilon)))


def conditional_set_size_bound(j: ProbsLike, n: int, epsilon: float) -> float:
    """Upper bound e^{n (H(Y|X) + eps_m)} on any conditional typical set."""
    probs = as_probs(j)
    if probs.ndim != 2:
        raise ValueError("conditional_set_size_bound requires a 2-d joint law")
    h_cond = entropy(probs) - entropy(probs.sum(axis=1))
    return _bounded_exp(n * (h_cond + epsilon_m(probs, epsilon)))


def hit_probability_lower_bound(j: ProbsLike, n: int, epsilon: float) -> float:
    """Lower bound on the chance an independent product draw lands in the
    conditional typical set: (1 - delta_t(n, eps/2)) e^{-n (I + 2 eps_m)},
    clamped to [0, 1]."""
    probs = as_probs(j)
    if probs.ndim != 2:
        raise ValueError("hit_probability_lower_bound requires a 2-d joint law")
    dt = delta_t(n, epsilon / 2.0, probs.shape)
    eps3 = 2.0 * epsilon_m(probs, epsilon)
    value = (1.0 - dt) * _bounded_exp(-n * (mutual_information(probs) + eps3))
    return min(max(value, 0.0), 1.0)


def markov_lemma_bound(n: int, epsilon: float, sizes) -> float:
    """Predicted success probability 1 - delta_t(n, eps/2, sizes) in [0, 1]."""
    return min(max(1.0 - delta_t(n, epsilon / 2.0, sizes), 0.0), 1.0)
