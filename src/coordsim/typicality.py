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
it is vacuous.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .probkit import ProbsLike, ZERO_TOL, as_probs, entropy, joint_type

_EXP_OVERFLOW = 700.0


def _bounded_exp(log_value: float) -> float:
    return math.inf if log_value > _EXP_OVERFLOW else math.exp(log_value)


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
    return _bounded_exp(k * math.log(n + 1) - n * epsilon * epsilon / (2.0 * k * k))


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


def counts_typical(counts: np.ndarray, j: ProbsLike, n: int, epsilon: float) -> bool | np.ndarray:
    """Typicality decision on precomputed integer cell counts: a bool for one
    table of j's shape, or an array of bools over the leading axes of a
    stack of them."""
    lo, hi = count_bounds(j, n, epsilon)
    inside = (counts >= lo) & (counts <= hi)
    if inside.ndim == lo.ndim:
        return bool(np.all(inside))
    return np.logical_and.reduce(inside.reshape(*inside.shape[:inside.ndim - lo.ndim], -1),
                                 axis=-1)


def is_strongly_typical(x_seq, y_seq, j: ProbsLike, epsilon: float) -> bool | np.ndarray:
    """Joint typicality of a sequence pair for the 2-d law j.

    The sequences may carry leading axes, which broadcast against each
    other; the result is then an array of bools over them, one per pair,
    from one joint_type table stack.
    """
    probs = as_probs(j)
    if probs.ndim != 2:
        raise ValueError("is_strongly_typical requires a 2-d joint law")
    counts = joint_type(x_seq, y_seq, *probs.shape)
    return counts_typical(counts, probs, np.shape(x_seq)[-1], epsilon)


def typical_set_size_bound(j: ProbsLike, n: int, epsilon: float) -> float:
    """Upper bound e^{n (H(X,Y) + eps_m)} on the joint typical set size."""
    return _bounded_exp(n * (entropy(j) + epsilon_m(j, epsilon)))
