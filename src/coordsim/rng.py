"""Counter-based deterministic randomness.

Every random quantity in this package is a pure function of a 64-bit seed
and an integer index path (stream tag, trial number, codeword index, symbol
position, ...).  There is no sequential generator state, so draws are
bit-identical under any evaluation order, batching, or parallel schedule.

Construction: each path word is folded into a running 64-bit state with the
SplitMix64 finalizer,

    fold(h, w) = mix64(h XOR (w * PHI64))

    mix64(z):  z += 0x9E3779B97F4A7C15
               z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
               z = (z ^ (z >> 27)) * 0x94D049BB133111EB
               return z ^ (z >> 31)

with PHI64 = 0x9E3779B97F4A7C15 (odd, so w -> w * PHI64 is a bijection mod
2**64).  Uniform doubles in [0, 1) take the top 53 bits of the state:
u = (h >> 11) * 2**-53.  All arithmetic is mod 2**64, on numpy uint64 arrays
or, for derive_key's scalar chain, on Python integers.
"""

from __future__ import annotations

import numpy as np

PHI64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = float(2.0**-53)
_MASK = 2**64 - 1
_PHI_INT, _MIX1_INT, _MIX2_INT = int(PHI64), int(_MIX1), int(_MIX2)


def mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer, vectorized over uint64 arrays.

    uint64 arrays wrap silently; numpy scalars warn when they wrap, so a
    scalar caller enters np.errstate(over="ignore"), as fold does.
    """
    z = z + PHI64
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def fold(h: np.ndarray | np.uint64 | int, w: np.ndarray | int) -> np.ndarray | np.uint64:
    """Fold one path word into the state; either argument may be an array."""
    h = np.asarray(h, dtype=np.uint64) if not isinstance(h, np.uint64) else h
    w = np.asarray(w, dtype=np.uint64) if not isinstance(w, np.uint64) else w
    if np.ndim(h) or np.ndim(w):
        return mix64(h ^ (w * PHI64))
    with np.errstate(over="ignore"):
        return mix64(h ^ (w * PHI64))


def _mix64_int(z: int) -> int:
    """mix64 of one state in Python integers."""
    z = (z + _PHI_INT) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


def _chain(h: int, path) -> int:
    """Fold each path word into the state h, in Python integers."""
    for w in path:
        w = int(w)
        if not 0 <= w <= _MASK:
            raise OverflowError(f"path word {w} out of bounds for uint64")
        h = _mix64_int(h ^ ((w * _PHI_INT) & _MASK))
    return h


def derive_key(seed: int, *path: int) -> np.uint64:
    """Chain a seed and a fixed index path into a single 64-bit key.

    Bit-identical to folding each path word with `fold`, but computed in
    Python integers: a short scalar chain costs less than numpy scalar
    arithmetic.  A path word outside [0, 2**64) raises OverflowError, as
    `fold` does.
    """
    return np.uint64(_chain(int(seed) & _MASK, path))


def uniforms(key: np.uint64, indices: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles at the given counter indices under `key`."""
    h = fold(key, np.asarray(indices, dtype=np.uint64))
    return (h >> _S11).astype(np.float64) * _INV_2_53


def categorical(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Symbols by inverse CDF: for each uniform in u, the number of entries
    of `cdf` (along its last axis) that are <= u, as searchsorted 'right'
    counts them.

    The result has u's shape; the leading axes of `cdf`, if any, broadcast
    against it, so each uniform may read its own cdf row.  The last entry
    must be 1.0, which exceeds every u in [0, 1) and is skipped.
    """
    symbols = np.zeros(u.shape, dtype=np.int64)
    for k in range(cdf.shape[-1] - 1):
        symbols += u >= cdf[..., k]
    return symbols


def right_closed_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each final entry pinned to
    exactly 1.0."""
    cdf = np.cumsum(np.asarray(probs, dtype=np.float64), axis=-1)
    cdf[..., -1] = 1.0
    return cdf
