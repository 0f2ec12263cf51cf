"""Finite-alphabet probability kernels.

Distributions, conditional channels, joint laws, empirical joint types, total
variation, and the information quantities the coding schemes and rate regions
are built on.  All information quantities are in nats; callers that want bits
divide by ln 2.

Conventions:
  - alphabets are the integers 0..size-1;
  - 0 * ln 0 == 0 and 0 * ln(0/0) == 0; probabilities at or below ZERO_TOL
    are treated as exact zeros inside log terms;
  - joint types are integer count tables, so type arithmetic is exact until
    a caller divides by n.

All container types are immutable after construction (backing arrays are
marked read-only) and safe to share across parallel workers; every operation
here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-15
SUM_TOL = 1e-12


def _frozen_array(values, dtype=np.float64, ndim=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_probabilities(arr: np.ndarray, what: str) -> None:
    if arr.size == 0:
        raise ValueError(f"{what} must be non-empty")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite and >= 0")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{what} must sum to 1 within {SUM_TOL} (got {total!r})")


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over one finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs, ndim=1))
        _check_probabilities(self.probs, "Pmf")

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @staticmethod
    def uniform(size: int) -> "Pmf":
        return Pmf(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class CondPmf:
    """Row-stochastic channel: one output Pmf per conditioning symbol."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_array(self.rows, ndim=2))
        for i in range(self.rows.shape[0]):
            _check_probabilities(self.rows[i], f"CondPmf row {i}")

    @property
    def in_size(self) -> int:
        return self.rows.shape[0]

    @property
    def out_size(self) -> int:
        return self.rows.shape[1]

    @staticmethod
    def binary_flip(flip_prob: float) -> "CondPmf":
        """Binary symmetric channel with the given crossover probability."""
        f = float(flip_prob)
        if not 0.0 <= f <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")
        return CondPmf([[1.0 - f, f], [f, 1.0 - f]])


@dataclass(frozen=True)
class JointPmf:
    """Joint law over a pair (2-d) or triple (3-d) of finite alphabets."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs))
        if self.probs.ndim not in (2, 3):
            raise ValueError("JointPmf must be 2- or 3-dimensional")
        _check_probabilities(self.probs.reshape(-1), "JointPmf")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def marginal(self, axis: int) -> Pmf:
        axes = tuple(i for i in range(self.probs.ndim) if i != axis)
        return Pmf(self.probs.sum(axis=axes))

    def pair_marginal(self, axis_a: int, axis_b: int) -> "JointPmf":
        """2-d marginal of a 3-d joint, axes in the requested order."""
        if self.probs.ndim != 3:
            raise ValueError("pair_marginal requires a 3-d joint")
        drop = ({0, 1, 2} - {axis_a, axis_b}).pop()
        reduced = self.probs.sum(axis=drop)
        if axis_a > axis_b:
            reduced = reduced.T
        return JointPmf(reduced)


ProbsLike = Pmf | CondPmf | JointPmf | np.ndarray


def as_probs(p: ProbsLike) -> np.ndarray:
    """Underlying probability array of any distribution-like object."""
    if isinstance(p, (Pmf, JointPmf)):
        return p.probs
    if isinstance(p, CondPmf):
        return p.rows
    return np.asarray(p, dtype=np.float64)


def _check_sequence(seq: np.ndarray, size: int, name: str) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim < 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty symbol sequence")
    if arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"{name} contains symbols outside 0..{size - 1}")
    return arr


def joint_type(x_seq, y_seq, sx: int, sy: int) -> np.ndarray:
    """Empirical joint type of (x_seq, y_seq) over the alphabets 0..sx-1 and
    0..sy-1, as its int64 (sx, sy) count table: cell (a, b) holds
    #{i : (x_i, y_i) = (a, b)}; the type itself is the table over n.

    The sequences may carry leading axes, which broadcast against each
    other; the result then holds one table per pair, shape (..., sx, sy),
    all counted by one bincount.
    """
    x = _check_sequence(x_seq, sx, "x_seq")
    y = _check_sequence(y_seq, sy, "y_seq")
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"sequence lengths differ: {x.shape[-1]} vs {y.shape[-1]}")
    cell = x * sy + y
    rows = cell.reshape(-1, cell.shape[-1])
    cells = sx * sy
    flat = np.arange(0, rows.shape[0] * cells, cells)[:, None] + rows
    return np.bincount(flat.reshape(-1), minlength=rows.shape[0] * cells) \
        .reshape(*cell.shape[:-1], sx, sy)


def tv_distance(p: ProbsLike, q: ProbsLike) -> float | np.ndarray:
    """Total variation: half the L1 distance between two PMFs.

    Summed with math.fsum, so the result is the correctly rounded value of
    the term sum regardless of cell count or memory layout.  p may carry
    leading axes over q's shape; the result is then an array over them,
    each entry summed alone exactly as a single p would be.
    """
    a = as_probs(p)
    b = as_probs(q)
    if a.shape[a.ndim - b.ndim:] != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    terms = np.abs((a - b).reshape(-1, b.size)).tolist()
    if a.ndim == b.ndim:
        return 0.5 * math.fsum(terms[0])
    return np.array([0.5 * math.fsum(row) for row in terms]).reshape(a.shape[:a.ndim - b.ndim])


def entropy(p: ProbsLike) -> float:
    """Shannon entropy in nats, with 0 ln 0 == 0."""
    arr = as_probs(p).reshape(-1)
    support = arr[arr > ZERO_TOL]
    return float(-np.sum(support * np.log(support)))


def _information(probs: np.ndarray, num: np.ndarray, den: np.ndarray,
                 ndim: int) -> float | np.ndarray:
    """Sum of p ln(num / den) over each table's last `ndim` axes, skipping
    cells with p <= ZERO_TOL, floored at 0; a float for one table, an array
    over the leading axes for a stack."""
    mask = probs > ZERO_TOL
    terms = np.zeros_like(probs)
    np.divide(num, den, out=terms, where=mask)
    np.log(terms, out=terms, where=mask)
    terms *= probs
    lead = probs.shape[:probs.ndim - ndim]
    total = np.maximum(terms.reshape(*lead, -1).sum(axis=-1), 0.0)
    return float(total) if not lead else total


def mutual_information(j: JointPmf | np.ndarray) -> float | np.ndarray:
    """I(X;Y) in nats for a 2-d joint law.

    j may carry leading axes; the result is then an array over them, each
    entry equal to what its table alone gives.
    """
    probs = as_probs(j)
    if probs.ndim < 2:
        raise ValueError("mutual_information requires a 2-d joint")
    px = probs.sum(axis=-1)
    py = probs.sum(axis=-2)
    return _information(probs, probs, px[..., :, None] * py[..., None, :], 2)


def conditional_mutual_information(t: JointPmf | np.ndarray) -> float | np.ndarray:
    """I(A;B|X) in nats for a 3-d joint law with axes (X, A, B).

    t may carry leading axes, as in mutual_information.
    """
    probs = as_probs(t)
    if probs.ndim < 3:
        raise ValueError("conditional_mutual_information requires a 3-d joint")
    p_x = probs.sum(axis=(-2, -1))
    p_xa = probs.sum(axis=-1)
    p_xb = probs.sum(axis=-2)
    # sum p(x,a,b) ln[ p(x,a,b) p(x) / (p(x,a) p(x,b)) ] over the support
    return _information(probs, probs * p_x[..., None, None],
                        p_xa[..., :, None] * p_xb[..., None, :], 3)


def compose_markov(p0: Pmf, chan1: CondPmf, chan2: CondPmf) -> JointPmf:
    """Three-way joint p(x, a, b) = p0(x) chan1(a|x) chan2(b|a).

    The middle variable separates the endpoints, so the output always carries
    the chain structure x - a - b.
    """
    if chan1.in_size != p0.size:
        raise ValueError("chan1 input alphabet must match p0")
    if chan2.in_size != chan1.out_size:
        raise ValueError("chan2 input alphabet must match chan1 output")
    tensor = np.einsum("x,xa,ab->xab", p0.probs, chan1.rows, chan2.rows)
    return JointPmf(tensor)
