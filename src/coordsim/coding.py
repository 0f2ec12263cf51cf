"""Random-codebook coordination codes.

Two constructions share the machinery here:

  * the direct scheme: each agent owns an i.i.d. codebook of
    floor(e^{n(R_l + eps_l)}) sequences drawn from the output marginal, finds
    the first codeword jointly typical with its observation, and the decoder
    emits the codeword of the first successful agent;

  * the binned scheme: each agent owns floor(e^{n(R + eps)}) bins holding
    ceil(e^{n(R' - eps0)}) codewords each, finds the first typical (bin, word)
    pair but transmits only the bin number, and the decoder searches for the
    unique word tuple (together with some action sequence) that makes the
    stacked length-nL pair jointly typical.

Codebooks are lazy: a codeword is a pure function of
(seed, agent, bin, word, position), so arbitrarily large books cost nothing
until scanned.  A scanned prefix is generated once and kept on its
CodebookSpec (up to _PREFIX_CAP_BYTES), so later scans of the same book read
it instead of regenerating it.  Every trial receives exactly one error-case
label:

    A    some (action, observation) pair is not eps'-typical, eps' = eps/(2|X|)
    B    encoder failure on the non-A path (including scan-budget stops)
    Ca   binned decoder finds no consistent word tuple
    Cb   binned decoder finds more than one
    D    everything succeeded but the final (action, output) pair is atypical
    none success
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import mpmath
import numpy as np

from . import rng
from .probkit import JointPmf, Pmf, joint_type, tv_distance
from .source import SourceConfig, draw_actions
from .typicality import count_bounds, counts_typical, is_strongly_typical

CODEBOOK_STREAM = 2
MAX_TOTAL_CODEWORDS = 2**48

_SCAN_BATCH_START = 64
_SCAN_BATCH_MAX = 8192

# bytes of scanned prefix one CodebookSpec keeps; scans reaching past it
# generate the rest of their codewords on the fly
_PREFIX_CAP_BYTES = 16 * 2**20


class DecoderBudgetExceeded(RuntimeError):
    """The exhaustive joint decoder would exceed its configured search size.

    Distinct from a modeled decoding error: it means the instance is too
    large to decode faithfully, not that the code failed.
    """


class ErrorCase(str, Enum):
    NONE = "none"
    A = "A"
    B = "B"
    CA = "Ca"
    CB = "Cb"
    D = "D"


def _floor_exp(x: float) -> int:
    with mpmath.workdps(40):
        return int(mpmath.floor(mpmath.exp(x)))


def _ceil_exp(x: float) -> int:
    with mpmath.workdps(40):
        return int(mpmath.ceil(mpmath.exp(x)))


@dataclass(frozen=True)
class CodebookSpec:
    """Lazy random codebook: bins x words-per-bin sequences i.i.d. from p_y.

    A direct-scheme book is the degenerate case words_per_bin == 1.  The
    prefix an encoder has scanned is kept on the instance (see _rows); it
    is not a field, so equality and repr ignore it.
    """

    n: int
    p_y: Pmf
    seed: int
    agent_id: int
    num_bins: int
    words_per_bin: int
    log_bins: float
    log_words: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")
        if self.num_bins < 1 or self.words_per_bin < 1:
            raise ValueError("codebook must hold at least one codeword")
        if self.num_bins * self.words_per_bin > MAX_TOTAL_CODEWORDS:
            raise ValueError(
                f"codebook of {self.num_bins * self.words_per_bin} codewords exceeds "
                f"the {MAX_TOTAL_CODEWORDS} index cap; lower the rate, slack, or n")

    @property
    def num_codewords(self) -> int:
        return self.num_bins * self.words_per_bin

    @property
    def log_size(self) -> float:
        return self.log_bins + self.log_words

    @classmethod
    def direct(cls, n: int, rate: float, slack: float, p_y: Pmf,
               seed: int, agent_id: int) -> "CodebookSpec":
        log_size = n * (rate + slack)
        num = _floor_exp(log_size)
        if num < 1:
            raise ValueError("floor(e^{n(R+eps)}) is empty; increase rate, slack, or n")
        return cls(n=n, p_y=p_y, seed=seed, agent_id=agent_id,
                   num_bins=num, words_per_bin=1, log_bins=log_size, log_words=0.0)

    @classmethod
    def binned(cls, n: int, rate_bin: float, slack_bin: float,
               rate_word: float, slack_word: float, p_y: Pmf,
               seed: int, agent_id: int) -> "CodebookSpec":
        log_bins = n * (rate_bin + slack_bin)
        log_words = n * (rate_word - slack_word)
        bins = _floor_exp(log_bins)
        if bins < 1:
            raise ValueError("floor(e^{n(R+eps)}) bins is empty; increase rate, slack, or n")
        words = _ceil_exp(log_words)
        return cls(n=n, p_y=p_y, seed=seed, agent_id=agent_id,
                   num_bins=bins, words_per_bin=words,
                   log_bins=log_bins, log_words=log_words)

    def _rows(self, start: int, stop: int, reach: int) -> np.ndarray:
        """Codewords at flat indices start..stop-1, as rows of the smallest
        unsigned dtype that holds |Y| - 1.

        Rows come from a prefix store that grows geometrically, by calling
        codeword_block on the missing indices only, up to `reach` (how far
        the calling scan may go) and _PREFIX_CAP_BYTES; rows past the store
        are generated on the fly.  Codewords are pure functions of their
        index, so stored and regenerated rows are bit-identical.
        """
        dtype = np.min_scalar_type(self.p_y.size - 1)
        store = self.__dict__.get("_prefix")
        if store is None:
            store = np.empty((0, self.n), dtype=dtype)
        cap = min(reach, _PREFIX_CAP_BYTES // (self.n * dtype.itemsize))
        have = len(store)
        if stop > have and have < cap:
            grown = np.empty((min(max(stop, 2 * have), cap), self.n), dtype=dtype)
            grown[:have] = store
            grown[have:] = codeword_block(self, np.arange(have, len(grown), dtype=np.int64))
            grown.setflags(write=False)
            object.__setattr__(self, "_prefix", grown)
            store = grown
        if stop <= len(store):
            return store[start:stop]
        tail = codeword_block(self, np.arange(max(start, len(store)), stop, dtype=np.int64))
        return np.concatenate([store[start:stop], tail.astype(dtype)])

    def _word(self, flat: int) -> np.ndarray:
        """The codeword at one flat index as int64: read from the prefix
        store when the store holds it, else generated alone (a reach of 0
        never grows the store)."""
        return self._rows(flat, flat + 1, 0)[0].astype(np.int64)


def _codebook_key(spec: CodebookSpec) -> np.uint64:
    return rng.derive_key(spec.seed, CODEBOOK_STREAM, spec.agent_id)


def codeword_block(spec: CodebookSpec, flat_indices: np.ndarray) -> np.ndarray:
    """Generate the codewords at the given flat indices (bin * words + word).

    Symbols are i.i.d. from p_y across fresh indices and bit-identical on
    replay; nothing is cached or materialized beyond the requested block
    (encoder scans keep their prefix through CodebookSpec._rows).
    """
    flat = np.asarray(flat_indices, dtype=np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= spec.num_codewords):
        raise IndexError("codeword index out of range")
    bins = (flat // spec.words_per_bin).astype(np.uint64)
    words = (flat % spec.words_per_bin).astype(np.uint64)
    key = _codebook_key(spec)
    h = rng.fold(rng.fold(key, bins), words)
    positions = np.arange(spec.n, dtype=np.uint64)
    state = rng.fold(h[:, None], positions[None, :])
    u = (state >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    # inverse CDF: the number of cdf entries <= u (searchsorted 'right'); the
    # last entry, 1.0, exceeds every u
    symbols = np.zeros(u.shape, dtype=np.int64)
    for edge in rng.right_closed_cdf(spec.p_y.probs)[:-1]:
        symbols += u >= edge
    return symbols


class _SchemeConfig:
    """Typicality tolerance and design triple (action, observation, output)
    shared by both schemes, with the marginals their trials read."""

    # each subclass declares these as its last dataclass fields, which keeps
    # its positional constructor order
    epsilon: float
    triple: JointPmf

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.triple.probs.ndim != 3:
            raise ValueError("design triple must be 3-dimensional")

    @cached_property
    def pair_obs_out(self) -> JointPmf:
        return self.triple.pair_marginal(1, 2)

    @cached_property
    def pair_src_obs(self) -> JointPmf:
        return self.triple.pair_marginal(0, 1)

    @cached_property
    def pair_src_out(self) -> JointPmf:
        return self.triple.pair_marginal(0, 2)

    @cached_property
    def p_y(self) -> Pmf:
        return self.triple.marginal(2)

    @cached_property
    def p_x(self) -> Pmf:
        return self.triple.marginal(0)


@dataclass(frozen=True)
class DirectSchemeConfig(_SchemeConfig):
    """Per-agent rates and slacks, typicality tolerance, and the design
    triple (action, observation, output) the code is built for."""

    rates: tuple[float, ...]
    slacks: tuple[float, ...]
    epsilon: float
    triple: JointPmf

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "slacks", tuple(float(s) for s in self.slacks))
        if len(self.rates) != len(self.slacks):
            raise ValueError("need one slack per rate")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be >= 0")
        super().__post_init__()

    @property
    def num_agents(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class BinnedSchemeConfig(_SchemeConfig):
    """Common per-agent bin/word rates for the joint-decoding scheme."""

    rate_bin: float
    slack_bin: float
    rate_word: float
    slack_word: float
    epsilon: float
    triple: JointPmf

    def __post_init__(self):
        if self.rate_bin < 0 or self.rate_word < 0:
            raise ValueError("rates must be >= 0")
        super().__post_init__()


@dataclass(frozen=True)
class EncodeResult:
    """Outcome of one agent's codebook scan."""

    w: int | None
    v: int | None
    found: bool
    search_cost: int
    budget_hit: bool = False

    def __post_init__(self):
        if self.found and (self.w is None or self.w < 0):
            raise ValueError("found results must carry a valid index")


@dataclass(frozen=True)
class DecoderLimits:
    """Hard caps on the joint decoder's instance size.

    The caps price the exhaustive search over (action sequence, word tuple)
    pairs even though decode_binned no longer enumerates either:
    max_enumeration bounds |X|^n, and max_candidates bounds the number of
    x-marginally typical action sequences times words^L.  An instance past
    any cap raises DecoderBudgetExceeded.
    """

    max_n: int = 12
    max_agents: int = 4
    max_enumeration: int = 1_048_576
    max_candidates: int = 2_000_000


@dataclass(frozen=True)
class BinnedDecodeResult:
    """Joint-decoder outcome: how many word tuples matched, which one (if
    unique), and the emitted sequence (fallback when not unique)."""

    matches_found: int
    v_tuple: tuple[int, ...] | None
    y_seq: np.ndarray


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte Carlo trial: emitted sequence, error label, realized TV."""

    y_seq: np.ndarray
    error_case: ErrorCase
    tv_realized: float
    budget_hit: bool = False
    search_cost: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tv_realized <= 1.0:
            raise ValueError("tv_realized must lie in [0, 1]")


@dataclass(frozen=True)
class TrialInternals:
    """Facts the error classifier needs; collected by the trial runners."""

    scheme: str
    num_agents: int
    source_pairs_typical: bool
    encoders_succeeded: int
    output_typical: bool
    decoder_matches: int | None = None


def classify_error(internals: TrialInternals) -> ErrorCase:
    """Assign the single error-case label; labels are disjoint and cover
    every trial."""
    if not internals.source_pairs_typical:
        return ErrorCase.A
    if internals.scheme == "direct":
        if internals.encoders_succeeded == 0:
            return ErrorCase.B
    elif internals.scheme == "binned":
        if internals.encoders_succeeded < internals.num_agents:
            return ErrorCase.B
        if internals.decoder_matches == 0:
            return ErrorCase.CA
        if internals.decoder_matches is not None and internals.decoder_matches > 1:
            return ErrorCase.CB
    else:
        raise ValueError(f"unknown scheme {internals.scheme!r}")
    return ErrorCase.NONE if internals.output_typical else ErrorCase.D


def _one_hot(x, sx: int):
    """The one-hot of the sequence x as sx rows of length n, and the type of
    x as an (sx, 1) column, in the float dtype _cell_counts sums in: sums of
    0/1 products are exact in float32 while n < 2**24, and in float64 up to
    2**53."""
    ftype = np.float32 if x.shape[-1] < 2**24 else np.float64
    hot = (x == np.arange(sx)[:, None]).astype(ftype)
    return hot, hot.sum(axis=1, keepdims=True)


def _cell_counts(x_hot, x_type, y, sy: int) -> np.ndarray:
    """Cell counts of the pairs (x, y_k) of one sequence x, given by
    _one_hot, against each row y_k of a batch, laid out [b, a, k]: the
    number of positions where y_k is b and x is a.  Shape (sy, sx, batch),
    exact integers in x_hot's dtype.

    One stacked matmul counts every output symbol but the last, whose
    counts are the type of x minus the others.
    """
    out = np.empty((sy, x_hot.shape[0], len(y)), dtype=x_hot.dtype)
    y_hot = (y == np.arange(sy - 1, dtype=y.dtype)[:, None, None]).astype(x_hot.dtype)
    np.matmul(x_hot, y_hot.transpose(0, 2, 1), out=out[:-1])
    np.subtract(x_type, out[:-1].sum(axis=0), out=out[-1])
    return out


def encode_direct(xhat, cfg: _SchemeConfig, spec: CodebookSpec,
                  budget: int | None = None) -> EncodeResult:
    """Scan the agent's codebook in index order ((bin, word) pairs in
    row-major order) for the first codeword jointly typical with the
    observation; failure is a modeled outcome.  A binned encoder transmits
    only the bin number.

    Batched, yet independent of the batching: hits resolve to the smallest
    index, budget stops included.  Codewords are read from the spec's prefix
    store, which the scan grows to at most min(num_codewords, budget) and a
    fixed byte cap, so repeated scans of one book generate each stored
    codeword once.  The one-hot of the observation and its type are built
    once per call, and each batch's count tables are tested against the
    bounds as one flat (cells, batch) comparison.
    """
    xhat = np.asarray(xhat, dtype=np.int64)
    pair = cfg.pair_obs_out
    sx, sy = pair.shape
    x_hot, x_type = _one_hot(xhat, sx)
    # one bound per row of the flat (cells, batch) count table
    lo, hi = (bound.T.reshape(-1, 1).astype(x_type.dtype)
              for bound in count_bounds(pair, spec.n, cfg.epsilon))
    limit = spec.num_codewords if budget is None else min(spec.num_codewords, budget)
    pos = 0
    batch = _SCAN_BATCH_START
    while pos < limit:
        take = min(batch, limit - pos)
        counts = _cell_counts(x_hot, x_type, spec._rows(pos, pos + take, limit), sy)
        counts = counts.reshape(sx * sy, take)
        hits = np.logical_and.reduce((counts >= lo) & (counts <= hi)).nonzero()[0]
        if hits.size:
            flat = pos + int(hits[0])
            return EncodeResult(w=flat // spec.words_per_bin,
                                v=flat % spec.words_per_bin,
                                found=True, search_cost=flat + 1)
        pos += take
        batch = min(batch * 2, _SCAN_BATCH_MAX)
    return EncodeResult(w=None, v=None, found=False, search_cost=limit,
                        budget_hit=limit < spec.num_codewords)


encode_binned = encode_direct


def decode_direct(results, specs) -> np.ndarray:
    """Emit the codeword of the lowest-indexed successful agent; if every
    encoder failed, fall back to agent 0's first codeword.

    The word is read, as int64, from the prefix store the agent's scan has
    just read it from.
    """
    for spec, res in zip(specs, results):
        if res.found:
            return spec._word(res.w * spec.words_per_bin + (res.v or 0))
    return specs[0]._word(0)


@lru_cache(maxsize=256)
def _compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of `parts` nonnegative integers summing to `total`, in
    lexicographic order; shape (count, parts), read-only."""
    heads = [h for h in itertools.product(range(total + 1), repeat=parts - 1)
             if sum(h) <= total]
    out = np.array([h + (total - sum(h),) for h in heads], dtype=np.int64)
    out.setflags(write=False)
    return out


def _first_unique(rows, radices) -> np.ndarray:
    """Indices of the first occurrence of each distinct column of the
    nonnegative integer rows (equal-length 1-d arrays), row f staying below
    radices[f].

    Rows are packed mixed-radix into as few int64 keys as hold them, so the
    packing cannot overflow however many rows there are.
    """
    keys, key, span = [], np.int64(0), 1
    for row, radix in zip(rows, radices):
        if span * radix > 2**62:
            keys.append(key)
            key, span = np.int64(0), 1
        key = key * radix + row
        span *= radix
    keys.append(key)
    order = np.lexsort(keys[::-1])
    first = np.zeros(order.size, dtype=bool)
    first[0] = True
    for k in keys:
        ranked = k[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    return order[first]


def _feasible_histograms(hists: np.ndarray, classes: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray, row_lo: np.ndarray, row_hi: np.ndarray) -> np.ndarray:
    """Which column-class histograms admit an action assignment that puts
    the stacked count table inside [lo, hi] and its row sums inside
    [row_lo, row_hi].

    hists[h, j] positions carry the column class classes[j] (per output
    symbol, how many agents emit it).  Giving m[j, a] of those positions
    action a adds m[j, a] * classes[j] to row a of the table and
    m[j, a] * L to its row sum.  A dynamic program over all classes but the
    last carries every reachable (histogram, table) state, drops states
    already above a bound (counts only grow) and merges duplicates.  For the
    last class each bound confines one m[a] to an interval, so a state is
    feasible iff those intervals admit the class's count as a sum.  The
    rarest classes go first, which keeps the state count small and leaves
    the most common class to the closed-form step.
    """
    sx, sy = lo.shape
    order = np.argsort(hists.sum(axis=0), kind="stable")
    hists, classes = hists[:, order], classes[order]
    # a state is one column of an (sx, sy + 1) table: row a holds the
    # stacked counts of action a, then their sum; coef[j] is what one
    # position of class j adds to the row of the action it receives
    coef = np.column_stack([classes, classes.sum(axis=1)])
    owner = np.arange(hists.shape[0])
    # entries stay below 2nL: a bound (at most nL) plus one step (at most nL)
    n_l = int(hists[0].sum()) * int(coef[0, -1])
    dtype = np.int16 if 2 * n_l < 2**15 else np.int64
    states = np.zeros((sx, sy + 1, owner.size), dtype=dtype)
    low = np.column_stack([lo, row_lo]).astype(dtype)[:, :, None]
    high = np.column_stack([hi, row_hi]).astype(dtype)[:, :, None]
    # the row sums follow from the counts, so only the counts enter the key
    radices = [owner.size] + [int(h) + 1 for h in hi.reshape(-1)]
    for j in range(coef.shape[0] - 1):
        need = hists[owner, j]
        grown_owner, grown = [], []
        for t in np.unique(need):
            rows = np.flatnonzero(need == t)
            split = _compositions(int(t), sx)
            step = (split.T[:, None, :] * coef[j][None, :, None]).astype(dtype)
            grown.append((states[:, :, rows, None] + step[:, :, None, :]).reshape(sx, sy + 1, -1))
            grown_owner.append(np.repeat(owner[rows], split.shape[0]))
        states, owner = np.concatenate(grown, axis=2), np.concatenate(grown_owner)
        keep = np.flatnonzero(np.all(states <= high, axis=(0, 1)))
        if not keep.size:
            return np.zeros(hists.shape[0], dtype=bool)
        keep = keep[_first_unique([owner[keep], *states[:, :sy, keep].reshape(sx * sy, -1)],
                                  radices)]
        states, owner = states[:, :, keep], owner[keep]

    # the last class: m[a] * coef must fit between the state and the bounds
    total = hists[owner, -1]
    moving = coef[-1] > 0
    fixed = states[:, ~moving]
    ok = np.all((fixed >= low[:, ~moving]) & (fixed <= high[:, ~moving]), axis=(0, 1))
    free, step = states[:, moving], coef[-1][moving].astype(dtype)[None, :, None]
    m_lo = np.maximum(-((free - low[:, moving]) // step).min(axis=1), 0)
    m_hi = np.minimum(((high[:, moving] - free) // step).min(axis=1), total)
    ok &= (np.all(m_lo <= m_hi, axis=0) & (m_lo.sum(axis=0, dtype=np.int64) <= total)
           & (m_hi.sum(axis=0) >= total))
    feasible = np.zeros(hists.shape[0], dtype=bool)
    feasible[owner[ok]] = True
    return feasible


def decode_binned(bin_indices, cfg: BinnedSchemeConfig, specs,
                  limits: DecoderLimits | None = None) -> BinnedDecodeResult:
    """Joint decoding from the received bin numbers.

    Finds every word tuple (one word per agent's bin) for which some action
    sequence makes the stacked length-nL pair jointly typical and marginally
    typical for the design action law; the tuple must be unique, the
    witnessing action sequence need not be.  (Stacked joint typicality
    implies that marginal typicality, so the second test only repeats the
    first in exact arithmetic.)

    No action sequence is enumerated: the stacked counts depend on the
    sequence only through how many positions of each column class (how many
    agents emit each output symbol there) receive each action, so a tuple
    is decided by its class histogram, and one dynamic program decides all
    histograms at once (see _feasible_histograms).

    Raises DecoderBudgetExceeded when the instance exceeds the configured
    caps, which still price the search as the exhaustive one it replaces.
    """
    limits = limits or DecoderLimits()
    bins = [int(w) for w in bin_indices]
    num_agents = len(bins)
    n = specs[0].n
    words = specs[0].words_per_bin
    if any(s.n != n or s.words_per_bin != words for s in specs):
        raise ValueError("agent codebooks must share blocklength and bin size")
    sx, sy = cfg.pair_src_out.shape

    if n > limits.max_n:
        raise DecoderBudgetExceeded(f"blocklength {n} exceeds decoder cap {limits.max_n}")
    if num_agents > limits.max_agents:
        raise DecoderBudgetExceeded(f"{num_agents} agents exceed decoder cap {limits.max_agents}")
    if sx**n > limits.max_enumeration:
        raise DecoderBudgetExceeded(
            f"action enumeration {sx}^{n} exceeds cap {limits.max_enumeration}")

    # the number of x-marginally typical sequences, summed over their types
    lo_x, hi_x = count_bounds(cfg.p_x, n, cfg.epsilon)
    x_types = _compositions(n, sx)
    x_types = x_types[np.all((x_types >= lo_x) & (x_types <= hi_x), axis=1)]
    typical_x = sum(math.factorial(n) // math.prod(math.factorial(int(c)) for c in t)
                    for t in x_types)
    search_size = typical_x * words**num_agents
    if search_size > limits.max_candidates:
        raise DecoderBudgetExceeded(
            f"search over {search_size} (action, word-tuple) pairs exceeds cap "
            f"{limits.max_candidates}")

    if typical_x == 0:
        return BinnedDecodeResult(matches_found=0, v_tuple=None,
                                  y_seq=specs[0]._word(bins[0] * words))

    # the column class of every (word tuple, position), one agent at a time:
    # a class is a count vector over output symbols, and an agent emitting
    # symbol b moves each class to the one with count b raised; word tuples
    # run in lexicographic order, agent 0 slowest
    books = [codeword_block(spec, w * words + np.arange(words, dtype=np.int64))
             for spec, w in zip(specs, bins)]
    classes = np.zeros((1, sy), dtype=np.int64)
    column_class = np.zeros((1, n), dtype=np.int64)
    for book in books:
        classes, moved = np.unique((classes[:, None] + np.eye(sy, dtype=np.int64)).reshape(-1, sy),
                                   axis=0, return_inverse=True)
        column_class = moved.reshape(-1)[column_class[:, None] * sy + book].reshape(-1, n)
    present, column_class = np.unique(column_class, return_inverse=True)
    num_tuples = words**num_agents
    hist = np.bincount((np.arange(num_tuples)[:, None] * present.size
                        + column_class.reshape(num_tuples, n)).reshape(-1),
                       minlength=num_tuples * present.size).reshape(num_tuples, -1)
    hists, tuple_hist = np.unique(hist, axis=0, return_inverse=True)

    lo, hi = count_bounds(cfg.pair_src_out, n * num_agents, cfg.epsilon)
    feasible = _feasible_histograms(hists, classes[present], lo, hi,
                                    num_agents * lo_x, num_agents * hi_x)
    matches = np.flatnonzero(feasible[tuple_hist.reshape(-1)])
    if matches.size == 1:
        chosen = tuple(int(v) for v in np.unravel_index(matches[0], (words,) * num_agents))
        return BinnedDecodeResult(matches_found=1, v_tuple=chosen, y_seq=books[0][chosen[0]])
    return BinnedDecodeResult(matches_found=int(matches.size), v_tuple=None, y_seq=books[0][0])


def direct_specs(cfg: DirectSchemeConfig, source_cfg: SourceConfig, seed: int):
    """One codebook per agent for the direct scheme."""
    return tuple(
        CodebookSpec.direct(source_cfg.n, cfg.rates[l], cfg.slacks[l], cfg.p_y, seed, l)
        for l in range(cfg.num_agents))


def binned_specs(cfg: BinnedSchemeConfig, source_cfg: SourceConfig, seed: int):
    """One binned codebook per agent, common rates."""
    return tuple(
        CodebookSpec.binned(source_cfg.n, cfg.rate_bin, cfg.slack_bin,
                            cfg.rate_word, cfg.slack_word, cfg.p_y, seed, l)
        for l in range(source_cfg.L))


def _run_trial(scheme: str, decode, source_cfg: SourceConfig, cfg, specs,
               seed: int, trial_index: int, budget: int | None,
               report_target: JointPmf | None) -> TrialOutcome:
    """Draw, encode at every agent, decode, and label one trial.

    `decode(results)` is the scheme's decoding step; it returns the emitted
    sequence and the decoder's match count (None when it does not count).
    """
    draw = draw_actions(source_cfg, seed, trial_index)
    eps_prime = cfg.epsilon / (2 * source_cfg.p0.size)
    pairs_ok = all(is_strongly_typical(draw.x_seq, xhat, cfg.pair_src_obs, eps_prime)
                   for xhat in draw.xhat_seqs)

    encode = encode_direct if scheme == "direct" else encode_binned
    results = [encode(draw.xhat_seqs[l], cfg, spec, budget)
               for l, spec in enumerate(specs)]
    y, matches = decode(results)

    # one (action, output) count table serves the output test and the TV
    pair = cfg.pair_src_out
    target = report_target if report_target is not None else pair
    if target.shape != pair.shape:
        raise ValueError("report_target shape must match the design pair")
    out_type = joint_type(draw.x_seq, y, *pair.shape)
    output_typical = counts_typical(out_type.counts, pair, source_cfg.n, cfg.epsilon)

    case = classify_error(TrialInternals(
        scheme=scheme, num_agents=len(specs),
        source_pairs_typical=pairs_ok,
        encoders_succeeded=sum(r.found for r in results),
        output_typical=output_typical,
        decoder_matches=matches))
    return TrialOutcome(y_seq=y, error_case=case, tv_realized=tv_distance(out_type, target),
                        budget_hit=any(r.budget_hit for r in results),
                        search_cost=sum(r.search_cost for r in results))


def run_direct_trial(source_cfg: SourceConfig, cfg: DirectSchemeConfig, specs,
                     seed: int, trial_index: int, budget: int | None = None,
                     report_target: JointPmf | None = None) -> TrialOutcome:
    """One direct-scheme trial.

    tv_realized compares the (action, output) joint type against
    report_target (the coordination target), which defaults to the scheme's
    own design pair.
    """
    def decode(results):
        return decode_direct(results, specs), None

    return _run_trial("direct", decode, source_cfg, cfg, specs, seed, trial_index,
                      budget, report_target)


def run_binned_trial(source_cfg: SourceConfig, cfg: BinnedSchemeConfig, specs,
                     seed: int, trial_index: int, budget: int | None = None,
                     limits: DecoderLimits | None = None,
                     report_target: JointPmf | None = None) -> TrialOutcome:
    """One binned-scheme trial: joint decoding runs only when every agent's
    encoder succeeded."""
    def decode(results):
        if not all(r.found for r in results):
            return specs[0]._word(0), None
        out = decode_binned([r.w for r in results], cfg, specs, limits)
        return out.y_seq, out.matches_found

    return _run_trial("binned", decode, source_cfg, cfg, specs, seed, trial_index,
                      budget, report_target)

