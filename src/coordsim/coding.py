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
it instead of regenerating it.  The store keeps each codeword as |Y| - 1 bit
planes (plane s marks the positions holding symbol s), and the scan counts a
batch's joint types by popcounts of those planes ANDed with the
observation's.  Every trial receives exactly one error-case label:

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
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from . import rng
from .probkit import JointPmf, Pmf, joint_type, tv_distance
from .source import SourceConfig, draw_actions
from .typicality import count_bounds, counts_typical, is_strongly_typical

CODEBOOK_STREAM = 2
MAX_TOTAL_CODEWORDS = 2**48

_SCAN_BATCH_START = 64
_SCAN_BATCH_MAX = 8192

# symbols (trials * (L + 1) * n) one chunk of a trial block draws; it caps
# the memory a block's arrays take, whatever its trial count
_CHUNK_POSITIONS = 2**15

# bytes of scanned prefix one CodebookSpec keeps, at (|Y| - 1) * 8 * ceil(n/64)
# bytes a codeword; scans reaching past it generate the rest of their
# codewords on the fly
_PREFIX_CAP_BYTES = 16 * 2**20


# the most word-tuple positions (words^L * n), and the most dynamic-program
# states one step may grow, that decode_binned takes on; a decode near
# either bound peaks at about 0.5 GB
DECODE_WORK_CAP = 2**22


class DecoderBudgetExceeded(RuntimeError):
    """The joint decoder's work on this instance would pass DECODE_WORK_CAP.

    Distinct from a modeled decoding error: it means the instance is too
    large to decode faithfully, not that the code failed.  The work counts
    depend only on the decoder's inputs, so a refusal replays exactly.
    A trial runner sets trial_index to the trial whose decode it refused.
    """

    trial_index: int | None = None


class ErrorCase(str, Enum):
    NONE = "none"
    A = "A"
    B = "B"
    CA = "Ca"
    CB = "Cb"
    D = "D"


# an exponent past this gives more than MAX_TOTAL_CODEWORDS codewords; it is
# refused before e^x is formed (e^{1e6} has 434,295 digits)
_MAX_EXPONENT = math.log(MAX_TOTAL_CODEWORDS) + 1.0


def _exp(x: float) -> Decimal:
    """e^x for a codebook size; a count plainly past the index cap is refused."""
    if x > _MAX_EXPONENT:
        raise ValueError(
            f"codebook of about e^{x:.6g} codewords exceeds the "
            f"{MAX_TOTAL_CODEWORDS} index cap; lower the rate, slack, or n")
    # decimal's exp is correctly rounded.  60 digits resolve e^x next to any
    # integer k >= 2 for a double x; next to 1, e^x - 1 is about x, so a tiny
    # |x| adds the digits of its own magnitude.
    exponent = Decimal(x)
    return Context(prec=60 + max(0, -exponent.adjusted())).exp(exponent)


def _floor_exp(x: float) -> int:
    return int(_exp(x).to_integral_value(ROUND_FLOOR))


def _ceil_exp(x: float) -> int:
    # e^x > 0, so a result that underflows to 0 still has ceiling 1
    return max(1, int(_exp(x).to_integral_value(ROUND_CEILING)))


@dataclass(frozen=True)
class CodebookSpec:
    """Lazy random codebook: bins x words-per-bin sequences i.i.d. from p_y.

    A direct-scheme book is the degenerate case words_per_bin == 1.  The
    prefix an encoder has scanned is kept on the instance (see _planes); it
    is not a field, so equality and repr ignore it.
    """

    n: int
    p_y: Pmf
    seed: int
    agent_id: int
    num_bins: int
    words_per_bin: int

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

    @classmethod
    def direct(cls, n: int, rate: float, slack: float, p_y: Pmf,
               seed: int, agent_id: int) -> "CodebookSpec":
        num = _floor_exp(n * (rate + slack))
        if num < 1:
            raise ValueError("floor(e^{n(R+eps)}) is empty; increase rate, slack, or n")
        return cls(n=n, p_y=p_y, seed=seed, agent_id=agent_id,
                   num_bins=num, words_per_bin=1)

    @classmethod
    def binned(cls, n: int, rate_bin: float, slack_bin: float,
               rate_word: float, slack_word: float, p_y: Pmf,
               seed: int, agent_id: int) -> "CodebookSpec":
        bins = _floor_exp(n * (rate_bin + slack_bin))
        if bins < 1:
            raise ValueError("floor(e^{n(R+eps)}) bins is empty; increase rate, slack, or n")
        words = _ceil_exp(n * (rate_word - slack_word))
        return cls(n=n, p_y=p_y, seed=seed, agent_id=agent_id,
                   num_bins=bins, words_per_bin=words)

    def _planes(self, start: int, stop: int, reach: int) -> np.ndarray:
        """Codewords at flat indices start..stop-1 as bit planes (see
        _bit_planes): shape (|Y| - 1, ceil(n/64), stop - start), uint64.

        Planes come from a prefix store that grows geometrically, by calling
        codeword_block on the missing indices only, up to `reach` (how far
        the calling scan may go) and _PREFIX_CAP_BYTES; codewords past the
        store are generated and packed on the fly.  Codewords are pure
        functions of their index, so stored and regenerated planes are
        bit-identical.
        """
        store = self.__dict__.get("_prefix")
        if store is not None and stop <= store.shape[2]:
            return store[:, :, start:stop]
        planes, words = self.p_y.size - 1, -(-self.n // 64)
        if store is None:
            store = np.empty((planes, words, 0), dtype=np.uint64)
        # a book with |Y| = 1 has no planes; its empty codewords count as a byte
        cap = min(reach, _PREFIX_CAP_BYTES // max(1, 8 * planes * words))
        have = store.shape[2]
        if have < cap:
            grown = np.empty((planes, words, min(max(stop, 2 * have), cap)), dtype=np.uint64)
            grown[:, :, :have] = store
            # a batch at a time: growing the store holds no more generated
            # codewords at once than a scan batch does
            for lo in range(have, grown.shape[2], _SCAN_BATCH_MAX):
                hi = min(lo + _SCAN_BATCH_MAX, grown.shape[2])
                grown[:, :, lo:hi] = _bit_planes(
                    codeword_block(self, np.arange(lo, hi, dtype=np.int64)), planes)
            grown.setflags(write=False)
            object.__setattr__(self, "_prefix", grown)
            store = grown
        if stop <= store.shape[2]:
            return store[:, :, start:stop]
        tail = codeword_block(self, np.arange(max(start, store.shape[2]), stop, dtype=np.int64))
        return np.concatenate([store[:, :, start:stop], _bit_planes(tail, planes)], axis=2)

    def _words(self, flat: np.ndarray) -> np.ndarray:
        """The codewords at the given flat indices as int64 rows, shape
        (len(flat), n): those the prefix store holds unpacked in one call,
        the rest generated."""
        store = self.__dict__.get("_prefix")
        held = flat < (0 if store is None else store.shape[2])
        out = np.empty((flat.size, self.n), dtype=np.int64)
        if held.any():
            out[held] = _symbols(store[:, :, flat[held]], self.n)
        if not held.all():
            out[~held] = codeword_block(self, flat[~held])
        return out


def _codebook_key(spec: CodebookSpec) -> np.uint64:
    return rng.derive_key(spec.seed, CODEBOOK_STREAM, spec.agent_id)


def codeword_block(spec: CodebookSpec, flat_indices: np.ndarray) -> np.ndarray:
    """Generate the codewords at the given flat indices (bin * words + word).

    Symbols are i.i.d. from p_y across fresh indices and bit-identical on
    replay; nothing is cached or materialized beyond the requested block
    (encoder scans keep their prefix through CodebookSpec._planes).
    """
    flat = np.asarray(flat_indices, dtype=np.int64)
    if flat.size and (flat.min() < 0 or flat.max() >= spec.num_codewords):
        raise IndexError("codeword index out of range")
    bins = (flat // spec.words_per_bin).astype(np.uint64)
    words = (flat % spec.words_per_bin).astype(np.uint64)
    key = _codebook_key(spec)
    h = rng.fold(rng.fold(key, bins), words)
    u = rng.uniforms(h[:, None], np.arange(spec.n, dtype=np.uint64))
    return rng.categorical(u, rng.right_closed_cdf(spec.p_y.probs))


def _bit_planes(seqs: np.ndarray, planes: int) -> np.ndarray:
    """The first `planes` bit planes of the sequences seqs (shape (k, n)),
    plane-major: shape (planes, ceil(n/64), k), uint64.  Bit i of word w
    of plane s in column j is set iff seqs[j, 64 w + i] == s; padding bits
    are clear."""
    k, n = seqs.shape
    words = -(-n // 64)
    hot = np.zeros((planes, k, 64 * words), dtype=bool)
    np.equal(seqs, np.arange(planes)[:, None, None], out=hot[:, :, :n])
    packed = np.packbits(hot, bitorder="little").view("<u8")
    return packed.reshape(planes, k, words).transpose(0, 2, 1)


def _symbols(planes: np.ndarray, n: int) -> np.ndarray:
    """The length-n sequences whose |Y| - 1 bit planes these are (the
    inverse of _bit_planes over |Y| symbols): shape (k, n), int64.  A
    position set in no plane holds the last symbol, |Y| - 1."""
    last = planes.shape[0]
    bits = np.unpackbits(np.ascontiguousarray(planes.transpose(2, 0, 1), dtype="<u8")
                         .view(np.uint8), axis=2, count=n, bitorder="little")
    return last - np.dot(np.arange(last, 0, -1), bits)


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


def _plane_counts(y_planes, x_planes, x_type) -> np.ndarray:
    """Cell counts of the pairs (x, y_k) of one sequence x against each
    codeword y_k of a batch, laid out [a, b, k] like count_bounds' tables:
    the number of positions where x is a and y_k is b.  Shape
    (|X|, |Y|, batch), int64.

    y_planes are the batch's |Y| - 1 bit planes, x_planes the |X| planes of
    x with a batch axis of 1 and x_type its type as an (|X|, 1) column.  One
    popcount of the planes' intersections counts every output symbol but
    the last, whose counts are the type of x minus the others.
    """
    out = np.empty((len(x_planes), len(y_planes) + 1, y_planes.shape[2]), dtype=np.int64)
    # ufunc reductions, not np.sum: on a 64-codeword batch the wrapper costs
    # as much as the counting
    np.add.reduce(np.bitwise_count(x_planes[:, None] & y_planes), axis=2, out=out[:, :-1])
    np.subtract(x_type, np.add.reduce(out[:, :-1], axis=1), out=out[:, -1])
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
    codeword once.  The bit planes of the observation and its type are
    built once per call, and each batch's count tables are tested against the
    bounds as one flat (cells, batch) comparison.
    """
    xhat = np.asarray(xhat, dtype=np.int64)
    pair = cfg.pair_obs_out
    sx, sy = pair.shape
    if spec.p_y.size != sy:
        raise ValueError(f"codebook alphabet has {spec.p_y.size} symbols but the "
                         f"design pair's output alphabet has {sy}")
    x_planes = _bit_planes(xhat[None], sx)
    x_type = np.bincount(xhat, minlength=sx)[:, None]
    # one bound per row of the flat (cells, batch) count table
    lo, hi = (bound.reshape(-1, 1) for bound in count_bounds(pair, spec.n, cfg.epsilon))
    limit = spec.num_codewords if budget is None else min(spec.num_codewords, budget)
    pos = 0
    batch = _SCAN_BATCH_START
    while pos < limit:
        take = min(batch, limit - pos)
        counts = _plane_counts(spec._planes(pos, pos + take, limit), x_planes, x_type)
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
    """The emitted words of a block of trials, one int64 row per trial.

    results holds, per trial, every agent's EncodeResult.  A trial emits the
    codeword of its lowest-indexed successful agent; if every encoder
    failed, agent 0's first codeword.  Each agent's words are read in one
    unpack from the prefix store its scans have just read them from.
    """
    agent = np.zeros(len(results), dtype=np.int64)
    flat = np.zeros(len(results), dtype=np.int64)
    for t, trial in enumerate(results):
        for l, (spec, res) in enumerate(zip(specs, trial)):
            if res.found:
                agent[t], flat[t] = l, res.w * spec.words_per_bin + (res.v or 0)
                break
    words = np.empty((len(results), specs[0].n), dtype=np.int64)
    for l in sorted(set(agent.tolist())):
        rows = agent == l
        words[rows] = specs[l]._words(flat[rows])
    return words


@lru_cache(maxsize=256)
def _compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of `parts` nonnegative integers summing to `total`, in
    lexicographic order; shape (count, parts), read-only."""
    heads = [h for h in itertools.product(range(total + 1), repeat=parts - 1)
             if sum(h) <= total]
    out = np.array([h + (total - sum(h),) for h in heads], dtype=np.int64)
    out.setflags(write=False)
    return out


def _first_unique(rows, radices) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of the nonnegative integer rows (equal-length
    1-d arrays), row f staying below radices[f], in lexicographic order:
    the index of each one's first occurrence, and for every column the
    position of its value among them (np.unique's return_index and
    return_inverse on the columns).

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
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _feasible_histograms(hists: np.ndarray, classes: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """Which column-class histograms admit an action assignment that puts
    the stacked count table inside [lo, hi].

    hists[h, j] positions carry the column class classes[j] (per output
    symbol, how many agents emit it).  Giving m[j, a] of those positions
    action a adds m[j, a] * classes[j] to row a of the table.  A dynamic
    program over all classes but the last carries every reachable
    (histogram, table) state, drops states already above a bound (counts
    only grow) and merges duplicates.  For the last class each bound
    confines one m[a] to an interval, so a state is feasible iff those
    intervals admit the class's count as a sum.  The rarest classes go
    first, which keeps the state count small and leaves the most common
    class to the closed-form step.

    Raises DecoderBudgetExceeded before a step would grow more than
    DECODE_WORK_CAP states: a state with t positions of the class to place
    grows into one state per composition of t into |X| parts.
    """
    sx, sy = lo.shape
    order = np.argsort(hists.sum(axis=0), kind="stable")
    hists, classes = hists[:, order], classes[order]
    owner = np.arange(hists.shape[0])
    # entries stay below 2nL: a bound (at most nL) plus one step (at most nL)
    n_l = int(hists[0].sum()) * int(classes[0].sum())
    dtype = np.int16 if 2 * n_l < 2**15 else np.int64
    states = np.zeros((sx, sy, owner.size), dtype=dtype)
    low, high = lo.astype(dtype)[:, :, None], hi.astype(dtype)[:, :, None]
    radices = [owner.size] + [int(h) + 1 for h in hi.reshape(-1)]
    for j in range(classes.shape[0] - 1):
        need = hists[owner, j]
        ts, rows_per_t = np.unique(need, return_counts=True)
        grown_size = sum(int(c) * math.comb(int(t) + sx - 1, sx - 1)
                         for t, c in zip(ts, rows_per_t))
        if grown_size > DECODE_WORK_CAP:
            raise DecoderBudgetExceeded(
                f"a decoder step of {grown_size} states exceeds the work bound "
                f"{DECODE_WORK_CAP}")
        grown_owner, grown = [], []
        for t in ts:
            rows = np.flatnonzero(need == t)
            split = _compositions(int(t), sx)
            step = (split.T[:, None, :] * classes[j][None, :, None]).astype(dtype)
            grown.append((states[:, :, rows, None] + step[:, :, None, :]).reshape(sx, sy, -1))
            grown_owner.append(np.repeat(owner[rows], split.shape[0]))
        states, owner = np.concatenate(grown, axis=2), np.concatenate(grown_owner)
        keep = np.flatnonzero(np.all(states <= high, axis=(0, 1)))
        if not keep.size:
            return np.zeros(hists.shape[0], dtype=bool)
        keep = keep[_first_unique([owner[keep], *states[:, :, keep].reshape(sx * sy, -1)],
                                  radices)[0]]
        states, owner = states[:, :, keep], owner[keep]

    # the last class: m[a] * classes[-1] must fit between the state and the bounds
    total = hists[owner, -1]
    moving = classes[-1] > 0
    fixed = states[:, ~moving]
    ok = np.all((fixed >= low[:, ~moving]) & (fixed <= high[:, ~moving]), axis=(0, 1))
    free, step = states[:, moving], classes[-1][moving].astype(dtype)[None, :, None]
    m_lo = np.maximum(-((free - low[:, moving]) // step).min(axis=1), 0)
    m_hi = np.minimum(((high[:, moving] - free) // step).min(axis=1), total)
    ok &= (np.all(m_lo <= m_hi, axis=0) & (m_lo.sum(axis=0, dtype=np.int64) <= total)
           & (m_hi.sum(axis=0) >= total))
    feasible = np.zeros(hists.shape[0], dtype=bool)
    feasible[owner[ok]] = True
    return feasible


def decode_binned(bin_indices, cfg: BinnedSchemeConfig, specs) -> BinnedDecodeResult:
    """Joint decoding from the received bin numbers.

    Finds every word tuple (one word per agent's bin) for which some action
    sequence makes the stacked length-nL pair jointly typical; the tuple
    must be unique, the witnessing action sequence need not be.  The
    result is exactly that of the literal decoder the acceptance checks
    run (verify._oracle_decode).

    No action sequence is enumerated: the stacked counts depend on the
    sequence only through how many positions of each column class (how many
    agents emit each output symbol there) receive each action, so a tuple
    is decided by its class histogram, and one dynamic program decides all
    histograms at once (see _feasible_histograms).

    Raises DecoderBudgetExceeded, before allocating, when the word-tuple
    table (words^L * n positions) or one step of the dynamic program would
    pass DECODE_WORK_CAP.
    """
    bins = [int(w) for w in bin_indices]
    num_agents = len(bins)
    n = specs[0].n
    words = specs[0].words_per_bin
    if any(s.n != n or s.words_per_bin != words for s in specs):
        raise ValueError("agent codebooks must share blocklength and bin size")
    sy = cfg.pair_src_out.shape[1]
    num_tuples = words**num_agents
    if num_tuples * n > DECODE_WORK_CAP:
        raise DecoderBudgetExceeded(
            f"{words}^{num_agents} word tuples of {n} positions exceed the work bound "
            f"{DECODE_WORK_CAP}")

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
    hist = np.bincount((np.arange(num_tuples)[:, None] * present.size
                        + column_class.reshape(num_tuples, n)).reshape(-1),
                       minlength=num_tuples * present.size).reshape(num_tuples, -1)
    firsts, tuple_hist = _first_unique(hist.T, [n + 1] * present.size)
    hists = hist[firsts]

    lo, hi = count_bounds(cfg.pair_src_out, n * num_agents, cfg.epsilon)
    feasible = _feasible_histograms(hists, classes[present], lo, hi)
    matches = np.flatnonzero(feasible[tuple_hist])
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


def _run_trials(encode, decode, source_cfg: SourceConfig, cfg, specs, seed: int,
                trial_index: int, count: int, budget: int | None,
                report_target: JointPmf | None) -> list[TrialOutcome]:
    """Draw, encode at every agent with `encode`, decode, and label the
    trials trial_index .. trial_index + count - 1, in trial order.

    Trials run in chunks of at most _CHUNK_POSITIONS drawn symbols.  A
    chunk has one draw, one typicality table stack for its source pairs and
    one for its (action, output) pairs; encoding stays one call per (trial,
    agent).  `decode(trials, results)` is the scheme's decoding step over a
    chunk: it returns the emitted sequences, one row per trial, and per
    trial the error case it ran into (B, Ca or Cb), or None when it
    decoded.  A trial's label is A if some source pair is atypical, else
    that case, else none or D by the output test.
    """
    pair = cfg.pair_src_out
    target = report_target if report_target is not None else pair
    if target.shape != pair.shape:
        raise ValueError("report_target shape must match the design pair")
    n = source_cfg.n
    eps_prime = cfg.epsilon / (2 * source_cfg.p0.size)
    size = max(1, _CHUNK_POSITIONS // ((source_cfg.L + 1) * n))
    stop = trial_index + count
    outcomes = []
    for lo in range(trial_index, stop, size):
        trials = range(lo, min(lo + size, stop))
        draw = draw_actions(source_cfg, seed, np.array(trials))
        pairs_ok = np.all(is_strongly_typical(draw.x_seq[:, None], draw.xhat_seqs,
                                              cfg.pair_src_obs, eps_prime), axis=1)
        results = [[encode(xhat, cfg, spec, budget) for xhat, spec in zip(xhats, specs)]
                   for xhats in draw.xhat_seqs]
        ys, failures = decode(trials, results)

        # one (action, output) count table per trial serves the output test
        # and the TV
        counts = joint_type(draw.x_seq, ys, *pair.shape)
        output_ok = counts_typical(counts, pair, n, cfg.epsilon)
        tvs = tv_distance(counts / n, target).tolist()
        for t, trial in enumerate(results):
            if not pairs_ok[t]:
                case = ErrorCase.A
            elif failures[t] is not None:
                case = failures[t]
            else:
                case = ErrorCase.NONE if output_ok[t] else ErrorCase.D
            outcomes.append(TrialOutcome(y_seq=ys[t], error_case=case, tv_realized=tvs[t],
                                         budget_hit=any(r.budget_hit for r in trial),
                                         search_cost=sum(r.search_cost for r in trial)))
    return outcomes


def run_direct_trial(source_cfg: SourceConfig, cfg: DirectSchemeConfig, specs,
                     seed: int, trial_index: int, count: int = 1, budget: int | None = None,
                     report_target: JointPmf | None = None) -> list[TrialOutcome]:
    """Direct-scheme trials trial_index .. trial_index + count - 1: one agent
    that found a codeword is enough, and B means none did.

    tv_realized compares the (action, output) joint type against
    report_target (the coordination target), which defaults to the scheme's
    own design pair.
    """
    def decode(trials, results):
        failures = [None if any(r.found for r in trial) else ErrorCase.B for trial in results]
        return decode_direct(results, specs), failures

    return _run_trials(encode_direct, decode, source_cfg, cfg, specs, seed, trial_index,
                       count, budget, report_target)


def run_binned_trial(source_cfg: SourceConfig, cfg: BinnedSchemeConfig, specs,
                     seed: int, trial_index: int, count: int = 1, budget: int | None = None,
                     report_target: JointPmf | None = None) -> list[TrialOutcome]:
    """Binned-scheme trials trial_index .. trial_index + count - 1: B when
    any encoder failed, else joint decoding, with Ca for no matching word
    tuple and Cb for several.

    A decode past the decoder's work bound raises DecoderBudgetExceeded
    with trial_index set to its trial; the trials before it have decoded.
    """
    def decode(trials, results):
        ys = np.empty((len(results), source_cfg.n), dtype=np.int64)
        failed = [not all(r.found for r in trial) for trial in results]
        ys[failed] = specs[0]._words(np.zeros(sum(failed), dtype=np.int64))
        failures = []
        for t, trial in enumerate(results):
            if failed[t]:
                failures.append(ErrorCase.B)
                continue
            try:
                out = decode_binned([r.w for r in trial], cfg, specs)
            except DecoderBudgetExceeded as exc:
                exc.trial_index = trials[t]
                raise
            ys[t] = out.y_seq
            failures.append(None if out.matches_found == 1
                            else ErrorCase.CA if out.matches_found == 0 else ErrorCase.CB)
        return ys, failures

    return _run_trials(encode_binned, decode, source_cfg, cfg, specs, seed, trial_index,
                       count, budget, report_target)
