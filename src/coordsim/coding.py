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
    stacked length-nL pair jointly typical.  The decoder takes a block of
    trials at once, and the trials of one pool share one dynamic program
    (see decode_binned).

Codebooks are lazy: a codeword is a pure function of
(seed, agent, bin, word, position), so arbitrarily large books cost nothing
until scanned.  Each scan batch is generated once and kept on its
CodebookSpec by index range (up to _PREFIX_CAP_BYTES), so later scans of the
same book read it instead of regenerating it.  A batch keeps each codeword
as |Y| - 1 bit planes (plane s marks the positions holding symbol s), and
the scan counts its joint types by popcounts of those planes ANDed with the
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
from typing import NamedTuple

import numpy as np

from . import rng
from .probkit import JointPmf, Pmf, joint_type, tv_distance
from .source import SourceConfig, draw_actions
from .typicality import count_bounds, counts_typical, is_strongly_typical

CODEBOOK_STREAM = 2
MAX_TOTAL_CODEWORDS = 2**48

_SCAN_BATCH_START = 64
_SCAN_BATCH_MAX = 8192

# symbols (trials * (L + 1) * n) one chunk of a trial block draws, and
# word-tuple positions (trials * words^L * n) one pool of binned decodes
# holds; it caps the memory a block's arrays take, whatever its trial count
_CHUNK_POSITIONS = 2**15

# bytes of scan batches one CodebookSpec keeps, at (|Y| - 1) * 8 * ceil(n/64)
# bytes a codeword; a batch that would pass it is generated on every scan
_PREFIX_CAP_BYTES = 16 * 2**20


# the most word-tuple positions (words^L * n) of one trial, and the most
# dynamic-program states one step may grow, that decode_binned takes on; a
# decode near either bound peaks at about 0.5 GB
DECODE_WORK_CAP = 2**22


class DecoderBudgetExceeded(RuntimeError):
    """The joint decoder's work on this instance would pass DECODE_WORK_CAP.

    Distinct from a modeled decoding error: it means the instance is too
    large to decode faithfully, not that the code failed.  The work counts
    depend only on the decoder's inputs, so a refusal replays exactly.
    decode_binned sets trial_index to the refused trial's position in its
    block, and run_binned_trial then sets it to that trial's index.
    """

    trial_index: int | None = None


class ErrorCase(str, Enum):
    NONE = "none"
    A = "A"
    B = "B"
    CA = "Ca"
    CB = "Cb"
    D = "D"


# a trial's label is an int code that indexes CASES, in ErrorCase's order
CASES = tuple(ErrorCase)
_NONE, _A, _B, _CA, _CB, _D = range(len(CASES))


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
    batches an encoder has scanned are kept on the instance (see _planes);
    they are not a field, so equality and repr ignore them.
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

    def _planes(self, start: int, stop: int) -> np.ndarray:
        """Codewords at flat indices start..stop-1 as bit planes (see
        _bit_planes): shape (|Y| - 1, ceil(n/64), stop - start), uint64.

        A range not kept yet is generated by one codeword_block call and kept
        on the instance, keyed by (start, stop), if the kept planes stay
        within _PREFIX_CAP_BYTES.  Every scan of a book at one budget asks
        for the same ranges (see encode_direct), so repeated scans generate
        each kept codeword once.  Codewords are pure functions of their
        index, so kept and regenerated planes are bit-identical.
        """
        store = self.__dict__.setdefault("_prefix", {})
        planes = store.get((start, stop))
        if planes is None:
            planes = _bit_planes(codeword_block(self, np.arange(start, stop, dtype=np.int64)),
                                 self.p_y.size - 1)
            planes.setflags(write=False)
            if sum(p.nbytes for p in store.values()) + planes.nbytes <= _PREFIX_CAP_BYTES:
                store[start, stop] = planes
        return planes


def _codebook_key(spec: CodebookSpec) -> np.uint64:
    return rng.derive_key(spec.seed, CODEBOOK_STREAM, spec.agent_id)


def codeword_block(spec: CodebookSpec, flat_indices: np.ndarray) -> np.ndarray:
    """Generate the codewords at the given flat indices (bin * words + word).

    Symbols are i.i.d. from p_y across fresh indices and bit-identical on
    replay; nothing is cached or materialized beyond the requested block
    (encoder scans keep their batches through CodebookSpec._planes).
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
    plane-major and C-contiguous: shape (planes, ceil(n/64), k), uint64.
    Bit i of word w of plane s in column j is set iff seqs[j, 64 w + i] == s;
    padding bits are clear."""
    k, n = seqs.shape
    words = -(-n // 64)
    hot = np.zeros((planes, k, 64 * words), dtype=bool)
    np.equal(seqs, np.arange(planes)[:, None, None], out=hot[:, :, :n])
    packed = np.packbits(hot, bitorder="little").view("<u8")
    return np.ascontiguousarray(packed.reshape(planes, k, words).transpose(0, 2, 1))


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


class EncodeResult(NamedTuple):
    """Outcome of one agent's codebook scan: the flat index (bin * words +
    word) of the first typical codeword, or -1 when the scan found none;
    the codewords scanned; and whether the scan stopped at its budget."""

    index: int
    search_cost: int
    budget_hit: bool


class Trials(NamedTuple):
    """A block of trials in trial order, one entry each: emitted sequences (int64
    rows), error-case codes (CASES[code] is the label), TVs and budget stops."""

    y_seq: np.ndarray
    case: np.ndarray
    tv: np.ndarray
    budget_hit: np.ndarray


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
    index, budget stops included.  Batches double from _SCAN_BATCH_START to
    _SCAN_BATCH_MAX codewords and the last is cut at min(num_codewords,
    budget), so every scan of a book at one budget asks for the same index
    ranges; the spec keeps each range's planes up to a byte cap (see
    CodebookSpec._planes), and repeated scans generate each kept codeword
    once.  The bit planes of the observation and its type are built once
    per call, and each batch's count tables are tested against the bounds
    as one flat (cells, batch) comparison.
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
        counts = _plane_counts(spec._planes(pos, pos + take), x_planes, x_type)
        counts = counts.reshape(sx * sy, take)
        hits = np.logical_and.reduce((counts >= lo) & (counts <= hi)).nonzero()[0]
        if hits.size:
            flat = pos + int(hits[0])
            return EncodeResult(flat, flat + 1, False)
        pos += take
        batch = min(batch * 2, _SCAN_BATCH_MAX)
    return EncodeResult(-1, limit, limit < spec.num_codewords)


encode_binned = encode_direct


def decode_direct(index, specs) -> np.ndarray:
    """The emitted words of a block of trials, one int64 row per trial.

    index holds every agent's scan result per trial, shape (trials, L): the
    flat index of its codeword, or -1.  A trial emits the codeword of its
    lowest-indexed agent with index >= 0; if there is none, agent 0's
    first codeword.  Each agent's emitted words are generated in one
    codeword_block call.
    """
    index = np.asarray(index, dtype=np.int64)
    # argmax finds the first True, and agent 0 where a row has none
    agent = np.argmax(index >= 0, axis=1)
    flat = np.maximum(index[np.arange(len(index)), agent], 0)
    words = np.empty((len(index), specs[0].n), dtype=np.int64)
    for l in sorted(set(agent.tolist())):
        rows = agent == l
        words[rows] = codeword_block(specs[l], flat[rows])
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
    symbol, how many agents emit it), and the classes come in the order
    the program places them.  Giving m[j, a] of those positions action a
    adds m[j, a] * classes[j] to row a of the table.  A dynamic program
    over all classes but the last carries every reachable (histogram,
    table) state, drops states already above a bound (counts only grow)
    and merges duplicates.  For the last class each bound confines one m[a]
    to an interval, so a state is feasible iff those intervals admit the
    class's count as a sum.  A histogram's states never meet another's, so
    deciding several histograms at once decides each as it would alone.

    Raises DecoderBudgetExceeded before a step would grow more than
    DECODE_WORK_CAP states: a state with t positions of the class to place
    grows into one state per composition of t into |X| parts.
    """
    sx, sy = lo.shape
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


@lru_cache(maxsize=64)
def _class_tables(agents: int, sy: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The column classes of `agents` agents over sy output symbols, and
    how each agent moves them.

    A class is a count vector over output symbols (how many agents emit
    each one at a position); `classes` holds every vector summing to
    `agents`, in lexicographic order.  moves[l][c * sy + b] is the class
    that class c of agents 0 .. l - 1 becomes when agent l emits b; the
    move tables are int16 when every index c * sy + b fits, which keeps a
    decoder pool's class arrays small.  All tables are read-only.
    """
    classes = np.zeros((1, sy), dtype=np.int64)
    moves = []
    for _ in range(agents):
        classes, moved = np.unique((classes[:, None] + np.eye(sy, dtype=np.int64)).reshape(-1, sy),
                                   axis=0, return_inverse=True)
        moves.append(moved.reshape(-1))
    dtype = np.int16 if len(classes) * sy < 2**15 else np.int64
    moves = [move.astype(dtype) for move in moves]
    for table in (classes, *moves):
        table.setflags(write=False)
    return classes, tuple(moves)


def decode_binned(bin_tuples, cfg: BinnedSchemeConfig, specs) -> tuple[np.ndarray, np.ndarray]:
    """Joint decoding of a block of trials from their received bin numbers.

    bin_tuples holds one bin number per agent for each trial.  For each
    trial the decoder finds every word tuple (one word per agent's bin)
    for which some action sequence makes the stacked length-nL pair
    jointly typical; the tuple must be unique, the witnessing action
    sequence need not be.  It returns, in trial order, how many word
    tuples matched and the emitted sequences (int64 rows): agent 0's word
    of the tuple when it is unique, else word 0 of agent 0's bin.  Each
    trial's result is exactly that of the literal decoder the acceptance
    checks run (verify._oracle_decode) on its trial alone.

    No action sequence is enumerated: the stacked counts depend on the
    sequence only through how many positions of each column class (how many
    agents emit each output symbol there) receive each action, so a tuple
    is decided by its class histogram, and one dynamic program decides many
    histograms at once (see _feasible_histograms).  The program places the
    column classes in one order for every trial, least likely first under
    the design output law cfg.p_y (the method of types), so the most
    likely class takes its closed-form last step.  The trials go in pools
    whose word-tuple tables hold at most _CHUNK_POSITIONS positions, at
    least one trial each, and each pool runs one program (see _decode_pool).

    Raises ValueError when a codebook's alphabet is not the design pair's
    output alphabet.  Raises DecoderBudgetExceeded, before allocating, when
    a trial's word-tuple table (words^L * n positions) or one step of its
    dynamic program would pass DECODE_WORK_CAP; its trial_index is the
    position of the first refused trial in bin_tuples.
    """
    num_agents = len(specs)
    bins = np.array(bin_tuples, dtype=np.int64).reshape(-1, num_agents)
    if bins.shape[0] != len(bin_tuples):
        raise ValueError("every bin tuple needs one bin per agent")
    n = specs[0].n
    words = specs[0].words_per_bin
    if any(s.n != n or s.words_per_bin != words for s in specs):
        raise ValueError("agent codebooks must share blocklength and bin size")
    sy = cfg.pair_src_out.shape[1]
    for spec in specs:
        if spec.p_y.size != sy:
            raise ValueError(f"codebook alphabet has {spec.p_y.size} symbols but the "
                             f"design pair's output alphabet has {sy}")
    if not bins.size:
        return np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int64)
    num_tuples = words**num_agents
    if num_tuples * n > DECODE_WORK_CAP:
        exc = DecoderBudgetExceeded(
            f"{words}^{num_agents} word tuples of {n} positions exceed the work bound "
            f"{DECODE_WORK_CAP}")
        exc.trial_index = 0
        raise exc

    # one class order for every trial: least likely first under the design
    # output law, log P(c) = sum_b c_b log p_y(b) - log c_b! (up to log L!),
    # ties in class order; the last move table numbers the classes that way
    classes, moves = _class_tables(num_agents, sy)
    log_factorial = np.log(np.maximum(np.arange(num_agents + 1), 1)).cumsum()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prob = np.where(classes > 0, classes * np.log(cfg.p_y.probs), 0.0).sum(axis=1)
    order = np.argsort(log_prob - log_factorial[classes].sum(axis=1), kind="stable")
    classes = classes[order]
    moves = (*moves[:-1], np.argsort(order).astype(moves[-1].dtype)[moves[-1]])

    lo, hi = count_bounds(cfg.pair_src_out, n * num_agents, cfg.epsilon)
    pool = max(1, _CHUNK_POSITIONS // (num_tuples * n))
    pools = []
    for start in range(0, bins.shape[0], pool):
        try:
            pools.append(_decode_pool(bins[start:start + pool], specs, classes, moves, lo, hi))
        except DecoderBudgetExceeded as exc:
            exc.trial_index += start
            raise
    matches, ys = zip(*pools)
    return np.concatenate(matches), np.concatenate(ys)


def _decode_pool(bins: np.ndarray, specs, classes: np.ndarray, moves, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """decode_binned on one pool of trials, bins[t] holding trial t's bin
    numbers, `classes` the column classes in the order the dynamic program
    places them and `moves` the move tables that number them so.

    The pool reads each agent's words in one codeword_block call, gathers
    every (trial, word tuple, position)'s column class and counts every
    (trial, word tuple)'s class histogram in one bincount.  One dynamic
    program decides the pool's distinct histograms, over the classes some
    tuple of the pool holds, in that order.  If one of its steps would
    grow more than DECODE_WORK_CAP states, each trial runs its own program
    over its own classes, in the same order, and the first trial refused
    is raised.  A class a trial lacks is a step that grows none of its
    states, so every step of the shared program grows at least the states
    of each trial's own step: a trial is refused exactly when, and with
    the message that, its own program would be.
    """
    trials, agents = bins.shape
    n, words = specs[0].n, specs[0].words_per_bin
    sy = classes.shape[1]

    # the column class of every (trial, word tuple, position), one agent at
    # a time; word tuples run in lexicographic order, agent 0 slowest
    books = [codeword_block(spec, (bins[:, l, None] * words + np.arange(words)).reshape(-1))
             .reshape(trials, words, n) for l, spec in enumerate(specs)]
    column_class = np.zeros((trials, 1, n), dtype=moves[0].dtype)
    for move, book in zip(moves, books):
        column_class = move[column_class[:, :, None] * sy
                            + book[:, None].astype(move.dtype)].reshape(trials, -1, n)
    # number the classes some tuple of the pool holds, in the program's order
    present = np.bincount(column_class.reshape(-1), minlength=len(classes)) > 0
    classes, width = classes[present], int(present.sum())
    rows = trials * column_class.shape[1]
    keys = (np.cumsum(present) - 1)[column_class.reshape(rows, n)]
    keys += np.arange(rows)[:, None] * width
    hist = np.bincount(keys.reshape(-1), minlength=rows * width).reshape(rows, width)
    firsts, tuple_hist = _first_unique(hist.T, [n + 1] * width)
    hists = hist[firsts]

    try:
        feasible = _feasible_histograms(hists, classes, lo, hi)
    except DecoderBudgetExceeded:
        # past the bound: each trial runs its own program over its own
        # classes, which refuses it exactly when it would be refused alone
        feasible = np.zeros(len(hists), dtype=bool)
        for t, own in enumerate(tuple_hist.reshape(trials, -1)):
            own = np.unique(own)
            held = hists[own].any(axis=0)
            try:
                feasible[own] = _feasible_histograms(hists[own][:, held], classes[held], lo, hi)
            except DecoderBudgetExceeded as exc:
                exc.trial_index = t
                raise

    match = feasible[tuple_hist].reshape(trials, -1)
    found = match.sum(axis=1)
    # a trial with one match emits agent 0's word of that tuple, else word 0
    chosen = np.where(found == 1, match.argmax(axis=1), 0)
    return found, books[0][np.arange(trials), chosen // words**(agents - 1)]


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
                report_target: JointPmf | None) -> Trials:
    """Draw, encode at every agent with `encode`, decode, and label the
    trials trial_index .. trial_index + count - 1, in trial order.

    Trials run in chunks of at most _CHUNK_POSITIONS drawn symbols.  A
    chunk has one draw, one typicality table stack for its source pairs and
    one for its (action, output) pairs; encoding stays one call per (trial,
    agent), stacked into one (trials, L, 3) array of EncodeResults.
    `decode(trials, index)`, one decode_direct or decode_binned call on the
    (trials, L) codeword indices, returns the emitted sequences and each
    trial's code of the case it ran into (B, Ca or Cb), or _NONE when it
    decoded.  A trial's label is A if some source pair is atypical, else
    that case, else none or D by the output test.
    """
    if count < 1:
        raise ValueError(f"trial count must be >= 1, got {count}")
    pair = cfg.pair_src_out
    target = report_target if report_target is not None else pair
    if target.shape != pair.shape:
        raise ValueError("report_target shape must match the design pair")
    n = source_cfg.n
    eps_prime = cfg.epsilon / (2 * source_cfg.p0.size)
    size = max(1, _CHUNK_POSITIONS // ((source_cfg.L + 1) * n))
    stop = trial_index + count
    chunks = []
    for lo in range(trial_index, stop, size):
        trials = range(lo, min(lo + size, stop))
        draw = draw_actions(source_cfg, seed, np.array(trials))
        pairs_ok = np.all(is_strongly_typical(draw.x_seq[:, None], draw.xhat_seqs,
                                              cfg.pair_src_obs, eps_prime), axis=1)
        scans = np.array([[encode(xhat, cfg, spec, budget) for xhat, spec in zip(xhats, specs)]
                          for xhats in draw.xhat_seqs], dtype=np.int64)
        ys, failed = decode(trials, scans[:, :, 0])

        # one (action, output) count table per trial serves the output test
        # and the TV
        counts = joint_type(draw.x_seq, ys, *pair.shape)
        # A outranks the decode step's case, which outranks the output test
        case = np.where(counts_typical(counts, pair, n, cfg.epsilon), _NONE, _D)
        case = np.where(failed != _NONE, failed, case)
        case = np.where(pairs_ok, case, _A)
        chunks.append(Trials(ys, case, tv_distance(counts / n, target),
                             scans[:, :, 2].any(axis=1)))
    return Trials(*map(np.concatenate, zip(*chunks)))


def run_direct_trial(source_cfg: SourceConfig, cfg: DirectSchemeConfig, specs,
                     seed: int, trial_index: int, count: int = 1, budget: int | None = None,
                     report_target: JointPmf | None = None) -> Trials:
    """Direct-scheme trials trial_index .. trial_index + count - 1: one agent
    that found a codeword is enough, and B means none did.

    The realized TV compares the (action, output) joint type against
    report_target (the coordination target), which defaults to the scheme's
    own design pair.
    """
    def decode(trials, index):
        return decode_direct(index, specs), np.where(np.any(index >= 0, axis=1), _NONE, _B)

    return _run_trials(encode_direct, decode, source_cfg, cfg, specs, seed, trial_index,
                       count, budget, report_target)


def run_binned_trial(source_cfg: SourceConfig, cfg: BinnedSchemeConfig, specs,
                     seed: int, trial_index: int, count: int = 1, budget: int | None = None,
                     report_target: JointPmf | None = None) -> Trials:
    """Binned-scheme trials trial_index .. trial_index + count - 1: B when
    any encoder failed, else joint decoding, with Ca for no matching word
    tuple and Cb for several.

    A chunk's trials whose encoders all succeeded go to decode_binned in
    one call.  A decode past the decoder's work bound raises
    DecoderBudgetExceeded with trial_index set to the first refused trial.
    """
    def decode(trials, index):
        ok = np.all(index >= 0, axis=1)
        ys = np.empty((len(index), source_cfg.n), dtype=np.int64)
        ys[~ok] = codeword_block(specs[0], np.zeros(int((~ok).sum()), dtype=np.int64))
        failed = np.full(len(index), _B)
        if not ok.any():
            return ys, failed
        try:
            matches, ys[ok] = decode_binned(index[ok] // specs[0].words_per_bin, cfg, specs)
        except DecoderBudgetExceeded as exc:
            exc.trial_index = trials[np.flatnonzero(ok)[exc.trial_index]]
            raise
        failed[ok] = np.where(matches == 1, _NONE, np.where(matches == 0, _CA, _CB))
        return ys, failed

    return _run_trials(encode_binned, decode, source_cfg, cfg, specs, seed, trial_index,
                       count, budget, report_target)
