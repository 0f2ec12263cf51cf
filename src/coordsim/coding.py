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
until scanned.  Every trial receives exactly one error-case label:

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
from .probkit import JointPmf, Pmf, joint_type, mutual_information, tv_distance
from .source import SourceConfig, draw_actions
from .typicality import count_bounds, delta_t, epsilon_m, is_strongly_typical

CODEBOOK_STREAM = 2
MAX_TOTAL_CODEWORDS = 2**48

_SCAN_BATCH_START = 64
_SCAN_BATCH_MAX = 8192


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

    A direct-scheme book is the degenerate case words_per_bin == 1.
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


def _codebook_key(spec: CodebookSpec) -> np.uint64:
    return rng.derive_key(spec.seed, CODEBOOK_STREAM, spec.agent_id)


def codeword_block(spec: CodebookSpec, flat_indices: np.ndarray) -> np.ndarray:
    """Generate the codewords at the given flat indices (bin * words + word).

    Symbols are i.i.d. from p_y across fresh indices and bit-identical on
    replay; nothing is cached or materialized beyond the requested block.
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
    cdf = rng.right_closed_cdf(spec.p_y.probs)
    return np.searchsorted(cdf, u.reshape(-1), side="right").reshape(flat.size, spec.n).astype(np.int64)


def codeword(spec: CodebookSpec, w: int, v: int = 0) -> np.ndarray:
    """Codeword at bin w, word v (v stays 0 for direct-scheme books)."""
    if not 0 <= w < spec.num_bins:
        raise IndexError(f"bin index {w} out of range [0, {spec.num_bins})")
    if not 0 <= v < spec.words_per_bin:
        raise IndexError(f"word index {v} out of range [0, {spec.words_per_bin})")
    return codeword_block(spec, np.array([w * spec.words_per_bin + v]))[0]


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


def _cell_counts(x, y, sx: int, sy: int) -> np.ndarray:
    """Cell counts of the row pairs (x_k, y_k), with x and y broadcast
    against each other to a batch of rows; shape (batch, sx, sy)."""
    codes = x * sy + y
    out = np.empty((codes.shape[0], sx * sy), dtype=np.int64)
    for cell in range(sx * sy):
        out[:, cell] = (codes == cell).sum(axis=1)
    return out.reshape(codes.shape[0], sx, sy)


def encode_direct(xhat, cfg: _SchemeConfig, spec: CodebookSpec,
                  budget: int | None = None) -> EncodeResult:
    """Scan the agent's codebook in index order ((bin, word) pairs in
    row-major order) for the first codeword jointly typical with the
    observation; failure is a modeled outcome.  A binned encoder transmits
    only the bin number.

    Batched, yet independent of the batching: hits resolve to the smallest
    index.
    """
    xhat = np.asarray(xhat, dtype=np.int64)
    pair = cfg.pair_obs_out
    sx, sy = pair.shape
    lo, hi = count_bounds(pair, spec.n, cfg.epsilon)
    limit = spec.num_codewords if budget is None else min(spec.num_codewords, budget)
    pos = 0
    batch = _SCAN_BATCH_START
    while pos < limit:
        take = min(batch, limit - pos)
        block = codeword_block(spec, np.arange(pos, pos + take, dtype=np.int64))
        counts = _cell_counts(xhat, block, sx, sy)
        ok = np.all((counts >= lo) & (counts <= hi), axis=(1, 2))
        hits = np.flatnonzero(ok)
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
    encoder failed, fall back to agent 0's first codeword."""
    for spec, res in zip(specs, results):
        if res.found:
            return codeword(spec, res.w, res.v if res.v is not None else 0)
    return codeword(specs[0], 0, 0)


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

    fallback = codeword(specs[0], bins[0], 0)
    if typical_x == 0:
        return BinnedDecodeResult(matches_found=0, v_tuple=None, y_seq=fallback)

    # the column class of every (word tuple, position), one agent at a time:
    # a class is a count vector over output symbols, and an agent emitting
    # symbol b moves each class to the one with count b raised; word tuples
    # run in lexicographic order, agent 0 slowest
    classes = np.zeros((1, sy), dtype=np.int64)
    column_class = np.zeros((1, n), dtype=np.int64)
    for spec, w in zip(specs, bins):
        book = codeword_block(spec, w * words + np.arange(words, dtype=np.int64))
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
        return BinnedDecodeResult(matches_found=1, v_tuple=chosen,
                                  y_seq=codeword(specs[0], bins[0], chosen[0]))
    return BinnedDecodeResult(matches_found=int(matches.size), v_tuple=None, y_seq=fallback)


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
    output_typical = is_strongly_typical(draw.x_seq, y, cfg.pair_src_out, cfg.epsilon)

    case = classify_error(TrialInternals(
        scheme=scheme, num_agents=len(specs),
        source_pairs_typical=pairs_ok,
        encoders_succeeded=sum(r.found for r in results),
        output_typical=output_typical,
        decoder_matches=matches))

    target = report_target if report_target is not None else cfg.pair_src_out
    sx, sy = target.shape
    tv = tv_distance(joint_type(draw.x_seq, y, sx, sy), target)
    return TrialOutcome(y_seq=y, error_case=case, tv_realized=tv,
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
            return codeword(specs[0], 0, 0), None
        out = decode_binned([r.w for r in results], cfg, specs, limits)
        return out.y_seq, out.matches_found

    return _run_trial("binned", decode, source_cfg, cfg, specs, seed, trial_index,
                      budget, report_target)


def case_b_upper_bound(cfg: DirectSchemeConfig, source_cfg: SourceConfig,
                       predictive: bool = False) -> float:
    """Analytic ceiling on the encoder-failure probability (case B).

    Product over agents of exp(-M_l * (1 - delta_t(n, eps'/2)) *
    e^{-n (I + 2 eps_m)}) with M_l the codebook size, eps' = eps/(2|X|), and
    eps_m taken for the (observation, output) pair at eps'.  The (1-delta_t)
    factor is clamped at 0, which makes the literal bound vacuous (== 1)
    until n is astronomically large; with predictive=True the factor is
    replaced by its large-n value 1, giving the ceiling the Monte Carlo
    checks compare against.
    """
    n = source_cfg.n
    pair = cfg.pair_obs_out
    eps_prime = cfg.epsilon / (2 * source_cfg.p0.size)
    if predictive:
        factor = 1.0
    else:
        factor = max(1.0 - delta_t(n, eps_prime / 2.0, pair.shape), 0.0)
    log_hit = -n * (mutual_information(pair.probs) + 2.0 * epsilon_m(pair, eps_prime))
    total = 1.0
    for l in range(cfg.num_agents):
        m_l = _floor_exp(n * (cfg.rates[l] + cfg.slacks[l]))
        expected_hits = m_l * factor * math.exp(log_hit)
        total *= math.exp(-expected_hits)
    return min(total, 1.0)
