"""Bundled acceptance checks with independent oracles.

Each check AC1..AC9 re-derives its expected behaviour from scratch (dict
counting, literal definitional tests, exhaustive enumeration, dense grids)
and compares the library against it at the tolerances fixed below.  The
pytest acceptance suite calls these same functions, and `coordsim verify`
prints one line per criterion.  The unit tests import the literal oracles
and the boundary-tie guard from here, so each is written once.

Everything here is seeded, so a pass is reproducible bit for bit; the one
committed pilot value (the AC5 fidelity ceiling) is annotated where it is
frozen.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import cli, region as region_mod, rng
from .coding import (BinnedSchemeConfig, DirectSchemeConfig, ErrorCase,
                     binned_specs, codeword_block, run_binned_trial)
from .harness import ExperimentConfig, run_experiment
from .probkit import (CondPmf, Pmf, compose_markov,
                      conditional_mutual_information, joint_type,
                      mutual_information, tv_distance)
from .region import RegionQuery, min_achievable_delta
from .source import SourceConfig, draw_actions
from .typicality import (count_bounds, delta_t, is_strongly_typical,
                         typical_set_size_bound)

INFO_TOL = 1e-10
RATE_TOL = 1e-4
CONSISTENCY_TOL = 1e-6

# AC5 scenario: uniform binary source, flip-0.4 observation, flip-0.4
# auxiliary channel, one agent at rate I(obs;out) + 0.06 nats, slack 0.12,
# typicality 0.3, 200 trials per blocklength, seed below.  The ceiling is
# the committed pilot value for mean TV at n=160 (measured 0.055550) plus
# five percent headroom; the run is deterministic, so any regression that
# moves it is a real behaviour change.
AC5_SEED = 20260809
AC5_GOLDEN_MEAN_TV_N160 = 0.0584

_AC2_JOINT = np.array([[0.38, 0.12], [0.17, 0.33]])
_AC3_JOINT = np.array([[0.40, 0.10], [0.20, 0.30]])


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    seconds: float


def _result(criterion: str, start: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(criterion=criterion, passed=passed, detail=detail,
                       seconds=time.perf_counter() - start)


def _all_sequences(size: int, n: int) -> np.ndarray:
    """Every length-n sequence over 0..size-1, one per row."""
    return np.indices((size,) * n, dtype=np.int64).reshape(n, -1).T


def _clear_of_ties(probs: np.ndarray, n: int, epsilon: float) -> bool:
    """No frequency c/n lies within 1e-9 of a cell's strict boundary
    p +- eps/#cells.

    Constants used with float-arithmetic oracles must pass this, or oracle
    and exact arithmetic could split at a tie.
    """
    freqs = np.arange(n + 1)[:, None] / n
    return bool(np.abs(np.abs(freqs - probs.reshape(-1)) - epsilon / probs.size).min() >= 1e-9)


def _assert_no_boundary_ties(probs: np.ndarray, n: int, epsilon: float) -> None:
    if not _clear_of_ties(probs, n, epsilon):
        raise RuntimeError(f"test constants hit a typicality boundary at n={n}, "
                           f"eps={epsilon}; pick different cell probabilities")


def _oracle_pair_typical(x: np.ndarray, y: np.ndarray, probs: np.ndarray,
                         epsilon: float) -> bool:
    """Literal definition: every cell frequency strictly within eps/#cells."""
    n = x.size
    sx, sy = probs.shape
    for a in range(sx):
        for b in range(sy):
            freq = np.count_nonzero((x == a) & (y == b)) / n
            if not abs(freq - probs[a, b]) < epsilon / (sx * sy):
                return False
    return True


# ---------------------------------------------------------------------------
# AC1: probability kernels vs brute force
# ---------------------------------------------------------------------------

def _oracle_type(x, y, sx, sy):
    cells = np.zeros((sx, sy), dtype=np.int64)
    for xi, yi in zip(x, y):
        cells[xi, yi] += 1
    return cells


def _oracle_tv(a: np.ndarray, b: np.ndarray) -> float:
    """Exact rational summation of the per-cell float gaps, rounded once at
    the end; must match the library's correctly rounded float path bit for
    bit."""
    from fractions import Fraction

    total = sum(Fraction(abs(float(pa) - float(pb)))
                for pa, pb in zip(a.reshape(-1), b.reshape(-1)))
    return 0.5 * float(total)


def _oracle_mi(j: np.ndarray) -> float:
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    total = 0.0
    for a in range(j.shape[0]):
        for b in range(j.shape[1]):
            if j[a, b] > 0:
                total += j[a, b] * math.log(j[a, b] / (px[a] * py[b]))
    return total


def _oracle_cmi(t: np.ndarray) -> float:
    total = 0.0
    for x in range(t.shape[0]):
        px = t[x].sum()
        if px > 0:
            total += px * _oracle_mi(t[x] / px)
    return total


def ac1_probability_kernels() -> CheckResult:
    """Joint types, TV, MI, CMI against independent brute force."""
    start = time.perf_counter()
    failures = []

    checked = 0
    for n in range(1, 7):
        seqs = _all_sequences(2, n)
        for x in seqs:
            for y in seqs:
                if not np.array_equal(joint_type(x, y, 2, 2), _oracle_type(x, y, 2, 2)):
                    failures.append(f"joint_type mismatch at n={n}")
                checked += 1
    generator = np.random.default_rng(101)
    for _ in range(1000):
        sx = int(generator.integers(2, 5))
        sy = int(generator.integers(2, 5))
        a = generator.dirichlet(np.ones(sx * sy)).reshape(sx, sy)
        b = generator.dirichlet(np.ones(sx * sy)).reshape(sx, sy)
        if tv_distance(a, b) != _oracle_tv(a, b):
            failures.append("tv mismatch")
        if abs(mutual_information(a) - max(_oracle_mi(a), 0.0)) > INFO_TOL:
            failures.append("mi mismatch")
        t = generator.dirichlet(np.ones(sx * sx * sy)).reshape(sx, sx, sy)
        if abs(conditional_mutual_information(t) - max(_oracle_cmi(t), 0.0)) > INFO_TOL:
            failures.append("cmi mismatch")

    detail = (f"{checked} exhaustive type pairs, 1000 random laws"
              if not failures else "; ".join(sorted(set(failures))))
    return _result("AC1", start, not failures, detail)


# ---------------------------------------------------------------------------
# AC2: typicality membership vs the literal definition
# ---------------------------------------------------------------------------

def ac2_typicality_definition() -> CheckResult:
    """is_strongly_typical agrees with the definitional check for every
    binary pair up to n=8 at three tolerances."""
    start = time.perf_counter()
    probs = _AC2_JOINT
    mismatches = 0
    total = 0
    for epsilon in (0.05, 0.1, 0.3):
        for n in range(1, 9):
            _assert_no_boundary_ties(probs, n, epsilon)
            seqs = _all_sequences(2, n)
            codes = seqs[:, None, :] * 2 + seqs[None, :, :]
            counts = np.empty((codes.shape[0], codes.shape[1], 4), dtype=np.int64)
            for cell in range(4):
                counts[:, :, cell] = (codes == cell).sum(axis=2)
            lo, hi = count_bounds(probs, n, epsilon)
            lo = lo.reshape(-1)
            hi = hi.reshape(-1)
            bound = epsilon / 4.0
            freq = counts / n
            oracle = np.all(np.abs(freq - probs.reshape(-1)[None, None, :]) < bound,
                            axis=2)
            library = np.all((counts >= lo) & (counts <= hi), axis=2)
            mismatches += int(np.sum(oracle != library))
            total += oracle.size
            # exercise the public scalar entry point too: every pair up to
            # n=6, a deterministic stride beyond that
            flat = oracle.reshape(-1)
            stride = 1 if n <= 6 else max(1, flat.size // 64)
            for k in range(0, flat.size, stride):
                i, j = divmod(k, seqs.shape[0])
                if is_strongly_typical(seqs[i], seqs[j], probs, epsilon) != bool(flat[k]):
                    mismatches += 1
    detail = f"{total} memberships across eps in (0.05, 0.1, 0.3)" if not mismatches \
        else f"{mismatches} disagreements"
    return _result("AC2", start, mismatches == 0, detail)


# ---------------------------------------------------------------------------
# AC3: typical-set probability and cardinality bounds
# ---------------------------------------------------------------------------

def _typicality_rate(probs, n, trials, epsilon, seed):
    """Fraction of i.i.d. length-n pair draws that are jointly typical,
    computed in trial chunks to keep the draw buffers small."""
    key = rng.derive_key(seed, 90)
    cdf = rng.right_closed_cdf(probs.reshape(-1))
    lo, hi = count_bounds(probs, n, epsilon)
    lo = lo.reshape(-1)
    hi = hi.reshape(-1)
    chunk = max(1, min(trials, 4_000_000 // n))
    ok_total = 0
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        indices = np.arange(start * n, stop * n, dtype=np.uint64)
        codes = rng.categorical(rng.uniforms(key, indices), cdf).reshape(stop - start, n)
        counts = np.empty((stop - start, probs.size), dtype=np.int64)
        for cell in range(probs.size):
            counts[:, cell] = (codes == cell).sum(axis=1)
        ok_total += int(np.all((counts >= lo) & (counts <= hi), axis=1).sum())
    return ok_total / trials


def ac3_typical_set_bounds() -> CheckResult:
    """Probability lower bound where it binds, and the cardinality bound by
    exhaustive enumeration at n=8."""
    start = time.perf_counter()
    probs = _AC3_JOINT
    issues = []

    # stated scale: the bound is vacuous there (delta_t >> 1), asserted as the
    # conditional it is
    for n, trials, eps, seed in ((400, 10_000, 0.2, 301), (250_000, 300, 0.2, 302)):
        dt = delta_t(n, eps, probs.shape)
        if dt < 1.0:
            rate = _typicality_rate(probs, n, trials, eps, seed)
            slack = 3.0 * math.sqrt(max(dt * (1 - dt), 1e-12) / trials)
            if rate < 1.0 - dt - slack:
                issues.append(f"probability bound failed at n={n}: {rate} < {1 - dt}")
        elif n > 1000:
            issues.append(f"expected a binding bound at n={n} (delta_t={dt:.3g})")

    for eps in (0.05, 0.3):
        seqs = _all_sequences(2, 8)
        codes = seqs[:, None, :] * 2 + seqs[None, :, :]
        counts = np.empty((codes.shape[0], codes.shape[1], 4), dtype=np.int64)
        for cell in range(4):
            counts[:, :, cell] = (codes == cell).sum(axis=2)
        lo, hi = count_bounds(probs, 8, eps)
        members = int(np.sum(np.all((counts >= lo.reshape(-1)) &
                                    (counts <= hi.reshape(-1)), axis=2)))
        bound = typical_set_size_bound(probs, 8, eps)
        if not members < bound:
            issues.append(f"cardinality bound failed at eps={eps}: {members} >= {bound}")

    detail = "probability bound (vacuous at n=400, binding at n=250000) and " \
             "exhaustive n=8 cardinality" if not issues else "; ".join(issues)
    return _result("AC3", start, not issues, detail)


# ---------------------------------------------------------------------------
# AC4: conditioning never raises the chain information
# ---------------------------------------------------------------------------

def ac4_markov_information_ordering() -> CheckResult:
    """I(obs; out | action) <= I(obs; out) on 1000 random chain triples."""
    start = time.perf_counter()
    generator = np.random.default_rng(404)
    worst = -math.inf
    for _ in range(1000):
        sx = int(generator.integers(2, 4))
        sy = int(generator.integers(2, 4))
        p0 = Pmf(generator.dirichlet(np.ones(sx)))
        chan1 = CondPmf(generator.dirichlet(np.ones(sx), size=sx))
        chan2 = CondPmf(generator.dirichlet(np.ones(sy), size=sx))
        triple = compose_markov(p0, chan1, chan2)
        gap = conditional_mutual_information(triple) \
            - mutual_information(triple.pair_marginal(1, 2).probs)
        worst = max(worst, gap)
    passed = worst <= INFO_TOL
    return _result("AC4", start, passed, f"max CMI - MI gap {worst:.3e}")


# ---------------------------------------------------------------------------
# AC5: direct-scheme fidelity improves with blocklength
# ---------------------------------------------------------------------------

def _ac5_config(n: int) -> ExperimentConfig:
    p0 = Pmf.uniform(2)
    obs = CondPmf.binary_flip(0.4)
    aux = CondPmf.binary_flip(0.4)
    triple = compose_markov(p0, obs, aux)
    rate = mutual_information(triple.pair_marginal(1, 2).probs) + 0.06
    scheme = DirectSchemeConfig(rates=(rate,), slacks=(0.12,), epsilon=0.3,
                                triple=triple)
    return ExperimentConfig(
        source=SourceConfig(p0=p0, obs_channel=obs, L=1, n=n),
        scheme=scheme, trials=200, seed=AC5_SEED, search_budget=50_000)


def ac5_direct_scheme_trend() -> CheckResult:
    """Mean TV strictly decreasing over n in {40, 80, 160}; encoder-failure
    fraction below 10% and mean TV under the golden ceiling at n=160."""
    start = time.perf_counter()
    stats = {n: run_experiment(_ac5_config(n)) for n in (40, 80, 160)}
    means = [stats[n].mean_tv for n in (40, 80, 160)]
    case_b = stats[160].case_fraction(ErrorCase.B.value)
    issues = []
    if not (means[0] > means[1] > means[2]):
        issues.append(f"mean TV not strictly decreasing: {means}")
    if case_b >= 0.10:
        issues.append(f"case B fraction {case_b:.3f} >= 0.10 at n=160")
    if means[2] > AC5_GOLDEN_MEAN_TV_N160:
        issues.append(f"mean TV {means[2]:.6f} above golden ceiling "
                      f"{AC5_GOLDEN_MEAN_TV_N160} at n=160")
    detail = (f"mean TV {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f}, "
              f"P(B)@160 = {case_b:.3f}") if not issues else "; ".join(issues)
    return _result("AC5", start, not issues, detail)


# ---------------------------------------------------------------------------
# AC6: binned decoder vs exhaustive oracle
# ---------------------------------------------------------------------------

def _ac6_scheme(epsilon: float, obs_flip: float = 0.2) -> BinnedSchemeConfig:
    p0 = Pmf.uniform(2)
    obs = CondPmf.binary_flip(obs_flip)
    aux = CondPmf.binary_flip(0.3)
    triple = compose_markov(p0, obs, aux)
    return BinnedSchemeConfig(rate_bin=math.log(4.3) / 6.0,   # floor -> 4 bins
                              rate_word=math.log(2.7) / 6.0,  # ceil -> 3 words/bin
                              slack_bin=0.0, slack_word=0.0,
                              epsilon=epsilon, triple=triple)


def _oracle_binned_trial(source_cfg, cfg, specs, seed, trial):
    """Fully literal re-derivation of one binned trial: float-arithmetic
    typicality, naive one-at-a-time scans, unfiltered action enumeration.

    Mirrors the production pipeline's structure (decode whenever every
    encoder succeeded, classify afterwards) but shares none of its search or
    exact-comparison machinery.
    """
    draw = draw_actions(source_cfg, seed, trial)
    num_agents = source_cfg.L
    eps = cfg.epsilon
    eps_prime = eps / (2 * source_cfg.p0.size)
    pair_so = cfg.pair_src_obs.probs
    pair_oo = cfg.pair_obs_out.probs
    pair_sy = cfg.pair_src_out.probs

    pairs_ok = all(_oracle_pair_typical(draw.x_seq, draw.xhat_seqs[l], pair_so, eps_prime)
                   for l in range(num_agents))

    books = _oracle_books(specs)
    found = []
    for l in range(num_agents):
        hit = None
        for flat in range(specs[l].num_codewords):
            if _oracle_pair_typical(draw.xhat_seqs[l], books[l][flat], pair_oo, eps):
                hit = divmod(flat, specs[l].words_per_bin)
                break
        found.append(hit)

    matches = None
    if any(h is None for h in found):
        y_out = books[0][0]
    else:
        matches, y_out = _oracle_decode([h[0] for h in found], cfg, specs, books)

    if not pairs_ok:
        label = "A"
    elif any(h is None for h in found):
        label = "B"
    elif len(matches) == 0:
        label = "Ca"
    elif len(matches) > 1:
        label = "Cb"
    else:
        label = "none" if _oracle_pair_typical(draw.x_seq, y_out, pair_sy, eps) else "D"
    return label, y_out


def _oracle_books(specs) -> list[np.ndarray]:
    """Every codeword of every agent's (small) book, in flat index order."""
    return [codeword_block(spec, np.arange(spec.num_codewords)) for spec in specs]


def _oracle_decode(bins, cfg, specs, books):
    """Literal joint decoding: every word tuple against every action
    sequence, float typicality.  Returns the matching word tuples and the
    emitted sequence."""
    num_agents = len(bins)
    n = specs[0].n
    words = specs[0].words_per_bin
    pair_sy = cfg.pair_src_out.probs
    stacked_xs = [np.tile(x, num_agents) for x in _all_sequences(pair_sy.shape[0], n)]
    matches = []
    for v_tuple in itertools.product(range(words), repeat=num_agents):
        stacked_y = np.concatenate([books[l][bins[l] * words + v_tuple[l]]
                                    for l in range(num_agents)])
        for stacked_x in stacked_xs:
            if _oracle_pair_typical(stacked_x, stacked_y, pair_sy, cfg.epsilon):
                matches.append(v_tuple)
                break
    if len(matches) == 1:
        return matches, books[0][bins[0] * words + matches[0][0]]
    return matches, books[0][bins[0] * words]


def ac6_binned_decoder_oracle() -> CheckResult:
    """Binned decoding agrees exactly with a literal exhaustive oracle, both
    on raw bin tuples and through full trials.

    The codebook seed advances with the trial index so the comparisons range
    over codebook realizations, not just source noise.
    """
    from .coding import decode_binned

    n = 6
    seed = 606
    trials_each = 170
    start = time.perf_counter()
    mismatches = 0
    match_coverage: dict[int, int] = {}
    label_counts: dict[str, int] = {}

    # decoder on random bin tuples: exercises none/unique/multiple directly
    cfg = _ac6_scheme(epsilon=0.5)
    for num_agents in (1, 2, 3):
        _assert_no_boundary_ties(cfg.pair_src_out.probs, n * num_agents, cfg.epsilon)
        source_cfg = SourceConfig(p0=cfg.p_x, obs_channel=CondPmf.binary_flip(0.2),
                                  L=num_agents, n=n)
        key = rng.derive_key(seed, 61, num_agents)
        draws = rng.uniforms(key, np.arange(trials_each * num_agents, dtype=np.uint64))
        bins_table = (draws.reshape(trials_each, num_agents) * 4).astype(np.int64)
        for trial in range(trials_each):
            specs = binned_specs(cfg, source_cfg, seed + trial)
            bins = list(bins_table[trial])
            lib = decode_binned(bins, cfg, specs)
            oracle_matches, oracle_y = _oracle_decode(bins, cfg, specs, _oracle_books(specs))
            bucket = min(len(oracle_matches), 2)
            match_coverage[bucket] = match_coverage.get(bucket, 0) + 1
            if lib.matches_found != len(oracle_matches) or \
                    not np.array_equal(lib.y_seq, oracle_y):
                mismatches += 1

    # full trials (encode + decode + classification) in three regimes:
    # noisy observation (source-pair check fails, output paths compared),
    # near-noiseless observation (all labels reachable), loose tolerance
    # (ambiguity-heavy)
    for obs_flip, epsilon in ((0.2, 0.5), (0.05, 0.5), (0.2, 2.8)):
        cfg = _ac6_scheme(epsilon=epsilon, obs_flip=obs_flip)
        _assert_no_boundary_ties(cfg.pair_obs_out.probs, n, epsilon)
        _assert_no_boundary_ties(cfg.pair_src_obs.probs, n, epsilon / 4.0)
        for num_agents in (1, 2, 3):
            _assert_no_boundary_ties(cfg.pair_src_out.probs, n * num_agents, epsilon)
            source_cfg = SourceConfig(p0=cfg.p_x,
                                      obs_channel=CondPmf.binary_flip(obs_flip),
                                      L=num_agents, n=n)
            for trial in range(trials_each):
                specs = binned_specs(cfg, source_cfg, seed + trial)
                [outcome] = run_binned_trial(source_cfg, cfg, specs, seed, trial)
                label, y_oracle = _oracle_binned_trial(source_cfg, cfg, specs,
                                                       seed, trial)
                label_counts[label] = label_counts.get(label, 0) + 1
                if outcome.error_case.value != label or \
                        not np.array_equal(outcome.y_seq, y_oracle):
                    mismatches += 1

    total = 3 * trials_each * 4
    detail = (f"{total} comparisons; decode matches 0/1/2+: "
              f"{[match_coverage.get(k, 0) for k in (0, 1, 2)]}, trial labels "
              f"{dict(sorted(label_counts.items()))}") \
        if not mismatches else f"{mismatches}/{total} disagreements"
    return _result("AC6", start, mismatches == 0, detail)


# ---------------------------------------------------------------------------
# AC7: region solver vs dense grid
# ---------------------------------------------------------------------------

def _mi_grid(w0: float, w1: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cells = ((w0 * (1 - a), w0, 0), (w0 * a, w0, 1),
             (w1 * (1 - b), w1, 0), (w1 * b, w1, 1))
    col0 = w0 * (1 - a) + w1 * (1 - b)
    col1 = w0 * a + w1 * b
    cols = (col0, col1)
    out = np.zeros_like(a)
    for m, row_mass, col_idx in cells:
        mask = m > 1e-300
        contrib = np.zeros_like(a)
        contrib[mask] = m[mask] * np.log(m[mask] / (row_mass * cols[col_idx][mask]))
        out += contrib
    return np.maximum(out, 0.0)


def _binary_grid_tables(query: RegionQuery, a_ticks: np.ndarray, b_ticks: np.ndarray):
    a, b = np.meshgrid(a_ticks, b_ticks, indexing="ij")
    pxh = query.p0.probs @ query.obs_channel.rows
    mi = _mi_grid(pxh[0], pxh[1], a, b)
    cmi = np.zeros_like(a)
    for x in range(2):
        r = query.obs_channel.rows[x]
        cmi += query.p0.probs[x] * _mi_grid(r[0], r[1], a, b)
    target = query.target_joint
    tv = np.zeros_like(a)
    for x in range(2):
        row = query.obs_channel.rows[x]
        out1 = row[0] * a + row[1] * b
        tv += np.abs(query.p0.probs[x] * (1 - out1) - target[x, 0])
        tv += np.abs(query.p0.probs[x] * out1 - target[x, 1])
    return mi, cmi, 0.5 * tv


def _masked_argmin(table: np.ndarray, tv: np.ndarray, delta: float):
    feasible = tv <= delta + region_mod.FEASIBILITY_SLACK
    if not feasible.any():
        return None, None
    masked = np.where(feasible, table, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return float(masked[idx]), idx


def _grid_oracle(query: RegionQuery, kind: str, delta: float,
                 coarse_tables, coarse_ticks: np.ndarray) -> float | None:
    """Exhaustive step-1e-3 grid minimum, then local zooms that recenter and
    repeat while they improve (shallow valleys can carry the optimum several
    coarse cells away), so the reference resolves boundary optima well below
    the 1e-4 gate."""
    mi, cmi, tv = coarse_tables
    value, idx = _masked_argmin(mi if kind == "finite" else cmi, tv, delta)
    if value is None:
        return None
    center = (float(coarse_ticks[idx[0]]), float(coarse_ticks[idx[1]]))
    for span, step in ((3e-3, 1e-4), (3e-4, 1e-5)):
        for _ in range(200):
            a_ticks = np.clip(np.arange(center[0] - span, center[0] + span + step / 2,
                                        step), 0.0, 1.0)
            b_ticks = np.clip(np.arange(center[1] - span, center[1] + span + step / 2,
                                        step), 0.0, 1.0)
            mi_z, cmi_z, tv_z = _binary_grid_tables(query, a_ticks, b_ticks)
            zoom_value, zoom_idx = _masked_argmin(mi_z if kind == "finite" else cmi_z,
                                                  tv_z, delta)
            if zoom_value is None or zoom_value >= value - 1e-12:
                break
            value = zoom_value
            center = (float(a_ticks[zoom_idx[0]]), float(b_ticks[zoom_idx[1]]))
    return value


def _ac7_queries(count: int = 20):
    """Seeded binary queries: half exactly reachable targets with grid-aligned
    matching channels, half generic.  Queries whose fidelity floor sits within
    5e-3 of a tested radius are rejected so feasibility is never a coin flip
    between the solver and the 1e-3 grid."""
    generator = np.random.default_rng(707)
    deltas = (0.0, 0.05, 0.1, 0.3)
    queries = []
    while len(queries) < count:
        raw = np.clip(generator.dirichlet((2.0, 2.0)), 0.05, None)
        p0 = Pmf(raw / raw.sum())
        obs_raw = np.clip(generator.dirichlet((2.0, 2.0), size=2), 0.05, 0.95)
        obs = CondPmf(obs_raw / obs_raw.sum(axis=1, keepdims=True))
        if abs(float(np.linalg.det(obs.rows))) < 0.2:
            continue
        aligned = len(queries) % 2 == 0
        if aligned:
            params = generator.integers(0, 1001, size=2) / 1000.0
            q_aligned = np.array([[1 - params[0], params[0]],
                                  [1 - params[1], params[1]]])
            target = CondPmf(obs.rows @ q_aligned)
        else:
            target = CondPmf(generator.dirichlet((2.0, 2.0), size=2))
        query = RegionQuery(p0=p0, obs_channel=obs, target=target)
        dmin, _ = min_achievable_delta(query)
        if aligned and dmin > 1e-9:
            continue
        # a generic target must be clearly unreachable, or the 1e-9 ball at
        # delta=0 contains no grid point and feasibility verdicts would split
        if not aligned and dmin <= 5e-3:
            continue
        if any(abs(dmin - d) <= 5e-3 for d in deltas if d > 0):
            continue
        queries.append(query)
    return queries, deltas


def ac7_region_solver_vs_grid() -> CheckResult:
    """Solver optima within 1e-4 nats of a step-1e-3 exhaustive grid, curves
    non-increasing, and exact zero rate at delta >= 1."""
    start = time.perf_counter()
    issues = []
    queries, deltas = _ac7_queries()
    coarse_ticks = np.linspace(0.0, 1.0, 1001)
    for qi, query in enumerate(queries):
        coarse_tables = _binary_grid_tables(query, coarse_ticks, coarse_ticks)
        curve = region_mod.rate_delta_curve(query, deltas)
        previous = {"finite": math.inf, "per_agent": math.inf}
        for point in curve:
            grids = {kind: _grid_oracle(query, kind, point.delta,
                                        coarse_tables, coarse_ticks)
                     for kind in ("finite", "per_agent")}
            for kind, solved in (("finite", point.finite),
                                 ("per_agent", point.per_agent)):
                grid_value = grids[kind]
                if grid_value is None or not solved.feasible:
                    if (grid_value is None) != (not solved.feasible):
                        issues.append(f"q{qi} d={point.delta} {kind}: feasibility "
                                      f"split (grid {grid_value}, "
                                      f"solver feasible={solved.feasible})")
                    continue
                if abs(solved.rate - grid_value) > RATE_TOL:
                    issues.append(f"q{qi} d={point.delta} {kind}: solver "
                                  f"{solved.rate:.6f} vs grid {grid_value:.6f}")
                if solved.rate > previous[kind] + 1e-9:
                    issues.append(f"q{qi} {kind}: rate increased along delta")
                previous[kind] = min(previous[kind], solved.rate)

    for query in queries[:3]:
        wide = RegionQuery(query.p0, query.obs_channel, query.target, 1.0)
        for solve in (region_mod.min_finite_agent_rate, region_mod.min_per_agent_rate):
            point = solve(wide)
            if point.rate != 0.0:
                issues.append(f"rate at delta=1 is {point.rate!r}, expected exact 0.0")

    detail = f"{len(queries)} queries x {len(deltas)} radii x 2 objectives" \
        if not issues else "; ".join(issues[:4])
    return _result("AC7", start, not issues, detail)


# ---------------------------------------------------------------------------
# AC8: exact-fidelity reduction
# ---------------------------------------------------------------------------

def ac8_zero_delta_consistency() -> CheckResult:
    """For an exactly reachable target the delta=0 minimized rates coincide
    with the rates evaluated at the matching channel."""
    start = time.perf_counter()
    p0 = Pmf([0.55, 0.45])
    obs = CondPmf.binary_flip(0.2)
    q_true = CondPmf([[0.85, 0.15], [0.10, 0.90]])
    target = CondPmf(obs.rows @ q_true.rows)
    query = RegionQuery(p0=p0, obs_channel=obs, target=target, delta=0.0)

    issues = []
    dmin, _ = min_achievable_delta(query)
    if dmin > 1e-9:
        issues.append(f"fidelity floor {dmin:.3e} not ~0 for reachable target")
    fin = region_mod.min_finite_agent_rate(query)
    per = region_mod.min_per_agent_rate(query)
    triple = compose_markov(p0, obs, q_true)
    fin_expected = mutual_information(triple.pair_marginal(1, 2))
    per_expected = conditional_mutual_information(triple)
    if abs(fin.rate - fin_expected) > CONSISTENCY_TOL:
        issues.append(f"finite rate {fin.rate:.8f} vs {fin_expected:.8f}")
    if abs(per.rate - per_expected) > CONSISTENCY_TOL:
        issues.append(f"per-agent rate {per.rate:.8f} vs {per_expected:.8f}")
    detail = (f"finite {fin.rate:.6f} == {fin_expected:.6f}, "
              f"per-agent {per.rate:.6f} == {per_expected:.6f}") \
        if not issues else "; ".join(issues)
    return _result("AC8", start, not issues, detail)


# ---------------------------------------------------------------------------
# AC9: byte-identical replay across worker counts
# ---------------------------------------------------------------------------

_AC9_SPEC = {
    "alphabets": {"x_size": 2, "y_size": 2},
    "source": {"p0": [0.5, 0.5],
               "obs_channel": [[0.8, 0.2], [0.2, 0.8]]},
    "target": {"p_y_given_x": [[0.71, 0.29], [0.29, 0.71]]},
    "scheme": {"kind": "direct", "rates": [0.25],
               "epsilons": {"typicality": 0.4, "slacks": [0.1]},
               "aux_channel": [[0.85, 0.15], [0.15, 0.85]]},
    "experiment": {"n_list": [24, 36], "L_list": [1, 2], "trials": 60,
                   "seed": 11, "delta_list": [0.2], "budget": 20000},
}


def ac9_replay_determinism() -> CheckResult:
    """cmd_simulate output is byte-identical across reruns and worker counts."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(_AC9_SPEC, handle)
        outputs = []
        for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
            out_path = os.path.join(tmp, f"out_{tag}.csv")
            code = cli.cmd_simulate(spec_path, out_path, workers=workers)
            if code != 0:
                return _result("AC9", start, False, f"simulate exit code {code}")
            with open(out_path, "rb") as handle:
                outputs.append(handle.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    detail = f"{len(outputs[0])} bytes identical across workers 1/4 and replay" \
        if identical else "outputs differ"
    return _result("AC9", start, identical, detail)


_CHECKS = (
    ("AC1", ac1_probability_kernels),
    ("AC2", ac2_typicality_definition),
    ("AC3", ac3_typical_set_bounds),
    ("AC4", ac4_markov_information_ordering),
    ("AC5", ac5_direct_scheme_trend),
    ("AC6", ac6_binned_decoder_oracle),
    ("AC7", ac7_region_solver_vs_grid),
    ("AC8", ac8_zero_delta_consistency),
    ("AC9", ac9_replay_determinism),
)


def criterion_ids() -> tuple[str, ...]:
    return tuple(name for name, _ in _CHECKS)


def run_all(only=None) -> list[CheckResult]:
    """Execute the acceptance checks (optionally a subset) in order."""
    wanted = {name.strip().upper() for name in only} if only else None
    results = []
    for name, check in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        results.append(check())
    return results
