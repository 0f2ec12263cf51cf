"""Monte Carlo experiment driver.

Runs seeded independent trials of either coding scheme for one grid cell
and aggregates the realized total-variation distances and error-case
counts; `coordsim simulate` walks the spec's grid one cell at a time.
Per-trial randomness is counter-derived from (seed, trial index), so
results are bit-identical under any worker count.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coding import (BinnedSchemeConfig, DecoderBudgetExceeded, DirectSchemeConfig,
                     ErrorCase, binned_specs, direct_specs, run_binned_trial,
                     run_direct_trial)
from .probkit import JointPmf
from .source import SourceConfig

CASE_LABELS = tuple(case.value for case in ErrorCase)


class ExperimentAborted(RuntimeError):
    """Raised at the first trial whose decoder instance passes the decoder's
    work bound (coding.DECODE_WORK_CAP); the message names that trial."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; immutable and picklable."""

    source: SourceConfig
    scheme: DirectSchemeConfig | BinnedSchemeConfig
    trials: int
    seed: int
    target: JointPmf | None = None
    search_budget: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        sx = self.source.p0.size
        tshape = self.scheme.triple.shape
        if tshape[0] != sx or tshape[1] != sx:
            raise ValueError("scheme triple must share the source alphabet")
        if isinstance(self.scheme, DirectSchemeConfig) \
                and self.scheme.num_agents != self.source.L:
            raise ValueError("direct scheme needs one rate per agent")
        if self.target is not None and self.target.shape != self.scheme.pair_src_out.shape:
            raise ValueError("coordination target shape must match the design pair")


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregates over the trials of one experiment."""

    mean_tv: float
    q50: float
    q90: float
    q99: float
    error_case_counts: Mapping[str, int]
    trials: int
    wall_time: float
    budget_hits: int
    tv_stderr: float

    def __post_init__(self):
        object.__setattr__(self, "error_case_counts",
                           MappingProxyType(dict(self.error_case_counts)))
        if sum(self.error_case_counts.values()) != self.trials:
            raise ValueError("error-case counts must sum to the trial count")
        if not 0.0 <= self.mean_tv <= 1.0:
            raise ValueError("mean TV must lie in [0, 1]")

    def case_fraction(self, label: str) -> float:
        return self.error_case_counts.get(label, 0) / self.trials


# the codebook specs of the last cell this process ran, keyed by what their
# codewords depend on, so the blocks of one cell share their prefix stores;
# one entry, so a process keeps at most one cell's stores
_cell_memo: dict = {}


def _cell_specs(cfg: ExperimentConfig) -> tuple:
    """This process's codebook specs for cfg's cell: fresh ones for a new
    cell, else the ones its earlier blocks grew."""
    build = direct_specs if isinstance(cfg.scheme, DirectSchemeConfig) else binned_specs
    specs = build(cfg.scheme, cfg.source, cfg.seed)
    key = tuple((s.n, s.p_y.probs.tobytes(), s.seed, s.agent_id, s.num_bins, s.words_per_bin)
                for s in specs)
    if key not in _cell_memo:
        _cell_memo.clear()
        _cell_memo[key] = specs
    return _cell_memo[key]


def _run_block(cfg: ExperimentConfig, lo: int, hi: int) -> list[tuple]:
    specs = _cell_specs(cfg)
    run = run_direct_trial if isinstance(cfg.scheme, DirectSchemeConfig) else run_binned_trial
    try:
        outcomes = run(cfg.source, cfg.scheme, specs, cfg.seed, lo, hi - lo,
                       budget=cfg.search_budget, report_target=cfg.target)
    except DecoderBudgetExceeded as exc:
        raise ExperimentAborted(f"trial {exc.trial_index} of {cfg.trials}: {exc}; shrink n, "
                                f"L, or the codebook") from exc
    return [(outcome.tv_realized, outcome.error_case.value,
             outcome.budget_hit, outcome.search_cost) for outcome in outcomes]


def _quantiles(values: np.ndarray, qs) -> list[float]:
    """np.quantile(values, qs) for 1-d float values, computed the way numpy's
    'linear' method computes it (virtual index and interpolation alike, so
    the results are bit-equal) from one sort: np.quantile itself imports
    numpy.ma on its first call."""
    ordered = np.sort(values).tolist()
    n = len(ordered)
    out = []
    for q in qs:
        virtual = (n - 1) * q
        if virtual >= n - 1:
            out.append(ordered[-1])
            continue
        below = math.floor(virtual)
        gamma = virtual - below
        a, b = ordered[below], ordered[below + 1]
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Execute cfg.trials independent trials and aggregate.

    Statistics are computed in trial order regardless of how blocks are
    scheduled, so any worker count yields identical results.  A decoder
    refusal raises ExperimentAborted naming the first refused trial: each
    block stops at its first, and blocks are read in trial order.
    """
    start = time.perf_counter()
    blocks = _split_blocks(cfg.trials, workers)
    if workers <= 1 or len(blocks) <= 1:
        results = [_run_block(cfg, lo, hi) for lo, hi in blocks]
    else:
        # multiprocessing loads only for runs that fan out
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_run_block, itertools.repeat(cfg),
                                    [b[0] for b in blocks], [b[1] for b in blocks]))
        finally:
            # an abort leaves no block worth starting
            pool.shutdown(cancel_futures=True)
    rows = [row for block in results for row in block]

    tvs = np.array([row[0] for row in rows])
    counts = {label: 0 for label in CASE_LABELS}
    for row in rows:
        counts[row[1]] += 1
    quantiles = _quantiles(tvs, (0.5, 0.9, 0.99))
    stderr = float(tvs.std(ddof=1) / math.sqrt(tvs.size)) if tvs.size > 1 else 0.0
    return ExperimentStats(
        mean_tv=float(tvs.mean()),
        q50=quantiles[0], q90=quantiles[1], q99=quantiles[2],
        error_case_counts=counts,
        trials=len(rows),
        wall_time=time.perf_counter() - start,
        budget_hits=sum(1 for row in rows if row[2]),
        tv_stderr=stderr)


def _split_blocks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous trial ranges, one per task.

    A single worker runs one block; more workers get workers * 4 blocks.
    Either way each process generates a cell's codebook prefixes once: the
    blocks it runs share its specs (see _cell_specs).
    """
    pieces = 1 if workers <= 1 else min(trials, workers * 4)
    size = math.ceil(trials / pieces)
    return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

