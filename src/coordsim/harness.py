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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coding import (BinnedSchemeConfig, DecoderBudgetExceeded, DecoderLimits,
                     DirectSchemeConfig, ErrorCase, binned_specs, direct_specs,
                     run_binned_trial, run_direct_trial)
from .probkit import JointPmf
from .source import SourceConfig

CASE_LABELS = tuple(case.value for case in ErrorCase)


class ExperimentAborted(RuntimeError):
    """Raised when a trial's decoder instance exceeds the decoder limits."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; immutable and picklable."""

    source: SourceConfig
    scheme: DirectSchemeConfig | BinnedSchemeConfig
    trials: int
    seed: int
    delta: float
    target: JointPmf | None = None
    search_budget: int | None = None
    decoder_limits: DecoderLimits = field(default_factory=DecoderLimits)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
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
    if isinstance(cfg.scheme, DirectSchemeConfig):
        def runner(t):
            return run_direct_trial(cfg.source, cfg.scheme, specs, cfg.seed, t,
                                    budget=cfg.search_budget, report_target=cfg.target)
    else:
        def runner(t):
            return run_binned_trial(cfg.source, cfg.scheme, specs, cfg.seed, t,
                                    budget=cfg.search_budget, limits=cfg.decoder_limits,
                                    report_target=cfg.target)

    rows = []
    for t in range(lo, hi):
        try:
            outcome = runner(t)
            rows.append((outcome.tv_realized, outcome.error_case.value,
                         outcome.budget_hit, outcome.search_cost))
        except DecoderBudgetExceeded as exc:
            rows.append((math.nan, "__aborted__", False, 0, str(exc)))
    return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentStats:
    """Execute cfg.trials independent trials and aggregate.

    Statistics are computed in trial order regardless of how blocks are
    scheduled, so any worker count yields identical results.
    """
    start = time.perf_counter()
    blocks = _split_blocks(cfg.trials, workers)
    if workers <= 1 or len(blocks) <= 1:
        results = [_run_block(cfg, lo, hi) for lo, hi in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, itertools.repeat(cfg),
                                    [b[0] for b in blocks], [b[1] for b in blocks]))
    rows = [row for block in results for row in block]

    aborted = [row for row in rows if row[1] == "__aborted__"]
    if aborted:
        raise ExperimentAborted(
            f"{len(aborted)}/{cfg.trials} trials exceeded the decoder search "
            f"budget (first: {aborted[0][-1]}); shrink n, L, or the codebook, "
            f"or, calling the library, raise ExperimentConfig.decoder_limits")

    tvs = np.array([row[0] for row in rows])
    counts = {label: 0 for label in CASE_LABELS}
    for row in rows:
        counts[row[1]] += 1
    quantiles = np.quantile(tvs, [0.5, 0.9, 0.99])
    stderr = float(tvs.std(ddof=1) / math.sqrt(tvs.size)) if tvs.size > 1 else 0.0
    return ExperimentStats(
        mean_tv=float(tvs.mean()),
        q50=float(quantiles[0]), q90=float(quantiles[1]), q99=float(quantiles[2]),
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

