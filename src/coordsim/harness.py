"""Monte Carlo experiment driver.

Runs seeded independent trials of either coding scheme for one grid cell
and aggregates the realized total-variation distances and error-case
counts; `coordsim simulate` runs one experiment per distinct cell of the
spec's grid.  Per-trial randomness is counter-derived from (seed, trial
index), so results are bit-identical under any worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .coding import (CASES, BinnedSchemeConfig, DecoderBudgetExceeded, DirectSchemeConfig,
                     binned_specs, direct_specs, run_binned_trial, run_direct_trial)
from .probkit import JointPmf
from .source import SourceConfig


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


def _run_block(cfg: ExperimentConfig, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Case codes, TVs and budget stops of trials lo .. hi - 1; the emitted
    sequences are not returned, so a worker does not pickle them back."""
    if isinstance(cfg.scheme, DirectSchemeConfig):
        build, run = direct_specs, run_direct_trial
    else:
        build, run = binned_specs, run_binned_trial
    specs = build(cfg.scheme, cfg.source, cfg.seed)
    try:
        trials = run(cfg.source, cfg.scheme, specs, cfg.seed, lo, hi - lo,
                     budget=cfg.search_budget, report_target=cfg.target)
    except DecoderBudgetExceeded as exc:
        raise ExperimentAborted(f"trial {exc.trial_index} of {cfg.trials}: {exc}; shrink n, "
                                f"L, or the codebook") from exc
    return trials.case, trials.tv, trials.budget_hit


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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    blocks = _split_blocks(cfg.trials, workers)
    if len(blocks) == 1:
        results = [_run_block(cfg, lo, hi) for lo, hi in blocks]
    else:
        # multiprocessing loads only for runs that fan out
        from concurrent.futures import ProcessPoolExecutor

        # one worker per block: every block starts at once
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(_run_block, itertools.repeat(cfg),
                                    [b[0] for b in blocks], [b[1] for b in blocks]))
    cases, tvs, budget_hits = (np.concatenate(part) for part in zip(*results))
    counts = np.bincount(cases, minlength=len(CASES))
    quantiles = _quantiles(tvs, (0.5, 0.9, 0.99))
    stderr = float(tvs.std(ddof=1) / math.sqrt(tvs.size)) if tvs.size > 1 else 0.0
    return ExperimentStats(
        mean_tv=float(tvs.mean()),
        q50=quantiles[0], q90=quantiles[1], q99=quantiles[2],
        error_case_counts={case.value: int(k) for case, k in zip(CASES, counts)},
        trials=tvs.size,
        budget_hits=int(budget_hits.sum()),
        tv_stderr=stderr)


def _split_blocks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous trial ranges in trial order, one per worker: min(trials,
    workers) blocks whose sizes differ by at most one.  Each block builds
    its cell's codebook specs, so each process generates a cell's scan
    batches once."""
    pieces = min(trials, workers)
    size, extra = divmod(trials, pieces)
    bounds = [i * size + min(i, extra) for i in range(pieces + 1)]
    return list(zip(bounds[:-1], bounds[1:]))
