"""Nature's actions: an i.i.d. source and L noisy observations of it.

Position i of the action sequence is drawn from p0; each agent l then sees
an independent corruption of x_i through the common observation channel.
Draws are keyed by (seed, trial_index, stream), where stream 0 is the action
and stream 1+l is agent l's observation, so any subset of a trial can be
regenerated independently and in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .probkit import CondPmf, Pmf

SOURCE_STREAM = 1


@dataclass(frozen=True)
class SourceConfig:
    """Source law, observation channel, agent count, and blocklength."""

    p0: Pmf
    obs_channel: CondPmf
    L: int
    n: int

    def __post_init__(self):
        if self.obs_channel.in_size != self.p0.size:
            raise ValueError("observation channel input must match p0 alphabet")
        if self.obs_channel.out_size != self.p0.size:
            raise ValueError("observation channel must keep the common alphabet")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @cached_property
    def _action_cdf(self) -> np.ndarray:
        cdf = rng.right_closed_cdf(self.p0.probs)
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def _obs_cdf(self) -> np.ndarray:
        """One right-closed cdf row per action symbol."""
        cdf = np.cumsum(self.obs_channel.rows, axis=1)
        cdf[:, -1] = 1.0
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True)
class ActionDraw:
    """One realization: the action sequence and the L observed sequences."""

    x_seq: np.ndarray
    xhat_seqs: np.ndarray  # shape (L, n)

    def __post_init__(self):
        self.x_seq.setflags(write=False)
        self.xhat_seqs.setflags(write=False)


def draw_actions(cfg: SourceConfig, seed: int, trial_index: int) -> ActionDraw:
    """Generate one trial's action and observations, replayably.

    The output is a pure function of (cfg, seed, trial_index); no generator
    state is consumed.
    """
    keys = rng.derive_keys(seed, SOURCE_STREAM, trial_index, count=cfg.L + 1)
    u = rng.uniforms(keys[:, None], np.arange(cfg.n, dtype=np.uint64))

    # inverse CDFs by comparison-sum: the number of cdf entries <= u
    # (searchsorted 'right'; the last entry, 1.0, exceeds every u); every
    # observation stream reads the cdf rows of the same actions
    x = np.zeros(cfg.n, dtype=np.int64)
    for edge in cfg._action_cdf[:-1]:
        x += u[0] >= edge
    xhat = np.zeros((cfg.L, cfg.n), dtype=np.int64)
    for edges in cfg._obs_cdf.T[:-1]:
        xhat += u[1:] >= edges[x]
    return ActionDraw(x_seq=x, xhat_seqs=xhat)
