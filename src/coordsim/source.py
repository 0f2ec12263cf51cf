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
        cdf = rng.right_closed_cdf(self.obs_channel.rows)
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True)
class ActionDraw:
    """Realizations: the action sequence and the L observed sequences, with
    the leading axes of the trial indices they were drawn for."""

    x_seq: np.ndarray      # shape (..., n)
    xhat_seqs: np.ndarray  # shape (..., L, n)

    def __post_init__(self):
        self.x_seq.setflags(write=False)
        self.xhat_seqs.setflags(write=False)


def draw_actions(cfg: SourceConfig, seed: int, trial_index) -> ActionDraw:
    """Generate the action and observations of one trial, or of an array of
    trials at once, replayably.

    The output is a pure function of (cfg, seed, trial_index), and a trial's
    draw is the same alone or in any array: its stream keys fold the trial
    index and then the stream into the key of (seed, SOURCE_STREAM), exactly
    the chain rng.derive_key(seed, SOURCE_STREAM, trial, stream).
    """
    trials = np.asarray(trial_index)
    if np.any(trials < 0):
        raise ValueError("trial indices must be >= 0")
    per_trial = rng.fold(rng.derive_key(seed, SOURCE_STREAM), trials.astype(np.uint64))
    keys = rng.fold(per_trial[..., None], np.arange(cfg.L + 1, dtype=np.uint64))
    u = rng.uniforms(keys[..., None], np.arange(cfg.n, dtype=np.uint64))

    # every observation stream reads the cdf rows of the same actions
    x = rng.categorical(u[..., 0, :], cfg._action_cdf)
    xhat = rng.categorical(u[..., 1:, :], cfg._obs_cdf[x][..., None, :, :])
    return ActionDraw(x_seq=x, xhat_seqs=xhat)
