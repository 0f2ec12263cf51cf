"""coordsim: coordination codes over noisy agent observations.

A first node acts i.i.d.; L agents see independently corrupted versions of
the action through a common memoryless channel and talk to a second node
over rate-limited links.  This package simulates the random-codebook schemes
that let the second node match the empirical joint type of the two action
sequences to a target law, and computes the inner-bound rate regions (exact
and within a total-variation radius) those schemes achieve.
"""

import importlib

from .probkit import (CondPmf, JointPmf, Pmf, compose_markov,
                      conditional_mutual_information, entropy, joint_type,
                      mutual_information, tv_distance)
from .typicality import (count_bounds, delta_t, epsilon_m, is_strongly_typical,
                         typical_set_size_bound)
from .source import ActionDraw, SourceConfig, draw_actions
from .coding import (BinnedSchemeConfig, CodebookSpec, DecoderBudgetExceeded,
                     DirectSchemeConfig, EncodeResult, ErrorCase, Trials, codeword_block,
                     decode_binned, decode_direct, encode_binned, encode_direct,
                     run_binned_trial, run_direct_trial)
from .harness import (ExperimentAborted, ExperimentConfig, ExperimentStats,
                      run_experiment)
from .runspec import RunSpec, SpecError, load_runspec, parse_runspec

__version__ = "0.1.0"

# Only the region commands and a solver-driven simulate use the region
# solver, so a pinned-channel run does not pay its import: its names load
# on first use (PEP 562).
_REGION_NAMES = frozenset((
    "RegionQuery", "RegionPoint", "CurvePoint", "min_achievable_delta",
    "min_per_agent_rate", "min_finite_agent_rate", "rate_delta_curve"))


def __getattr__(name: str):
    if name == "region" or name in _REGION_NAMES:
        # import_module, not `from . import region`: the latter asks this
        # hook for the attribute first and would recurse
        region = importlib.import_module(".region", __name__)
        return region if name == "region" else getattr(region, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Pmf", "CondPmf", "JointPmf",
    "joint_type", "tv_distance", "entropy",
    "mutual_information", "conditional_mutual_information", "compose_markov",
    "epsilon_m", "delta_t", "count_bounds",
    "is_strongly_typical", "typical_set_size_bound",
    "SourceConfig", "ActionDraw", "draw_actions",
    "CodebookSpec", "DirectSchemeConfig", "BinnedSchemeConfig",
    "EncodeResult", "Trials", "ErrorCase",
    "DecoderBudgetExceeded",
    "codeword_block", "encode_direct", "decode_direct",
    "encode_binned", "decode_binned",
    "run_direct_trial", "run_binned_trial",
    "RegionQuery", "RegionPoint", "CurvePoint",
    "min_achievable_delta", "min_per_agent_rate", "min_finite_agent_rate",
    "rate_delta_curve",
    "ExperimentConfig", "ExperimentStats", "ExperimentAborted",
    "run_experiment",
    "RunSpec", "SpecError", "load_runspec", "parse_runspec",
]
