"""End-to-end checks on non-binary and non-square alphabets.

Everything else in the suite is binary; these tests catch shape bugs in the
generic paths (ternary sources, 3-to-2 channels, the region solver on three
observation rows).
"""

import dataclasses

import numpy as np
import pytest

from coordsim.coding import (BinnedSchemeConfig, DirectSchemeConfig, ErrorCase,
                             binned_specs, decode_binned, direct_specs,
                             run_binned_trial, run_direct_trial)
from coordsim.harness import ExperimentConfig, run_experiment
from coordsim.probkit import (CondPmf, Pmf, compose_markov,
                              conditional_mutual_information, entropy,
                              mutual_information)
from coordsim.region import (RegionQuery, _objective_batch, min_achievable_delta,
                             min_finite_agent_rate, min_per_agent_rate)
from coordsim.source import SourceConfig, draw_actions
from coordsim.typicality import is_strongly_typical

GEN = np.random.default_rng(2026)

P0_3 = Pmf([0.5, 0.3, 0.2])
OBS_3 = CondPmf([[0.8, 0.1, 0.1],
                 [0.1, 0.8, 0.1],
                 [0.15, 0.15, 0.7]])
AUX_32 = CondPmf([[0.9, 0.1],
                  [0.2, 0.8],
                  [0.5, 0.5]])


def ternary_triple():
    return compose_markov(P0_3, OBS_3, AUX_32)


class TestKernels:
    def test_information_quantities(self):
        triple = ternary_triple()
        assert triple.shape == (3, 3, 2)
        mi = mutual_information(triple.pair_marginal(1, 2).probs)
        cmi = conditional_mutual_information(triple)
        assert 0.0 < cmi <= mi + 1e-10
        assert entropy(triple.marginal(2)) <= np.log(2) + 1e-12

    def test_typicality_rectangular_joint(self):
        pair = ternary_triple().pair_marginal(1, 2)
        cfg = SourceConfig(p0=P0_3, obs_channel=OBS_3, L=1, n=400)
        draw = draw_actions(cfg, seed=5, trial_index=0)
        y = (draw.xhat_seqs[0] > 0).astype(np.int64)
        # just exercise the rectangular path on both verdict branches
        assert isinstance(
            is_strongly_typical(draw.xhat_seqs[0], y, pair, 1.0), bool)
        assert not is_strongly_typical(draw.xhat_seqs[0],
                                       np.zeros(400, dtype=np.int64), pair, 0.05)


class TestSchemes:
    def test_direct_trial_runs(self):
        # tight tolerance stresses the fallback path (ternary source pairs
        # are essentially never eps'-typical at n=30); loose tolerance pushes
        # trials through the full success path
        triple = ternary_triple()
        src = SourceConfig(p0=P0_3, obs_channel=OBS_3, L=2, n=30)
        cases = set()
        for epsilon in (0.9, 6.0):
            scheme = DirectSchemeConfig(rates=(0.3, 0.3), slacks=(0.1, 0.1),
                                        epsilon=epsilon, triple=triple)
            specs = direct_specs(scheme, src, 17)
            for outcome in run_direct_trial(src, scheme, specs, 17, 0, 25, budget=5000):
                assert outcome.y_seq.shape == (30,)
                assert set(np.unique(outcome.y_seq)) <= {0, 1}
                cases.add(outcome.error_case)
        assert ErrorCase.NONE in cases
        assert ErrorCase.A in cases

    def test_binned_trial_and_decoder(self):
        triple = ternary_triple()
        cfg = BinnedSchemeConfig(rate_bin=np.log(3.5) / 5, slack_bin=0.0,
                                 rate_word=np.log(2.5) / 5, slack_word=0.0,
                                 epsilon=0.9, triple=triple)
        src = SourceConfig(p0=P0_3, obs_channel=OBS_3, L=2, n=5)
        specs = binned_specs(cfg, src, 23)
        result = decode_binned([0, 1], cfg, specs)
        assert result.matches_found >= 0
        for outcome in run_binned_trial(src, cfg, specs, 23, 0, 20):
            assert 0.0 <= outcome.tv_realized <= 1.0

    def test_experiment_aggregates(self):
        triple = ternary_triple()
        scheme = DirectSchemeConfig(rates=(0.3,), slacks=(0.1,),
                                    epsilon=0.9, triple=triple)
        cfg = ExperimentConfig(
            source=SourceConfig(p0=P0_3, obs_channel=OBS_3, L=1, n=24),
            scheme=scheme, trials=30, seed=3, search_budget=5000)
        stats = run_experiment(cfg, workers=2)
        assert stats.trials == 30
        assert sum(stats.error_case_counts.values()) == 30


class TestRegion:
    def test_rates_and_floor(self):
        query = RegionQuery(p0=P0_3, obs_channel=OBS_3, target=CondPmf(
            OBS_3.rows @ AUX_32.rows))
        dmin, q_arg = min_achievable_delta(query)
        assert dmin <= 1e-9
        assert q_arg.rows.shape == (3, 2)
        # the solver's objectives on the 3-to-2 channel, against probkit
        triple = ternary_triple()
        for kind, expected in (("finite", mutual_information(triple.pair_marginal(1, 2))),
                               ("per_agent", conditional_mutual_information(triple))):
            assert _objective_batch(kind, AUX_32.rows[None], query) == \
                pytest.approx([expected], abs=1e-12)

    def test_solver_three_rows_binary_output(self):
        target = CondPmf(GEN.dirichlet((2.0, 2.0), size=3))
        query = RegionQuery(p0=P0_3, obs_channel=OBS_3, target=target, delta=0.2)
        for solve in (min_finite_agent_rate, min_per_agent_rate):
            point = solve(query)
            assert point.feasible
            assert point.achieved_tv <= 0.2 + 1e-9
            assert point.rate >= 0.0
            # re-solving is deterministic
            again = solve(query)
            assert again.rate == point.rate

    def test_wide_radius_zero_rate(self):
        target = CondPmf(GEN.dirichlet((2.0, 2.0), size=3))
        query = RegionQuery(p0=P0_3, obs_channel=OBS_3, target=target, delta=1.0)
        assert min_per_agent_rate(query).rate == 0.0


def test_monotone_rate_in_delta_ternary():
    target = CondPmf([[0.95, 0.05], [0.1, 0.9], [0.4, 0.6]])
    query = RegionQuery(p0=P0_3, obs_channel=OBS_3, target=target)
    from coordsim.region import rate_delta_curve

    curve = rate_delta_curve(query, [0.0, 0.05, 0.15, 0.5])
    for kind in ("per_agent", "finite"):
        rates = [getattr(pt, kind).rate for pt in curve]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-9


def test_non_square_target_rejected_when_inconsistent():
    with pytest.raises(ValueError):
        # target rows must match the source alphabet
        RegionQuery(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.1),
                    target=CondPmf(np.full((3, 2), 0.5)))


def test_dataclass_replace_keeps_validation():
    triple = ternary_triple()
    scheme = DirectSchemeConfig(rates=(0.3,), slacks=(0.1,), epsilon=0.9,
                                triple=triple)
    with pytest.raises(ValueError):
        dataclasses.replace(scheme, rates=(-0.1,))
