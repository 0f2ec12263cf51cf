import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim import coding, harness
from coordsim.coding import (BinnedSchemeConfig, DirectSchemeConfig,
                             EncodeResult, ErrorCase, codeword_block,
                             decode_direct, direct_specs)
from coordsim.harness import (ExperimentAborted, ExperimentConfig,
                              ExperimentStats, _run_block, _split_blocks,
                              run_experiment)
from coordsim.probkit import CondPmf, Pmf, compose_markov, mutual_information
from coordsim.source import SourceConfig, draw_actions


def direct_config(n=40, L=1, trials=50, seed=11, rate=None, epsilon=0.3,
                  budget=20_000):
    p0 = Pmf.uniform(2)
    obs = CondPmf.binary_flip(0.4)
    triple = compose_markov(p0, obs, CondPmf.binary_flip(0.4))
    if rate is None:
        rate = mutual_information(triple.pair_marginal(1, 2).probs) + 0.06
    scheme = DirectSchemeConfig(rates=(rate,) * L, slacks=(0.12,) * L,
                                epsilon=epsilon, triple=triple)
    return ExperimentConfig(source=SourceConfig(p0=p0, obs_channel=obs, L=L, n=n),
                            scheme=scheme, trials=trials, seed=seed,
                            search_budget=budget)


def binned_config(n=6, L=2, trials=30, seed=5, epsilon=0.5, words=2.6, budget=None):
    p0 = Pmf.uniform(2)
    obs = CondPmf.binary_flip(0.2)
    triple = compose_markov(p0, obs, CondPmf.binary_flip(0.3))
    scheme = BinnedSchemeConfig(rate_bin=math.log(4.3) / n, slack_bin=0.0,
                                rate_word=math.log(words) / n, slack_word=0.0,
                                epsilon=epsilon, triple=triple)
    return ExperimentConfig(source=SourceConfig(p0=p0, obs_channel=obs, L=L, n=n),
                            scheme=scheme, trials=trials, seed=seed,
                            search_budget=budget)


def strip_timing(stats: ExperimentStats) -> ExperimentStats:
    return dataclasses.replace(stats, wall_time=0.0,
                               error_case_counts=dict(stats.error_case_counts))


def count_generated(monkeypatch) -> list[int]:
    """Patch codeword_block to record how many codewords each call makes,
    and drop the specs this process keeps from earlier cells."""
    generated = []
    block = coding.codeword_block

    def counting_block(spec, flat):
        generated.append(len(flat))
        return block(spec, flat)

    monkeypatch.setattr(coding, "codeword_block", counting_block)
    monkeypatch.setattr(harness, "_cell_memo", {})
    return generated


class TestRunExperiment:
    def test_counts_sum_to_trials(self):
        stats = run_experiment(direct_config(trials=40))
        assert sum(stats.error_case_counts.values()) == 40
        assert stats.trials == 40
        assert 0.0 <= stats.mean_tv <= 1.0
        assert stats.q50 <= stats.q90 <= stats.q99

    def test_deterministic_across_worker_counts(self):
        cfg = direct_config(trials=48)
        solo = strip_timing(run_experiment(cfg, workers=1))
        quad = strip_timing(run_experiment(cfg, workers=4))
        assert solo == quad

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(scheme=st.sampled_from(("direct", "binned")), trials=st.integers(1, 23),
           seed=st.integers(0, 2**31 - 1))
    def test_two_workers_match_one(self, scheme, trials, seed):
        if scheme == "direct":
            cfg = direct_config(n=24, L=2, trials=trials, seed=seed, budget=400)
        else:
            cfg = binned_config(trials=trials, seed=seed)
        assert strip_timing(run_experiment(cfg, workers=1)) == \
            strip_timing(run_experiment(cfg, workers=2))

    def test_single_worker_generates_each_prefix_once(self, monkeypatch):
        generated, costs = [], {}
        block, encode = coding.codeword_block, coding.encode_direct

        def counting_block(spec, flat):
            generated.append(len(flat))
            return block(spec, flat)

        def recording_encode(xhat, cfg, spec, budget=None):
            result = encode(xhat, cfg, spec, budget)
            costs[spec.agent_id] = max(costs.get(spec.agent_id, 0), result.search_cost)
            return result

        monkeypatch.setattr(coding, "codeword_block", counting_block)
        monkeypatch.setattr(coding, "encode_direct", recording_encode)
        cfg = direct_config(n=40, L=2, trials=60, rate=0.1, budget=900)
        stats = run_experiment(cfg)
        assert stats.budget_hits > 0 and set(costs) == {0, 1}
        assert sum(generated) <= sum(costs.values()) + cfg.trials

    def test_single_worker_generates_no_codeword_past_the_prefixes(self, monkeypatch):
        generated, costs = count_generated(monkeypatch), {}
        encode = coding.encode_direct

        def recording_encode(xhat, cfg, spec, budget=None):
            result = encode(xhat, cfg, spec, budget)
            costs[spec.agent_id] = max(costs.get(spec.agent_id, 0), result.search_cost)
            return result

        monkeypatch.setattr(coding, "encode_direct", recording_encode)
        stats = run_experiment(direct_config(n=40, L=2, trials=60, rate=0.1, budget=900))
        assert stats.budget_hits > 0 and set(costs) == {0, 1}
        # the emitted words are read from the stores the scans grew
        assert sum(generated) <= sum(costs.values())

    def test_blocks_in_one_process_share_the_prefixes(self, monkeypatch):
        cfg = direct_config(n=40, L=2, trials=60, rate=0.1, budget=900)
        generated = count_generated(monkeypatch)
        totals, rows = [], []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_cell_memo", {})
            generated.clear()
            blocks = _split_blocks(cfg.trials, workers)
            rows.append([row for lo, hi in blocks for row in _run_block(cfg, lo, hi)])
            totals.append(sum(generated))
        assert len(_split_blocks(cfg.trials, 2)) == 8
        assert rows[0] == rows[1]
        # both agents' scans reach the budget, so each book's store is 900 rows
        assert totals == [2 * 900, 2 * 900]

    def test_decode_direct_emits_the_stored_word_as_int64(self, monkeypatch):
        cfg = direct_config(n=40, L=2, trials=60, rate=0.1, budget=900)
        specs = direct_specs(cfg.scheme, cfg.source, cfg.seed)
        generated = count_generated(monkeypatch)
        failed = EncodeResult(w=None, v=None, found=False, search_cost=900)
        draw = draw_actions(cfg.source, cfg.seed, np.arange(40))
        results = [[coding.encode_direct(xhats[l], cfg.scheme, spec, 900)
                    for l, spec in enumerate(specs)] for xhats in draw.xhat_seqs]
        # the block as scanned, and the same block with every encoder failed
        for block in (results, [[failed, failed]] * 40):
            before = sum(generated)
            ys = decode_direct(block, specs)
            assert sum(generated) == before
            assert ys.dtype == np.int64 and ys.shape == (40, cfg.source.n)
            for y, trial in zip(ys, block):
                spec, w = next(((s, r.w) for s, r in zip(specs, trial) if r.found),
                               (specs[0], 0))
                assert np.array_equal(y, codeword_block(spec, [w])[0])
        # a word the store does not hold is generated alone
        fresh = direct_specs(cfg.scheme, cfg.source, cfg.seed)
        generated.clear()
        y = decode_direct([[failed, EncodeResult(w=77, v=0, found=True, search_cost=78)]], fresh)
        assert generated == [1] and y.dtype == np.int64
        assert np.array_equal(y, codeword_block(fresh[1], [77]))

    def test_binned_scheme_runs(self):
        stats = run_experiment(binned_config())
        assert stats.trials == 30

    def test_rate_zero_forces_encoder_failures(self):
        cfg = direct_config(rate=0.0, trials=30, epsilon=0.12)
        scheme = dataclasses.replace(cfg.scheme, slacks=(0.0,))
        cfg = dataclasses.replace(cfg, scheme=scheme)
        stats = run_experiment(cfg)
        assert stats.error_case_counts[ErrorCase.B.value] + \
            stats.error_case_counts[ErrorCase.A.value] == 30

    def test_identity_channels_coordinate_by_copying(self):
        # noiseless observation and identity auxiliary channel: whenever the
        # action sequence itself is typical, encoding finds a near-copy and
        # the trial succeeds; nothing can fail at the decoder or final check
        p0 = Pmf.uniform(2)
        ident = CondPmf(np.eye(2))
        triple = compose_markov(p0, ident, ident)
        scheme = DirectSchemeConfig(rates=(math.log(2) + 0.1,), slacks=(0.1,),
                                    epsilon=0.8, triple=triple)
        cfg = ExperimentConfig(
            source=SourceConfig(p0=p0, obs_channel=ident, L=1, n=12),
            scheme=scheme, trials=40, seed=99)
        stats = run_experiment(cfg)
        counts = stats.error_case_counts
        assert counts[ErrorCase.B.value] == 0
        assert counts[ErrorCase.D.value] == 0
        assert counts[ErrorCase.NONE.value] > 0
        assert counts[ErrorCase.NONE.value] + counts[ErrorCase.A.value] == 40
        assert stats.q50 <= scheme.epsilon / 2

    def test_decoder_abort_names_the_first_refused_trial(self):
        # 3000^2 word tuples of 6 positions pass the decoder's work bound, so
        # the first trial whose encoders both succeed within the budget
        # aborts the run, whichever block of which worker reaches it
        cfg = binned_config(trials=40, words=3000, budget=20)
        messages = []
        for workers in (1, 2):
            with pytest.raises(ExperimentAborted) as caught:
                run_experiment(cfg, workers=workers)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("trial 22 of 40: 3000^2 word tuples")

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_config(trials=0)
        cfg = direct_config()
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, scheme=dataclasses.replace(
                cfg.scheme, rates=(0.1, 0.2)))


class TestStats:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(st.sampled_from((0.0, 0.05, 0.1, 1 / 3, 0.5, 1.0)),
                                     st.floats(0.0, 1.0)), min_size=1, max_size=80),
           extra=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_quantiles_are_bit_equal_to_numpy(self, values, extra):
        # ties are common: most values come from a six-value pool
        qs = (0.5, 0.9, 0.99, *extra)
        tvs = np.array(values)
        want = np.quantile(tvs, qs)
        got = np.array(harness._quantiles(tvs, qs))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            ExperimentStats(mean_tv=0.1, q50=0.1, q90=0.1, q99=0.1,
                            error_case_counts={"none": 3}, trials=4,
                            wall_time=0.0, budget_hits=0, tv_stderr=0.0)

    def test_case_fraction(self):
        stats = ExperimentStats(mean_tv=0.1, q50=0.1, q90=0.1, q99=0.1,
                                error_case_counts={"none": 3, "B": 1}, trials=4,
                                wall_time=0.0, budget_hits=0, tv_stderr=0.0)
        assert stats.case_fraction("B") == 0.25
        assert stats.case_fraction("Ca") == 0.0

