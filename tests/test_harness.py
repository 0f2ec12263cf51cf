import concurrent.futures
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim import coding, harness
from coordsim.coding import (BinnedSchemeConfig, DecoderBudgetExceeded, DirectSchemeConfig,
                             ErrorCase, codeword_block, decode_direct, direct_specs)
from coordsim.harness import (ExperimentAborted, ExperimentConfig,
                              ExperimentStats, _split_blocks,
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


def count_generated(monkeypatch) -> list[int]:
    """Patch codeword_block to record how many codewords each call makes."""
    generated = []
    block = coding.codeword_block

    def counting_block(spec, flat):
        generated.append(len(flat))
        return block(spec, flat)

    monkeypatch.setattr(coding, "codeword_block", counting_block)
    return generated


class TestRunExperiment:
    def test_counts_sum_to_trials(self):
        stats = run_experiment(direct_config(trials=40))
        assert sum(stats.error_case_counts.values()) == 40
        assert stats.trials == 40
        assert 0.0 <= stats.mean_tv <= 1.0
        assert stats.q50 <= stats.q90 <= stats.q99

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(trials=st.integers(1, 500), workers=st.integers(1, 64))
    def test_blocks_cover_the_trials_once_one_per_worker(self, trials, workers):
        blocks = _split_blocks(trials, workers)
        assert len(blocks) == min(trials, workers)
        # contiguous and in order: each block starts where the last ended
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == trials
        sizes = [hi - lo for lo, hi in blocks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_deterministic_across_worker_counts(self):
        cfg = direct_config(trials=48)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=4)

    def test_pool_asks_for_no_more_workers_than_blocks(self, monkeypatch):
        # a fake pool that records its size and runs its blocks in this
        # process, so no worker process starts
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for trials, workers, blocks in ((5, 32, 5), (60, 2, 2), (3, 3, 3)):
            cfg = direct_config(trials=trials)
            assert len(_split_blocks(trials, workers)) == blocks
            assert run_experiment(cfg, workers=workers) == run_experiment(cfg, workers=1)
            assert asked.pop() == min(workers, blocks)
        assert not asked

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(scheme=st.sampled_from(("direct", "binned")), trials=st.integers(1, 23),
           seed=st.integers(0, 2**31 - 1))
    def test_two_workers_match_one(self, scheme, trials, seed):
        if scheme == "direct":
            cfg = direct_config(n=24, L=2, trials=trials, seed=seed, budget=400)
        else:
            cfg = binned_config(trials=trials, seed=seed)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

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
        cfg = direct_config(n=40, L=2, trials=60, rate=0.1, budget=900)
        stats = run_experiment(cfg)
        assert stats.budget_hits > 0 and costs == {0: 900, 1: 900}
        # the scans generate each book's store once, up to the longest scan,
        # and the decoder generates each trial's emitted word
        assert sum(generated) == sum(costs.values()) + cfg.trials

    def test_decode_direct_emits_the_stored_word_as_int64(self, monkeypatch):
        cfg = direct_config(n=40, L=2, trials=60, rate=0.1, budget=900)
        specs = direct_specs(cfg.scheme, cfg.source, cfg.seed)
        generated = count_generated(monkeypatch)
        draw = draw_actions(cfg.source, cfg.seed, np.arange(40))
        index = np.array([[coding.encode_direct(xhats[l], cfg.scheme, spec, 900).index
                           for l, spec in enumerate(specs)] for xhats in draw.xhat_seqs])
        # the block as scanned, and the same block with every encoder failed
        for block in (index, np.full((40, 2), -1)):
            before = sum(generated)
            ys = decode_direct(block, specs)
            # one generated word per trial, whatever the store holds
            assert sum(generated) == before + 40
            assert ys.dtype == np.int64 and ys.shape == (40, cfg.source.n)
            for y, trial in zip(ys, block.tolist()):
                spec, w = next(((s, w) for s, w in zip(specs, trial) if w >= 0), (specs[0], 0))
                assert np.array_equal(y, codeword_block(spec, [w])[0])
        # a word no scan has reached is generated alone
        fresh = direct_specs(cfg.scheme, cfg.source, cfg.seed)
        generated.clear()
        y = decode_direct([[-1, 77]], fresh)
        assert generated == [1] and y.dtype == np.int64
        assert np.array_equal(y, codeword_block(fresh[1], [77]))

    def test_worker_block_result_pickles_small(self):
        # the direct-short benchmark cell at n=160: its 500 emitted sequences
        # alone pickle to about 640 KB, the three arrays read back to 9 KB
        cfg = direct_config(n=160, L=2, trials=500, budget=5_000)
        assert len(pickle.dumps(harness._run_block(cfg, 0, cfg.trials))) < 16_384

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

    def test_dynamic_program_refusal_inside_a_pool(self, monkeypatch):
        # 3^2 word tuples of 14 positions pass a work bound of 224, but one
        # step of trial 11's dynamic program grows 233 states.  In a single
        # worker's run trial 11 is not the first trial of its decoder pool;
        # either way the run aborts at trial 11 with that trial's own message
        monkeypatch.setattr(coding, "DECODE_WORK_CAP", 224)
        cfg = binned_config(n=14, trials=40, words=3.0)
        refused_at = []
        decode = coding.decode_binned

        def recording_decode(bin_tuples, *args):
            try:
                return decode(bin_tuples, *args)
            except DecoderBudgetExceeded as exc:
                refused_at.append(exc.trial_index)
                raise

        monkeypatch.setattr(coding, "decode_binned", recording_decode)
        messages = []
        for workers in (1, 2):
            with pytest.raises(ExperimentAborted) as caught:
                run_experiment(cfg, workers=workers)
            messages.append(str(caught.value))
        assert refused_at and refused_at[0] > 0
        assert messages == ["trial 11 of 40: a decoder step of 233 states exceeds the work "
                            "bound 224; shrink n, L, or the codebook"] * 2

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(direct_config(trials=2), workers=workers)

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
                            budget_hits=0, tv_stderr=0.0)

    def test_case_fraction(self):
        stats = ExperimentStats(mean_tv=0.1, q50=0.1, q90=0.1, q99=0.1,
                                error_case_counts={"none": 3, "B": 1}, trials=4,
                                budget_hits=0, tv_stderr=0.0)
        assert stats.case_fraction("B") == 0.25
        assert stats.case_fraction("Ca") == 0.0

