import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coordsim.coding import (BinnedSchemeConfig, CodebookSpec,
                             DecoderBudgetExceeded, DecoderLimits,
                             DirectSchemeConfig, EncodeResult, ErrorCase,
                             TrialInternals, _first_unique, binned_specs,
                             case_b_upper_bound, classify_error, codeword,
                             codeword_block, decode_binned, decode_direct,
                             direct_specs, encode_binned, encode_direct,
                             run_binned_trial, run_direct_trial)
from coordsim.probkit import (CondPmf, JointPmf, Pmf, compose_markov, joint_type,
                              tv_distance)
from coordsim.source import SourceConfig, draw_actions
from coordsim.typicality import is_marginally_typical, is_strongly_typical


def direct_scheme(rate=0.35, slack=0.0, epsilon=0.5, obs_flip=0.2, aux_flip=0.3,
                  agents=1):
    triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(obs_flip),
                            CondPmf.binary_flip(aux_flip))
    return DirectSchemeConfig(rates=(rate,) * agents, slacks=(slack,) * agents,
                              epsilon=epsilon, triple=triple)


def binned_scheme(bins=4.3, words=2.6, epsilon=0.5, n=6):
    triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.2),
                            CondPmf.binary_flip(0.3))
    return BinnedSchemeConfig(rate_bin=math.log(bins) / n, slack_bin=0.0,
                              rate_word=math.log(words) / n, slack_word=0.0,
                              epsilon=epsilon, triple=triple)


class TestCodebookSpec:
    def test_direct_size_floor(self):
        spec = CodebookSpec.direct(6, math.log(4.3) / 6, 0.0, Pmf.uniform(2), 1, 0)
        assert spec.num_bins == 4 and spec.words_per_bin == 1
        assert spec.num_codewords == 4

    def test_binned_sizes(self):
        spec = CodebookSpec.binned(6, math.log(4.3) / 6, 0.0, math.log(2.6) / 6,
                                   0.0, Pmf.uniform(2), 1, 0)
        assert spec.num_bins == 4
        assert spec.words_per_bin == 3  # ceiling

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            CodebookSpec.direct(4, 0.0, -1.0, Pmf.uniform(2), 1, 0)

    def test_oversized_codebook_rejected(self):
        with pytest.raises(ValueError):
            CodebookSpec.direct(400, 0.1, 0.0, Pmf.uniform(2), 1, 0)

    def test_slack_enters_size(self):
        spec = CodebookSpec.direct(10, 0.2, 0.1, Pmf.uniform(2), 1, 0)
        assert spec.num_codewords == math.floor(math.exp(10 * 0.3))

    def test_extended_precision_floor(self):
        # n(R+eps) = ln(10^12): a naive float floor of exp() is off by ulps
        log_size = math.log(10.0) * 12
        spec = CodebookSpec.direct(1, log_size, 0.0, Pmf.uniform(2), 1, 0)
        assert spec.num_codewords in (10**12 - 1, 10**12)


class TestCodewords:
    def test_determinism(self):
        spec = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 0)
        assert np.array_equal(codeword(spec, 3), codeword(spec, 3))

    def test_agents_get_distinct_books(self):
        a = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 0)
        b = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 1)
        assert not np.array_equal(codeword(a, 0), codeword(b, 0))

    def test_point_mass_output_constant(self):
        spec = CodebookSpec.direct(20, 0.2, 0.0, Pmf.point_mass(2, 1), 7, 0)
        assert np.all(codeword(spec, 0) == 1)

    def test_index_bounds(self):
        spec = CodebookSpec.direct(8, 0.1, 0.0, Pmf.uniform(2), 7, 0)
        with pytest.raises(IndexError):
            codeword(spec, spec.num_bins)
        with pytest.raises(IndexError):
            codeword(spec, 0, 1)

    def test_block_matches_scalar(self):
        spec = CodebookSpec.binned(12, 0.2, 0.0, 0.1, 0.0, Pmf.uniform(2), 9, 2)
        flat = np.arange(spec.num_codewords)
        block = codeword_block(spec, flat)
        for k in flat:
            w, v = divmod(int(k), spec.words_per_bin)
            assert np.array_equal(block[k], codeword(spec, w, v))

    def test_symbol_frequencies_match_generation_law(self):
        p_y = Pmf([0.3, 0.7])
        spec = CodebookSpec.direct(500, math.log(200) / 500, 0.0, p_y, 11, 0)
        block = codeword_block(spec, np.arange(spec.num_codewords))
        assert block.size > 9e4
        freq = np.bincount(block.reshape(-1), minlength=2) / block.size
        assert tv_distance(freq[None, :], p_y.probs[None, :]) < 0.01


class TestEncodeDirect:
    def test_first_hit_is_smallest_typical_index(self):
        cfg = direct_scheme(rate=math.log(64) / 12, epsilon=0.5)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=12)
        checked_nonzero = 0
        for seed in range(40):
            specs = direct_specs(cfg, src, seed)
            draw = draw_actions(src, seed, 0)
            result = encode_direct(draw.xhat_seqs[0], cfg, specs[0])
            typical = [w for w in range(specs[0].num_codewords)
                       if is_strongly_typical(draw.xhat_seqs[0], codeword(specs[0], w),
                                              cfg.pair_obs_out, cfg.epsilon)]
            if typical:
                assert result.found and result.w == typical[0]
                assert result.search_cost == typical[0] + 1
                checked_nonzero += result.w > 0
            else:
                assert not result.found
                assert result.search_cost == specs[0].num_codewords
        assert checked_nonzero > 0  # some scans had to skip earlier codewords

    def test_single_atypical_codeword_fails(self):
        cfg = direct_scheme(rate=0.0, slack=0.0, epsilon=0.2)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=8)
        failures = 0
        for seed in range(30):
            specs = direct_specs(cfg, src, seed)
            assert specs[0].num_codewords == 1
            draw = draw_actions(src, seed, 0)
            result = encode_direct(draw.xhat_seqs[0], cfg, specs[0])
            if not result.found:
                failures += 1
                assert result.w is None and not result.budget_hit
        assert failures > 0

    def test_budget_stops_scan(self):
        cfg = direct_scheme(rate=math.log(4096) / 10, epsilon=0.01)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=10)
        specs = direct_specs(cfg, src, 3)
        draw = draw_actions(src, 3, 0)
        result = encode_direct(draw.xhat_seqs[0], cfg, specs[0], budget=17)
        assert not result.found
        assert result.budget_hit
        assert result.search_cost == 17

    def test_found_result_validates(self):
        with pytest.raises(ValueError):
            EncodeResult(w=None, v=None, found=True, search_cost=1)


class TestDecodeDirect:
    def test_smallest_successful_agent_wins(self):
        cfg = direct_scheme(agents=3, rate=0.3, epsilon=0.5)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=3, n=10)
        specs = direct_specs(cfg, src, 21)
        results = [EncodeResult(w=None, v=None, found=False, search_cost=1),
                   EncodeResult(w=2, v=0, found=True, search_cost=3),
                   EncodeResult(w=1, v=0, found=True, search_cost=2)]
        assert np.array_equal(decode_direct(results, specs), codeword(specs[1], 2))

    def test_fallback_on_total_failure(self):
        cfg = direct_scheme(agents=2, rate=0.3, epsilon=0.5)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=10)
        specs = direct_specs(cfg, src, 21)
        results = [EncodeResult(w=None, v=None, found=False, search_cost=8)] * 2
        assert np.array_equal(decode_direct(results, specs), codeword(specs[0], 0, 0))


class TestEncodeBinned:
    def test_row_major_first_hit(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=6)
        for seed in range(25):
            specs = binned_specs(cfg, src, seed)
            draw = draw_actions(src, seed, 0)
            result = encode_binned(draw.xhat_seqs[0], cfg, specs[0])
            flat_hits = [
                k for k in range(specs[0].num_codewords)
                if is_strongly_typical(
                    draw.xhat_seqs[0],
                    codeword(specs[0], k // specs[0].words_per_bin,
                             k % specs[0].words_per_bin),
                    cfg.pair_obs_out, cfg.epsilon)]
            if flat_hits:
                assert result.found
                assert (result.w, result.v) == divmod(flat_hits[0],
                                                      specs[0].words_per_bin)
            else:
                assert not result.found


class TestDecodeBinned:
    def test_single_codeword_bins_reduce_to_direct_check(self):
        cfg = binned_scheme(words=1.0)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=6)
        specs = binned_specs(cfg, src, 5)
        assert specs[0].words_per_bin == 1
        for w in range(specs[0].num_bins):
            result = decode_binned([w], cfg, specs)
            assert result.matches_found in (0, 1)
            if result.matches_found == 1:
                assert result.v_tuple == (0,)
                assert np.array_equal(result.y_seq, codeword(specs[0], w, 0))

    def test_planted_unique_tuple_recovered(self):
        # tolerance tight enough that the 12-symbol stacked windows separate
        # word tuples; seeds range over codebook realizations
        cfg = binned_scheme(epsilon=0.2)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        recovered = 0
        for seed in range(60):
            specs = binned_specs(cfg, src, seed)
            result = decode_binned([0, 1], cfg, specs)
            matches = _exhaustive_matches([0, 1], cfg, specs)
            assert result.matches_found == len(matches)
            if len(matches) == 1:
                recovered += 1
                assert result.v_tuple == matches[0]
                assert np.array_equal(result.y_seq,
                                      codeword(specs[0], 0, matches[0][0]))
        assert recovered > 0

    def test_collision_reports_ambiguity(self):
        cfg = binned_scheme(epsilon=2.8)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 5)
        result = decode_binned([0, 0], cfg, specs)
        assert result.matches_found > 1
        assert result.v_tuple is None
        assert np.array_equal(result.y_seq, codeword(specs[0], 0, 0))

    def test_budget_limits_raise(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 5)
        with pytest.raises(DecoderBudgetExceeded):
            decode_binned([0, 0], cfg, specs, DecoderLimits(max_n=4))
        with pytest.raises(DecoderBudgetExceeded):
            decode_binned([0, 0], cfg, specs, DecoderLimits(max_agents=1))
        with pytest.raises(DecoderBudgetExceeded):
            decode_binned([0, 0], cfg, specs, DecoderLimits(max_candidates=1))

    @pytest.mark.parametrize("sx, n, epsilon", [(2, 10, 0.6), (3, 6, 1.1)])
    def test_candidate_cap_is_enumerated_search_size(self, sx, n, epsilon):
        law = np.random.default_rng(sx).random((sx, sx, 2))
        cfg, specs = _instance(law, epsilon, n, 2, 3, 7)
        typical = sum(is_marginally_typical(x, cfg.p_x, epsilon)
                      for x in itertools.product(range(sx), repeat=n))
        cap = typical * 3**2
        assert typical > 0
        decode_binned([0, 1], cfg, specs, DecoderLimits(max_candidates=cap))
        with pytest.raises(DecoderBudgetExceeded, match=f"search over {cap} "):
            decode_binned([0, 1], cfg, specs, DecoderLimits(max_candidates=cap - 1))

    def test_enumeration_cap_boundary(self):
        cfg, specs = _instance(np.ones((3, 3, 2)), 0.5, 7, 2, 2, 7)
        decode_binned([0, 1], cfg, specs, DecoderLimits(max_enumeration=3**7))
        with pytest.raises(DecoderBudgetExceeded, match=r"action enumeration 3\^7 exceeds"):
            decode_binned([0, 1], cfg, specs, DecoderLimits(max_enumeration=3**7 - 1))


def _exhaustive_matches(bins, cfg, specs):
    """The literal joint decoder: every word tuple against every action
    sequence, with no x-marginal pre-filter."""
    sx = cfg.pair_src_out.shape[0]
    n = specs[0].n
    words = specs[0].words_per_bin
    agents = len(bins)
    matches = []
    for v_tuple in itertools.product(range(words), repeat=agents):
        stacked_y = np.concatenate([codeword(specs[l], bins[l], v_tuple[l])
                                    for l in range(agents)])
        if any(is_strongly_typical(np.tile(x, agents), stacked_y,
                                   cfg.pair_src_out, cfg.epsilon)
               for x in itertools.product(range(sx), repeat=n)):
            matches.append(v_tuple)
    return matches


def _clear_of_ties(probs: np.ndarray, n: int, epsilon: float) -> bool:
    """No count c/n sits within 1e-9 of a cell's strict boundary p +- eps/#cells.

    The decoder's x-marginal test is implied by the stacked test in exact
    arithmetic; only at such a tie could rounding in the float marginal
    split it from the literal decoder, which has no marginal test."""
    freqs = np.arange(n + 1)[:, None] / n
    return bool(np.abs(np.abs(freqs - probs.reshape(-1)) - epsilon / probs.size).min() > 1e-9)


def _instance(law, epsilon, n, agents, words, seed):
    triple = JointPmf(law / law.sum())
    cfg = BinnedSchemeConfig(rate_bin=0.1, slack_bin=0.0, rate_word=0.1, slack_word=0.0,
                             epsilon=epsilon, triple=triple)
    specs = tuple(CodebookSpec(n=n, p_y=cfg.p_y, seed=seed, agent_id=l, num_bins=3,
                               words_per_bin=words, log_bins=0.0, log_words=0.0)
                  for l in range(agents))
    return cfg, specs


def _assert_matches_literal(bins, cfg, specs):
    n, agents = specs[0].n, len(bins)
    assert _clear_of_ties(cfg.pair_src_out.probs, n * agents, cfg.epsilon)
    assert _clear_of_ties(cfg.p_x.probs, n, cfg.epsilon)
    result = decode_binned(bins, cfg, specs)
    matches = _exhaustive_matches(bins, cfg, specs)
    assert result.matches_found == len(matches)
    chosen = matches[0] if len(matches) == 1 else None
    assert result.v_tuple == chosen
    assert np.array_equal(result.y_seq, codeword(specs[0], bins[0], chosen[0] if chosen else 0))
    return len(matches)


# (|X|, |Y|, n, agents, words): n <= 10 binary and n <= 7 ternary, plus a
# 3x3 case with four agents and a 4x4 case
_LITERAL_CASES = [(2, 2, 10, 1, 4), (2, 2, 10, 2, 2), (2, 3, 9, 2, 3), (2, 2, 8, 3, 4),
                  (2, 3, 7, 3, 3), (3, 2, 7, 1, 4), (3, 3, 7, 2, 2), (3, 3, 6, 3, 2),
                  (3, 2, 5, 3, 4), (3, 3, 5, 4, 2), (4, 4, 5, 3, 2)]


def test_first_unique_packs_wide_rows_into_several_keys():
    # 20 rows below 50: the packed key needs 50**20 > 2**112, three int64 words
    rows = np.random.default_rng(3).integers(0, 50, (20, 400))
    rows[:, 200:] = rows[:, :200]
    rows[-1, 300:] = (rows[-1, 300:] + 1) % 50
    first = _first_unique(list(rows), [50] * 20)
    _, expected = np.unique(rows.T, axis=0, return_index=True)
    assert sorted(first) == sorted(expected)
    assert len(first) == 300


class TestDecodeBinnedLiteral:
    def test_matches_literal_decoder(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for sx, sy, n, agents, words in _LITERAL_CASES:
            for epsilon in (0.3, 0.9, 2.5):
                law = rng.random((sx, sx, sy))
                law[rng.random(law.shape) < 0.15] *= 1e-3
                cfg, specs = _instance(law, epsilon, n, agents, words,
                                       int(rng.integers(2**31)))
                bins = [int(b) for b in rng.integers(0, 3, agents)]
                seen.add(min(_assert_matches_literal(bins, cfg, specs), 2))
        assert seen == {0, 1, 2}

    def test_codewords_off_the_design_law_match_nothing(self):
        # the design law almost never emits output 1, so hi[a, 1] = 0 and
        # uniform codewords put every word tuple over it early in the search
        law = np.array([[[0.5, 1e-6], [0.2, 1e-6]], [[0.1, 1e-6], [0.2, 1e-6]]])
        cfg, specs = _instance(law, 0.2, 6, 2, 3, 11)
        specs = tuple(dataclasses.replace(spec, p_y=Pmf.uniform(2)) for spec in specs)
        assert _assert_matches_literal([0, 1], cfg, specs) == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), sx=st.sampled_from((2, 3)), sy=st.sampled_from((2, 3)),
           agents=st.integers(1, 3), words=st.integers(1, 4),
           epsilon=st.floats(0.05, 3.0), seed=st.integers(0, 2**31 - 1))
    def test_property_matches_literal_decoder(self, data, sx, sy, agents, words,
                                              epsilon, seed):
        n = data.draw(st.integers(1, 8 if sx == 2 else 5))
        weight = st.one_of(st.floats(1e-6, 1e-3), st.floats(0.05, 1.0))
        law = np.array(data.draw(st.lists(weight, min_size=sx * sx * sy,
                                          max_size=sx * sx * sy))).reshape(sx, sx, sy)
        cfg, specs = _instance(law, epsilon, n, agents, words, seed)
        assume(_clear_of_ties(cfg.pair_src_out.probs, n * agents, epsilon))
        assume(_clear_of_ties(cfg.p_x.probs, n, epsilon))
        bins = data.draw(st.lists(st.integers(0, 2), min_size=agents, max_size=agents))
        _assert_matches_literal(bins, cfg, specs)


class TestClassifier:
    def test_direct_labels(self):
        base = dict(scheme="direct", num_agents=2, source_pairs_typical=True,
                    encoders_succeeded=2, output_typical=True)
        assert classify_error(TrialInternals(**base)) is ErrorCase.NONE
        assert classify_error(TrialInternals(**{**base, "source_pairs_typical": False})) \
            is ErrorCase.A
        assert classify_error(TrialInternals(**{**base, "encoders_succeeded": 0})) \
            is ErrorCase.B
        # one surviving encoder is enough for the direct scheme
        assert classify_error(TrialInternals(**{**base, "encoders_succeeded": 1})) \
            is ErrorCase.NONE
        assert classify_error(TrialInternals(**{**base, "output_typical": False})) \
            is ErrorCase.D

    def test_binned_labels(self):
        base = dict(scheme="binned", num_agents=2, source_pairs_typical=True,
                    encoders_succeeded=2, output_typical=True, decoder_matches=1)
        assert classify_error(TrialInternals(**base)) is ErrorCase.NONE
        assert classify_error(TrialInternals(**{**base, "encoders_succeeded": 1})) \
            is ErrorCase.B
        assert classify_error(TrialInternals(**{**base, "decoder_matches": 0})) \
            is ErrorCase.CA
        assert classify_error(TrialInternals(**{**base, "decoder_matches": 3})) \
            is ErrorCase.CB
        assert classify_error(TrialInternals(**{**base, "output_typical": False})) \
            is ErrorCase.D

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            classify_error(TrialInternals(scheme="other", num_agents=1,
                                          source_pairs_typical=True,
                                          encoders_succeeded=1,
                                          output_typical=True))

    def test_every_trial_gets_exactly_one_label(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 8)
        labels = [run_binned_trial(src, cfg, specs, 8, t).error_case
                  for t in range(60)]
        assert all(isinstance(lab, ErrorCase) for lab in labels)


class TestTrials:
    def test_stacked_type_is_sum_of_agent_types(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=3, n=6)
        specs = binned_specs(cfg, src, 13)
        for trial in range(20):
            draw = draw_actions(src, 13, trial)
            ys = [codeword(specs[l], trial % 4, trial % 2) for l in range(3)]
            stacked = joint_type(np.tile(draw.x_seq, 3), np.concatenate(ys), 2, 2)
            summed = sum(joint_type(draw.x_seq, y, 2, 2).counts for y in ys)
            assert np.array_equal(stacked.counts, summed)

    def test_successful_direct_trials_have_small_tv(self):
        triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.4),
                                CondPmf.binary_flip(0.4))
        from coordsim.probkit import mutual_information

        rate = mutual_information(triple.pair_marginal(1, 2).probs) + 0.06
        cfg = DirectSchemeConfig(rates=(rate,), slacks=(0.12,), epsilon=0.3,
                                 triple=triple)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.4),
                           L=1, n=160)
        specs = direct_specs(cfg, src, 101)
        successes = 0
        for trial in range(100):
            outcome = run_direct_trial(src, cfg, specs, 101, trial, budget=50_000)
            if outcome.error_case is ErrorCase.NONE:
                successes += 1
                assert outcome.tv_realized <= cfg.epsilon / 2
        assert successes > 0

    def test_trial_determinism(self):
        cfg = direct_scheme(agents=2, rate=0.3)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=24)
        specs = direct_specs(cfg, src, 55)
        a = run_direct_trial(src, cfg, specs, 55, 4)
        b = run_direct_trial(src, cfg, specs, 55, 4)
        assert a.tv_realized == b.tv_realized
        assert a.error_case == b.error_case
        assert np.array_equal(a.y_seq, b.y_seq)

    def test_report_target_changes_tv_only(self):
        cfg = direct_scheme(rate=0.4)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=24)
        specs = direct_specs(cfg, src, 55)
        other = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.2),
                               CondPmf.binary_flip(0.45)).pair_marginal(0, 2)
        a = run_direct_trial(src, cfg, specs, 55, 4)
        b = run_direct_trial(src, cfg, specs, 55, 4, report_target=other)
        assert a.error_case == b.error_case
        assert np.array_equal(a.y_seq, b.y_seq)
        assert a.tv_realized != b.tv_realized


class TestCaseAFrequency:
    def test_bounded_by_union_of_typicality_failures(self):
        # at this blocklength and tolerance delta_t(n, eps', |X|^2) < 1, so
        # the union bound L * delta_t genuinely binds the case-A frequency
        from coordsim.typicality import delta_t

        num_agents = 2
        eps = 3.2
        triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.2),
                                CondPmf.binary_flip(0.3))
        cfg = DirectSchemeConfig(rates=(0.005,) * num_agents,
                                 slacks=(0.0,) * num_agents,
                                 epsilon=eps, triple=triple)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=num_agents, n=2000)
        eps_prime = eps / 4.0
        dt = delta_t(src.n, eps_prime, (2, 2))
        assert dt < 1.0
        bound = num_agents * dt
        specs = direct_specs(cfg, src, 314)
        trials = 300
        case_a = sum(run_direct_trial(src, cfg, specs, 314, t).error_case
                     is ErrorCase.A for t in range(trials))
        slack = 3.0 * math.sqrt(max(bound * (1 - min(bound, 1.0)), 1e-12) / trials)
        assert case_a / trials <= bound + slack


class TestCaseBBound:
    def test_literal_bound_vacuous_at_desk_scale(self):
        cfg = direct_scheme(rate=0.25, slack=0.0, epsilon=0.2)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.4),
                           L=1, n=60)
        assert case_b_upper_bound(cfg, src, predictive=False) == 1.0

    def test_predictive_bound_dominates_monte_carlo(self):
        triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.4),
                                CondPmf.binary_flip(0.4))
        cfg = DirectSchemeConfig(rates=(0.25,), slacks=(0.0,), epsilon=0.2,
                                 triple=triple)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.4),
                           L=1, n=60)
        bound = case_b_upper_bound(cfg, src, predictive=True)
        assert bound < 0.5
        specs = direct_specs(cfg, src, 909)
        trials = 300
        case_b = sum(
            run_direct_trial(src, cfg, specs, 909, t, budget=20_000).error_case
            is ErrorCase.B for t in range(trials))
        slack = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        assert case_b / trials <= bound + slack
