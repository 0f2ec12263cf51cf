import dataclasses
import math
from decimal import Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coordsim import coding, rng
from coordsim.coding import (CASES, BinnedSchemeConfig, CodebookSpec,
                             DecoderBudgetExceeded, DirectSchemeConfig,
                             EncodeResult, ErrorCase, Trials, _bit_planes, _class_tables,
                             _feasible_histograms, _first_unique, _plane_counts,
                             binned_specs, codeword_block, decode_binned, decode_direct,
                             direct_specs, encode_binned, encode_direct,
                             run_binned_trial, run_direct_trial)
from coordsim.probkit import (CondPmf, JointPmf, Pmf, compose_markov, joint_type,
                              tv_distance)
from coordsim.source import SourceConfig, draw_actions
from coordsim.typicality import count_bounds, is_strongly_typical
from coordsim.verify import _ac6_scheme, _clear_of_ties, _oracle_books, _oracle_decode


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

    def test_floor_and_ceil_exp_next_to_integers(self):
        # at log(k) and its two float neighbours e^x lies within ulps of k;
        # the oracle brackets x between logarithms of integers, without exp
        context = Context(prec=60)
        ln = [None] + [context.ln(Decimal(m)) for m in range(1, 5001)]
        for k in range(1, 5000):
            log_k = math.log(k)
            for x in (math.nextafter(log_k, -math.inf), log_k,
                      math.nextafter(log_k, math.inf)):
                exact = Decimal(x)
                near = [m for m in (k - 1, k, k + 1) if m >= 1]
                assert coding._floor_exp(x) == max(
                    (m for m in near if ln[m] <= exact), default=0)
                assert coding._ceil_exp(x) == min(m for m in near if ln[m] >= exact)


@pytest.mark.parametrize("agents", [1, 3])
def test_reseeded_specs_equal_fresh_ones(agents):
    # AC6 sizes its books once and re-seeds them per trial; the sized books'
    # scan stores are warmed first, and a re-seeded book must not inherit them
    cfg = _ac6_scheme(epsilon=0.5)
    src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2), L=agents, n=6)
    sized = binned_specs(cfg, src, 606)
    for spec in sized:
        spec._planes(0, spec.num_codewords)
    for seed in (606, 607, 775):
        fresh = binned_specs(cfg, src, seed)
        reseeded = tuple(dataclasses.replace(spec, seed=seed) for spec in sized)
        assert reseeded == fresh
        for a, b in zip(reseeded, fresh):
            assert np.array_equal(a._planes(0, a.num_codewords), b._planes(0, b.num_codewords))
            flat = np.arange(a.num_codewords)
            assert np.array_equal(codeword_block(a, flat), codeword_block(b, flat))


class TestCodewords:
    def test_determinism(self):
        spec = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 0)
        assert np.array_equal(codeword_block(spec, [3]), codeword_block(spec, [3]))

    def test_agents_get_distinct_books(self):
        a = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 0)
        b = CodebookSpec.direct(16, 0.3, 0.0, Pmf.uniform(2), 42, 1)
        assert not np.array_equal(codeword_block(a, [0]), codeword_block(b, [0]))

    def test_point_mass_output_constant(self):
        spec = CodebookSpec.direct(20, 0.2, 0.0, Pmf([0.0, 1.0]), 7, 0)
        assert np.all(codeword_block(spec, [0]) == 1)

    def test_index_bounds(self):
        spec = CodebookSpec.direct(8, 0.1, 0.0, Pmf.uniform(2), 7, 0)
        for flat in (-1, spec.num_codewords):
            with pytest.raises(IndexError):
                codeword_block(spec, [flat])

    def test_block_matches_scalar(self):
        spec = CodebookSpec.binned(12, 0.2, 0.0, 0.1, 0.0, Pmf.uniform(2), 9, 2)
        flat = np.arange(spec.num_codewords)
        block = codeword_block(spec, flat)
        for k in flat:
            assert np.array_equal(block[k], codeword_block(spec, [k])[0])

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
            book = codeword_block(specs[0], np.arange(specs[0].num_codewords))
            typical = [w for w, y in enumerate(book)
                       if is_strongly_typical(draw.xhat_seqs[0], y, cfg.pair_obs_out,
                                              cfg.epsilon)]
            if typical:
                assert result.index == typical[0]
                assert result.search_cost == typical[0] + 1
                checked_nonzero += result.index > 0
            else:
                assert result.index == -1
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
            if result.index < 0:
                failures += 1
                assert result.index == -1 and not result.budget_hit
        assert failures > 0

    def test_budget_stops_scan(self):
        cfg = direct_scheme(rate=math.log(4096) / 10, epsilon=0.01)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=10)
        specs = direct_specs(cfg, src, 3)
        draw = draw_actions(src, 3, 0)
        result = encode_direct(draw.xhat_seqs[0], cfg, specs[0], budget=17)
        assert result == EncodeResult(-1, 17, True)

    def test_book_alphabet_must_match_the_design_output_alphabet(self):
        ternary = CodebookSpec(n=12, p_y=Pmf([0.5, 0.0, 0.5]), seed=4, agent_id=0,
                               num_bins=50, words_per_bin=1)
        with pytest.raises(ValueError, match=r"\b3 symbols\b.*\bhas 2$"):
            encode_direct(np.zeros(12, dtype=np.int64), direct_scheme(), ternary)
        assert "_prefix" not in vars(ternary)  # refused before any codeword


def _reference_scan(xhat, cfg, spec, budget):
    """The encoder scan without the prefix store or the batch kernel: every
    codeword up to the limit from one codeword_block call, each counted
    with np.bincount."""
    sx, sy = cfg.pair_obs_out.shape
    lo, hi = count_bounds(cfg.pair_obs_out, spec.n, cfg.epsilon)
    limit = spec.num_codewords if budget is None else min(spec.num_codewords, budget)
    for flat, y in enumerate(codeword_block(spec, np.arange(limit))):
        counts = np.bincount(xhat * sy + y, minlength=sx * sy).reshape(sx, sy)
        if np.all((counts >= lo) & (counts <= hi)):
            return EncodeResult(flat, flat + 1, False)
    return EncodeResult(-1, limit, limit < spec.num_codewords)


def _law(data, size):
    """A probability vector drawn by hypothesis; zero entries allowed."""
    weights = data.draw(st.lists(st.sampled_from((0.0, 0.05, 0.3, 1.0)),
                                 min_size=size, max_size=size))
    assume(sum(weights) > 0)
    return np.array(weights) / sum(weights)


def _plane_bytes(sy, n):
    """Bytes the prefix store keeps per codeword: |Y| - 1 planes of
    ceil(n/64) uint64 words."""
    return (sy - 1) * 8 * -(-n // 64)


# blocklengths on either side of the 64-bit word boundaries
_WORD_EDGES = (63, 64, 65, 128, 129)


class TestScanPrefixStore:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data(), sx=st.integers(1, 3), sy=st.integers(1, 3), n=st.integers(1, 200),
           words=st.integers(1, 3), epsilon=st.floats(0.05, 3.0),
           seed=st.integers(0, 2**31 - 1),
           cap_rows=st.one_of(st.none(), st.integers(0, 300)))
    def test_cached_scan_equals_uncached(self, data, sx, sy, n, words, epsilon, seed,
                                         cap_rows):
        triple = JointPmf(_law(data, sx * sx * sy).reshape(sx, sx, sy))
        cfg = DirectSchemeConfig(rates=(0.1,), slacks=(0.0,), epsilon=epsilon,
                                 triple=triple)
        # every example also scans books next to each 64-bit word boundary
        for n in (n, *_WORD_EDGES):
            bins = data.draw(st.integers(1, 1500))
            spec = CodebookSpec(n=n, p_y=Pmf(_law(data, sy)), seed=seed, agent_id=0,
                                num_bins=bins, words_per_bin=words)
            # one spec serves every scan, so later (and shorter) scans read
            # the store earlier ones grew
            scans = data.draw(st.lists(
                st.tuples(st.lists(st.integers(0, sx - 1), min_size=n, max_size=n),
                          st.one_of(st.none(), st.integers(1, 3000))),
                min_size=1, max_size=4))
            with pytest.MonkeyPatch.context() as patch:
                if cap_rows is not None:
                    patch.setattr(coding, "_PREFIX_CAP_BYTES", cap_rows * _plane_bytes(sy, n))
                for xhat, budget in scans:
                    xhat = np.array(xhat, dtype=np.int64)
                    assert encode_direct(xhat, cfg, spec, budget) == \
                        _reference_scan(xhat, cfg, spec, budget)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), sy=st.sampled_from((1, 2, 3, 257)),
           n=st.one_of(st.integers(1, 9), st.sampled_from(_WORD_EDGES)),
           cap_rows=st.integers(0, 400), seed=st.integers(0, 2**31 - 1))
    def test_rows_equal_generated_codewords(self, data, sy, n, cap_rows, seed):
        spec = CodebookSpec(n=n, p_y=Pmf.uniform(sy), seed=seed, agent_id=3,
                            num_bins=900, words_per_bin=1)
        cap = cap_rows * max(1, _plane_bytes(sy, n))
        asked = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coding, "_PREFIX_CAP_BYTES", cap)
            for _ in range(data.draw(st.integers(1, 5))):
                # a range asked again reads what the first ask kept, if anything
                if asked and data.draw(st.booleans()):
                    start, stop = data.draw(st.sampled_from(asked))
                else:
                    stop = data.draw(st.integers(1, 900))
                    start = data.draw(st.integers(0, stop - 1))
                asked.append((start, stop))
                planes = spec._planes(start, stop)
                assert planes.dtype == np.uint64 and planes.flags.c_contiguous
                assert not planes.flags.writeable
                assert planes.shape == (sy - 1, -(-n // 64), stop - start)
                assert np.array_equal(
                    planes, _bit_planes(codeword_block(spec, np.arange(start, stop)), sy - 1))
        kept = vars(spec)["_prefix"]
        assert sum(p.nbytes for p in kept.values()) <= cap
        for (start, stop), planes in kept.items():
            assert np.array_equal(
                planes, _bit_planes(codeword_block(spec, np.arange(start, stop)), sy - 1))

    def test_store_is_generated_once_and_not_a_field(self, monkeypatch):
        spec = CodebookSpec(n=12, p_y=Pmf([0.5, 0.0, 0.5]), seed=4, agent_id=1,
                            num_bins=5000, words_per_bin=1)
        generated = []
        original = coding.codeword_block

        def counting(spec, flat):
            generated.append(len(flat))
            return original(spec, flat)

        monkeypatch.setattr(coding, "codeword_block", counting)
        triple = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.2),
                                CondPmf([[0.5, 0.0, 0.5]] * 2))
        cfg = DirectSchemeConfig(rates=(0.35,), slacks=(0.0,), epsilon=0.01, triple=triple)
        xhat = np.zeros(12, dtype=np.int64)
        first = encode_direct(xhat, cfg, spec, budget=3000)
        assert first == EncodeResult(-1, 3000, True)
        assert sum(generated) == 3000
        # batches of 64, 128, ..., 1024 codewords, the last cut at the budget
        ranges = [(0, 64), (64, 192), (192, 448), (448, 960), (960, 1984), (1984, 3000)]
        assert sorted(vars(spec)["_prefix"]) == ranges
        assert encode_direct(xhat, cfg, spec, budget=3000) == first
        assert sum(generated) == 3000
        # another budget cuts its last batch elsewhere: only that batch is new
        assert encode_direct(xhat, cfg, spec, budget=2000) == first._replace(search_cost=2000)
        assert sum(generated) == 3000 + 16
        for start, stop in ranges:
            planes = spec._planes(start, stop)
            assert planes.dtype == np.uint64 and planes.shape == (2, 1, stop - start)
            assert np.array_equal(planes, _bit_planes(original(spec, np.arange(start, stop)), 2))
        assert sum(generated) == 3000 + 16
        fresh = dataclasses.replace(spec)
        assert fresh == spec and repr(fresh) == repr(spec)
        assert "_prefix" in vars(spec) and "_prefix" not in vars(fresh)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), sx=st.integers(1, 4), sy=st.integers(1, 4),
           n=st.one_of(st.integers(1, 200), st.sampled_from(_WORD_EDGES)),
           batch=st.integers(0, 20), seed=st.integers(0, 2**31 - 1))
    def test_plane_counts_equal_bincount(self, data, sx, sy, n, batch, seed):
        # the batch's planes come from the store, so |Y| = 1 (no planes, no
        # kept bytes) also runs the store's cap arithmetic
        spec = CodebookSpec(n=n, p_y=Pmf(_law(data, sy)), seed=seed, agent_id=0,
                            num_bins=max(batch, 1), words_per_bin=1)
        y = codeword_block(spec, np.arange(batch))
        x = np.random.default_rng(seed).integers(0, sx, n)
        expected = np.array([np.bincount(x * sy + row, minlength=sx * sy)
                             for row in y]).reshape(batch, sx, sy)
        x_planes = _bit_planes(x[None], sx)
        assert x_planes.shape == (sx, -(-n // 64), 1)
        counts = _plane_counts(spec._planes(0, batch), x_planes,
                               np.bincount(x, minlength=sx)[:, None])
        assert counts.dtype == np.int64 and counts.shape == (sx, sy, batch)
        assert np.array_equal(counts, expected.transpose(1, 2, 0))


def _uniforms_of(spec, flat):
    """The uniforms codeword_block draws for these flat indices."""
    key = rng.derive_key(spec.seed, coding.CODEBOOK_STREAM, spec.agent_id)
    flat = np.asarray(flat, dtype=np.uint64)
    h = rng.fold(rng.fold(key, flat // np.uint64(spec.words_per_bin)),
                 flat % np.uint64(spec.words_per_bin))
    state = rng.fold(h[:, None], np.arange(spec.n, dtype=np.uint64)[None, :])
    return (state >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TestCodewordSampler:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), sy=st.integers(1, 5), n=st.integers(1, 30),
           words=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_equals_searchsorted_reference(self, data, sy, n, words, seed):
        spec = CodebookSpec(n=n, p_y=Pmf(_law(data, sy)), seed=seed, agent_id=2,
                            num_bins=50, words_per_bin=words)
        flat = np.array(data.draw(st.lists(st.integers(0, 50 * words - 1), max_size=20)),
                        dtype=np.int64)
        cdf = rng.right_closed_cdf(spec.p_y.probs)
        expected = np.searchsorted(cdf, _uniforms_of(spec, flat), side="right")
        block = codeword_block(spec, flat)
        assert block.dtype == np.int64 and block.shape == (flat.size, n)
        assert np.array_equal(block, expected)

    def test_uniform_on_a_cdf_entry_takes_the_next_symbol(self):
        # searchsorted 'right' counts a cdf entry equal to u, so u == cdf[0]
        # must emit symbol 1, not 0
        probe = CodebookSpec(n=8, p_y=Pmf.uniform(3), seed=5, agent_id=0, num_bins=4,
                             words_per_bin=1)
        u = _uniforms_of(probe, np.arange(4))
        tie = float(u[2, 3])
        spec = dataclasses.replace(probe, p_y=Pmf([tie, (1 - tie) / 2, (1 - tie) / 2]))
        cdf = rng.right_closed_cdf(spec.p_y.probs)
        assert cdf[0] == tie
        block = codeword_block(spec, np.arange(4))
        assert block[2, 3] == 1
        assert np.array_equal(block, np.searchsorted(cdf, u, side="right"))


class TestDecodeDirect:
    def test_smallest_successful_agent_wins(self):
        cfg = direct_scheme(agents=3, rate=0.3, epsilon=0.5)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=3, n=10)
        specs = direct_specs(cfg, src, 21)
        assert np.array_equal(decode_direct([[-1, 2, 1]], specs), codeword_block(specs[1], [2]))

    def test_fallback_on_total_failure(self):
        cfg = direct_scheme(agents=2, rate=0.3, epsilon=0.5)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=10)
        specs = direct_specs(cfg, src, 21)
        assert np.array_equal(decode_direct([[-1, -1]], specs), codeword_block(specs[0], [0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), agents=st.integers(1, 4), trials=st.integers(1, 8),
           n=st.integers(1, 12), words=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_each_row_emits_its_first_found_word(self, data, agents, trials, n, words, seed):
        specs = tuple(CodebookSpec(n=n, p_y=Pmf.uniform(3), seed=seed, agent_id=l,
                                   num_bins=4, words_per_bin=words) for l in range(agents))
        entry = st.one_of(st.just(-1), st.integers(0, 4 * words - 1))
        index = np.array(data.draw(st.lists(st.lists(entry, min_size=agents, max_size=agents),
                                            min_size=trials, max_size=trials)), dtype=np.int64)
        emitted = decode_direct(index, specs)
        assert emitted.dtype == np.int64 and emitted.shape == (trials, n)
        for row, word in zip(index.tolist(), emitted):
            # the lowest-indexed agent with index >= 0, else agent 0's word 0
            agent = next((l for l, flat in enumerate(row) if flat >= 0), None)
            spec, flat = (specs[0], 0) if agent is None else (specs[agent], row[agent])
            assert np.array_equal(word, codeword_block(spec, [flat])[0])


class TestEncodeBinned:
    def test_row_major_first_hit(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=6)
        for seed in range(25):
            specs = binned_specs(cfg, src, seed)
            draw = draw_actions(src, seed, 0)
            result = encode_binned(draw.xhat_seqs[0], cfg, specs[0])
            book = codeword_block(specs[0], np.arange(specs[0].num_codewords))
            flat_hits = [k for k, y in enumerate(book)
                         if is_strongly_typical(draw.xhat_seqs[0], y, cfg.pair_obs_out,
                                                cfg.epsilon)]
            assert result.index == (flat_hits[0] if flat_hits else -1)


class TestDecodeBinned:
    def test_single_codeword_bins_reduce_to_direct_check(self):
        cfg = binned_scheme(words=1.0)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=6)
        specs = binned_specs(cfg, src, 5)
        assert specs[0].words_per_bin == 1
        for w in range(specs[0].num_bins):
            [matches], [y_seq] = decode_binned([[w]], cfg, specs)
            assert matches in (0, 1)
            if matches == 1:
                assert np.array_equal(y_seq, codeword_block(specs[0], [w])[0])

    def test_planted_unique_tuple_recovered(self):
        # tolerance tight enough that the 12-symbol stacked windows separate
        # word tuples; seeds range over codebook realizations
        cfg = binned_scheme(epsilon=0.2)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        recovered = sum(_assert_matches_literal([0, 1], cfg, binned_specs(cfg, src, seed)) == 1
                        for seed in range(60))
        assert recovered > 0

    def test_collision_reports_ambiguity(self):
        cfg = binned_scheme(epsilon=2.8)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 5)
        [matches], [y_seq] = decode_binned([[0, 0]], cfg, specs)
        assert matches > 1
        assert np.array_equal(y_seq, codeword_block(specs[0], [0])[0])

    def test_no_typical_action_emits_word_0_of_agent_0s_bin(self):
        # at n = 1 the stacked pair has length 2, and no count c puts c / 2
        # strictly within 0.5 / 4 of its cell's probability (0.31 or 0.19),
        # so no word tuple matches
        cfg = binned_scheme(epsilon=0.5, n=1)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=1)
        specs = binned_specs(cfg, src, 5)
        assert specs[0].num_bins == 4 and specs[0].words_per_bin == 3
        matches, ys = decode_binned([[2, 1]], cfg, specs)
        assert matches.tolist() == [0]
        assert ys.dtype == np.int64
        word_0 = codeword_block(specs[0], [2 * specs[0].words_per_bin])
        assert np.array_equal(ys, word_0)

    def test_word_tuples_past_the_bound_refused_before_any_codeword(self, monkeypatch):
        # 2048^2 word tuples of 2 positions: twice DECODE_WORK_CAP
        cfg, specs = _instance(np.ones((2, 2, 2)), 0.5, 2, 2, 2048, 7)
        assert 2048**2 * 2 > coding.DECODE_WORK_CAP

        def no_codewords(spec, flat):
            raise AssertionError("the refused decoder read a codeword")

        monkeypatch.setattr(coding, "codeword_block", no_codewords)
        with pytest.raises(DecoderBudgetExceeded, match=r"2048\^2 word tuples of 2 positions"):
            decode_binned([[0, 1]], cfg, specs)

    def test_dynamic_program_states_past_the_bound_refused(self, monkeypatch):
        # 3^2 word tuples of 16 positions pass a bound of 145, yet the first
        # step of the dynamic program would grow more states than that
        cfg, specs = _instance(np.ones((2, 2, 2)), 2.5, 16, 2, 3, 7)
        decode_binned([[0, 1]], cfg, specs)
        monkeypatch.setattr(coding, "DECODE_WORK_CAP", 3**2 * 16 + 1)
        with pytest.raises(DecoderBudgetExceeded, match="states exceeds the work bound 145"):
            decode_binned([[0, 1]], cfg, specs)

    @pytest.mark.parametrize("design, book", [(2, 3), (3, 2)])
    def test_codebook_alphabet_must_match_the_design_pair(self, design, book):
        cfg, _ = _instance(np.ones((2, 2, design)), 0.5, 4, 2, 2, 7)
        specs = tuple(CodebookSpec(n=4, p_y=Pmf.uniform(book), seed=7, agent_id=l,
                                   num_bins=3, words_per_bin=2) for l in range(2))
        with pytest.raises(ValueError, match=f"codebook alphabet has {book} symbols but the "
                                             f"design pair's output alphabet has {design}"):
            decode_binned([[0, 1]], cfg, specs)

    @pytest.mark.parametrize("p_y, placed", [
        ((0.5, 0.5), [[0, 2], [2, 0], [1, 1]]),
        ((0.9, 0.1), [[0, 2], [1, 1], [2, 0]]),
        ((1.0, 0.0), [[2, 0]]),
    ], ids=["uniform", "skewed", "point-mass"])
    def test_most_likely_class_placed_last(self, monkeypatch, p_y, placed):
        # two agents, binary output: the classes go least likely first under
        # p_y, ties in class order, and the most likely one ends the program;
        # an output symbol of probability 0 raises no log(0) warning
        law = np.ones((2, 2, 1)) * np.array(p_y)
        cfg, specs = _instance(law, 0.5, 16, 2, 3, 7)
        seen = []
        feasible = coding._feasible_histograms

        def recording(hists, classes, lo, hi):
            seen.append(classes.tolist())
            return feasible(hists, classes, lo, hi)

        monkeypatch.setattr(coding, "_feasible_histograms", recording)
        decode_binned([[0, 1], [2, 0]], cfg, specs)
        assert seen == [placed]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sx=st.integers(2, 3), sy=st.integers(2, 3), agents=st.integers(1, 3),
           words=st.integers(1, 3), n=st.integers(1, 9), trials=st.integers(1, 8),
           epsilon=st.floats(0.2, 3.0), seed=st.integers(0, 2**32),
           per_pool=st.integers(1, 4), slack=st.one_of(st.integers(0, 400), st.just(2**22)))
    def test_block_equals_each_trial_decoded_alone(self, sx, sy, agents, words, n, trials,
                                                   epsilon, seed, per_pool, slack):
        # pools of 1-4 trials and small work bounds: a block decodes each
        # trial as it decodes alone, and a refused block names the first
        # trial refused alone, with that trial's own message
        draws = np.random.default_rng(seed)
        cfg, specs = _instance(draws.random((sx, sx, sy)) + 0.02, epsilon, n, agents,
                               words, seed)
        bins = draws.integers(0, 3, (trials, agents)).tolist()
        positions = words**agents * n
        with mock.patch.object(coding, "DECODE_WORK_CAP", min(positions + slack, 2**22)):
            alone, refused = [], None
            for t, tuple_ in enumerate(bins):
                try:
                    alone.append(decode_binned([tuple_], cfg, specs))
                except DecoderBudgetExceeded as exc:
                    refused = (t, str(exc))
                    break
            with mock.patch.object(coding, "_CHUNK_POSITIONS", per_pool * positions):
                try:
                    matches, ys = decode_binned(bins, cfg, specs)
                except DecoderBudgetExceeded as exc:
                    assert (exc.trial_index, str(exc)) == refused
                    return
        assert refused is None and matches.shape == (trials,)
        assert matches.tolist() == [int(m[0]) for m, _ in alone]
        assert ys.tobytes() == b"".join(y.tobytes() for _, y in alone)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), sx=st.integers(2, 3), sy=st.integers(2, 3), agents=st.integers(1, 3),
       n=st.integers(1, 8), epsilon=st.floats(0.2, 3.0), seed=st.integers(0, 2**32))
def test_feasible_histograms_ignore_the_class_order(data, sx, sy, agents, n, epsilon, seed):
    # the program is exact, so the order it places the classes in changes
    # its work, never a verdict
    draws = np.random.default_rng(seed)
    weights = draws.random((sx, sy)) + 0.02
    pair = JointPmf(weights / weights.sum())
    lo, hi = count_bounds(pair, n * agents, epsilon)
    classes = _class_tables(agents, sy)[0]
    hists = np.array([np.bincount(draws.integers(0, len(classes), n), minlength=len(classes))
                      for _ in range(data.draw(st.integers(1, 12)))])
    order = data.draw(st.permutations(range(len(classes))))
    assert np.array_equal(_feasible_histograms(hists[:, order], classes[order], lo, hi),
                          _feasible_histograms(hists, classes, lo, hi))


def _instance(law, epsilon, n, agents, words, seed):
    triple = JointPmf(law / law.sum())
    cfg = BinnedSchemeConfig(rate_bin=0.1, slack_bin=0.0, rate_word=0.1, slack_word=0.0,
                             epsilon=epsilon, triple=triple)
    specs = tuple(CodebookSpec(n=n, p_y=cfg.p_y, seed=seed, agent_id=l, num_bins=3,
                               words_per_bin=words)
                  for l in range(agents))
    return cfg, specs


def _assert_matches_literal(bins, cfg, specs):
    """decode_binned agrees with the literal decoder of the acceptance
    checks; returns the number of matching word tuples."""
    n, agents = specs[0].n, len(bins)
    assert _clear_of_ties(cfg.pair_src_out.probs, n * agents, cfg.epsilon)
    [found], [emitted] = decode_binned([bins], cfg, specs)
    matches, y_seq = _oracle_decode(bins, cfg, specs, _oracle_books(specs))
    assert found == len(matches)
    assert np.array_equal(emitted, y_seq)
    return len(matches)


# (|X|, |Y|, n, agents, words): binary up to n = 16 and ternary up to n = 7,
# plus a 3x3 case with four agents and a 4x4 case
_LITERAL_CASES = [(2, 2, 10, 1, 4), (2, 2, 10, 2, 2), (2, 3, 9, 2, 3), (2, 2, 8, 3, 4),
                  (2, 3, 7, 3, 3), (3, 2, 7, 1, 4), (3, 3, 7, 2, 2), (3, 3, 6, 3, 2),
                  (3, 2, 5, 3, 4), (3, 3, 5, 4, 2), (4, 4, 5, 3, 2),
                  (2, 2, 13, 2, 3), (2, 2, 14, 3, 2), (2, 3, 15, 1, 3), (2, 2, 16, 2, 2)]


def test_first_unique_packs_wide_rows_into_several_keys():
    # 20 rows below 50: the packed key needs 50**20 > 2**112, three int64 words
    rows = np.random.default_rng(3).integers(0, 50, (20, 400))
    rows[:, 200:] = rows[:, :200]
    rows[-1, 300:] = (rows[-1, 300:] + 1) % 50
    first, inverse = _first_unique(list(rows), [50] * 20)
    _, expected, expected_inverse = np.unique(rows.T, axis=0, return_index=True,
                                              return_inverse=True)
    assert np.array_equal(first, expected)
    assert np.array_equal(inverse, expected_inverse.reshape(-1))
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
        n = data.draw(st.integers(1, 16 if sx == 2 else 5))
        weight = st.one_of(st.floats(1e-6, 1e-3), st.floats(0.05, 1.0))
        law = np.array(data.draw(st.lists(weight, min_size=sx * sx * sy,
                                          max_size=sx * sx * sy))).reshape(sx, sx, sy)
        cfg, specs = _instance(law, epsilon, n, agents, words, seed)
        assume(_clear_of_ties(cfg.pair_src_out.probs, n * agents, epsilon))
        bins = data.draw(st.lists(st.integers(0, 2), min_size=agents, max_size=agents))
        _assert_matches_literal(bins, cfg, specs)


# per scheme, rows of (source pairs typical, encoders found, decoder
# matches, output typical, label): A outranks every other case, the
# scheme's decode step decides B, Ca and Cb, and only a decoded trial
# reaches the output test
_LABEL_TABLE = {
    "direct": [
        (True, (True, True), None, True, ErrorCase.NONE),
        (True, (False, True), None, True, ErrorCase.NONE),  # one encoder is enough
        (False, (True, True), None, True, ErrorCase.A),
        (False, (False, False), None, False, ErrorCase.A),
        (True, (False, False), None, False, ErrorCase.B),
        (True, (True, False), None, False, ErrorCase.D),
    ],
    "binned": [
        (True, (True, True), 1, True, ErrorCase.NONE),
        (False, (True, False), None, False, ErrorCase.A),
        (True, (True, False), None, True, ErrorCase.B),
        (True, (True, True), 0, True, ErrorCase.CA),
        (True, (True, True), 0, False, ErrorCase.CA),
        (True, (True, True), 3, True, ErrorCase.CB),
        (True, (True, True), 1, False, ErrorCase.D),
    ],
}


def _check_label_table(monkeypatch, scheme):
    """Run one whole trial per table row, with the pair tests, every
    agent's scan, the joint decoder and the output test patched to the
    row's outcomes, and compare the trial's label with the row's."""
    src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                       L=2, n=6)
    if scheme == "direct":
        cfg = direct_scheme(agents=2)
        specs, run = direct_specs(cfg, src, 3), run_direct_trial
    else:
        cfg = binned_scheme()
        specs, run = binned_specs(cfg, src, 3), run_binned_trial
    for pairs_ok, found, matches, output_ok, label in _LABEL_TABLE[scheme]:
        decoded = []

        def encode(xhat, cfg, spec, budget, found=found):
            # word 0 of bin 1
            if found[spec.agent_id]:
                return EncodeResult(spec.words_per_bin, spec.words_per_bin + 1, False)
            return EncodeResult(-1, 4, False)

        def decode(bin_tuples, cfg, specs, matches=matches, decoded=decoded):
            decoded.extend(np.asarray(bin_tuples).tolist())
            return (np.full(len(bin_tuples), matches),
                    codeword_block(specs[0], np.zeros(len(bin_tuples), dtype=np.int64)))

        monkeypatch.setattr(coding, f"encode_{scheme}", encode)
        monkeypatch.setattr(coding, "decode_binned", decode)
        # the pair and output tests answer for every pair of the block
        monkeypatch.setattr(coding, "is_strongly_typical", lambda x, y, *args, ok=pairs_ok:
                            np.full(np.broadcast_shapes(x.shape, y.shape)[:-1], ok))
        monkeypatch.setattr(coding, "counts_typical", lambda counts, *args, ok=output_ok:
                            np.full(counts.shape[:-2], ok))
        row = (pairs_ok, found, matches, output_ok)
        [case] = run(src, cfg, specs, 3, 0).case
        assert CASES[case] is label, row
        # the joint decoder runs exactly when every binned encoder succeeded
        assert decoded == ([[1, 1]] if scheme == "binned" and all(found) else []), row


class TestClassifier:
    """The label rules, through run_direct_trial and run_binned_trial."""

    def test_direct_labels(self, monkeypatch):
        _check_label_table(monkeypatch, "direct")

    def test_binned_labels(self, monkeypatch):
        _check_label_table(monkeypatch, "binned")

    def test_every_trial_gets_exactly_one_label(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 8)
        cases = run_binned_trial(src, cfg, specs, 8, 0, 60).case
        assert cases.shape == (60,) and set(cases.tolist()) <= set(range(len(CASES)))


class TestTrials:
    def test_stacked_type_is_sum_of_agent_types(self):
        cfg = binned_scheme()
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=3, n=6)
        specs = binned_specs(cfg, src, 13)
        for trial in range(20):
            draw = draw_actions(src, 13, trial)
            flat = (trial % 4) * specs[0].words_per_bin + trial % 2
            ys = [codeword_block(specs[l], [flat])[0] for l in range(3)]
            stacked = joint_type(np.tile(draw.x_seq, 3), np.concatenate(ys), 2, 2)
            summed = sum(joint_type(draw.x_seq, y, 2, 2) for y in ys)
            assert np.array_equal(stacked, summed)

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
        trials = run_direct_trial(src, cfg, specs, 101, 0, 100, budget=50_000)
        success = trials.case == CASES.index(ErrorCase.NONE)
        assert success.any()
        assert np.all(trials.tv[success] <= cfg.epsilon / 2)

    def test_trial_determinism(self):
        cfg = direct_scheme(agents=2, rate=0.3)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=24)
        specs = direct_specs(cfg, src, 55)
        a = run_direct_trial(src, cfg, specs, 55, 4)
        b = run_direct_trial(src, cfg, specs, 55, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_report_target_changes_tv_only(self):
        cfg = direct_scheme(rate=0.4)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=24)
        specs = direct_specs(cfg, src, 55)
        other = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.2),
                               CondPmf.binary_flip(0.45)).pair_marginal(0, 2)
        a = run_direct_trial(src, cfg, specs, 55, 4)
        b = run_direct_trial(src, cfg, specs, 55, 4, report_target=other)
        assert np.array_equal(a.case, b.case)
        assert np.array_equal(a.y_seq, b.y_seq)
        assert a.tv[0] != b.tv[0]


    def test_report_target_of_another_shape_is_refused(self):
        cfg = direct_scheme(rate=0.4)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=24)
        specs = direct_specs(cfg, src, 55)
        wide = JointPmf(np.full((2, 3), 1 / 6))
        with pytest.raises(ValueError, match="report_target"):
            run_direct_trial(src, cfg, specs, 55, 4, report_target=wide)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("scheme", ["direct", "binned"])
    def test_count_below_one_is_refused(self, scheme, count):
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=6)
        if scheme == "direct":
            cfg, build, run = direct_scheme(), direct_specs, run_direct_trial
        else:
            cfg, build, run = binned_scheme(), binned_specs, run_binned_trial
        with pytest.raises(ValueError, match=f"trial count must be >= 1, got {count}$"):
            run(src, cfg, build(cfg, src, 55), 55, 0, count)

    def test_binned_encoder_failure_emits_agent_0s_first_word(self, monkeypatch):
        cfg = binned_scheme(bins=1.5, words=1.0, epsilon=0.05)
        src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                           L=2, n=6)
        specs = binned_specs(cfg, src, 8)
        generated = []
        block = coding.codeword_block

        def counting(spec, flat):
            generated.append(len(flat))
            return block(spec, flat)

        monkeypatch.setattr(coding, "codeword_block", counting)
        trials = run_binned_trial(src, cfg, specs, 8, 0)
        assert CASES[trials.case[0]] in (ErrorCase.A, ErrorCase.B)
        # one single-word book per agent, generated by its scan, and the
        # fallback's word generated once more
        assert generated == [1, 1, 1]
        assert trials.y_seq.dtype == np.int64
        assert np.array_equal(trials.y_seq, codeword_block(specs[0], [0]))


class TestTrialBlocks:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(scheme=st.sampled_from(("direct", "binned")), seed=st.integers(0, 2**32),
           cuts=st.sets(st.integers(1, 23), max_size=4), per_chunk=st.integers(1, 4))
    def test_blocks_equal_the_trials_run_alone(self, scheme, seed, cuts, per_chunk):
        # a block's trials equal the same trials run as blocks of one, field
        # by field, however the trials are cut into blocks; chunks of at most
        # 4 trials make every cut leave a block that crosses a chunk boundary
        # both configurations give budget stops and more than one label
        trials = 24
        if scheme == "direct":
            src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.2),
                               L=2, n=24)
            cfg, build, run, budget = direct_scheme(agents=2, rate=0.2, epsilon=1.0), \
                direct_specs, run_direct_trial, 2
        else:
            src = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.05),
                               L=2, n=6)
            cfg = dataclasses.replace(binned_scheme(bins=2.3, epsilon=0.6),
                                      triple=compose_markov(src.p0, src.obs_channel,
                                                            CondPmf.binary_flip(0.3)))
            build, run, budget = binned_specs, run_binned_trial, 3
        alone = [run(src, cfg, build(cfg, src, seed), seed, t, budget=budget)
                 for t in range(trials)]
        bounds = [0, *sorted(cuts), trials]
        assert max(hi - lo for lo, hi in zip(bounds, bounds[1:])) > per_chunk
        specs = build(cfg, src, seed)
        with mock.patch.object(coding, "_CHUNK_POSITIONS", per_chunk * (src.L + 1) * src.n):
            blocks = [run(src, cfg, specs, seed, lo, hi - lo, budget=budget)
                      for lo, hi in zip(bounds, bounds[1:])]
        alone, blocks = (Trials(*map(np.concatenate, zip(*runs))) for runs in (alone, blocks))
        assert alone.case.shape == (trials,)
        for field in Trials._fields:
            assert np.array_equal(getattr(alone, field), getattr(blocks, field)), field


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
        cases = run_direct_trial(src, cfg, specs, 314, 0, trials).case
        case_a = np.count_nonzero(cases == CASES.index(ErrorCase.A))
        slack = 3.0 * math.sqrt(max(bound * (1 - min(bound, 1.0)), 1e-12) / trials)
        assert case_a / trials <= bound + slack

