import math

import numpy as np
import pytest

from coordsim.probkit import entropy, mutual_information
from coordsim.typicality import (conditional_set_size_bound, count_bounds,
                                 delta_t, epsilon_m, hit_probability_lower_bound,
                                 is_marginally_typical, is_strongly_typical,
                                 markov_lemma_bound, typical_set_size_bound)

GENERIC_JOINT = np.array([[0.38, 0.12], [0.17, 0.33]])


def all_binary_sequences(n):
    return [np.array([(k >> i) & 1 for i in range(n)]) for k in range(2**n)]


def oracle_typical(x, y, probs, eps):
    n = len(x)
    sx, sy = probs.shape
    for a in range(sx):
        for b in range(sy):
            freq = np.count_nonzero((np.asarray(x) == a) & (np.asarray(y) == b)) / n
            if not abs(freq - probs[a, b]) < eps / (sx * sy):
                return False
    return True


class TestEpsilonM:
    def test_uniform_pair(self):
        assert epsilon_m(np.full((2, 2), 0.25), 0.1) == \
            pytest.approx(-0.1 * math.log(0.25), abs=1e-12)
        assert epsilon_m(np.full((2, 2), 0.25), 0.1) == pytest.approx(0.138629, abs=1e-6)

    def test_point_mass(self):
        p = np.zeros((2, 2))
        p[0, 1] = 1.0
        assert epsilon_m(p, 0.1) == 0.0

    def test_zero_epsilon(self):
        assert epsilon_m(GENERIC_JOINT, 0.0) == 0.0

    def test_zero_cells_excluded(self):
        p = np.array([[0.5, 0.0], [0.25, 0.25]])
        assert epsilon_m(p, 1.0) == pytest.approx(-math.log(0.25))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            epsilon_m(np.zeros((2, 2)) + 1e-18, 0.1)

    def test_power_of_two_scaling_exact(self):
        base = epsilon_m(GENERIC_JOINT, 0.1)
        for c in (2.0, 4.0, 0.5):
            assert epsilon_m(GENERIC_JOINT, c * 0.1) == c * base


class TestDeltaT:
    def test_small_n_vacuous(self):
        assert delta_t(10, 0.2, (2, 2)) > 1.0

    def test_eventually_decreasing(self):
        values = [delta_t(n, 0.2, (2, 2)) for n in (10_000, 40_000, 160_000)]
        assert values[0] > values[1] > values[2]

    def test_matches_independent_evaluation(self):
        impl = delta_t(2000, 0.2, (2, 2))
        direct = (2001**4) * math.exp(-2000 * 0.2**2 / (2 * 16))
        assert impl == pytest.approx(direct, rel=1e-9)

    def test_triple_alphabet_product(self):
        impl = delta_t(500, 0.3, (2, 2, 2))
        direct = (501**8) * math.exp(-500 * 0.09 / (2 * 64))
        assert impl == pytest.approx(direct, rel=1e-9)

    def test_overflow_returns_inf(self):
        assert delta_t(10**20, 1e-12, (4, 4)) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_t(0, 0.2, (2, 2))
        with pytest.raises(ValueError):
            delta_t(10, 0.0, (2, 2))


class TestMembership:
    def test_exact_type_always_typical(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        uniform = np.full((2, 2), 0.25)
        for eps in (1e-6, 0.1, 1.0):
            assert is_strongly_typical(x, y, uniform, eps)

    def test_constant_sequence_atypical_for_uniform_marginal(self):
        assert not is_marginally_typical([0, 0, 0, 0], np.array([0.5, 0.5]), 0.1)

    def test_matches_literal_definition_exhaustively(self):
        # n <= 5 here; the acceptance suite runs the full n <= 8 sweep
        for eps in (0.1, 0.3):
            for n in range(1, 6):
                seqs = all_binary_sequences(n)
                for x in seqs:
                    for y in seqs:
                        assert is_strongly_typical(x, y, GENERIC_JOINT, eps) == \
                            oracle_typical(x, y, GENERIC_JOINT, eps)

    def test_marginally_typical_but_pair_atypical_exists(self):
        # exhaustive search over n=6 pairs for the separating example
        marginal = GENERIC_JOINT.sum(axis=0)
        found = False
        for x in all_binary_sequences(6):
            for y in all_binary_sequences(6):
                if is_marginally_typical(y, marginal, 0.3) and \
                        not is_strongly_typical(x, y, GENERIC_JOINT, 0.3):
                    found = True
                    break
            if found:
                break
        assert found

    def test_atypical_x_empties_conditional_set(self):
        # joint typicality forces the x marginal within eps/|X|; a violating
        # x therefore admits no conditionally typical y
        x = np.zeros(6, dtype=int)
        assert not is_marginally_typical(x, GENERIC_JOINT.sum(axis=1), 0.3)
        for y in all_binary_sequences(6):
            assert not is_strongly_typical(x, y, GENERIC_JOINT, 0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_strongly_typical([0, 1], [0, 1, 1], GENERIC_JOINT, 0.1)

    def test_count_bounds_strictness(self):
        # 1-d binary law, so the cell bound is eps/2; boundary counts sit on
        # the open edge and must be excluded
        lo, hi = count_bounds(np.array([0.5, 0.5]), 4, 0.5)
        assert lo.tolist() == [2, 2] and hi.tolist() == [2, 2]
        lo, hi = count_bounds(np.array([0.5, 0.5]), 4, 1.0)
        assert lo.tolist() == [1, 1] and hi.tolist() == [3, 3]
        lo, hi = count_bounds(np.array([0.5, 0.5]), 4, 1.0001)
        assert lo.tolist() == [0, 0] and hi.tolist() == [4, 4]


class TestSetBounds:
    def test_point_mass_bound_is_one_at_zero_eps(self):
        p = np.zeros((2, 2))
        p[1, 1] = 1.0
        assert typical_set_size_bound(p, 10, 0.0) == pytest.approx(1.0)

    def test_exhaustive_count_below_bound(self):
        uniform = np.full((2, 2), 0.25)
        n = 8
        members = 0
        for x in all_binary_sequences(n):
            for y in all_binary_sequences(n):
                if is_strongly_typical(x, y, uniform, 0.25):
                    members += 1
        assert members < typical_set_size_bound(uniform, n, 0.25)

    def test_monotone_in_epsilon(self):
        assert typical_set_size_bound(GENERIC_JOINT, 50, 0.1) < \
            typical_set_size_bound(GENERIC_JOINT, 50, 0.3)

    def test_conditional_variant_uses_conditional_entropy(self):
        n, eps = 60, 0.2
        h_cond = entropy(GENERIC_JOINT) - entropy(GENERIC_JOINT.sum(axis=1))
        expected = math.exp(n * (h_cond + epsilon_m(GENERIC_JOINT, eps)))
        assert conditional_set_size_bound(GENERIC_JOINT, n, eps) == \
            pytest.approx(expected, rel=1e-12)


class TestProbabilityBounds:
    def test_hit_bound_independent_joint(self):
        px = np.array([0.5, 0.5])
        j = np.outer(px, px)
        n, eps = 100, 0.2
        dt = delta_t(n, eps / 2, (2, 2))
        expected = (1 - dt) * math.exp(-n * 2 * epsilon_m(j, eps))
        assert hit_probability_lower_bound(j, n, eps) == \
            pytest.approx(min(max(expected, 0.0), 1.0))

    def test_hit_bound_clamped_to_unit_interval(self):
        for n in (10, 1000, 100_000):
            value = hit_probability_lower_bound(GENERIC_JOINT, n, 0.2)
            assert 0.0 <= value <= 1.0

    def test_hit_bound_monte_carlo(self):
        # 1e4 independent product draws vs the (possibly vacuous) bound
        n, eps, trials = 100, 0.2, 10_000
        j = GENERIC_JOINT
        bound = hit_probability_lower_bound(j, n, eps)
        generator = np.random.default_rng(99)
        px = j.sum(axis=1)
        py = j.sum(axis=0)
        xs = generator.choice(2, size=(trials, n), p=px)
        ys = generator.choice(2, size=(trials, n), p=py)
        lo, hi = count_bounds(j, n, eps)
        hits = 0
        for k in range(trials):
            counts = np.bincount(xs[k] * 2 + ys[k], minlength=4).reshape(2, 2)
            if np.all((counts >= lo) & (counts <= hi)):
                hits += 1
        assert hits / trials >= bound

    def test_markov_bound_tiny_n_clamped(self):
        assert markov_lemma_bound(10, 0.3, (2, 2, 2)) == 0.0

    def test_markov_bound_increasing_past_crossover(self):
        low = markov_lemma_bound(800_000, 0.3, (2, 2, 2))
        high = markov_lemma_bound(3_000_000, 0.3, (2, 2, 2))
        assert high > low
        assert high > 0.99

    def test_markov_bound_matches_formula(self):
        n, eps = 3000, 0.3
        expected = min(max(1.0 - delta_t(n, eps / 2, (2, 2, 2)), 0.0), 1.0)
        assert markov_lemma_bound(n, eps, (2, 2, 2)) == expected


class TestExponentialInequality:
    def test_log_domain_inequality(self):
        # theta log(1-xi) <= -theta xi for theta > 0, xi <= 1
        generator = np.random.default_rng(12)
        theta = np.exp(generator.uniform(-7, 7, size=100_000))
        xi = generator.uniform(-5.0, 1.0, size=100_000)
        lhs = theta * np.log1p(-xi)
        assert np.all(lhs <= -theta * xi + 1e-12)

    def test_direct_small_values(self):
        for theta in (0.5, 1.0, 3.0, 10.0):
            for xi in (-0.5, 0.0, 0.2, 0.9, 1.0):
                assert (1 - xi)**theta <= math.exp(-theta * xi) + 1e-12


class TestLargeBlocklengthProbability:
    def test_lemma_bound_binds_at_large_n(self):
        # at this scale delta_t < 1 and every i.i.d. draw should be typical
        n, trials, eps = 200_000, 100, 0.2
        j = GENERIC_JOINT
        dt = delta_t(n, eps, j.shape)
        assert dt < 1.0
        generator = np.random.default_rng(7)
        flat = generator.choice(4, size=(trials, n), p=j.reshape(-1))
        lo, hi = count_bounds(j, n, eps)
        ok = 0
        for k in range(trials):
            counts = np.bincount(flat[k], minlength=4).reshape(2, 2)
            if np.all((counts >= lo) & (counts <= hi)):
                ok += 1
        assert ok / trials >= 1.0 - dt - 3.0 * math.sqrt(max(dt * (1 - dt), 1e-12) / trials)


def test_bounds_reject_bad_arguments():
    with pytest.raises(ValueError):
        count_bounds(GENERIC_JOINT, 0, 0.1)
    with pytest.raises(ValueError):
        count_bounds(GENERIC_JOINT, 5, 0.0)
    with pytest.raises(ValueError):
        hit_probability_lower_bound(np.array([0.5, 0.5]), 10, 0.1)


def test_mutual_information_consistency_with_bound_inputs():
    # the hit bound's information term is the plain pair MI
    j = GENERIC_JOINT
    assert mutual_information(j) > 0.0
