import math

import numpy as np
import pytest

from coordsim.probkit import mutual_information
from coordsim.typicality import (count_bounds, counts_typical, delta_t, epsilon_m,
                                 is_strongly_typical, typical_set_size_bound)
from coordsim.verify import _all_sequences

GENERIC_JOINT = np.array([[0.38, 0.12], [0.17, 0.33]])


def marginally_typical(seq, marginal, eps):
    return counts_typical(np.bincount(seq, minlength=marginal.size), marginal, len(seq), eps)


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
        assert not marginally_typical(np.zeros(4, dtype=int), np.array([0.5, 0.5]), 0.1)

    def test_marginally_typical_but_pair_atypical_exists(self):
        # exhaustive search over n=6 pairs for the separating example
        marginal = GENERIC_JOINT.sum(axis=0)
        found = False
        for x in _all_sequences(2, 6):
            for y in _all_sequences(2, 6):
                if marginally_typical(y, marginal, 0.3) and \
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
        assert not marginally_typical(x, GENERIC_JOINT.sum(axis=1), 0.3)
        for y in _all_sequences(2, 6):
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
        for x in _all_sequences(2, n):
            for y in _all_sequences(2, n):
                if is_strongly_typical(x, y, uniform, 0.25):
                    members += 1
        assert members < typical_set_size_bound(uniform, n, 0.25)

    def test_monotone_in_epsilon(self):
        assert typical_set_size_bound(GENERIC_JOINT, 50, 0.1) < \
            typical_set_size_bound(GENERIC_JOINT, 50, 0.3)


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


def test_mutual_information_consistency_with_bound_inputs():
    # the typicality tests run on a dependent law: its pair MI is positive
    assert mutual_information(GENERIC_JOINT) > 0.0
