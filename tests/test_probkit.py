import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.probkit import (CondPmf, JointPmf, Pmf,
                              compose_markov, conditional_mutual_information,
                              entropy, joint_type, mutual_information,
                              tv_distance)
from coordsim.verify import INFO_TOL, _oracle_cmi, _oracle_mi

LN2 = math.log(2.0)


def binary_entropy(p):
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


class TestTypes:
    def test_alphabet_rejects_empty(self):
        with pytest.raises(ValueError):
            joint_type([0], [0], 0, 2)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.6])

    def test_pmf_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf([1.1, -0.1])

    def test_arrays_are_read_only(self):
        p = Pmf.uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_cond_pmf_rows_validated(self):
        with pytest.raises(ValueError):
            CondPmf([[0.5, 0.5], [0.7, 0.7]])

    def test_joint_pmf_dimensionality(self):
        with pytest.raises(ValueError):
            JointPmf(np.ones(4) / 4)

    def test_binary_flip_range(self):
        with pytest.raises(ValueError):
            CondPmf.binary_flip(1.5)


class TestJointType:
    def test_uniform_pair_coverage(self):
        jt = joint_type([0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
        assert jt.dtype == np.int64
        assert np.array_equal(jt, [[1, 1], [1, 1]])

    def test_constant_sequences_point_mass(self):
        jt = joint_type([1, 1, 1], [0, 0, 0], 2, 2)
        assert np.array_equal(jt, [[0, 0], [3, 0]])

    def test_direct_count(self):
        jt = joint_type([0, 1, 0], [1, 1, 0], 2, 2)
        assert np.array_equal(jt, [[1, 1], [0, 1]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_type([0, 1], [0], 2, 2)

    def test_out_of_range_symbol(self):
        with pytest.raises(ValueError):
            joint_type([0, 2], [0, 1], 2, 2)

    def test_counts_exact_against_dict_oracle(self):
        # every binary pair up to n=4; the acceptance suite extends to n=6
        for n in range(1, 5):
            seqs = [np.array([(k >> i) & 1 for i in range(n)]) for k in range(2**n)]
            for x in seqs:
                for y in seqs:
                    jt = joint_type(x, y, 2, 2)
                    expected = np.zeros((2, 2), dtype=np.int64)
                    for xi, yi in zip(x, y):
                        expected[xi, yi] += 1
                    assert np.array_equal(jt, expected)
                    assert jt.sum() == n


class TestTotalVariation:
    def test_identity_is_zero(self):
        u = np.full((2, 2), 0.25)
        assert tv_distance(u, u) == 0.0

    def test_disjoint_point_masses(self):
        p = np.zeros((2, 2))
        p[0, 0] = 1.0
        q = np.zeros((2, 2))
        q[1, 1] = 1.0
        assert tv_distance(p, q) == 1.0

    def test_half_l1(self):
        assert tv_distance(np.array([[0.7, 0.3]]),
                           np.array([[0.5, 0.5]])) == pytest.approx(0.2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(np.ones((2, 2)) / 4, np.ones(4) / 4)

    def test_metric_properties(self):
        generator = np.random.default_rng(5)
        for _ in range(300):
            a = generator.dirichlet(np.ones(6)).reshape(2, 3)
            b = generator.dirichlet(np.ones(6)).reshape(2, 3)
            c = generator.dirichlet(np.ones(6)).reshape(2, 3)
            assert tv_distance(a, b) == tv_distance(b, a)
            assert 0.0 <= tv_distance(a, b) <= 1.0
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    def test_accepts_joint_type(self):
        jt = joint_type([0, 0, 1, 1], [0, 1, 0, 1], 2, 2)
        assert tv_distance(jt / 4, np.full((2, 2), 0.25)) == 0.0
        assert tv_distance(jt / 4, JointPmf([[0.5, 0.0], [0.0, 0.5]])) == 0.5


class TestInformation:
    def test_entropy_uniform_binary(self):
        assert entropy(Pmf.uniform(2)) == pytest.approx(LN2, abs=1e-12)

    def test_entropy_point_mass(self):
        assert entropy(Pmf([0.0, 1.0, 0.0])) == 0.0

    def test_entropy_skewed(self):
        assert entropy(Pmf([0.9, 0.1])) == pytest.approx(0.325083, abs=1e-6)

    def test_mi_product_is_zero(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        assert mutual_information(np.outer(px, py)) == pytest.approx(0.0, abs=1e-14)

    def test_mi_identical_uniform(self):
        j = np.diag([0.5, 0.5])
        assert mutual_information(j) == pytest.approx(LN2, abs=1e-12)

    def test_mi_binary_symmetric_channel(self):
        j = compose_markov(Pmf.uniform(2), CondPmf(np.eye(2)),
                           CondPmf.binary_flip(0.1)).pair_marginal(0, 2)
        expected = LN2 - binary_entropy(0.1)
        assert mutual_information(j.probs) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.368064, abs=1e-6)

    def test_mi_equals_entropy_difference(self):
        generator = np.random.default_rng(17)
        for _ in range(200):
            j = generator.dirichlet(np.ones(9)).reshape(3, 3)
            h_y = entropy(j.sum(axis=0))
            h_y_given_x = entropy(j) - entropy(j.sum(axis=1))
            assert mutual_information(j) == pytest.approx(h_y - h_y_given_x, abs=1e-10)

    def test_cmi_zero_when_middle_is_deterministic_copy(self):
        t = compose_markov(Pmf([0.25, 0.75]), CondPmf(np.eye(2)),
                           CondPmf.binary_flip(0.2))
        assert conditional_mutual_information(t) == pytest.approx(0.0, abs=1e-12)

    def test_cmi_reduces_to_mi_when_conditioning_vacuous(self):
        generator = np.random.default_rng(3)
        r = generator.dirichlet(np.ones(4)).reshape(2, 2)
        p_x = np.array([0.4, 0.6])
        t = p_x[:, None, None] * r[None, :, :]
        assert conditional_mutual_information(t) == pytest.approx(
            mutual_information(r), abs=1e-12)

    def test_cmi_matches_chain_rule(self):
        generator = np.random.default_rng(11)
        for _ in range(100):
            t = generator.dirichlet(np.ones(8)).reshape(2, 2, 2)
            joint_xa_b = t.reshape(4, 2)
            chain = mutual_information(joint_xa_b) - \
                mutual_information(t.sum(axis=1))
            assert conditional_mutual_information(t) == pytest.approx(chain, abs=1e-10)

    def test_cmi_at_most_mi_on_chain_triples(self):
        generator = np.random.default_rng(23)
        for _ in range(200):
            triple = compose_markov(
                Pmf(generator.dirichlet(np.ones(2))),
                CondPmf(generator.dirichlet(np.ones(2), size=2)),
                CondPmf(generator.dirichlet(np.ones(2), size=2)))
            assert conditional_mutual_information(triple) <= \
                mutual_information(triple.pair_marginal(1, 2).probs) + 1e-10


@st.composite
def tables(draw, ndim):
    """One table over 2-3 symbols per axis; weights on a coarse grid, so
    zero cells are common."""
    shape = tuple(draw(st.lists(st.integers(2, 3), min_size=ndim, max_size=ndim)))
    cells = draw(st.lists(st.sampled_from((0, 0, 1, 2, 7)), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))).filter(any))
    return np.array(cells, dtype=np.float64).reshape(shape) / sum(cells)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), ndim=st.sampled_from((2, 3)))
def test_information_with_zero_cells_matches_the_oracle(data, ndim):
    table = data.draw(tables(ndim))
    kernel, oracle = ((mutual_information, _oracle_mi) if ndim == 2
                      else (conditional_mutual_information, _oracle_cmi))
    value = kernel(table)
    assert isinstance(value, float)
    assert abs(value - max(oracle(table), 0.0)) <= INFO_TOL


@pytest.mark.parametrize("kernel, ndim", [(mutual_information, 2),
                                          (conditional_mutual_information, 3)])
def test_information_rejects_a_stack_of_tables(kernel, ndim):
    stack = np.full((2,) * (ndim + 1), 0.5**ndim)
    with pytest.raises(ValueError, match="takes one"):
        kernel(stack)
    with pytest.raises(ValueError):
        kernel(stack[0, 0])


class TestComposeMarkov:
    def test_identity_channels_diagonal(self):
        t = compose_markov(Pmf.uniform(2), CondPmf(np.eye(2)), CondPmf(np.eye(2)))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 0.5
        expected[1, 1, 1] = 0.5
        assert np.allclose(t.probs, expected)

    def test_constant_output_independent(self):
        t = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.3),
                           CondPmf([[1.0, 0.0], [1.0, 0.0]]))
        assert np.allclose(t.probs[:, :, 1], 0.0)
        marg = t.pair_marginal(0, 2).probs
        assert np.allclose(marg[:, 0], [0.5, 0.5])

    def test_flip_composition(self):
        t = compose_markov(Pmf.uniform(2), CondPmf.binary_flip(0.1),
                           CondPmf.binary_flip(0.1))
        pair = t.pair_marginal(0, 2).probs
        flip = 2 * 0.1 * 0.9
        expected = np.array([[1 - flip, flip], [flip, 1 - flip]]) / 2
        assert np.allclose(pair, expected, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_markov(Pmf.uniform(3), CondPmf(np.eye(2)), CondPmf(np.eye(2)))

    def test_marginal_helpers(self):
        t = compose_markov(Pmf([0.2, 0.8]), CondPmf.binary_flip(0.25),
                           CondPmf.binary_flip(0.4))
        assert np.allclose(t.marginal(0).probs, [0.2, 0.8])
        for axes in ((0, 1), (1, 2), (0, 2)):
            pair = t.pair_marginal(*axes)
            assert pair.probs.sum() == pytest.approx(1.0, abs=1e-12)
        swapped = t.pair_marginal(2, 0)
        assert np.allclose(swapped.probs, t.pair_marginal(0, 2).probs.T)
