import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.probkit import (CondPmf, Pmf, as_probs, compose_markov,
                              conditional_mutual_information,
                              mutual_information, tv_distance)
from coordsim.region import (FEASIBILITY_SLACK, OPTIMUM_TOL, RegionQuery,
                             _objective_batch, min_achievable_delta,
                             min_finite_agent_rate, min_per_agent_rate,
                             rate_delta_curve)


def flip_query(obs_flip=0.2, target_flip=0.38, p0=None, delta=None):
    return RegionQuery(p0=p0 or Pmf.uniform(2),
                       obs_channel=CondPmf.binary_flip(obs_flip),
                       target=CondPmf.binary_flip(target_flip),
                       delta=delta)


def objective(kind, q, query):
    """The solver's objective at one channel q."""
    return float(_objective_batch(kind, as_probs(q)[None], query)[0])


def channel_rate(kind, q, query):
    """The rate of channel q, from probkit on the composed triple."""
    triple = compose_markov(query.p0, query.obs_channel, CondPmf(as_probs(q)))
    return (conditional_mutual_information(triple) if kind == "per_agent"
            else mutual_information(triple.pair_marginal(1, 2)))


class TestRates:
    """The objectives the solver minimizes, at fixed channels."""

    def test_constant_output_channel_zero_rate(self):
        query = flip_query()
        q = CondPmf([[1.0, 0.0], [1.0, 0.0]])
        assert objective("finite", q, query) == 0.0
        assert objective("per_agent", q, query) == 0.0

    def test_noiseless_identity_gives_source_entropy(self):
        query = RegionQuery(p0=Pmf.uniform(2), obs_channel=CondPmf(np.eye(2)),
                            target=CondPmf(np.eye(2)))
        assert objective("finite", CondPmf(np.eye(2)), query) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_finite_rate_matches_composed_mutual_information(self):
        query = flip_query(obs_flip=0.1)
        q = CondPmf.binary_flip(0.1)
        triple = compose_markov(query.p0, query.obs_channel, q)
        assert objective("finite", q, query) == \
            pytest.approx(mutual_information(triple.pair_marginal(1, 2).probs),
                          abs=1e-12)

    def test_per_agent_rate_matches_composed_cmi(self):
        generator = np.random.default_rng(2)
        for _ in range(25):
            query = RegionQuery(
                p0=Pmf(generator.dirichlet(np.ones(2))),
                obs_channel=CondPmf(generator.dirichlet(np.ones(2), size=2)),
                target=CondPmf(generator.dirichlet(np.ones(2), size=2)))
            q = generator.dirichlet(np.ones(2), size=2)
            triple = compose_markov(query.p0, query.obs_channel, CondPmf(q))
            assert objective("per_agent", q, query) == \
                pytest.approx(conditional_mutual_information(triple), abs=1e-12)

    def test_noiseless_observation_kills_per_agent_rate(self):
        query = RegionQuery(p0=Pmf([0.3, 0.7]), obs_channel=CondPmf(np.eye(2)),
                            target=CondPmf.binary_flip(0.25))
        generator = np.random.default_rng(8)
        for _ in range(10):
            q = generator.dirichlet(np.ones(2), size=2)
            assert objective("per_agent", q, query) == pytest.approx(0.0, abs=1e-12)

    def test_ordering_per_agent_at_most_finite(self):
        generator = np.random.default_rng(14)
        for _ in range(200):
            query = RegionQuery(
                p0=Pmf(generator.dirichlet(np.ones(2))),
                obs_channel=CondPmf(generator.dirichlet(np.ones(2), size=2)),
                target=CondPmf(generator.dirichlet(np.ones(2), size=2)))
            q = generator.dirichlet(np.ones(2), size=2)
            assert objective("per_agent", q, query) <= objective("finite", q, query) + 1e-10


class TestFidelityFloor:
    def test_reachable_target_floor_zero(self):
        obs = CondPmf.binary_flip(0.2)
        q_true = CondPmf([[0.9, 0.1], [0.2, 0.8]])
        query = RegionQuery(p0=Pmf([0.6, 0.4]), obs_channel=obs,
                            target=CondPmf(obs.rows @ q_true.rows))
        dmin, q_arg = min_achievable_delta(query)
        assert dmin <= 1e-9
        assert np.allclose(q_arg.rows, q_true.rows, atol=1e-7)

    def test_noiseless_observation_always_reaches(self):
        generator = np.random.default_rng(55)
        for _ in range(10):
            query = RegionQuery(p0=Pmf.uniform(2), obs_channel=CondPmf(np.eye(2)),
                                target=CondPmf(generator.dirichlet(np.ones(2), size=2)))
            dmin, _ = min_achievable_delta(query)
            assert dmin <= 1e-9

    def test_matches_dense_grid(self):
        # strongly noisy observation vs identity target: the floor is positive
        query = RegionQuery(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.4),
                            target=CondPmf(np.eye(2)))
        dmin, _ = min_achievable_delta(query)
        ticks = np.linspace(0.0, 1.0, 1001)
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        best = np.inf
        target = query.target_joint
        tv = np.zeros_like(a)
        for x in range(2):
            row = query.obs_channel.rows[x]
            out1 = row[0] * a + row[1] * b
            tv += np.abs(query.p0.probs[x] * (1 - out1) - target[x, 0])
            tv += np.abs(query.p0.probs[x] * out1 - target[x, 1])
        best = 0.5 * tv.min()
        assert dmin == pytest.approx(best, abs=1e-3)
        assert dmin > 0.1


class TestConstrainedMinima:
    def test_infeasible_radius_reported(self):
        query = RegionQuery(p0=Pmf.uniform(2), obs_channel=CondPmf.binary_flip(0.4),
                            target=CondPmf(np.eye(2)), delta=0.0)
        point = min_per_agent_rate(query)
        assert not point.feasible
        assert point.rate == math.inf
        assert point.achieved_tv > 0.1

    def test_constant_channel_in_ball_gives_zero_rate(self):
        # delta large enough to reach a product law exactly
        query = flip_query(delta=0.9)
        for solve in (min_per_agent_rate, min_finite_agent_rate):
            point = solve(query)
            assert point.feasible
            assert point.rate == 0.0

    def test_rate_zero_at_full_radius(self):
        query = flip_query(delta=1.0)
        assert min_per_agent_rate(query).rate == 0.0
        assert min_finite_agent_rate(query).rate == 0.0

    def test_point_consistency_invariants(self):
        generator = np.random.default_rng(77)
        for _ in range(6):
            query = RegionQuery(
                p0=Pmf(generator.dirichlet(np.ones(2))),
                obs_channel=CondPmf(generator.dirichlet(np.ones(2), size=2)),
                target=CondPmf(generator.dirichlet(np.ones(2), size=2)),
                delta=float(generator.uniform(0.05, 0.4)))
            for kind, solve in SOLVERS:
                point = solve(query)
                if not point.feasible:
                    continue
                assert point.achieved_tv <= query.delta + FEASIBILITY_SLACK
                assert point.rate == pytest.approx(channel_rate(kind, point.q_star, query),
                                                   abs=1e-10)
                joint = query.p0.probs[:, None] * (query.obs_channel.rows @ point.q_star.rows)
                assert tv_distance(joint, query.target_joint) == \
                    pytest.approx(point.achieved_tv, abs=1e-12)

    def test_exact_match_radius_recovers_channel_rates(self):
        obs = CondPmf.binary_flip(0.2)
        q_true = CondPmf([[0.85, 0.15], [0.1, 0.9]])
        query = RegionQuery(p0=Pmf([0.55, 0.45]), obs_channel=obs,
                            target=CondPmf(obs.rows @ q_true.rows), delta=0.0)
        fin = min_finite_agent_rate(query)
        per = min_per_agent_rate(query)
        assert fin.rate == pytest.approx(channel_rate("finite", q_true, query), abs=1e-6)
        assert per.rate == pytest.approx(channel_rate("per_agent", q_true, query), abs=1e-6)
        assert per.rate <= fin.rate + 1e-10


class TestRateDeltaCurve:
    def test_single_point_grid(self):
        query = flip_query()
        curve = rate_delta_curve(query, [0.05])
        assert len(curve) == 1
        direct = min_per_agent_rate(dataclasses.replace(query, delta=0.05))
        assert curve[0].per_agent.rate == pytest.approx(direct.rate, abs=1e-6)

    def test_non_increasing_and_ends_at_zero(self):
        query = flip_query(obs_flip=0.3, target_flip=0.1)
        deltas = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
        curve = rate_delta_curve(query, deltas)
        for kind in ("per_agent", "finite"):
            rates = [getattr(pt, kind).rate for pt in curve]
            for earlier, later in zip(rates, rates[1:]):
                assert later <= earlier + 1e-9
        assert curve[-1].per_agent.rate == 0.0
        assert curve[-1].finite.rate == 0.0

    def test_grid_order_preserved(self):
        query = flip_query()
        curve = rate_delta_curve(query, [0.3, 0.05, 0.1])
        assert [pt.delta for pt in curve] == [0.3, 0.05, 0.1]


class TestQueryValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            flip_query(delta=-0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # unrefused, NaN reaches linprog's b_ub and inf warns inside scipy
        with pytest.raises(ValueError, match="delta"):
            flip_query(delta=delta)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RegionQuery(p0=Pmf.uniform(3), obs_channel=CondPmf.binary_flip(0.2),
                        target=CondPmf.binary_flip(0.3))

    def test_missing_delta_raises_on_solve(self):
        with pytest.raises(ValueError):
            min_per_agent_rate(flip_query())


def assert_certified(point, query, kind):
    """A feasible point within the radius, whose rate probkit reproduces and
    whose duality gap meets the optimum tolerance."""
    assert point.feasible
    assert point.achieved_tv <= query.delta + FEASIBILITY_SLACK
    assert point.rate == pytest.approx(channel_rate(kind, point.q_star, query), abs=1e-9)
    assert 0.0 <= point.gap <= OPTIMUM_TOL


def seeded_ternary_queries():
    """Twelve 3-symbol queries, 3x3 targets for even k and 3x2 for odd k,
    every row drawn from Dirichlet(2)."""
    generator = np.random.default_rng(5)
    queries = []
    for k in range(12):
        p0 = generator.dirichlet([2.0] * 3)
        obs = generator.dirichlet([2.0] * 3, size=3)
        target = generator.dirichlet([2.0] * (3 if k % 2 == 0 else 2), size=3)
        queries.append(RegionQuery(p0=Pmf(p0), obs_channel=CondPmf(obs),
                                   target=CondPmf(target)))
    return queries


SOLVERS = (("finite", min_finite_agent_rate), ("per_agent", min_per_agent_rate))


class TestTernaryCertificate:
    def test_boundary_optimum_reached(self):
        # the optimum sits on the fidelity boundary just above the floor;
        # rates of 0.0789953 / 0.0758568 here would miss OPTIMUM_TOL
        query = dataclasses.replace(seeded_ternary_queries()[10], delta=0.15)
        assert min_achievable_delta(query)[0] == pytest.approx(0.14031, abs=1e-5)
        bounds = {"finite": 0.0788567, "per_agent": 0.0755757}
        for kind, solve in SOLVERS:
            point = solve(query)
            assert point.rate <= bounds[kind] + 1e-6
            assert_certified(point, query, kind)

    def test_every_feasible_point_certified(self):
        feasible = 0
        for query in seeded_ternary_queries():
            for delta in (0.05, 0.15, 0.3):
                radius_query = dataclasses.replace(query, delta=delta)
                for kind, solve in SOLVERS:
                    point = solve(radius_query)
                    if point.feasible:
                        feasible += 1
                        assert_certified(point, radius_query, kind)
        assert feasible == 54


_WEIGHT = st.floats(0.05, 1.0)


def _stochastic_rows(draw, rows: int, cols: int) -> np.ndarray:
    raw = np.array(draw(st.lists(st.lists(_WEIGHT, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)))
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def small_queries(draw):
    """Binary or ternary source with a 2- or 3-symbol output.  Entries stay
    away from zero: with zero entries an optimum can leave an output symbol
    unused, where the gradient's linearization is loose and the gap, though
    still a valid bound, can exceed OPTIMUM_TOL."""
    sx = draw(st.sampled_from((2, 3)))
    ys = draw(st.sampled_from((2, 3)))
    return RegionQuery(p0=Pmf(_stochastic_rows(draw, 1, sx)[0]),
                       obs_channel=CondPmf(_stochastic_rows(draw, sx, sx)),
                       target=CondPmf(_stochastic_rows(draw, sx, ys)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(query=small_queries(),
       deltas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3))
def test_solved_points_certified_and_curves_monotone(query, deltas):
    floor, _ = min_achievable_delta(query)
    curve = sorted(rate_delta_curve(query, deltas), key=lambda pt: pt.delta)
    for kind, _ in SOLVERS:
        rates = []
        for pt in curve:
            point = getattr(pt, kind)
            assert point.feasible == (pt.delta >= floor - FEASIBILITY_SLACK)
            if point.feasible:
                assert_certified(point, dataclasses.replace(query, delta=pt.delta), kind)
            rates.append(point.rate)
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-9
