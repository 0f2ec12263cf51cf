import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordsim import region
from coordsim.probkit import (CondPmf, Pmf, as_probs, compose_markov,
                              conditional_mutual_information,
                              mutual_information, tv_distance)
from coordsim.region import (FEASIBILITY_SLACK, OPTIMUM_TOL, RegionQuery,
                             _rate, min_achievable_delta,
                             min_finite_agent_rate, min_per_agent_rate,
                             rate_delta_curve)


def flip_query(obs_flip=0.2, target_flip=0.38, p0=None, delta=None):
    return RegionQuery(p0=p0 or Pmf.uniform(2),
                       obs_channel=CondPmf.binary_flip(obs_flip),
                       target=CondPmf.binary_flip(target_flip),
                       delta=delta)


def objective(kind, q, query):
    """The solver's objective at one channel q."""
    return _rate(kind, as_probs(q), query)


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

    def test_radius_within_rounding_of_the_floor(self):
        # the barrier's ball (half the slack past delta) holds the floor by a
        # few ulps: no interior point is representable, and none is divided by
        query = flip_query(obs_flip=0.2, target_flip=0.0)
        floor, _ = min_achievable_delta(query)
        delta = floor - 0.5 * FEASIBILITY_SLACK
        for _ in range(6):
            delta = float(np.nextafter(delta, 1.0))
            thin = dataclasses.replace(query, delta=delta)
            for kind, solve in SOLVERS:
                assert_certified(solve(thin), thin, kind)


    def test_newton_matrix_singular_to_working_precision(self):
        # near t = 2e8 the barrier's reduced Newton matrix for this query is
        # singular in floating point; stopping there left a gap of 4.0e-8
        query = RegionQuery(
            p0=Pmf([0.44522478897682105, 0.554775211023179]),
            obs_channel=CondPmf([[1.0, 0.0], [0.46520740376114744, 0.5347925962388526]]),
            target=CondPmf([[1.0, 0.0, 0.0], [0.0, 0.5423313825902476, 0.45766861740975234]]))
        floor, _ = min_achievable_delta(query)
        query = dataclasses.replace(query, delta=floor + 0.01)
        point = min_finite_agent_rate(query)
        assert_certified(point, query, "finite")
        assert point.gap <= 1e-8


class TestRateDeltaCurve:
    def test_single_point_grid(self):
        query = flip_query()
        curve = rate_delta_curve(query, [0.05])
        assert len(curve) == 1
        direct = min_per_agent_rate(dataclasses.replace(query, delta=0.05))
        assert curve[0].per_agent.rate == direct.rate

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
        # every point is its radius's standalone solve, whatever the order
        # of the grid and however often a radius repeats
        query = flip_query()
        grid = [0.3, 0.05, 0.1, 0.05]
        curve = rate_delta_curve(query, grid)
        assert [pt.delta for pt in curve] == grid
        assert curve[1].per_agent.rate > 0.0
        for pt in curve:
            radius_query = dataclasses.replace(query, delta=pt.delta)
            for kind, solve in SOLVERS:
                point, alone = getattr(pt, kind), solve(radius_query)
                assert point.rate == alone.rate
                assert point.q_star.rows.tobytes() == alone.q_star.rows.tobytes()
                assert point.gap == alone.gap


def block_query():
    """A 3-symbol query whose floor and two zero-rate faces pose three
    different class maps: the identity, two blocks (per-agent) and one
    class (finite)."""
    return RegionQuery(p0=Pmf([0.2, 0.3, 0.5]),
                       obs_channel=CondPmf([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0],
                                            [0.0, 0.0, 1.0]]),
                       target=CondPmf([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]]))


class TestRadiusFreeLPsPosedOnce:
    """The floor and zero-rate face LPs do not depend on the radius: each
    (query, class map) is solved once and served from a bounded cache."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        region._closest_cached.cache_clear()

    def test_curve_poses_each_radius_free_lp_once(self, monkeypatch):
        query = block_query()
        simplex = region.linprog
        radius_free, gap_lps = [], 0

        def recording(c, **polytope):
            nonlocal gap_lps
            # a gap LP carries the radius row after the 2 |X| |Y| slack rows
            if len(polytope["b_ub"]) == 2 * query.p0.size * query.out_size:
                radius_free.append(len(polytope["b_eq"]))   # rows of q: classes
            else:
                gap_lps += 1
            return simplex(c, **polytope)

        monkeypatch.setattr(region, "linprog", recording)
        # below the floor; above it, but reaching neither face; reaching the
        # per-agent face only; reaching both faces
        curve = rate_delta_curve(query, [0.0, 0.01, 0.1, 0.4])
        # the floor (3 classes), the per-agent face (2), the finite face (1)
        assert sorted(radius_free) == [1, 2, 3]
        positive = [point for pt in curve for point in (pt.per_agent, pt.finite)
                    if point.feasible and point.rate > 0.0]
        assert gap_lps == len(positive) == 3

    def test_curve_points_equal_cold_standalone_solves(self):
        query = block_query()
        curve = rate_delta_curve(query, [0.0, 0.01, 0.1, 0.4])
        for pt in curve:
            for kind, solve in SOLVERS:
                region._closest_cached.cache_clear()
                point, alone = getattr(pt, kind), solve(dataclasses.replace(query, delta=pt.delta))
                assert point.rate == alone.rate
                assert point.q_star.rows.tobytes() == alone.q_star.rows.tobytes()
                assert point.achieved_tv == alone.achieved_tv
                assert point.gap == alone.gap

    def test_returned_channel_is_read_only(self):
        query = block_query()
        _, q_arr = region._closest_channel(query, np.eye(query.obs_size))
        with pytest.raises(ValueError):
            q_arr[0, 0] = 0.5

    def test_target_and_class_map_are_in_the_key(self):
        query = block_query()
        other = dataclasses.replace(query, target=CondPmf([[0.5, 0.5], [0.8, 0.2],
                                                           [0.1, 0.9]]))
        identity = np.eye(query.obs_size)
        blocks = region._zero_rate_classes("per_agent", query)
        served = [region._closest_channel(*args) for args in
                  ((query, identity), (other, identity), (query, blocks))]
        assert region._closest_cached.cache_info().currsize == 3
        for args, (tv, q_arr) in zip(((query, identity), (other, identity),
                                      (query, blocks)), served):
            region._closest_cached.cache_clear()
            cold_tv, cold_q = region._closest_channel(*args)
            assert tv == cold_tv
            assert q_arr.tobytes() == cold_q.tobytes()
        assert served[0][0] != served[1][0] and served[0][0] != served[2][0]


class TestQueryValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            flip_query(delta=-0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # unrefused, NaN or inf would reach linprog's b_ub
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


def test_optimum_leaving_an_output_symbol_unused_is_certified():
    # the optimum leaves the third output symbol (all but) unused; a
    # gradient taken where that column is exactly zero prices it at zero,
    # and the gaps came out as 0.150 (per-agent) and 0.621 (finite)
    query = RegionQuery(p0=Pmf([0.56, 0.44]),
                        obs_channel=CondPmf([[0.63, 0.37], [0.13, 0.87]]),
                        target=CondPmf([[0.36, 0.64, 0.0], [0.65, 0.22, 0.13]]), delta=0.12)
    rates = {"per_agent": 0.0333338022, "finite": 0.0442754715}
    for kind, solve in SOLVERS:
        point = solve(query)
        assert point.q_star.rows[:, 2].max() < 1e-9
        assert point.rate == pytest.approx(rates[kind], abs=1e-8)
        assert_certified(point, query, kind)


_WEIGHT_OR_ZERO = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


def _rows_with_zeros(draw, rows: int, cols: int) -> np.ndarray:
    raw = np.array([draw(st.lists(_WEIGHT_OR_ZERO, min_size=cols, max_size=cols)
                         .filter(lambda row: sum(row) > 0)) for _ in range(rows)])
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def small_queries(draw):
    """Binary or ternary source with a 2- or 3-symbol output.  Entries may
    be zero, so an optimum can leave an output symbol unused."""
    sx = draw(st.sampled_from((2, 3)))
    ys = draw(st.sampled_from((2, 3)))
    return RegionQuery(p0=Pmf(_rows_with_zeros(draw, 1, sx)[0]),
                       obs_channel=CondPmf(_rows_with_zeros(draw, sx, sx)),
                       target=CondPmf(_rows_with_zeros(draw, sx, ys)))


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


def zero_rate_components(kind, query):
    """Class label per observation symbol, by union-find over the symbols
    one source symbol of positive probability can produce together (for the
    finite objective: over all observed symbols)."""
    weights = query.p0.probs[:, None] * query.obs_channel.rows
    groups = [np.flatnonzero(weights.sum(axis=0))] if kind == "finite" else \
        [np.flatnonzero(row) for row in weights]
    label = list(range(query.obs_size))

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    for group in groups:
        for a in group[1:]:
            label[find(a)] = find(group[0])
    return [find(a) for a in range(query.obs_size)]


def face_grid_tv(query, components, ticks):
    """Smallest TV to the target over a grid of binary-output channels whose
    rows are equal within each component."""
    roots = sorted(set(components))
    grids = np.meshgrid(*[ticks] * len(roots), indexing="ij")
    # P(out = 1 | obs = a) at every grid point
    out1 = [grids[roots.index(root)] for root in components]
    tv = 0.0
    for x in range(query.p0.size):
        p_one = sum(query.obs_channel.rows[x, a] * out1[a] for a in range(query.obs_size))
        tv = tv + np.abs(query.p0.probs[x] * (1 - p_one) - query.target_joint[x, 0]) \
            + np.abs(query.p0.probs[x] * p_one - query.target_joint[x, 1])
    return 0.5 * float(np.min(tv))


@st.composite
def queries_with_zeros(draw):
    sx = draw(st.sampled_from((2, 3)))
    ys = draw(st.sampled_from((2, 3)))
    return RegionQuery(p0=Pmf(_rows_with_zeros(draw, 1, sx)[0]),
                       obs_channel=CondPmf(_rows_with_zeros(draw, sx, sx)),
                       target=CondPmf(_rows_with_zeros(draw, sx, ys)),
                       delta=draw(st.floats(0.0, 0.6)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(query=queries_with_zeros())
# per-agent faces of two observed components: a noiseless observation, and
# a block-diagonal one
@example(query=RegionQuery(p0=Pmf([0.3, 0.7]), obs_channel=CondPmf(np.eye(2)),
                           target=CondPmf.binary_flip(0.25), delta=0.0))
@example(query=RegionQuery(p0=Pmf([0.2, 0.3, 0.5]),
                           obs_channel=CondPmf([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0],
                                                [0.0, 0.0, 1.0]]),
                           target=CondPmf([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]]),
                           delta=0.01))
def test_zero_rate_points_lie_on_the_zero_face(query):
    for kind, solve in SOLVERS:
        components = zero_rate_components(kind, query)
        if query.out_size == 2:
            # the face LP is exact: no grid channel on the face beats it, and
            # the grid channel nearest its optimum is within step / 2 in TV
            face_tv, _ = region._closest_channel(query, region._zero_rate_classes(kind, query))
            step = {1: 1e-3, 2: 4e-3, 3: 2e-2}[len(set(components))]
            grid_tv = face_grid_tv(query, components, np.linspace(0.0, 1.0, round(1 / step) + 1))
            assert face_tv <= grid_tv + 1e-12
            assert grid_tv <= face_tv + step
        point = solve(query)
        if not (point.feasible and point.rate == 0.0):
            continue
        rows = point.q_star.rows
        for a, root in enumerate(components):
            np.testing.assert_array_equal(rows[a], rows[components.index(root)])
        assert channel_rate(kind, point.q_star, query) <= 1e-12
        assert point.gap == 0.0
        assert point.achieved_tv <= query.delta + FEASIBILITY_SLACK


TIGHT_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def test_solver_lps_match_highs():
    # HiGHS, where scipy is installed, is an independent oracle for every
    # linear program the solver poses: the floor, the zero-rate face and the
    # duality gap
    optimize = pytest.importorskip("scipy.optimize")
    simplex = region.linprog
    posed = []

    def recording(c, **polytope):
        x, value = simplex(c, **polytope)
        posed.append((c, polytope, value))
        return x, value

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(query=queries_with_zeros(), above_floor=st.floats(0.0, 0.1))
    def check(query, above_floor):
        posed.clear()
        # a warm cache would serve the radius-free LPs of an earlier example
        region._closest_cached.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(region, "linprog", recording)
            # radii just above the floor keep most rates positive
            floor, _ = min_achievable_delta(query)
            for _, solve in SOLVERS:
                solve(dataclasses.replace(query, delta=floor + above_floor))
        for c, polytope, value in posed:
            # at its default 1e-7 feasibility tolerance HiGHS undercuts a
            # gap LP over a 1e-9 ball by 2e-8
            oracle = optimize.linprog(c, method="highs", options=TIGHT_HIGHS, **polytope)
            assert oracle.status == 0
            assert value == pytest.approx(oracle.fun, abs=1e-9)

    check()


def test_barrier_point_outside_the_radius_falls_back_to_the_floor(monkeypatch):
    # with the barrier returning a channel outside the radius, the floor
    # channel is returned in its place
    outside = np.eye(2)
    monkeypatch.setattr(region, "_barrier", lambda kind, q_floor, query, radius: outside)
    query = flip_query(delta=0.05)
    assert region._tv_to_target(outside, query) > 0.15
    floor_tv, floor_q = min_achievable_delta(query)
    for _, solve in SOLVERS:
        point = solve(query)
        np.testing.assert_array_equal(point.q_star.rows, floor_q.rows)
        assert point.achieved_tv == floor_tv <= query.delta + FEASIBILITY_SLACK


@pytest.mark.parametrize("kind", ["finite", "per_agent"])
def test_gradient_matches_central_differences(kind):
    # the duality gap bounds rate - optimum only if the gradient is right:
    # along directions that keep each row's sum, its directional derivative
    # must match a central difference of the rate
    generator = np.random.default_rng(23)
    h = 1e-6
    shapes = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (2, 3, 4), (3, 2, 2)]
    for k in range(60):
        sx, sa, sb = shapes[k % len(shapes)]
        p0 = generator.dirichlet(np.ones(sx))
        if k % 5 == 0:
            p0[generator.integers(sx)] = 0.0   # a source symbol of probability zero
            p0 /= p0.sum()
        query = RegionQuery(p0=Pmf(p0), obs_channel=CondPmf(generator.dirichlet(np.ones(sa), size=sx)),
                            target=CondPmf(generator.dirichlet(np.ones(sb), size=sx)))
        # an interior channel: every entry at least 0.02
        q = 0.02 + (1.0 - 0.02 * sb) * generator.dirichlet(np.ones(sb), size=sa)
        direction = generator.normal(size=q.shape)
        direction -= direction.mean(axis=1, keepdims=True)
        direction /= np.abs(direction).max()
        grad = region._gradient(region._chain_weights(kind, query), q)
        numeric = (_rate(kind, q + h * direction, query)
                   - _rate(kind, q - h * direction, query)) / (2.0 * h)
        assert float(np.sum(grad * direction)) == pytest.approx(numeric, abs=1e-4)
