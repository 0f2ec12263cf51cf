"""Inner-bound rate computations over the auxiliary-output channel.

The decision variable is always the channel q from the observation alphabet
to the output alphabet; composing it behind the observation channel enforces
the chain action - observation - output structurally.  For a query
(p0, observation channel, target channel, delta) the two objectives are

    finite-agent threshold   I(obs; out)          (one agent must pay it)
    per-agent threshold      I(obs; out | action) (every agent pays it)

minimized over all q whose induced action/output joint lies within total
variation delta of the target joint.  Lifting the TV ball with slacks
s >= |J q - t| (J the linear map from q to the induced joint, t the target
joint) makes the feasible set a polytope over (q, s).  Both objectives are
convex in q, so a local minimum over it is global.  The fidelity floor (the
smallest achievable delta) is one linear program over that polytope.  So is
rate zero: a rate is zero exactly where the rows of q agree within classes
of observation symbols, and the channel on that face closest to the target
decides it.  Otherwise a log barrier with Newton steps (Boyd & Vandenberghe,
Convex Optimization, 2004, section 11.3) runs from a point strictly inside
the ball, and its point carries a Frank-Wolfe duality gap (Frank & Wolfe
1956; Jaggi, ICML 2013), computed from the gradient the Newton steps use:
by convexity,

    rate - optimum  <=  <grad f(q*), q*> - min over the polytope of <grad f(q*), q>,

and the right-hand side is one linear program.  A gap of at most OPTIMUM_TOL
certifies the documented tolerance on any alphabet.  The barrier's point has
no zero entry, so the gradient prices an output symbol the optimum leaves
unused, and near the central path the gap is about the barrier's own
duality gap.  Every linear program is solved exactly by `linprog`, a dense
two-phase simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .probkit import (CondPmf, Pmf, conditional_mutual_information,
                      mutual_information, tv_distance)

FEASIBILITY_SLACK = 1e-9
OPTIMUM_TOL = 1e-4
_PIVOT_TOL = 1e-9
_BARRIER_GAP = 1e-10       # m / t (m inequalities) at which the barrier stops
_BARRIER_GROWTH = 50.0     # t's factor between centerings
_NEWTON_TOL = 1e-6         # half the squared Newton decrement that ends a centering
_NEWTON_STEPS = 300        # cap per barrier solve; 5,000 corpus points took at most 80


@dataclass(frozen=True)
class RegionQuery:
    """Inputs of one rate computation.  delta may be None for operations
    that do not need a fidelity radius."""

    p0: Pmf
    obs_channel: CondPmf
    target: CondPmf
    delta: float | None = None

    def __post_init__(self):
        if self.obs_channel.in_size != self.p0.size:
            raise ValueError("observation channel input must match p0")
        if self.target.in_size != self.p0.size:
            raise ValueError("target channel input must match p0")
        if self.delta is not None and not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0 (got {self.delta!r})")

    @property
    def obs_size(self) -> int:
        return self.obs_channel.out_size

    @property
    def out_size(self) -> int:
        return self.target.out_size

    @property
    def target_joint(self) -> np.ndarray:
        return self.p0.probs[:, None] * self.target.rows


@dataclass(frozen=True)
class RegionPoint:
    """One solved point: optimal rate (nats/symbol), the optimizing channel,
    the fidelity it achieves, and the Frank-Wolfe duality gap certifying
    rate - optimum <= gap.  An infeasible point and a zero-rate point carry
    gap 0.0: the floor LP's and the zero-rate face LP's verdicts are exact."""

    rate: float
    q_star: CondPmf
    achieved_tv: float
    feasible: bool
    gap: float


@dataclass(frozen=True)
class CurvePoint:
    delta: float
    per_agent: RegionPoint
    finite: RegionPoint


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _simplex(tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> None:
    """Pivot to an optimal basis by Bland's rule: the lowest-index column
    with a negative reduced cost enters, and of the rows tied in the ratio
    test the one whose basic variable has the lowest index leaves.  No
    basis repeats, so the loop ends."""
    while True:
        entering = np.flatnonzero(tableau[-1, :n_cols] < -_PIVOT_TOL)
        if entering.size == 0:
            return
        col = entering[0]
        rows = np.flatnonzero(tableau[:-1, col] > _PIVOT_TOL)
        if rows.size == 0:
            raise RuntimeError("linear program is unbounded")
        ratios = tableau[rows, -1] / tableau[rows, col]
        tied = rows[ratios <= ratios.min() + 1e-12]   # tied up to rounding
        _pivot(tableau, basis, tied[np.argmin(basis[tied])], col)


def linprog(c, A_ub, b_ub, A_eq, b_eq) -> tuple[np.ndarray, float]:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq and x >= 0;
    returns the optimal x and c @ x.

    A dense two-phase simplex.  Every inequality gets a slack, and a row
    whose slack cannot start the basis (an equality, or a negative
    right-hand side) gets an artificial variable.  Phase 1 minimizes the
    artificials' sum, then pivots each artificial still basic (at zero) out,
    or drops its row as redundant when no other column can replace it.
    Phase 2 minimizes c from that basis.
    """
    m_ub, n = A_ub.shape
    n_real = n + m_ub
    rows = np.vstack([np.hstack([A_ub, np.eye(m_ub)]),
                      np.hstack([A_eq, np.zeros((len(b_eq), m_ub))])])
    rhs = np.concatenate([b_ub, b_eq])
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0
    artificial = np.flatnonzero(np.append(flip[:m_ub], np.ones(len(b_eq), dtype=bool)))
    basis = np.append(np.arange(n, n_real), np.zeros(len(b_eq), dtype=int))
    basis[artificial] = n_real + np.arange(artificial.size)
    tableau = np.zeros((len(rhs) + 1, n_real + artificial.size + 1))
    tableau[:-1, :n_real] = rows
    tableau[artificial, n_real + np.arange(artificial.size)] = 1.0
    tableau[:-1, -1] = rhs
    tableau[-1, :n_real] = -rows[artificial].sum(axis=0)
    tableau[-1, -1] = -rhs[artificial].sum()
    _simplex(tableau, basis, n_real)
    if tableau[-1, -1] < -_PIVOT_TOL:
        raise RuntimeError("linear program is infeasible")
    keep = np.ones(len(rhs) + 1, dtype=bool)
    for row in np.flatnonzero(basis >= n_real):
        replacements = np.flatnonzero(np.abs(tableau[row, :n_real]) > _PIVOT_TOL)
        if replacements.size:
            _pivot(tableau, basis, row, replacements[0])
        else:
            keep[row] = False
    tableau = tableau[keep][:, np.r_[:n_real, -1]]
    basis = basis[keep[:-1]]
    cost = np.concatenate([c, np.zeros(m_ub)])
    tableau[-1] = np.append(cost, 0.0) - cost[basis] @ tableau[:-1]
    _simplex(tableau, basis, n_real)
    x = np.zeros(n_real)
    x[basis] = tableau[:-1, -1]
    return x[:n], float(c @ x[:n])


def _induced_joint(q_arr: np.ndarray, query: RegionQuery) -> np.ndarray:
    return query.p0.probs[:, None] * (query.obs_channel.rows @ q_arr)


def _tv_to_target(q_arr: np.ndarray, query: RegionQuery) -> float:
    return tv_distance(_induced_joint(q_arr, query), query.target_joint)


def _lifted_polytope(query: RegionQuery, radius: float | None = None,
                     classes: np.ndarray | None = None) -> dict:
    """Feasible set over x = (q, s) >= 0 as linprog keyword arguments.

    q is the flattened channel, whose rows sum to one (so q <= 1 follows);
    s >= |J q - t| holds cell by cell, so TV(q) <= sum(s) / 2.  Given a
    radius, sum(s) <= 2 radius keeps TV(q) within it.  Given a one-hot
    (symbol -> class) map, q holds one row per class and the channel is
    classes @ q.
    """
    weights = query.p0.probs[:, None] * query.obs_channel.rows  # (x, a)
    if classes is not None:
        weights = weights @ classes
    a_size, b_size = weights.shape[1], query.out_size
    n_q = a_size * b_size
    n_s = query.p0.size * b_size
    target = query.target_joint.reshape(-1)
    # J[(x, y), (a, b)] = p0(x) obs(a|x) [b == y] maps q to the induced joint
    coeff = np.kron(weights, np.eye(b_size))
    a_ub = np.block([[coeff, -np.eye(n_s)], [-coeff, -np.eye(n_s)]])
    b_ub = np.concatenate([target, -target])
    if radius is not None:
        a_ub = np.vstack([a_ub, np.concatenate([np.zeros(n_q), np.ones(n_s)])])
        b_ub = np.append(b_ub, 2.0 * radius)
    a_eq = np.hstack([np.kron(np.eye(a_size), np.ones((1, b_size))),
                      np.zeros((a_size, n_s))])
    return {"A_ub": a_ub, "b_ub": b_ub, "A_eq": a_eq, "b_eq": np.ones(a_size)}


def _closest_channel(query: RegionQuery, classes: np.ndarray) -> tuple[float, np.ndarray]:
    """TV to the target of the closest channel classes @ r, and that channel
    (read-only): TV is piecewise linear in r, so this is one linear program.

    The program does not depend on the radius, so it is solved once per
    (p0, observation channel, target, class map) and kept in a bounded
    cache: the fidelity floor and the zero-rate faces of one query are
    posed once however many radii are solved."""
    arrays = (query.p0.probs, query.obs_channel.rows, query.target.rows, classes)
    return _closest_cached(*((arr.tobytes(), arr.shape) for arr in arrays))


@lru_cache(maxsize=128)
def _closest_cached(p0, obs, target, classes) -> tuple[float, np.ndarray]:
    # every key array is float64: Pmf and CondPmf store float64, and the
    # class maps are rows of np.eye
    p0, obs, target, classes = (np.frombuffer(data).reshape(shape)
                                for data, shape in (p0, obs, target, classes))
    query = RegionQuery(Pmf(p0), CondPmf(obs), CondPmf(target))
    polytope = _lifted_polytope(query, classes=classes)
    n_r = classes.shape[1] * query.out_size
    c = np.concatenate([np.zeros(n_r), np.full(polytope["A_eq"].shape[1] - n_r, 0.5)])
    x, _ = linprog(c, **polytope)
    rows = np.clip(x[:n_r].reshape(-1, query.out_size), 0.0, None)
    q_arr = classes @ (rows / rows.sum(axis=1, keepdims=True))
    q_arr.setflags(write=False)
    return _tv_to_target(q_arr, query), q_arr


def min_achievable_delta(query: RegionQuery) -> tuple[float, CondPmf]:
    """Smallest total variation to the target joint over all channels q;
    zero means the target is exactly reachable through the observation channel."""
    tv, q_arr = _closest_channel(query, np.eye(query.obs_size))
    return tv, CondPmf(q_arr)


def _chain_weights(kind: str, query: RegionQuery) -> np.ndarray:
    """w(x, a) = p0(x) obs(a|x) over the source symbols of positive
    probability; the finite objective sees one row, their sum.  Both
    objectives are f(q) = sum w(x, a) q(b|a) log(q(b|a) m(x) / j(x, b)), with
    j = w @ q and m the row masses of w."""
    weights = query.p0.probs[:, None] * query.obs_channel.rows
    if kind == "finite":
        weights = weights.sum(axis=0, keepdims=True)
    return weights[weights.sum(axis=1) > 0]


def _zero_rate_classes(kind: str, query: RegionQuery) -> np.ndarray:
    """One-hot (observation symbol -> class) map of the zero-rate face:
    I(obs; out) = 0 iff every observed symbol has the same row of q, and
    I(obs; out | action) = 0 iff rows agree within each component of the
    graph linking two symbols that one action of positive probability can
    produce."""
    weights = _chain_weights(kind, query)
    reach = ((weights > 0).T @ (weights > 0)) | np.eye(query.obs_size, dtype=bool)
    for _ in range(query.obs_size.bit_length()):
        reach = reach @ reach
    _, labels = np.unique(reach, axis=0, return_inverse=True)
    return np.eye(labels.max() + 1)[labels.reshape(-1)]


def _gradient(weights: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
    """Gradient of f at q, its logarithms clamped at 1e-18 so that a zero
    entry of q still prices its cell."""
    j = np.maximum(weights @ q_arr, 1e-18)
    return (weights.sum(axis=0)[:, None] * np.log(np.maximum(q_arr, 1e-18))
            - weights.T @ np.log(j / weights.sum(axis=1)[:, None]))


def _rate(kind: str, q_arr: np.ndarray, query: RegionQuery) -> float:
    joint = np.einsum("x,xa,ab->xab", query.p0.probs, query.obs_channel.rows, q_arr)
    if kind == "finite":
        return mutual_information(joint.sum(axis=0))
    return conditional_mutual_information(joint)


def _barrier(kind: str, q_floor: np.ndarray, query: RegionQuery,
             radius: float) -> np.ndarray:
    """Minimize the objective over the lifted polytope of the radius by a log
    barrier: minimize t f(q) - sum(log(h - G x)) for growing t, each time by
    Newton steps in the null space of the row sums, so the rows stay
    stochastic.  Starts from the floor channel mixed with the uniform
    channel, strictly inside the ball (the floor must lie below the radius),
    and returns the channel part, row-normalized."""
    polytope = _lifted_polytope(query, radius)
    a_size, b_size = q_floor.shape
    n_q = q_floor.size
    n_s = polytope["A_ub"].shape[1] - n_q
    # G x <= h: the polytope's inequalities, then q >= 0
    g_mat = np.vstack([polytope["A_ub"], -np.eye(n_q, n_q + n_s)])
    h = np.append(polytope["b_ub"], np.zeros(n_q))
    # null space of the row sums: within a row of q, e_j - e_last
    n_free = a_size * (b_size - 1)
    z = np.zeros((n_q + n_s, n_free + n_s))
    z[:n_q, :n_free] = np.kron(np.eye(a_size), np.vstack(
        [np.eye(b_size - 1), -np.ones((1, b_size - 1))]))
    z[n_q:, n_free:] = np.eye(n_s)
    g_z, z_q = g_mat @ z, z[:n_q]

    # f's Hessian is block-diagonal over output symbols
    weights = _chain_weights(kind, query)
    mass = weights.sum(axis=1)[:, None]
    p_obs = weights.sum(axis=0)[:, None]

    def objective(q):
        j = weights @ q
        return float(np.sum(p_obs * q * np.log(q)) - np.sum(j * np.log(j / mass)))

    # TV is convex in q, so the mix lies at most halfway from the floor to
    # the radius
    floor_tv = _tv_to_target(q_floor, query)
    room = radius - floor_tv
    mix = 0.5 * room / max(_tv_to_target(np.full_like(q_floor, 1.0 / b_size), query)
                           - floor_tv, room)
    q = (1.0 - mix) * q_floor + mix / b_size
    gaps = np.abs(_induced_joint(q, query) - query.target_joint).reshape(-1)
    x = np.concatenate([q.reshape(-1), gaps + (radius - 0.5 * gaps.sum()) / n_s])
    if not np.all(h - g_mat @ x > 0):
        return q_floor   # the floor lies within rounding of the radius
    t, last = len(h) / max(objective(q), _BARRIER_GAP), math.inf
    for _ in range(_NEWTON_STEPS):
        q = x[:n_q].reshape(a_size, b_size)
        inv_r = 1.0 / (h - g_mat @ x)
        grad_f = _gradient(weights, q)
        hess_f = -np.einsum("xa,xc,xb,bd->abcd", weights, weights, 1.0 / (weights @ q),
                            np.eye(b_size)).reshape(n_q, n_q)
        hess_f[np.diag_indices(n_q)] += (p_obs / q).reshape(-1)
        grad = t * z_q.T @ grad_f.reshape(-1) + g_z.T @ inv_r
        hess = t * z_q.T @ hess_f @ z_q + (g_z.T * inv_r ** 2) @ g_z
        scale = 1.0 / np.sqrt(np.diag(hess))
        system = (hess * np.outer(scale, scale), scale * grad)
        try:
            step = -scale * np.linalg.solve(*system)
        except np.linalg.LinAlgError:   # singular to working precision
            step = -scale * np.linalg.lstsq(*system)[0]
        decrement = -float(grad @ step)
        # centered, or Newton stalls: the center is resolved to working precision
        if decrement <= 2.0 * _NEWTON_TOL or 0.25 > decrement >= last:
            if len(h) / t <= _BARRIER_GAP:
                break
            t *= _BARRIER_GROWTH
            last = math.inf
            continue
        last = decrement
        rise = g_z @ step
        ahead = rise > 0
        alpha = min(1.0, 0.99 * float(np.min(1.0 / (inv_r[ahead] * rise[ahead]),
                                             initial=np.inf)))
        # near the center the full step is taken without a merit test:
        # there the decrease is below the merit's rounding at large t
        if decrement >= 0.25:
            merit = t * objective(q) + float(np.sum(np.log(inv_r)))
        for _ in range(60):
            trial = x + alpha * (z @ step)
            slack = h - g_mat @ trial
            if np.all(slack > 0) and (decrement < 0.25 or t * objective(
                    trial[:n_q].reshape(a_size, b_size)) - float(np.sum(np.log(slack)))
                    <= merit - 0.25 * alpha * decrement):
                break
            alpha *= 0.5
        else:
            break
        x = trial
    q = x[:n_q].reshape(a_size, b_size)
    return q / q.sum(axis=1, keepdims=True)


def _duality_gap(kind: str, q_arr: np.ndarray, polytope: dict,
                 query: RegionQuery) -> float:
    """Frank-Wolfe gap <g, q> - min over the polytope of <g, q'>, g the
    objective's gradient at q; by convexity it bounds f(q) - min f."""
    grad = _gradient(_chain_weights(kind, query), q_arr).reshape(-1)
    c = np.concatenate([grad, np.zeros(polytope["A_eq"].shape[1] - grad.size)])
    _, lowest = linprog(c, **polytope)
    return max(0.0, float(grad @ q_arr.reshape(-1)) - lowest)


def _solve(kind: str, query: RegionQuery) -> RegionPoint:
    if query.delta is None:
        raise ValueError("query.delta is required for rate minimization")
    delta = float(query.delta)
    radius = delta + FEASIBILITY_SLACK
    delta_min, q_tv = min_achievable_delta(query)
    if delta_min > radius:
        return RegionPoint(rate=math.inf, q_star=q_tv, achieved_tv=delta_min,
                           feasible=False, gap=0.0)
    face_tv, q_face = _closest_channel(query, _zero_rate_classes(kind, query))
    if face_tv <= radius:
        return RegionPoint(rate=0.0, q_star=CondPmf(q_face), achieved_tv=face_tv,
                           feasible=True, gap=0.0)

    # The barrier solves within half the slack, leaving the rest as margin
    # for rounding; should its point still fall outside the radius, the
    # floor channel stands in.
    q_arr = q_tv.rows
    inner = delta + 0.5 * FEASIBILITY_SLACK
    if delta_min < inner:
        solved = _barrier(kind, q_arr, query, inner)
        if _tv_to_target(solved, query) <= radius:
            q_arr = solved
    return RegionPoint(rate=_rate(kind, q_arr, query), q_star=CondPmf(q_arr),
                       achieved_tv=_tv_to_target(q_arr, query), feasible=True,
                       gap=_duality_gap(kind, q_arr, _lifted_polytope(query, radius), query))


def min_per_agent_rate(query: RegionQuery) -> RegionPoint:
    """Minimize I(obs; out | action) over the fidelity ball."""
    return _solve("per_agent", query)


def min_finite_agent_rate(query: RegionQuery) -> RegionPoint:
    """Minimize I(obs; out) over the fidelity ball."""
    return _solve("finite", query)


def rate_delta_curve(query: RegionQuery, delta_grid) -> list[CurvePoint]:
    """Both minimized rates per fidelity radius, in the given grid order.

    Each radius is solved on its own, so every point equals the standalone
    solve at its radius.  The optimum cannot rise with the radius, and each
    point's duality gap bounds its distance from the optimum; AC7 and the
    test suite check that the returned curves are non-increasing.
    """
    curve = []
    for delta in map(float, delta_grid):
        radius_query = replace(query, delta=delta)
        curve.append(CurvePoint(delta=delta, per_agent=min_per_agent_rate(radius_query),
                                finite=min_finite_agent_rate(radius_query)))
    return curve
