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
decides it.  Otherwise SLSQP runs from the floor channel and any warm start,
and the best point within the radius carries a Frank-Wolfe duality gap
(Frank & Wolfe 1956; Jaggi, ICML 2013): by convexity,

    rate - optimum  <=  <grad f(q*), q*> - min over the polytope of <grad f(q*), q>,

and the right-hand side is one linear program.  A gap of at most OPTIMUM_TOL
certifies the documented tolerance on any alphabet.  Both objectives are
sums over output symbols of convex, positively homogeneous terms, so the
bound stays valid where q* has zero entries (the gradient floors them at
1e-18); it can be loose, though, when the optimum leaves an output symbol
unused.  Every linear program is solved exactly with HiGHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import LinearConstraint, linprog, minimize

from .probkit import (CondPmf, Pmf, conditional_mutual_information,
                      mutual_information, tv_distance)

FEASIBILITY_SLACK = 1e-9
OPTIMUM_TOL = 1e-4


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


def _obs_marginal(query: RegionQuery) -> np.ndarray:
    return query.p0.probs @ query.obs_channel.rows


def _induced_joint(q_arr: np.ndarray, query: RegionQuery) -> np.ndarray:
    return query.p0.probs[:, None] * (query.obs_channel.rows @ q_arr)


def _tv_to_target(q_arr: np.ndarray, query: RegionQuery) -> float:
    return tv_distance(_induced_joint(q_arr, query), query.target_joint)


def _lifted_polytope(query: RegionQuery, radius: float | None = None,
                     classes: np.ndarray | None = None) -> dict:
    """Feasible set over x = (q, s) as linprog keyword arguments.

    q is the flattened channel, whose rows sum to one; s >= |J q - t| holds
    cell by cell, so TV(q) <= sum(s) / 2.  Given a radius, sum(s) <= 2 radius
    keeps TV(q) within it.  Given a one-hot (symbol -> class) map, q holds
    one row per class and the channel is classes @ q.
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
    return {"A_ub": a_ub, "b_ub": b_ub, "A_eq": a_eq, "b_eq": np.ones(a_size),
            "bounds": [(0.0, 1.0)] * n_q + [(0.0, None)] * n_s}


def _closest_channel(query: RegionQuery, classes: np.ndarray) -> tuple[float, np.ndarray]:
    """TV to the target of the closest channel classes @ r, and that channel:
    TV is piecewise linear in r, so this is one linear program."""
    polytope = _lifted_polytope(query, classes=classes)
    n_r = classes.shape[1] * query.out_size
    c = np.concatenate([np.zeros(n_r), 0.5 * np.ones(len(polytope["bounds"]) - n_r)])
    res = linprog(c, method="highs", **polytope)
    if not res.success:
        raise RuntimeError(f"closest-channel LP failed: {res.message}")
    rows = np.clip(res.x[:n_r].reshape(-1, query.out_size), 0.0, None)
    q_arr = classes @ (rows / rows.sum(axis=1, keepdims=True))
    return _tv_to_target(q_arr, query), q_arr


def min_achievable_delta(query: RegionQuery) -> tuple[float, CondPmf]:
    """Smallest total variation to the target joint over all channels q;
    zero means the target is exactly reachable through the observation channel."""
    tv, q_arr = _closest_channel(query, np.eye(query.obs_size))
    return tv, CondPmf(q_arr)


def _zero_rate_classes(kind: str, query: RegionQuery) -> np.ndarray:
    """One-hot (observation symbol -> class) map of the zero-rate face:
    I(obs; out) = 0 iff every observed symbol has the same row of q, and
    I(obs; out | action) = 0 iff rows agree within each component of the
    graph linking two symbols that one action of positive probability can
    produce."""
    weights = query.p0.probs[:, None] * query.obs_channel.rows  # (x, a)
    if kind == "finite":
        weights = weights.sum(axis=0, keepdims=True)
    reach = ((weights > 0).T @ (weights > 0)) | np.eye(query.obs_size, dtype=bool)
    for _ in range(query.obs_size.bit_length()):
        reach = reach @ reach
    _, labels = np.unique(reach, axis=0, return_inverse=True)
    return np.eye(labels.max() + 1)[labels.reshape(-1)]


def _gradient(kind: str, q_arr: np.ndarray, query: RegionQuery) -> np.ndarray:
    safe_q = np.maximum(q_arr, 1e-18)
    if kind == "finite":
        pxh = _obs_marginal(query)
        py = pxh @ q_arr
        return pxh[:, None] * np.log(safe_q / np.maximum(py, 1e-18)[None, :])
    weights = query.p0.probs[:, None] * query.obs_channel.rows  # (x, a)
    p_b_given_x = query.obs_channel.rows @ q_arr                # (x, b)
    logs = np.log(safe_q[None, :, :] /
                  np.maximum(p_b_given_x, 1e-18)[:, None, :])   # (x, a, b)
    return np.einsum("xa,xab->ab", weights, logs)


def _objective_batch(kind: str, q_batch: np.ndarray, query: RegionQuery) -> np.ndarray:
    # joint over (candidate, action, obs, out)
    t = np.einsum("x,xa,mab->mxab", query.p0.probs, query.obs_channel.rows, q_batch)
    if kind == "finite":
        return mutual_information(t.sum(axis=1))
    return conditional_mutual_information(t)


def _slsqp(kind: str, q0: np.ndarray, polytope: dict,
           query: RegionQuery) -> np.ndarray:
    """SLSQP over the lifted polytope from q0; returns the channel part,
    clipped and row-normalized."""
    shape = q0.shape
    n_q = q0.size
    s0 = np.abs(_induced_joint(q0, query) - query.target_joint).reshape(-1)

    def objective(x):
        return float(_objective_batch(kind, x[:n_q].reshape(shape)[None], query)[0])

    def jacobian(x):
        grad = np.zeros_like(x)
        grad[:n_q] = _gradient(kind, x[:n_q].reshape(shape), query).reshape(-1)
        return grad

    constraints = [
        LinearConstraint(polytope["A_ub"], -np.inf, polytope["b_ub"]),
        LinearConstraint(polytope["A_eq"], polytope["b_eq"], polytope["b_eq"]),
    ]
    res = minimize(objective, np.concatenate([q0.reshape(-1), s0]), jac=jacobian,
                   method="SLSQP", bounds=polytope["bounds"], constraints=constraints,
                   options={"maxiter": 500, "ftol": 1e-14})
    q_arr = np.clip(res.x[:n_q].reshape(shape), 0.0, None)
    return q_arr / q_arr.sum(axis=1, keepdims=True)


def _duality_gap(kind: str, q_arr: np.ndarray, polytope: dict,
                 query: RegionQuery) -> float:
    """Frank-Wolfe gap <g, q> - min over the polytope of <g, q'>, g the
    objective's gradient at q; by convexity it bounds f(q) - min f."""
    grad = _gradient(kind, q_arr, query).reshape(-1)
    c = np.concatenate([grad, np.zeros(len(polytope["bounds"]) - grad.size)])
    res = linprog(c, method="highs", **polytope)
    if not res.success:
        raise RuntimeError(f"duality-gap LP failed: {res.message}")
    return max(0.0, float(grad @ q_arr.reshape(-1)) - float(res.fun))


def _solve(kind: str, query: RegionQuery,
           extra_starts: list[np.ndarray] | None = None) -> RegionPoint:
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

    # SLSQP solves within delta, leaving the slack as margin for its own
    # tolerance; a point outside the radius (never the floor channel) is dropped.
    starts = [q_tv.rows, *(extra_starts or ())]
    polytope = _lifted_polytope(query, delta)
    solved = [_slsqp(kind, q0, polytope, query) for q0 in starts]
    candidates = np.array([q for q in starts + solved
                           if _tv_to_target(q, query) <= radius])
    values = _objective_batch(kind, candidates, query)
    best = int(np.argmin(values))
    return RegionPoint(rate=float(values[best]), q_star=CondPmf(candidates[best]),
                       achieved_tv=_tv_to_target(candidates[best], query),
                       feasible=True,
                       gap=_duality_gap(kind, candidates[best],
                                        _lifted_polytope(query, radius), query))


def min_per_agent_rate(query: RegionQuery,
                       extra_starts: list[np.ndarray] | None = None) -> RegionPoint:
    """Minimize I(obs; out | action) over the fidelity ball."""
    return _solve("per_agent", query, extra_starts)


def min_finite_agent_rate(query: RegionQuery,
                          extra_starts: list[np.ndarray] | None = None) -> RegionPoint:
    """Minimize I(obs; out) over the fidelity ball."""
    return _solve("finite", query, extra_starts)


def rate_delta_curve(query: RegionQuery, delta_grid) -> list[CurvePoint]:
    """Both minimized rates per fidelity radius, in the given grid order.

    Radii are solved in ascending order and each optimum seeds the next
    (larger) radius, which makes the returned curves non-increasing by
    construction.
    """
    deltas = [float(d) for d in delta_grid]
    ascending = sorted(range(len(deltas)), key=lambda i: deltas[i])
    solved: dict[int, CurvePoint] = {}
    warm_per: list[np.ndarray] = []
    warm_fin: list[np.ndarray] = []
    for i in ascending:
        q = replace(query, delta=deltas[i])
        per = min_per_agent_rate(q, extra_starts=warm_per or None)
        fin = min_finite_agent_rate(q, extra_starts=warm_fin or None)
        if per.feasible:
            warm_per = [per.q_star.rows]
        if fin.feasible:
            warm_fin = [fin.q_star.rows]
        solved[i] = CurvePoint(delta=deltas[i], per_agent=per, finite=fin)
    return [solved[i] for i in range(len(deltas))]
