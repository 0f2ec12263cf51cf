"""Inner-bound rate computations over the auxiliary-output channel.

The decision variable is always the channel q from the observation alphabet
to the output alphabet; composing it behind the observation channel enforces
the chain action - observation - output structurally.  For a query
(p0, observation channel, target channel, delta) the two objectives are

    finite-agent threshold   I(obs; out)          (one agent must pay it)
    per-agent threshold      I(obs; out | action) (every agent pays it)

minimized over all q whose induced action/output joint lies within total
variation delta of the target joint.  Both objectives are convex in q.
Lifting the TV ball with slacks s >= |J q - t| (J the linear map from q to
the induced joint, t the target joint) makes the feasible set a polytope
over (q, s).  Each minimization runs SLSQP over that polytope from a few
fixed starts and keeps the best result.  Every solved point carries a
Frank-Wolfe duality gap (Frank & Wolfe 1956; Jaggi, ICML 2013): by
convexity,

    rate - optimum  <=  <grad f(q*), q*> - min over the polytope of <grad f(q*), q>,

and the right-hand side is one linear program.  A gap of at most OPTIMUM_TOL
certifies the documented tolerance on any alphabet.  Both objectives are
sums over output symbols of convex, positively homogeneous terms, so the
bound stays valid where q* has zero entries (the gradient floors them at
1e-18); it can be loose, though, when the optimum leaves an output symbol
unused.

The unconstrained fidelity floor (the smallest achievable delta) is a plain
linear program over the same lifted polytope and is solved exactly with HiGHS.
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
    the fidelity it achieves, and the Frank-Wolfe duality gap certifying rate - optimum <= gap.  An infeasible
    point carries gap 0.0: the floor LP's verdict is exact."""

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


def _lifted_polytope(query: RegionQuery, radius: float | None = None) -> dict:
    """Feasible set over x = (q, s) as linprog keyword arguments.

    q is the flattened channel, whose rows sum to one; s >= |J q - t| holds
    cell by cell, so TV(q) <= sum(s) / 2.  Given a radius, sum(s) <= 2 radius
    keeps TV(q) within it.
    """
    a_size, b_size = query.obs_size, query.out_size
    n_q = a_size * b_size
    n_s = query.p0.size * b_size
    target = query.target_joint.reshape(-1)
    # J[(x, y), (a, b)] = p0(x) obs(a|x) [b == y] maps q to the induced joint
    coeff = np.kron(query.p0.probs[:, None] * query.obs_channel.rows, np.eye(b_size))

    a_ub = np.block([[coeff, -np.eye(n_s)], [-coeff, -np.eye(n_s)]])
    b_ub = np.concatenate([target, -target])
    if radius is not None:
        a_ub = np.vstack([a_ub, np.concatenate([np.zeros(n_q), np.ones(n_s)])])
        b_ub = np.append(b_ub, 2.0 * radius)
    a_eq = np.hstack([np.kron(np.eye(a_size), np.ones((1, b_size))),
                      np.zeros((a_size, n_s))])
    return {"A_ub": a_ub, "b_ub": b_ub, "A_eq": a_eq, "b_eq": np.ones(a_size),
            "bounds": [(0.0, 1.0)] * n_q + [(0.0, None)] * n_s}


def min_achievable_delta(query: RegionQuery) -> tuple[float, CondPmf]:
    """Smallest total variation to the target joint over all channels q.

    The objective is piecewise linear in q, so this is a linear program;
    zero means the target is exactly reachable through the observation
    channel.
    """
    a_size, b_size = query.obs_size, query.out_size
    n_q = a_size * b_size
    n_s = query.p0.size * b_size
    c = np.concatenate([np.zeros(n_q), 0.5 * np.ones(n_s)])
    res = linprog(c, method="highs", **_lifted_polytope(query))
    if not res.success:
        raise RuntimeError(f"fidelity-floor LP failed: {res.message}")
    q_arr = np.clip(res.x[:n_q].reshape(a_size, b_size), 0.0, None)
    q_arr /= q_arr.sum(axis=1, keepdims=True)
    return _tv_to_target(q_arr, query), CondPmf(q_arr)


def _toward_feasible(anchor: np.ndarray, cand: np.ndarray, radius: float,
                     query: RegionQuery) -> np.ndarray:
    """Largest step from a within-radius anchor toward cand that keeps the
    fidelity at most `radius` (the ball is convex, so bisection works)."""
    if _tv_to_target(cand, query) <= radius:
        return cand
    lo_t, hi_t = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_t + hi_t)
        point = anchor + mid * (cand - anchor)
        if _tv_to_target(point, query) <= radius:
            lo_t = mid
        else:
            hi_t = mid
    return anchor + lo_t * (cand - anchor)


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
    delta_min, q_tv = min_achievable_delta(query)
    if delta_min > delta + FEASIBILITY_SLACK:
        return RegionPoint(rate=math.inf, q_star=q_tv, achieved_tv=delta_min,
                           feasible=False, gap=0.0)

    radius = delta + FEASIBILITY_SLACK
    a_size, b_size = query.obs_size, query.out_size
    starts = [q_tv.rows, np.full((a_size, b_size), 1.0 / b_size)]
    for b in range(b_size):
        const = np.zeros((a_size, b_size))
        const[:, b] = 1.0
        starts.append(const)
    starts.extend(extra_starts or ())

    # The repaired starts stay candidates: an exactly feasible start (a
    # constant channel, a warm start from a smaller radius) is never lost to
    # SLSQP round-off.  SLSQP solves within delta itself, leaving the slack
    # as margin for its own constraint tolerance.
    repaired = [_toward_feasible(q_tv.rows, start, radius, query) for start in starts]
    polytope = _lifted_polytope(query, delta)
    solved = [_toward_feasible(q_tv.rows, _slsqp(kind, q0, polytope, query), radius, query)
              for q0 in repaired]
    candidates = np.array(repaired + solved)
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
