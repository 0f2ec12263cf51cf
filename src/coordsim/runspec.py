"""Experiment configuration documents.

A run spec is a JSON file with sections for the alphabets, the source, the
coordination target, the coding scheme, the Monte Carlo experiment grid, and
the region solver.  Rates are nats per symbol unless "units": "bits" is set
at the top level, in which case every rate-like field is converted at parse
time; typicality and fidelity tolerances are unitless either way.

See README.md for a complete annotated example.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coding import BinnedSchemeConfig, DirectSchemeConfig
from .probkit import CondPmf, JointPmf, Pmf, compose_markov
from .source import SourceConfig

if TYPE_CHECKING:
    from .region import RegionQuery

ROW_SUM_TOL = 1e-9


class SpecError(ValueError):
    """The run spec has a missing, unknown or malformed field, or is
    internally inconsistent."""


# epsilons keys that only the other scheme reads
_OTHER_SCHEME_EPSILONS = {"direct": ("ag", "zero"), "binned": ("slacks",)}


@dataclass(frozen=True)
class RunSpec:
    """Validated run spec with every section materialized as library types."""

    p0: Pmf
    obs_channel: CondPmf
    target: CondPmf
    scheme_kind: str
    rates: tuple[float, ...]
    epsilons: dict
    aux_channel: CondPmf | None
    n_list: tuple[int, ...]
    L_list: tuple[int, ...]
    trials: int
    seed: int
    delta_list: tuple[float, ...]
    budget: int | None
    region_delta_grid: tuple[float, ...] | None

    def region_query(self, delta: float | None = None) -> RegionQuery:
        from .region import RegionQuery

        return RegionQuery(p0=self.p0, obs_channel=self.obs_channel,
                           target=self.target, delta=delta)

    def source_config(self, n: int, L: int) -> SourceConfig:
        return SourceConfig(p0=self.p0, obs_channel=self.obs_channel, L=L, n=n)

    def scheme_config(self, L: int, aux: CondPmf) -> DirectSchemeConfig | BinnedSchemeConfig:
        """Materialize the scheme for L agents around the auxiliary channel."""
        triple = compose_markov(self.p0, self.obs_channel, aux)
        eps = float(self.epsilons["typicality"])
        if self.scheme_kind == "direct":
            # parse_runspec admits only 1 or L entries
            rates = self.rates if len(self.rates) == L else self.rates * L
            slacks = tuple(float(s) for s in self.epsilons.get("slacks", [0.0]))
            slacks = slacks if len(slacks) == L else slacks * L
            return DirectSchemeConfig(rates=rates, slacks=slacks, epsilon=eps,
                                      triple=triple)
        return BinnedSchemeConfig(
            rate_bin=self.rates[0],
            rate_word=self.rates[1],
            slack_bin=float(self.epsilons.get("ag", 0.0)),
            slack_word=float(self.epsilons.get("zero", 0.0)),
            epsilon=eps, triple=triple)

    def target_joint(self) -> JointPmf:
        return JointPmf(self.p0.probs[:, None] * self.target.rows)


def _object(node, path: str, required: tuple = (), optional: tuple = ()) -> dict:
    """A JSON object with every required key and no key outside required and
    optional; the error names the offending key's dotted path."""
    if not isinstance(node, dict):
        raise SpecError(f"{path or 'the spec document'} must be a JSON object")
    prefix = f"{path}." if path else ""
    # unknown keys first, so a misspelled required key is named as written
    for key in node:
        if key not in required and key not in optional:
            raise SpecError(f"unknown key {prefix}{key}")
    for key in required:
        if key not in node:
            raise SpecError(f"missing key {prefix}{key}")
    return node


def _number(value, path: str, integer: bool = False, minimum: float | None = None):
    """A finite JSON number (an int when `integer`) of at least `minimum`."""
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{path} must be {kind}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the double range
        finite = False
    if not finite:
        raise SpecError(f"{path} is not a finite number")
    if integer and value != int(value):
        raise SpecError(f"{path} must be {kind}")
    value = int(value) if integer else float(value)
    if minimum is not None and value < minimum:
        raise SpecError(f"{path} must be >= {minimum}")
    return value


def _numbers(value, path: str, shape: tuple, integer: bool = False,
             minimum: float | None = None) -> list:
    """Nested lists of numbers holding shape[k] entries at depth k (None: one
    or more), so a matrix arrives with every row of the same length."""
    count, inner = shape[0], shape[1:]
    if not isinstance(value, list) or not value or count not in (None, len(value)):
        raise SpecError(f"{path} must be a list of {count or 'one or more'} "
                        f"{'lists' if inner else 'numbers'}")
    return [_numbers(entry, f"{path}[{k}]", inner, integer, minimum) if inner
            else _number(entry, f"{path}[{k}]", integer, minimum)
            for k, entry in enumerate(value)]


def _stochastic_matrix(value, path: str, rows: int, cols: int) -> CondPmf:
    arr = np.array(_numbers(value, path, (rows, cols), minimum=0))
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise SpecError(f"{path} rows must sum to 1 within {ROW_SUM_TOL}")
    return CondPmf(arr / sums[:, None])


def read_seed(value, path: str) -> int:
    """A seed in [0, 2**64); rng.derive_key reduces a seed mod 2**64, so one
    outside would silently replay a seed inside."""
    seed = _number(value, path, integer=True, minimum=0)
    if seed >= 2**64:
        raise SpecError(f"{path} must be below 2**64")
    return seed


def parse_runspec(document: dict) -> RunSpec:
    """Validate a spec document in one pass and build the library objects it
    describes.  Every object is closed: a missing or unknown key, or a value
    of the wrong kind, is a SpecError naming its dotted path."""
    _object(document, "", ("alphabets", "source", "target", "scheme", "experiment"),
            ("units", "region"))
    units = document.get("units", "nats")
    if units not in ("nats", "bits"):
        raise SpecError('units must be "nats" or "bits"')
    to_nats = math.log(2.0) if units == "bits" else 1.0

    alphabets = _object(document["alphabets"], "alphabets", ("x_size", "y_size"))
    x_size, y_size = (_number(alphabets[key], f"alphabets.{key}", integer=True, minimum=1)
                      for key in ("x_size", "y_size"))

    source = _object(document["source"], "source", ("p0", "obs_channel"))
    p0 = np.array(_numbers(source["p0"], "source.p0", (x_size,), minimum=0))
    if abs(p0.sum() - 1.0) > ROW_SUM_TOL:
        raise SpecError(f"source.p0 must sum to 1 within {ROW_SUM_TOL}")
    obs = _stochastic_matrix(source["obs_channel"], "source.obs_channel", x_size, x_size)
    target = _object(document["target"], "target", ("p_y_given_x",))
    target = _stochastic_matrix(target["p_y_given_x"], "target.p_y_given_x", x_size, y_size)

    scheme = _object(document["scheme"], "scheme", ("kind", "rates", "epsilons"),
                     ("aux_channel",))
    kind = scheme["kind"]
    if kind not in ("direct", "binned"):
        raise SpecError('scheme.kind must be "direct" or "binned"')
    rates = tuple(r * to_nats for r in
                  _numbers(scheme["rates"], "scheme.rates", (None,), minimum=0))
    given = _object(scheme["epsilons"], "scheme.epsilons", ("typicality",),
                    ("slacks", "ag", "zero"))
    for key in _OTHER_SCHEME_EPSILONS[kind]:
        if key in given:
            raise SpecError(f"scheme.epsilons.{key} does not apply to the {kind} scheme")
    epsilons = {"typicality": _number(given["typicality"], "scheme.epsilons.typicality")}
    if epsilons["typicality"] <= 0:
        raise SpecError("scheme.epsilons.typicality must be > 0")
    if "slacks" in given:
        epsilons["slacks"] = [s * to_nats for s in
                              _numbers(given["slacks"], "scheme.epsilons.slacks", (None,))]
    for key in ("ag", "zero"):
        if key in given:
            epsilons[key] = _number(given[key], f"scheme.epsilons.{key}") * to_nats
    aux = None
    if "aux_channel" in scheme:
        aux = _stochastic_matrix(scheme["aux_channel"], "scheme.aux_channel", x_size, y_size)

    exp = _object(document["experiment"], "experiment",
                  ("n_list", "L_list", "trials", "seed", "delta_list"), ("budget",))
    n_list, L_list = (tuple(_numbers(exp[key], f"experiment.{key}", (None,),
                                     integer=True, minimum=1))
                      for key in ("n_list", "L_list"))
    trials = _number(exp["trials"], "experiment.trials", integer=True, minimum=1)
    seed = read_seed(exp["seed"], "experiment.seed")
    delta_list = tuple(_numbers(exp["delta_list"], "experiment.delta_list", (None,),
                                minimum=0))
    budget = exp.get("budget")
    if budget is not None:
        budget = _number(budget, "experiment.budget", integer=True, minimum=1)
    if kind == "binned":
        if len(rates) != 2:
            raise SpecError("binned scheme.rates must be [bin_rate, word_rate]")
    else:
        for field, values in (("scheme.rates", rates),
                              ("scheme.epsilons.slacks", epsilons.get("slacks", [0.0]))):
            for L in L_list:
                if len(values) not in (1, L):
                    raise SpecError(f"{field} must have 1 or {L} entries")

    delta_grid = None
    if "region" in document:
        region = _object(document["region"], "region", ("delta_grid",), ("solver",))
        delta_grid = tuple(_numbers(region["delta_grid"], "region.delta_grid", (None,),
                                    minimum=0))
        # accepted so older specs still parse; the solver has no knobs
        solver = _object(region.get("solver", {}), "region.solver", (),
                         ("grid_step", "restarts", "seed"))
        if "grid_step" in solver and _number(solver["grid_step"],
                                             "region.solver.grid_step") <= 0:
            raise SpecError("region.solver.grid_step must be > 0")
        if "restarts" in solver:
            _number(solver["restarts"], "region.solver.restarts", integer=True, minimum=0)
        if "seed" in solver:
            _number(solver["seed"], "region.solver.seed", integer=True)

    if delta_grid is not None or aux is None:
        # this run will call the solver: pay its import in set-up
        from . import region  # noqa: F401
    return RunSpec(
        p0=Pmf(p0 / p0.sum()), obs_channel=obs, target=target, scheme_kind=kind,
        rates=rates, epsilons=epsilons, aux_channel=aux, n_list=n_list,
        L_list=L_list, trials=trials, seed=seed, delta_list=delta_list,
        budget=budget, region_delta_grid=delta_grid)


def _finite(text: str) -> float:
    """JSON number hook: Python's json reads NaN and Infinity, and a float
    literal past the double range (1e400) as inf; a spec takes none."""
    value = float(text)
    if not math.isfinite(value):
        raise SpecError(f"spec number {text} is not finite")
    return value


def _finite_int(text: str) -> int:
    """JSON integer hook: an integer past the double range would overflow
    where the spec converts it to float."""
    _finite(text)
    return int(text)


def load_runspec(path: str) -> RunSpec:
    """Read, validate, and materialize a spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, parse_float=_finite, parse_int=_finite_int,
                                 parse_constant=_finite)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return parse_runspec(document)
