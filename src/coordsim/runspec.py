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
from dataclasses import dataclass

import numpy as np

from .coding import BinnedSchemeConfig, DirectSchemeConfig
from .probkit import CondPmf, JointPmf, Pmf, compose_markov
from .region import RegionQuery
from .source import SourceConfig

ROW_SUM_TOL = 1e-9


class SpecError(ValueError):
    """The run spec failed schema validation or is internally inconsistent."""


_SCHEMA = {
    "type": "object",
    "required": ["alphabets", "source", "target", "scheme", "experiment"],
    "properties": {
        "units": {"enum": ["nats", "bits"]},
        "alphabets": {
            "type": "object",
            "required": ["x_size", "y_size"],
            "properties": {
                "x_size": {"type": "integer", "minimum": 1},
                "y_size": {"type": "integer", "minimum": 1},
            },
        },
        "source": {
            "type": "object",
            "required": ["p0", "obs_channel"],
            "properties": {
                "p0": {"type": "array", "items": {"type": "number"}},
                "obs_channel": {"type": "array"},
            },
        },
        "target": {
            "type": "object",
            "required": ["p_y_given_x"],
            "properties": {"p_y_given_x": {"type": "array"}},
        },
        "scheme": {
            "type": "object",
            "required": ["kind", "rates", "epsilons"],
            "properties": {
                "kind": {"enum": ["direct", "binned"]},
                "rates": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "epsilons": {
                    "type": "object",
                    "required": ["typicality"],
                    "properties": {
                        "typicality": {"type": "number"},
                        "slacks": {"type": "array", "items": {"type": "number"}},
                        "ag": {"type": "number"},
                        "zero": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
                "aux_channel": {"type": "array"},
            },
        },
        "experiment": {
            "type": "object",
            "required": ["n_list", "L_list", "trials", "seed", "delta_list"],
            "properties": {
                "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 1},
                "L_list": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 1},
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "delta_list": {"type": "array", "items": {"type": "number", "minimum": 0},
                               "minItems": 1},
                "budget": {"type": ["integer", "null"], "minimum": 1},
            },
        },
        "region": {
            "type": "object",
            "required": ["delta_grid"],
            "properties": {
                "delta_grid": {"type": "array", "items": {"type": "number", "minimum": 0},
                               "minItems": 1},
                # accepted so older specs still parse; the solver has no knobs
                "solver": {
                    "type": "object",
                    "properties": {
                        "grid_step": {"type": "number", "exclusiveMinimum": 0},
                        "restarts": {"type": "integer", "minimum": 0},
                        "seed": {"type": "integer"},
                    },
                },
            },
        },
    },
}


# epsilons keys that only the other scheme reads
_OTHER_SCHEME_EPSILONS = {"direct": ("ag", "zero"), "binned": ("slacks",)}


@dataclass(frozen=True)
class RunSpec:
    """Validated run spec with every section materialized as library types."""

    x_size: int
    y_size: int
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


def _stochastic_matrix(raw, rows: int, cols: int, what: str) -> CondPmf:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise SpecError(f"{what} must be a {rows}x{cols} matrix, got {arr.shape}")
    if np.any(arr < 0):
        raise SpecError(f"{what} entries must be >= 0")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        raise SpecError(f"{what} rows must sum to 1 within {ROW_SUM_TOL}")
    arr = arr / sums[:, None]
    return CondPmf(arr)


def parse_runspec(document: dict) -> RunSpec:
    """Validate a spec document and build the library objects it describes."""
    import jsonschema

    try:
        jsonschema.validate(document, _SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SpecError(f"spec schema violation at {list(exc.absolute_path)}: "
                        f"{exc.message}") from exc

    x_size = document["alphabets"]["x_size"]
    y_size = document["alphabets"]["y_size"]

    p0_raw = np.asarray(document["source"]["p0"], dtype=np.float64)
    if p0_raw.shape != (x_size,):
        raise SpecError(f"source.p0 must have {x_size} entries")
    if np.any(p0_raw < 0) or abs(p0_raw.sum() - 1.0) > ROW_SUM_TOL:
        raise SpecError(f"source.p0 must be a distribution within {ROW_SUM_TOL}")
    p0 = Pmf(p0_raw / p0_raw.sum())

    obs = _stochastic_matrix(document["source"]["obs_channel"], x_size, x_size,
                             "source.obs_channel")
    target = _stochastic_matrix(document["target"]["p_y_given_x"], x_size, y_size,
                                "target.p_y_given_x")

    scheme = document["scheme"]
    to_nats = math.log(2.0) if document.get("units") == "bits" else 1.0
    rates = tuple(float(r) * to_nats for r in scheme["rates"])
    if any(r < 0 for r in rates):
        raise SpecError("scheme.rates must be >= 0")
    epsilons = dict(scheme["epsilons"])
    if "slacks" in epsilons:
        epsilons["slacks"] = [float(s) * to_nats for s in epsilons["slacks"]]
    for key in ("ag", "zero"):
        if key in epsilons:
            epsilons[key] = float(epsilons[key]) * to_nats
    if float(epsilons["typicality"]) <= 0:
        raise SpecError("scheme.epsilons.typicality must be > 0")
    for key in _OTHER_SCHEME_EPSILONS[scheme["kind"]]:
        if key in epsilons:
            raise SpecError(f"scheme.epsilons.{key} does not apply to the "
                            f"{scheme['kind']} scheme")
    exp = document["experiment"]
    if scheme["kind"] == "binned":
        if len(rates) != 2:
            raise SpecError("binned scheme.rates must be [bin_rate, word_rate]")
    else:
        for field, values in (("scheme.rates", rates),
                              ("scheme.epsilons.slacks", epsilons.get("slacks", [0.0]))):
            for L in exp["L_list"]:
                if len(values) not in (1, L):
                    raise SpecError(f"{field} must have 1 or {L} entries")

    aux = None
    if "aux_channel" in scheme:
        aux = _stochastic_matrix(scheme["aux_channel"], x_size, y_size,
                                 "scheme.aux_channel")

    region = document.get("region")

    return RunSpec(
        x_size=x_size, y_size=y_size, p0=p0, obs_channel=obs, target=target,
        scheme_kind=scheme["kind"], rates=rates, epsilons=epsilons,
        aux_channel=aux,
        n_list=tuple(int(n) for n in exp["n_list"]),
        L_list=tuple(int(L) for L in exp["L_list"]),
        trials=int(exp["trials"]), seed=int(exp["seed"]),
        delta_list=tuple(float(d) for d in exp["delta_list"]),
        budget=exp.get("budget"),
        region_delta_grid=tuple(float(d) for d in region["delta_grid"]) if region else None)


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
    if not isinstance(document, dict):
        raise SpecError("spec document must be a JSON object")
    return parse_runspec(document)
