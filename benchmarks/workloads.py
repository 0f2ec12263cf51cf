"""The four benchmark workloads: the run spec each case feeds the CLI, and
the checks its output must pass.

A workload seed selects one committed case (case = seed mod the number of
cases in `reference/<workload>.json`).  A case holds the inputs drawn for it
by `make_reference.py` and the outputs a trusted commit produced from them,
so every seed's output is checked against a reference.  Only the standard
library is imported here, because the orchestrating process must not pay
for (or depend on) the package it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Simulate outputs compared exactly, by column name (v1 columns).
SIMULATE_CHECKED = ("trials", "mean_tv", "q50", "q90", "q99", "caseA", "caseB",
                    "caseCa", "caseCb", "caseD", "budget_hits")
DELTA_MIN_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
RATE_TOL = 1e-4          # the solver's documented OPTIMUM_TOL


def _flip(p: float) -> list[list[float]]:
    return [[1.0 - p, p], [p, 1.0 - p]]


def _compose(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    return [[math.fsum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _mutual_information(p_in: list[float], channel: list[list[float]]) -> float:
    """I(in; out) in nats for an input law and a channel."""
    p_out = [math.fsum(p_in[i] * channel[i][j] for i in range(len(p_in)))
             for j in range(len(channel[0]))]
    return math.fsum(p_in[i] * channel[i][j] * math.log(channel[i][j] / p_out[j])
                     for i in range(len(p_in)) for j in range(len(p_out))
                     if p_in[i] * channel[i][j] > 0)


def _direct_spec(n_list, obs_flip, aux_flip, typicality, rate_extra, slack,
                 budget, seed, trials) -> dict:
    p0 = [0.5, 0.5]
    obs, aux = _flip(obs_flip), _flip(aux_flip)
    p_obs = [math.fsum(p0[x] * obs[x][a] for x in range(2)) for a in range(2)]
    rate = _mutual_information(p_obs, aux) + rate_extra
    return {
        "units": "nats",
        "alphabets": {"x_size": 2, "y_size": 2},
        "source": {"p0": p0, "obs_channel": obs},
        "target": {"p_y_given_x": _compose(obs, aux)},
        "scheme": {"kind": "direct", "rates": [rate],
                   "epsilons": {"typicality": typicality, "slacks": [slack]},
                   "aux_channel": aux},
        "experiment": {"n_list": list(n_list), "L_list": [2], "trials": trials,
                       "seed": seed, "delta_list": [0.1], "budget": budget},
    }


def direct_scan_spec(inputs: dict) -> dict:
    """One direct cell with long scans (n=160, L=2).  The trial count is
    calibrated per case so that every case generates about the same number
    of codewords: a single trial's scan length is heavy-tailed, so a fixed
    trial count would make run time depend on the seed."""
    return _direct_spec([160], 0.2, 0.3, 0.25, 0.02, 0.05, 5_000,
                        inputs["seed"], inputs["trials"])


def direct_short_spec(inputs: dict) -> dict:
    """An AC5-like grid (n in 40/80/160, L=2) where most scans end inside
    the first batch, so per-trial fixed cost dominates."""
    return _direct_spec([40, 80, 160], 0.4, 0.4, 0.3, 0.06, 0.12, 5_000,
                        inputs["seed"], inputs["trials"])


def binned_decode_spec(inputs: dict) -> dict:
    """Binned scheme at the decoder's blocklength cap: n=12, L=2, 8 bins of
    8 words, so every trial reaches the joint decoder."""
    n = 12
    p0 = [0.5, 0.5]
    obs, aux = _flip(0.05), _flip(0.3)
    return {
        "units": "nats",
        "alphabets": {"x_size": 2, "y_size": 2},
        "source": {"p0": p0, "obs_channel": obs},
        "target": {"p_y_given_x": _compose(obs, aux)},
        # floor(e^{n R}) = 8 bins and ceil(e^{n R'}) = 8 words per bin
        "scheme": {"kind": "binned",
                   "rates": [math.log(8.5) / n, math.log(7.5) / n],
                   "epsilons": {"typicality": 0.8, "ag": 0.0, "zero": 0.0},
                   "aux_channel": aux},
        "experiment": {"n_list": [n], "L_list": [2], "trials": inputs["trials"],
                       "seed": inputs["seed"], "delta_list": [0.1], "budget": None},
    }


def region_curve_spec(inputs: dict) -> dict:
    """A seeded 3x3 query with one radius below the fidelity floor, one
    where the constraint binds and one where it does not."""
    return {
        "units": "nats",
        "alphabets": {"x_size": 3, "y_size": 3},
        "source": {"p0": inputs["p0"], "obs_channel": inputs["obs_channel"]},
        "target": {"p_y_given_x": inputs["target"]},
        # simulate-only sections the spec schema requires; cmd_region ignores them
        "scheme": {"kind": "direct", "rates": [0.1], "epsilons": {"typicality": 0.3}},
        "experiment": {"n_list": [8], "L_list": [1], "trials": 1, "seed": 0,
                       "delta_list": [0.1]},
        "region": {"delta_grid": inputs["delta_grid"],
                   "solver": {"grid_step": 0.05, "restarts": 20,
                              "seed": inputs["solver_seed"]}},
    }


WORKLOADS = {
    "direct-scan": ("simulate", direct_scan_spec),
    "direct-short": ("simulate", direct_short_spec),
    "binned-decode": ("simulate", binned_decode_spec),
    "region-curve": ("region", region_curve_spec),
}


def spec_text(spec: dict) -> str:
    return json.dumps(spec, indent=1, sort_keys=True) + "\n"


def spec_digest(spec: dict) -> str:
    return hashlib.sha256(spec_text(spec).encode()).hexdigest()


class NoReference(LookupError):
    """The seed has no usable committed reference."""


def load_case(workload: str, seed: int) -> tuple[int, dict, dict]:
    """(case number, spec, reference entry) for a workload seed."""
    if seed < 0:
        raise NoReference(f"seed {seed} is negative; seeds select case seed mod N")
    path = REFERENCE_DIR / f"{workload}.json"
    try:
        cases = json.loads(path.read_text())["cases"]
    except FileNotFoundError:
        raise NoReference(f"no reference file {path.name} for workload {workload}") from None
    if not cases:
        raise NoReference(f"{path.name} holds no cases")
    case = seed % len(cases)
    entry = cases[case]
    if entry.get("case") != case or "expected" not in entry:
        raise NoReference(f"{path.name} has no reference for case {case} (seed {seed})")
    spec = WORKLOADS[workload][1](entry["inputs"])
    if spec_digest(spec) != entry["spec_sha256"]:
        raise NoReference(
            f"seed {seed} (case {case}) of {workload}: the spec built from the "
            f"committed inputs does not match the one the reference was made "
            f"from; regenerate the reference on a trusted commit")
    return case, spec, entry


def operations(workload: str, spec: dict) -> int:
    """Operations one job attempts: trials for simulate, rate minimizations
    (two per radius) for region."""
    if WORKLOADS[workload][0] == "region":
        return 2 * len(spec["region"]["delta_grid"])
    exp = spec["experiment"]
    return exp["trials"] * len(exp["n_list"]) * len(exp["L_list"]) * len(exp["delta_list"])


# --------------------------------------------------------------------------
# CSV parsing and output checks
# --------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[dict, list[dict]]:
    """Comment key=value pairs and the data rows (dicts by column name)."""
    meta: dict = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    meta[key] = value
        elif line:
            lines.append(line.split(","))
    if not lines:
        return meta, []
    header, rows = lines[0], lines[1:]
    return meta, [dict(zip(header, row)) for row in rows]


def check_simulate(text: str, expected: dict, spec: dict) -> tuple[int, list[str]]:
    """Failed trials and problems for one simulate CSV.

    A trial fails when its row differs from the reference in any checked
    column or when the decoder aborted it (attempted minus `trials`)."""
    _, rows = parse_csv(text)
    want = expected["rows"]
    per_cell = spec["experiment"]["trials"]
    if len(rows) != len(want):
        return per_cell * len(want), [f"{len(rows)} rows, reference has {len(want)}"]
    failed, problems = 0, []
    for i, (got, ref) in enumerate(zip(rows, want)):
        diffs = [col for col in SIMULATE_CHECKED if got.get(col) != ref[col]]
        if diffs:
            failed += per_cell
            problems.append(f"row {i}: {', '.join(f'{c}={got.get(c)!r} (ref {ref[c]!r})' for c in diffs)}")
        else:
            failed += per_cell - int(got["trials"])
    return failed, problems


def check_region(text: str, expected: dict) -> tuple[int, list[str]]:
    """Failed rate minimizations and problems for one region CSV.

    The rate bound is one-sided: a lower rate than the reference is a
    better optimum, not an error."""
    meta, rows = parse_csv(text)
    want = expected["rows"]
    if "delta_min" not in meta or len(rows) != len(want):
        return 2 * len(want), ["malformed region CSV"]
    failed, problems = 0, []
    if abs(float(meta["delta_min"]) - expected["delta_min"]) > DELTA_MIN_TOL:
        return 2 * len(want), [f"delta_min {meta['delta_min']} vs {expected['delta_min']!r}"]
    for got_raw, ref in zip(rows, want):
        got = {k: float(v) for k, v in got_raw.items()}
        delta = ref["delta"]
        if got["delta"] != delta or got["feasible"] != ref["feasible"]:
            failed += 2
            problems.append(f"delta {delta}: feasible {got['feasible']} vs {ref['feasible']}")
            continue
        if not ref["feasible"]:
            continue
        per_ok = (got["rate_per_agent"] <= ref["rate_per_agent"] + RATE_TOL
                  and got["achieved_tv"] <= delta + FEASIBILITY_TOL)
        fin_ok = got["rate_finite"] <= ref["rate_finite"] + RATE_TOL
        failed += (not per_ok) + (not fin_ok)
        if not (per_ok and fin_ok):
            problems.append(f"delta {delta}: rates {got['rate_per_agent']}, "
                            f"{got['rate_finite']} tv {got['achieved_tv']} vs reference {ref}")
    return failed, problems


def check_output(workload: str, text: str, expected: dict, spec: dict) -> tuple[int, list[str]]:
    if WORKLOADS[workload][0] == "region":
        return check_region(text, expected)
    return check_simulate(text, expected, spec)


def expected_from_output(workload: str, text: str) -> dict:
    """The reference entry `check_output` compares a later output with."""
    meta, rows = parse_csv(text)
    if WORKLOADS[workload][0] == "region":
        return {"delta_min": float(meta["delta_min"]),
                "rows": [{k: float(v) for k, v in row.items()} for row in rows]}
    return {"rows": [{col: row[col] for col in SIMULATE_CHECKED} for row in rows]}
