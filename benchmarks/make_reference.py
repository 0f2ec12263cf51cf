"""Draw each workload's case inputs and record the outputs a trusted commit
produces from them.

    python3 benchmarks/make_reference.py --workload direct-scan

Writes benchmarks/reference/<workload>.json.  Run it only on a commit whose
outputs are known good: the benchmark compares every later run against
these files.  Case c's inputs are drawn from random.Random("<workload>/c").
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

CASES = 16
# codewords generated per direct-scan job; a trial's scan length is
# heavy-tailed, so a fixed trial count would make the job's size depend on
# the seed
GENERATED_TARGET = 1_000_000
SHORT_TRIALS = 1_000      # per cell, three cells
BINNED_TRIALS = 200


def _dirichlet(rng: random.Random, size: int, alpha: float = 2.0) -> list[float]:
    draws = [rng.gammavariate(alpha, 1.0) for _ in range(size)]
    total = sum(draws)
    return [d / total for d in draws]


def _calibrated_trials(spec_doc: dict) -> int:
    """Trial count whose codeword generation is closest to GENERATED_TARGET.

    Generation is counted by wrapping `coding.codeword_block` on this
    commit; the count is fixed into the committed inputs, so later changes
    to generation do not change the workload."""
    from coordsim import coding
    from coordsim.runspec import parse_runspec

    spec = parse_runspec(spec_doc)
    n, L = spec.n_list[0], spec.L_list[0]
    scheme = spec.scheme_config(L, spec.aux_channel)
    source = spec.source_config(n, L)
    books = coding.direct_specs(scheme, source, spec.seed)
    generated = [0]
    original = coding.codeword_block

    def counting(book, flat_indices):
        generated[0] += len(flat_indices)
        return original(book, flat_indices)

    coding.codeword_block = counting
    try:
        trial = 0
        while True:
            before = generated[0]
            coding.run_direct_trial(source, scheme, books, spec.seed, trial,
                                    budget=spec.budget)
            if generated[0] >= GENERATED_TARGET:
                over = generated[0] - GENERATED_TARGET
                under = GENERATED_TARGET - before
                return trial + 1 if trial == 0 or over < under else trial
            trial += 1
    finally:
        coding.codeword_block = original


def _free_radius(p0: list[float], target: list[list[float]]) -> float:
    """Smallest TV between the target joint and any joint whose output
    ignores the action: below it the rate-zero channels are infeasible."""
    from scipy.optimize import linprog

    size = len(p0)
    cells = size * len(target[0])
    a_ub, b_ub = [], []
    for x in range(size):
        for y in range(len(target[0])):
            t = p0[x] * target[x][y]
            for sign in (1.0, -1.0):
                row = [0.0] * (len(target[0]) + cells)
                row[y] = sign * p0[x]
                row[len(target[0]) + x * len(target[0]) + y] = -1.0
                a_ub.append(row)
                b_ub.append(sign * t)
    res = linprog([0.0] * len(target[0]) + [0.5] * cells, A_ub=a_ub, b_ub=b_ub,
                  A_eq=[[1.0] * len(target[0]) + [0.0] * cells], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * len(target[0]) + [(0.0, None)] * cells,
                  method="highs")
    if not res.success:
        raise RuntimeError(res.message)
    return float(res.fun)


def draw_inputs(workload: str, case: int) -> dict:
    rng = random.Random(f"{workload}/{case}")
    seed = rng.getrandbits(32)
    if workload == "direct-scan":
        spec = workloads.direct_scan_spec({"seed": seed, "trials": 1})
        return {"seed": seed, "trials": _calibrated_trials(spec)}
    if workload == "direct-short":
        return {"seed": seed, "trials": SHORT_TRIALS}
    if workload == "binned-decode":
        return {"seed": seed, "trials": BINNED_TRIALS}
    from coordsim.probkit import CondPmf, Pmf
    from coordsim.region import RegionQuery, min_achievable_delta
    import numpy as np

    while True:
        p0 = _dirichlet(rng, 3)
        obs = [_dirichlet(rng, 3) for _ in range(3)]
        target = [_dirichlet(rng, 3) for _ in range(3)]
        floor, _ = min_achievable_delta(RegionQuery(
            p0=Pmf(np.array(p0)), obs_channel=CondPmf(np.array(obs)),
            target=CondPmf(np.array(target))))
        free = _free_radius(p0, target)
        if floor > 1e-3 and free > floor + 1e-3:
            break
    # below the floor (infeasible), binding, and wide enough for rate zero
    grid = [0.5 * floor, floor + 0.5 * (free - floor), free + 0.25 * (free - floor)]
    return {"p0": p0, "obs_channel": obs, "target": target,
            "delta_grid": grid, "solver_seed": seed}


def make_case(workload: str, case: int, tmp: Path) -> dict:
    from coordsim import cli

    inputs = draw_inputs(workload, case)
    spec = workloads.WORKLOADS[workload][1](inputs)
    spec_path, out = tmp / "spec.json", tmp / "out.csv"
    spec_path.write_text(workloads.spec_text(spec))
    command = cli.cmd_simulate if workloads.WORKLOADS[workload][0] == "simulate" \
        else cli.cmd_region
    code = command(str(spec_path), str(out))
    if code != 0:
        raise RuntimeError(f"{workload} case {case}: cmd exited {code}")
    expected = workloads.expected_from_output(workload, out.read_text())
    return {"case": case, "inputs": inputs, "spec_sha256": workloads.spec_digest(spec),
            "expected": expected}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    args = parser.parse_args()
    work = HERE.parent / ".benchwork"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        cases = []
        for case in range(CASES):
            cases.append(make_case(args.workload, case, Path(tmp)))
            print(f"{args.workload} case {case}: {cases[-1]['inputs'].get('trials', '')}",
                  flush=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "cases": cases}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
