"""Command-line surface: simulate, region, verify.

    coordsim simulate --spec spec.json --out results.csv [--workers N]
    coordsim region   --spec spec.json --out region.csv
    coordsim verify   [--only AC1,AC7]

Exit codes: 0 success, 1 failed verification or standard output closed
early (a pipe's reader went away; files already written stay whole),
2 spec/validation error, 3 decoder-limit abort.  An --out path that cannot
be written exits 2 before any work starts (a file the check creates is
removed again).  CSV output is UTF-8 with LF line endings and a versioned
header comment; every random quantity traces to seeds recorded in the
spec, so a rerun with the same spec is byte-identical.  Wall-clock timings
are left blank unless --timings is passed, because measured times would
break replay comparisons.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys
import time

from .harness import (ExperimentAborted, ExperimentConfig, ExperimentStats,
                      run_experiment)
from .runspec import RunSpec, SpecError, load_runspec, read_seed

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SPEC = 2
EXIT_DECODER_LIMIT = 3

SIMULATE_CSV_VERSION = "coordsim-simulate-csv v1"
REGION_CSV_VERSION = "coordsim-region-csv v1"

SIMULATE_COLUMNS = ("n", "L", "scheme", "rates_nats", "epsilon", "delta",
                    "trials", "seed", "mean_tv", "q50", "q90", "q99",
                    "caseA", "caseB", "caseCa", "caseCb", "caseD",
                    "budget_hits", "wall_s")
REGION_COLUMNS = ("delta", "rate_per_agent", "rate_finite", "achieved_tv", "feasible")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _spec_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def cmd_simulate(spec_path: str, out_path: str, workers: int = 1,
                 seed_override: int | None = None, timings: bool = False) -> int:
    """Run the experiment grid of a spec and write one CSV row per cell;
    the radii of one (n, L) that share a channel share one run."""
    if workers < 1:
        print(f"error: --workers must be at least 1, got {workers}", file=sys.stderr)
        return EXIT_SPEC
    try:
        spec = load_runspec(spec_path)
        seed = (spec.seed if seed_override is None
                else read_seed(seed_override, "--seed-override"))
        _check_out_dir(out_path)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    digest = _spec_digest(spec_path)

    lines = [f"# {SIMULATE_CSV_VERSION}",
             f"# spec_sha256={digest} seed={seed}",
             ",".join(SIMULATE_COLUMNS)]
    try:
        # the auxiliary channel of each radius: the pinned scheme.aux_channel,
        # or the region solver's rate minimizer for the scheme's own
        # objective (best-effort fidelity minimizer when infeasible)
        if spec.aux_channel is not None:
            channels = dict.fromkeys(spec.delta_list, spec.aux_channel)
        else:
            from . import region

            solve = (region.min_finite_agent_rate if spec.scheme_kind == "direct"
                     else region.min_per_agent_rate)
            channels = {delta: solve(spec.region_query(delta)).q_star
                        for delta in spec.delta_list}
        for n, L in itertools.product(spec.n_list, spec.L_list):
            # one run per channel object, shared by every radius that maps
            # to it: all of them when the channel is pinned
            runs = {}
            for delta in spec.delta_list:
                aux = channels[delta]
                if id(aux) not in runs:
                    scheme = spec.scheme_config(L, aux)
                    cfg = ExperimentConfig(source=spec.source_config(n, L), scheme=scheme,
                                           trials=spec.trials, seed=seed,
                                           target=spec.target_joint(), search_budget=spec.budget)
                    start = time.perf_counter()
                    stats = run_experiment(cfg, workers=workers)
                    wall = _fmt(time.perf_counter() - start) if timings else ""
                    runs[id(aux)] = scheme, stats, wall
                lines.append(_simulate_row(n, L, spec, delta, seed, *runs[id(aux)]))
    except ExperimentAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECODER_LIMIT
    except (ValueError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    return _write_lines(out_path, lines)


def _simulate_row(n: int, L: int, spec: RunSpec, delta: float, seed: int,
                  scheme, stats: ExperimentStats, wall: str) -> str:
    if spec.scheme_kind == "direct":
        rates = ";".join(_fmt(r) for r in scheme.rates)
    else:
        rates = ";".join((_fmt(scheme.rate_bin), _fmt(scheme.rate_word)))
    counts = stats.error_case_counts
    fields = (str(n), str(L), spec.scheme_kind, rates, _fmt(scheme.epsilon),
              _fmt(delta), str(stats.trials), str(seed),
              _fmt(stats.mean_tv), _fmt(stats.q50), _fmt(stats.q90), _fmt(stats.q99),
              str(counts.get("A", 0)), str(counts.get("B", 0)),
              str(counts.get("Ca", 0)), str(counts.get("Cb", 0)),
              str(counts.get("D", 0)), str(stats.budget_hits), wall)
    return ",".join(fields)


def cmd_region(spec_path: str, out_path: str) -> int:
    """Evaluate the fidelity floor and both rate curves over the spec's grid."""
    try:
        spec = load_runspec(spec_path)
        if spec.region_delta_grid is None:
            raise SpecError("spec has no region section")
        _check_out_dir(out_path)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC

    from . import region

    query = spec.region_query()
    delta_min, _ = region.min_achievable_delta(query)
    curve = region.rate_delta_curve(query, spec.region_delta_grid)

    lines = [f"# {REGION_CSV_VERSION}",
             f"# delta_min={_fmt(delta_min)}",
             ",".join(REGION_COLUMNS)]
    for point in curve:
        lines.append(",".join((
            _fmt(point.delta),
            _fmt(point.per_agent.rate),
            _fmt(point.finite.rate),
            _fmt(point.per_agent.achieved_tv),
            "1" if point.per_agent.feasible else "0")))
    if (code := _write_lines(out_path, lines)) != EXIT_OK:
        return code

    # CSV stays in nats; the console summary carries both units
    print(f"delta_min = {delta_min:.6g}")
    for point in curve:
        print(f"delta={point.delta:g}: per-agent {_both_units(point.per_agent.rate)}, "
              f"finite {_both_units(point.finite.rate)}"
              + ("" if point.per_agent.feasible else "  [infeasible]"))
    return EXIT_OK


def _both_units(rate_nats: float) -> str:
    if rate_nats == math.inf:
        return "inf"
    return f"{rate_nats:.6f} nats ({rate_nats / math.log(2.0):.6f} bits)"


def cmd_verify(only: list[str] | None = None) -> int:
    """Run the bundled acceptance checks and print one line per criterion."""
    from . import verify

    if only:
        unknown = sorted({name.strip().upper() for name in only}
                         - set(verify.criterion_ids()))
        if unknown:
            print(f"error: unknown criterion id(s): {', '.join(unknown)}; "
                  f"known: {', '.join(verify.criterion_ids())}", file=sys.stderr)
            return EXIT_SPEC

    results = verify.run_all(only=only)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.criterion:4s} {status}  {res.detail}  [{res.seconds:.1f}s]")
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_FAILED


def _check_out_dir(path: str) -> None:
    """Open --out for append, and remove the file again if that made it."""
    if os.path.isdir(path):
        raise SpecError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise SpecError(f"output directory {directory} does not exist")
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from None
    if not existed:
        os.remove(os.path.realpath(path))   # a dangling symlink keeps its link


def _write_lines(path: str, lines: list[str]) -> int:
    """Write the CSV; a failed write prints one error line and gives exit 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SPEC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coordsim",
        description="Simulate coordination codes and compute rate regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo experiment grid")
    sim.add_argument("--spec", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--seed-override", type=int, default=None)
    sim.add_argument("--timings", action="store_true",
                     help="record wall-clock seconds (breaks byte-identical replay)")

    reg = sub.add_parser("region", help="compute the rate/fidelity curves")
    reg.add_argument("--spec", required=True)
    reg.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run the bundled acceptance checks")
    ver.add_argument("--only", default=None,
                     help="comma-separated criterion ids, e.g. AC1,AC4")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            code = cmd_simulate(args.spec, args.out, workers=args.workers,
                                seed_override=args.seed_override, timings=args.timings)
        elif args.command == "region":
            code = cmd_region(args.spec, args.out)
        else:
            code = cmd_verify(only=args.only.split(",") if args.only else None)
        sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader of stdout went away: send the rest to devnull, so the
        # interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
