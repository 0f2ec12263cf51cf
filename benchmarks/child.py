"""One measured CLI invocation in a fresh process.

    python3 benchmarks/child.py --kind simulate|region --spec S --out CSV
                                --result JSON [--trace SPANS] [--setup-only]

Times set-up (importing the package and loading the spec, as every CLI call
pays) and then the `cli.cmd_*` call, and writes both with the exit code and
the peak resident set to --result.  With --trace the layers are wrapped,
the spans are written to the given file, and every rate minimization's
returned channel is rechecked with probkit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECOMPUTE_TOL = 1e-9


def recheck_region(solved: list) -> list[str]:
    """Recompute each returned channel's rate and fidelity with probkit."""
    from coordsim.probkit import (compose_markov, conditional_mutual_information,
                                  mutual_information, tv_distance)

    problems = []
    for kind, query, point in solved:
        triple = compose_markov(query.p0, query.obs_channel, point.q_star)
        tv = tv_distance(triple.pair_marginal(0, 2), query.target_joint)
        if abs(tv - point.achieved_tv) > RECOMPUTE_TOL:
            problems.append(f"{kind} delta={query.delta}: TV {tv!r} vs {point.achieved_tv!r}")
        if math.isinf(point.rate):
            continue
        rate = (conditional_mutual_information(triple) if kind == "per_agent"
                else mutual_information(triple.pair_marginal(1, 2)))
        if abs(rate - point.rate) > RECOMPUTE_TOL:
            problems.append(f"{kind} delta={query.delta}: rate {rate!r} vs {point.rate!r}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("simulate", "region"), required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    start = time.perf_counter()
    import coordsim  # noqa: F401  (the import is what set-up times)
    from coordsim import cli
    from coordsim.runspec import load_runspec
    imported = time.perf_counter()
    load_runspec(args.spec)
    ready = time.perf_counter()
    result = {"setup_s": ready - start, "load_s": ready - imported}

    if not args.setup_only:
        solved: list = []
        if args.trace:
            from layers import install
            from tracer import Tracer
            tracer = Tracer()
            install(tracer, solved)
        command = cli.cmd_simulate if args.kind == "simulate" else cli.cmd_region
        begin = time.perf_counter()
        try:
            code = command(args.spec, args.out)
        finally:
            end = time.perf_counter()
            if args.trace:
                tracer.restore()
        result.update(run_s=end - begin, exit_code=code,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if args.trace:
            tracer.write(args.trace)
            result["recheck_problems"] = recheck_region(solved)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
