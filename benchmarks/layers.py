"""Which package functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

`install` runs in the traced child process and imports the package;
`layer_metrics` runs in the orchestrating process on the written spans and
needs only the standard library.
"""

from __future__ import annotations

from tracer import self_times

CLI = ("cli.cmd_simulate", "cli.cmd_region")
LOAD = "runspec.load_runspec"
EXPERIMENT = "harness.run_experiment"
TRIAL = ("coding.run_direct_trial", "coding.run_binned_trial")
ENCODE = ("coding.encode_direct", "coding.encode_binned")
DECODE = "coding.decode_binned"
BLOCK = "coding.codeword_block"
FOLD = "rng.fold"
DRAW = "source.draw_actions"
TEST = "typicality.is_strongly_typical"
BOUNDS = "typicality.count_bounds"
PROBKIT = ("probkit.joint_type", "probkit.tv_distance")
FLOOR = "region.min_achievable_delta"
CURVE = "region.rate_delta_curve"
SOLVE_PER = "region.min_per_agent_rate"
SOLVE_FIN = "region.min_finite_agent_rate"
LINPROG = "region.linprog"

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("coding.codewords_generated", "count"), ("coding.codeword_block_s", "s"),
    ("coding.codewords_per_s", "1/s"), ("coding.codeword_block_self_s", "s"),
    ("coding.codewords_scanned", "count"), ("coding.scan_yield", "ratio"),
    ("coding.codebook_prefix", "count"), ("coding.regen_factor", "ratio"),
    ("coding.encode_calls", "count"), ("coding.encode_s_p50", "s"),
    ("coding.encode_s_p90", "s"), ("coding.scan_self_s", "s"),
    ("coding.trial_s_p50", "s"), ("coding.trial_s_p90", "s"), ("coding.trials", "count"),
    ("coding.decode_binned_calls", "count"), ("coding.decode_binned_s_p50", "s"),
    ("coding.decode_binned_s_p90", "s"), ("coding.decode_binned_self_s", "s"),
    ("coding.decode_aborts", "count"),
    ("rng.fold_calls", "count"), ("rng.fold_words", "count"), ("rng.fold_s", "s"),
    ("rng.words_per_s", "1/s"),
    ("source.draw_calls", "count"), ("source.draw_s", "s"),
    ("typicality.test_calls", "count"), ("typicality.test_s", "s"),
    ("typicality.bounds_calls", "count"), ("typicality.bounds_s", "s"),
    ("probkit.s", "s"),
    ("harness.self_s", "s"), ("cli.self_s", "s"),
    ("region.floor_lp_calls", "count"), ("region.floor_lp_s", "s"),
    ("region.per_agent_solve_s", "s"), ("region.finite_solve_s", "s"),
    ("region.solve_s_max", "s"), ("region.linprog_calls", "count"),
    ("region.linprog_s", "s"), ("region.self_s", "s"),
    ("runspec.load_s", "s"),
)


def install(tracer, solved: list) -> None:
    """Wrap each layer's public names where their callers look them up.

    `solved` collects (objective, query, RegionPoint) for every rate
    minimization, so the child can recheck the returned channels.
    """
    from coordsim import cli, coding, harness, region, rng

    def trial_index(args, kwargs):
        return kwargs["trial_index"] if "trial_index" in kwargs else args[4]

    def encoded(span, args, kwargs, result):
        span.n = result.search_cost
        span.key = (kwargs["spec"] if "spec" in kwargs else args[2]).agent_id

    def block(span, args, kwargs, result):
        span.n = len(result)

    def folded(span, args, kwargs, result):
        span.n = int(getattr(result, "size", 1))

    def solve(kind):
        def ident(args, kwargs):
            return [args[0].delta, kind]

        def keep(span, args, kwargs, result):
            solved.append((kind, args[0], result))
        return ident, keep

    tracer.wrap(cli, "cmd_simulate", CLI[0])
    tracer.wrap(cli, "cmd_region", CLI[1])
    tracer.wrap(cli, "load_runspec", LOAD)
    tracer.wrap(cli, "run_experiment", EXPERIMENT)
    for name in TRIAL:
        tracer.wrap(harness, name.split(".")[1], name, ident=trial_index)
    for name in ENCODE:
        tracer.wrap(coding, name.split(".")[1], name, observe=encoded)
    tracer.wrap(coding, "decode_binned", DECODE)
    tracer.wrap(coding, "codeword_block", BLOCK, observe=block)
    tracer.wrap(rng, "fold", FOLD, observe=folded)
    tracer.wrap(coding, "draw_actions", DRAW)
    tracer.wrap(coding, "is_strongly_typical", TEST)
    tracer.wrap(coding, "count_bounds", BOUNDS)
    for name in PROBKIT:
        tracer.wrap(coding, name.split(".")[1], name)
    tracer.wrap(region, "min_achievable_delta", FLOOR)
    tracer.wrap(region, "rate_delta_curve", CURVE)
    for name, kind in ((SOLVE_PER, "per_agent"), (SOLVE_FIN, "finite")):
        ident, keep = solve(kind)
        tracer.wrap(region, name.split(".")[1], name, ident=ident, observe=keep)
    tracer.wrap(region, "linprog", LINPROG)


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ancestor(spans: list[dict], index: int, name: str) -> int | None:
    parent = spans[index]["parent"]
    while parent is not None and spans[parent]["name"] != name:
        parent = spans[parent]["parent"]
    return parent


def layer_metrics(spans: list[dict], load_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run's spans; a layer that was
    not called reports 0."""
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)

    def picked(names):
        names = (names,) if isinstance(names, str) else names
        return [spans[i] for name in names for i in by_name.get(name, ())]

    def durations(names):
        return [s["end"] - s["start"] for s in picked(names)]

    def total(names):
        return sum(durations(names))

    def self_total(names, child_names=None):
        names = {names} if isinstance(names, str) else set(names)
        return sum(self_times(spans, names, None if child_names is None else set(child_names)))

    generated = sum(s["n"] for s in picked(BLOCK))
    scanned = sum(s["n"] for s in picked(ENCODE))
    prefix: dict[tuple, int] = {}
    for name in ENCODE:
        for i in by_name.get(name, ()):
            cell = (_ancestor(spans, i, EXPERIMENT), spans[i]["key"])
            prefix[cell] = max(prefix.get(cell, 0), spans[i]["n"])
    book = sum(prefix.values())
    fold_words = sum(s["n"] for s in picked(FOLD))
    encode_s, trial_s, decode_s = durations(ENCODE), durations(TRIAL), durations(DECODE)
    solve_s = durations((SOLVE_PER, SOLVE_FIN))

    values = {
        "coding.codewords_generated": generated,
        "coding.codeword_block_s": total(BLOCK),
        "coding.codewords_per_s": _ratio(generated, total(BLOCK)),
        "coding.codeword_block_self_s": self_total(BLOCK),
        "coding.codewords_scanned": scanned,
        "coding.scan_yield": _ratio(scanned, generated),
        "coding.codebook_prefix": book,
        "coding.regen_factor": _ratio(generated, book),
        "coding.encode_calls": len(encode_s),
        "coding.encode_s_p50": _quantile(encode_s, 0.5),
        "coding.encode_s_p90": _quantile(encode_s, 0.9),
        "coding.scan_self_s": self_total(ENCODE),
        "coding.trial_s_p50": _quantile(trial_s, 0.5),
        "coding.trial_s_p90": _quantile(trial_s, 0.9),
        "coding.trials": len(trial_s),
        "coding.decode_binned_calls": len(decode_s),
        "coding.decode_binned_s_p50": _quantile(decode_s, 0.5),
        "coding.decode_binned_s_p90": _quantile(decode_s, 0.9),
        "coding.decode_binned_self_s": self_total(DECODE),
        "coding.decode_aborts": sum(1 for s in picked(DECODE) if s["error"]),
        "rng.fold_calls": len(by_name.get(FOLD, ())),
        "rng.fold_words": fold_words,
        "rng.fold_s": total(FOLD),
        "rng.words_per_s": _ratio(fold_words, total(FOLD)),
        "source.draw_calls": len(by_name.get(DRAW, ())),
        "source.draw_s": total(DRAW),
        "typicality.test_calls": len(by_name.get(TEST, ())),
        "typicality.test_s": total(TEST),
        "typicality.bounds_calls": len(by_name.get(BOUNDS, ())),
        "typicality.bounds_s": total(BOUNDS),
        "probkit.s": total(PROBKIT),
        "harness.self_s": self_total(EXPERIMENT, child_names=TRIAL),
        "cli.self_s": self_total(CLI),
        "region.floor_lp_calls": len(by_name.get(FLOOR, ())),
        "region.floor_lp_s": total(FLOOR),
        "region.per_agent_solve_s": total(SOLVE_PER),
        "region.finite_solve_s": total(SOLVE_FIN),
        "region.solve_s_max": max(solve_s, default=0.0),
        "region.linprog_calls": len(by_name.get(LINPROG, ())),
        "region.linprog_s": total(LINPROG),
        "region.self_s": self_total((SOLVE_PER, SOLVE_FIN), child_names=(FLOOR, LINPROG)),
        "runspec.load_s": load_s,
    }
    return values


def dominant_share(spans: list[dict], run_s: float) -> dict[str, float]:
    """Share of the traced run_s spent in the layer each workload is built
    around: encoding (direct-scan), whole trials (direct-short),
    decode_binned (binned-decode) and the rate minimizations (region-curve)."""
    def share(names):
        return _ratio(sum(s["end"] - s["start"] for s in spans if s["name"] in names), run_s)
    return {"encode": share(ENCODE), "trials": share(TRIAL),
            "decode_binned": share((DECODE,)), "rate_minimizations": share((SOLVE_PER, SOLVE_FIN))}
