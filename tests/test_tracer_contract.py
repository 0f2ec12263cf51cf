"""The benchmark's tracer wraps package functions by module attribute name
(`benchmarks/layers.py`).  These tests fail when a rename or a lookup that
bypasses the module global would break `benchmarks/run.py --trace 1`."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers
    from tracer import Tracer

    yield layers, Tracer
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def _spec(tmp_path, scheme, n, delta_grid=None):
    document = {
        "alphabets": {"x_size": 2, "y_size": 2},
        "source": {"p0": [0.5, 0.5], "obs_channel": [[0.9, 0.1], [0.1, 0.9]]},
        "target": {"p_y_given_x": [[0.8, 0.2], [0.2, 0.8]]},
        "scheme": scheme | {"aux_channel": [[0.85, 0.15], [0.15, 0.85]]},
        "experiment": {"n_list": [n], "L_list": [2], "trials": 4, "seed": 3,
                       "delta_list": [0.2], "budget": 2000},
    }
    if delta_grid is not None:
        document["region"] = {"delta_grid": delta_grid}
    path = tmp_path / f"{scheme['kind']}.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_install_patches_and_restores_every_name(tracing):
    layers, Tracer = tracing
    from coordsim import cli, coding, harness, region, rng

    modules = (cli, coding, harness, region, rng)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    with tracer:
        layers.install(tracer, [])
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_simulate_records_every_coding_layer(tracing, tmp_path):
    layers, Tracer = tracing
    from coordsim import cli

    direct = _spec(tmp_path, {"kind": "direct", "rates": [0.3],
                              "epsilons": {"typicality": 0.5, "slacks": [0.05]}}, 20)
    binned = _spec(tmp_path, {"kind": "binned", "rates": [0.2, 0.2],
                              "epsilons": {"typicality": 0.8}}, 6)
    tracer = Tracer()
    with tracer:
        layers.install(tracer, [])
        for path in (direct, binned):
            assert cli.cmd_simulate(path, str(tmp_path / "out.csv")) == 0
    names = {span.name for span in tracer.spans}
    expected = {layers.LOAD, layers.EXPERIMENT, *layers.TRIAL, *layers.ENCODE,
                layers.DECODE, layers.BLOCK, layers.FOLD, layers.DRAW,
                layers.TEST, layers.BOUNDS, *layers.PROBKIT}
    assert expected <= names, sorted(expected - names)


def test_traced_region_records_every_solver_layer(tracing, tmp_path):
    layers, Tracer = tracing
    from coordsim import cli

    deltas = [0.0, 0.05, 0.3]
    spec = _spec(tmp_path, {"kind": "direct", "rates": [0.3],
                            "epsilons": {"typicality": 0.5, "slacks": [0.05]}}, 20,
                 delta_grid=deltas)
    solved = []
    tracer = Tracer()
    with tracer:
        layers.install(tracer, solved)
        assert cli.cmd_region(spec, str(tmp_path / "region.csv")) == 0
    names = {span.name for span in tracer.spans}
    expected = {layers.FLOOR, layers.CURVE, layers.SOLVE_PER, layers.SOLVE_FIN,
                layers.LINPROG}
    assert expected <= names, sorted(expected - names)
    # run.py rechecks every returned channel from these entries
    assert sorted((query.delta, kind) for kind, query, _ in solved) == \
        sorted((delta, kind) for delta in deltas for kind in ("finite", "per_agent"))


def test_traced_spans_round_trip_through_json(tracing, tmp_path):
    # run.py --trace 1 writes the spans and computes the layer metrics from
    # what it reads back, so every span id, count and key must survive JSON
    layers, Tracer = tracing
    from tracer import FIELDS, read_spans

    from coordsim import cli

    direct = _spec(tmp_path, {"kind": "direct", "rates": [0.3],
                              "epsilons": {"typicality": 0.5, "slacks": [0.05]}}, 20)
    binned = _spec(tmp_path, {"kind": "binned", "rates": [0.2, 0.2],
                              "epsilons": {"typicality": 0.8}}, 6)
    tracer = Tracer()
    with tracer:
        layers.install(tracer, [])
        for path in (direct, binned):
            assert cli.cmd_simulate(path, str(tmp_path / "out.csv")) == 0
    tracer.write(tmp_path / "spans.jsonl")
    spans = read_spans(tmp_path / "spans.jsonl")
    assert spans == [dict(zip(FIELDS, span.as_list())) for span in tracer.spans]
    run_s = spans[-1]["end"] - spans[0]["start"]
    values = layers.layer_metrics(spans, 0.0)
    shares = layers.dominant_share(spans, run_s)
    # one cell per spec, each run as one block of 4 trials by 2 agents
    assert values["coding.trials"] == 2 and values["coding.encode_calls"] == 16
    assert values["coding.codewords_generated"] > 0
    assert all(0.0 <= share <= 1.0 for share in shares.values())
