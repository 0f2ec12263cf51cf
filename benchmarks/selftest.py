"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps it out of the package's default test collection: it
checks the benchmark, not the package, and its traced runs take about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, read_spans, self_times  # noqa: E402


def _spec_file(tmp_path: Path, spec: dict) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(workloads.spec_text(spec))
    return path


def _small_spec(workload: str) -> dict:
    _, spec, _ = workloads.load_case(workload, 0)
    if workload == "region-curve":
        spec["region"]["delta_grid"] = spec["region"]["delta_grid"][:2]
    else:
        spec["experiment"]["trials"] = 6
    return spec


def test_wrapped_attributes_are_restored(tmp_path):
    from coordsim import cli, coding, harness, region, rng

    modules = (cli, coding, harness, region, rng)
    before = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    tracer = Tracer()
    with tracer:
        layers.install(tracer, [])
        wrapped = list(tracer._patches)
        spec = _spec_file(tmp_path, _small_spec("binned-decode"))
        assert cli.cmd_simulate(str(spec), str(tmp_path / "out.csv")) == 0
    assert len(wrapped) >= 20
    assert {s.name for s in tracer.spans} >= {layers.DECODE, layers.BLOCK, layers.FOLD}
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    after = {(m.__name__, name): value for m in modules for name, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_on_synthetic_tree():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "id": None, "n": None, "key": None, "error": False}

    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),       # overlaps a: the union [1, 6] is covered
        span("leaf", 2.0, 3.5, 1),    # a grandchild of root: only a's child
        span("c", 9.0, 12.0, 0),      # sticks out of root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 1.5, 3.0])
    assert self_times(spans, names={"root"}, child_names={"a"}) == pytest.approx([7.0])
    assert self_times(spans, names={"a", "b"}) == pytest.approx([1.5, 3.0])


def _simulate_csv(rows: list[dict]) -> str:
    cols = list(rows[0])
    return "\n".join(["# coordsim-simulate-csv v1", ",".join(cols)]
                     + [",".join(row[c] for c in cols) for row in rows]) + "\n"


def test_simulate_check_rejects_one_changed_digit():
    _, spec, entry = workloads.load_case("direct-scan", 0)
    rows = [dict(row) for row in entry["expected"]["rows"]]
    assert workloads.check_simulate(_simulate_csv(rows), entry["expected"], spec) == (0, [])
    digits = rows[0]["mean_tv"]
    last = len(digits) - 1
    rows[0]["mean_tv"] = digits[:last] + str((int(digits[last]) + 1) % 10)
    failed, problems = workloads.check_simulate(_simulate_csv(rows), entry["expected"], spec)
    assert failed == spec["experiment"]["trials"] and "mean_tv" in problems[0]


def _region_csv(expected: dict, bump: float) -> str:
    lines = ["# coordsim-region-csv v1", f"# delta_min={expected['delta_min']!r}",
             "delta,rate_per_agent,rate_finite,achieved_tv,feasible"]
    bumped = False
    for row in expected["rows"]:
        rate = row["rate_per_agent"]
        if row["feasible"] and not bumped:
            rate, bumped = rate + bump, True
        lines.append(",".join(repr(v) for v in (row["delta"], rate, row["rate_finite"],
                                                  row["achieved_tv"], int(row["feasible"]))))
    assert bumped
    return "\n".join(lines) + "\n"


def test_region_check_is_one_sided_at_the_optimum_tolerance():
    _, _, entry = workloads.load_case("region-curve", 0)
    expected = entry["expected"]
    assert workloads.check_region(_region_csv(expected, 0.0), expected) == (0, [])
    assert workloads.check_region(_region_csv(expected, -2e-4), expected) == (0, [])
    failed, problems = workloads.check_region(_region_csv(expected, 2e-4), expected)
    assert failed == 1 and problems


def _traced_counts(tmp_path: Path, workload: str) -> dict:
    spec = _spec_file(tmp_path, _small_spec(workload))
    spans = tmp_path / "spans.jsonl"
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "child.py"),
                    "--kind", workloads.WORKLOADS[workload][0], "--spec", str(spec),
                    "--out", str(tmp_path / "out.csv"), "--result", str(result),
                    "--trace", str(spans)], check=True, timeout=120)
    assert json.loads(result.read_text())["recheck_problems"] == []
    values = layers.layer_metrics(read_spans(spans), 0.0)
    return {name: values[name] for name in ("coding.codewords_generated", "coding.trials",
                                            "coding.decode_binned_calls",
                                            "region.linprog_calls")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first = _traced_counts(tmp_path, workload)
    second = _traced_counts(tmp_path, workload)
    assert first == second
    assert any(first.values())
