import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coordsim import cli, coding
from coordsim import region as region_mod
from coordsim.probkit import CondPmf, Pmf
from coordsim.region import RegionQuery
from coordsim.runspec import SpecError, load_runspec, parse_runspec


def base_spec():
    return {
        "alphabets": {"x_size": 2, "y_size": 2},
        "source": {"p0": [0.5, 0.5],
                   "obs_channel": [[0.8, 0.2], [0.2, 0.8]]},
        "target": {"p_y_given_x": [[0.71, 0.29], [0.29, 0.71]]},
        "scheme": {"kind": "direct", "rates": [0.25],
                   "epsilons": {"typicality": 0.4, "slacks": [0.1]},
                   "aux_channel": [[0.85, 0.15], [0.15, 0.85]]},
        "experiment": {"n_list": [20], "L_list": [1], "trials": 25,
                       "seed": 11, "delta_list": [0.2], "budget": 10000},
        "region": {"delta_grid": [0.0, 0.1, 0.5],
                   "solver": {"grid_step": 0.05, "restarts": 20, "seed": 4}},
    }


def write_spec(tmp_path, document, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestRunSpecParsing:
    def test_valid_spec_parses(self):
        spec = parse_runspec(base_spec())
        assert spec.p0.size == 2
        assert spec.rates == (0.25,)
        assert spec.region_delta_grid == (0.0, 0.1, 0.5)

    def test_missing_section_rejected(self):
        document = base_spec()
        del document["target"]
        with pytest.raises(SpecError):
            parse_runspec(document)

    @pytest.mark.parametrize("section, key, values, field", [
        ("region", "delta_grid", [0.0, float("inf")], "region.delta_grid[1]"),
        ("experiment", "delta_list", [float("nan")], "experiment.delta_list[0]"),
    ], ids=["inf", "nan"])
    def test_non_finite_number_rejected(self, section, key, values, field):
        document = base_spec()
        document[section][key] = values
        with pytest.raises(SpecError, match=f"^{re.escape(field)} is not a finite number$"):
            parse_runspec(document)

    def test_non_stochastic_matrix_rejected(self):
        document = base_spec()
        document["source"]["obs_channel"] = [[0.9, 0.2], [0.2, 0.8]]
        with pytest.raises(SpecError):
            parse_runspec(document)

    def test_bits_units_converted(self):
        document = base_spec()
        document["units"] = "bits"
        spec = parse_runspec(document)
        assert spec.rates[0] == pytest.approx(0.25 * np.log(2))
        assert spec.epsilons["slacks"][0] == pytest.approx(0.1 * np.log(2))
        # the typicality tolerance is unitless and untouched
        assert spec.epsilons["typicality"] == pytest.approx(0.4)

    def test_binned_scheme_config(self):
        document = base_spec()
        document["scheme"] = {"kind": "binned", "rates": [0.3, 0.2],
                              "epsilons": {"typicality": 0.4, "ag": 0.05,
                                           "zero": 0.02}}
        spec = parse_runspec(document)
        scheme = spec.scheme_config(2, spec.aux_channel or CondPmf(np.eye(2)))
        assert scheme.rate_bin == pytest.approx(0.3)
        assert scheme.slack_word == pytest.approx(0.02)

    def test_unknown_epsilons_key_rejected(self):
        document = base_spec()
        document["scheme"]["epsilons"] = {"typicality": 0.4, "slack": [0.1]}
        with pytest.raises(SpecError, match="slack"):
            parse_runspec(document)

    @pytest.mark.parametrize("kind, key, value", [("direct", "ag", 5.0),
                                                  ("direct", "zero", 5.0),
                                                  ("binned", "slacks", [0.1])])
    def test_other_scheme_epsilons_key_rejected(self, kind, key, value):
        document = base_spec()
        if kind == "binned":
            document["scheme"] = {"kind": "binned", "rates": [0.3, 0.2],
                                  "epsilons": {"typicality": 0.4}}
        document["scheme"]["epsilons"][key] = value
        with pytest.raises(SpecError, match=f"epsilons.{key} does not apply to the {kind}"):
            parse_runspec(document)

    def test_direct_rates_checked_for_every_agent_count(self):
        document = base_spec()
        document["scheme"]["rates"] = [0.3, 0.3]
        document["experiment"]["L_list"] = [2, 3]
        with pytest.raises(SpecError, match="scheme.rates must have 1 or 3 entries"):
            parse_runspec(document)
        document["scheme"]["rates"] = [0.3]
        document["scheme"]["epsilons"]["slacks"] = [0.1, 0.1]
        with pytest.raises(SpecError, match="slacks must have 1 or 3 entries"):
            parse_runspec(document)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SpecError):
            load_runspec(str(tmp_path / "missing.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError):
            load_runspec(str(path))


class TestSimulateCommand:
    def test_minimal_spec_writes_rows(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        out = tmp_path / "out.csv"
        assert cli.cmd_simulate(spec_path, str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        header = lines[2].split(",")
        assert header == list(cli.SIMULATE_COLUMNS)
        assert len(lines) == 3 + 1  # one grid cell

    def test_malformed_spec_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert cli.cmd_simulate(str(path), str(tmp_path / "x.csv")) == 2

    def test_schema_violation_exit_2(self, tmp_path):
        document = base_spec()
        document["experiment"]["trials"] = 0
        spec_path = write_spec(tmp_path, document)
        assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2

    def test_epsilons_typo_exit_2(self, tmp_path):
        document = base_spec()
        document["scheme"]["epsilons"] = {"typicality": 0.4, "slack": [0.1]}
        spec_path = write_spec(tmp_path, document)
        assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2

    def test_other_scheme_epsilons_key_exit_2(self, tmp_path):
        document = base_spec()
        document["scheme"]["epsilons"].update(ag=5.0, zero=5.0)
        spec_path = write_spec(tmp_path, document)
        assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2

    def test_rates_length_exit_2_before_any_cell_runs(self, tmp_path, monkeypatch):
        document = base_spec()
        document["scheme"]["rates"] = [0.3, 0.3]
        document["experiment"]["L_list"] = [2, 3]
        spec_path = write_spec(tmp_path, document)
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
        assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
        assert calls == []

    def test_decoder_limit_exit_3(self, tmp_path):
        document = base_spec()
        # a word rate of 0.5 at n = 30 puts e^15 words in each bin, so the
        # decoder's word-tuple table would pass its work bound
        document["scheme"] = {"kind": "binned", "rates": [0.25, 0.5],
                              "epsilons": {"typicality": 0.4, "ag": 0.0,
                                           "zero": 0.0}}
        document["experiment"]["n_list"] = [30]
        spec_path = write_spec(tmp_path, document)
        assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 3

    def test_replay_is_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.cmd_simulate(spec_path, str(out1), workers=1) == 0
        assert cli.cmd_simulate(spec_path, str(out2), workers=2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.cmd_simulate(spec_path, str(out1)) == 0
        assert cli.cmd_simulate(spec_path, str(out2), seed_override=99) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_solver_derived_aux_channel(self, tmp_path):
        # without scheme.aux_channel the region solver picks the codebook law
        # per delta; the path must stay byte-deterministic
        document = base_spec()
        del document["scheme"]["aux_channel"]
        document["experiment"]["n_list"] = [16]
        document["experiment"]["trials"] = 10
        document["experiment"]["delta_list"] = [0.3]
        spec_path = write_spec(tmp_path, document)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.cmd_simulate(spec_path, str(out1)) == 0
        assert cli.cmd_simulate(spec_path, str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 4

    def test_timings_flag_populates_wall_column(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        out = tmp_path / "a.csv"
        assert cli.cmd_simulate(spec_path, str(out), timings=True) == 0
        row = out.read_text().splitlines()[3].split(",")
        assert row[-1] != ""
        assert float(row[-1]) >= 0.0


class TestRegionCommand:
    def test_region_csv_matches_library(self, tmp_path):
        document = base_spec()
        spec_path = write_spec(tmp_path, document)
        out = tmp_path / "region.csv"
        assert cli.cmd_region(spec_path, str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].startswith("# delta_min=")
        assert lines[2].split(",") == list(cli.REGION_COLUMNS)

        query = RegionQuery(p0=Pmf([0.5, 0.5]),
                            obs_channel=CondPmf(np.array(document["source"]["obs_channel"])),
                            target=CondPmf(np.array(document["target"]["p_y_given_x"])))
        curve = region_mod.rate_delta_curve(query, document["region"]["delta_grid"])
        for line, point in zip(lines[3:], curve):
            fields = line.split(",")
            assert float(fields[0]) == pytest.approx(point.delta)
            assert float(fields[1]) == pytest.approx(point.per_agent.rate, abs=1e-9)
            assert float(fields[2]) == pytest.approx(point.finite.rate, abs=1e-9)

    def test_region_requires_section(self, tmp_path):
        document = base_spec()
        del document["region"]
        spec_path = write_spec(tmp_path, document)
        assert cli.cmd_region(spec_path, str(tmp_path / "r.csv")) == 2


@pytest.mark.parametrize("command", [cli.cmd_simulate, cli.cmd_region],
                         ids=["simulate", "region"])
@pytest.mark.parametrize("path, literal", [
    (("source", "p0", 0), "NaN"),
    (("target", "p_y_given_x", 0, 0), "Infinity"),
    (("region", "delta_grid", 1), "1e400"),
    (("source", "p0", 0), "1" + "0" * 400),
], ids=["nan-p0", "infinity-target", "overflow-delta-grid", "overflow-integer-p0"])
def test_non_finite_number_exit_2(tmp_path, capsys, command, path, literal):
    # json reads NaN and Infinity, 1e400 as inf, and a 401-digit integer as an
    # int no float holds; the spec error names the number
    document = base_spec()
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "__number__"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(document).replace('"__number__"', literal))
    assert command(str(spec_path), str(tmp_path / "out.csv")) == 2
    assert literal in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", [cli.cmd_simulate, cli.cmd_region],
                         ids=["simulate", "region"])
def test_missing_out_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for an unwritable --out")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(region_mod, "rate_delta_curve", no_work)
    monkeypatch.setattr(region_mod, "min_achievable_delta", no_work)
    spec_path = write_spec(tmp_path, base_spec())
    out = tmp_path / "missing" / "out.csv"
    assert command(spec_path, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "missing") in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [cli.cmd_simulate, cli.cmd_region],
                         ids=["simulate", "region"])
def test_failed_write_exit_2(tmp_path, capsys, command):
    # the output path is an existing directory, so opening it for writing fails
    document = base_spec()
    document["experiment"]["trials"] = 2
    document["region"]["delta_grid"] = [0.5]
    spec_path = write_spec(tmp_path, document)
    out = tmp_path / "taken"
    out.mkdir()
    assert command(spec_path, str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


# one misspelled key per object of the spec: (path to the object, key as
# given, key as misspelled); the error names the misspelled key's full path
_MISSPELLED = [
    ((), None, "unit"),
    (("alphabets",), "x_size", "x_sise"),
    (("source",), "obs_channel", "obs_chanel"),
    (("target",), "p_y_given_x", "p_y_given_X"),
    (("scheme",), "aux_channel", "aux_chanel"),
    (("scheme", "epsilons"), "typicality", "typicalty"),
    (("experiment",), "budget", "budgett"),
    (("region",), "delta_grid", "delta_gird"),
    (("region", "solver"), "restarts", "restart"),
]


@pytest.mark.parametrize("section, key, typo", _MISSPELLED,
                         ids=[".".join(s) or "top" for s, _, _ in _MISSPELLED])
def test_unknown_key_exit_2_naming_its_path(tmp_path, capsys, section, key, typo):
    document = base_spec()
    node = document
    for name in section:
        node = node[name]
    node[typo] = node.pop(key) if key else "nats"
    field = ".".join(section + (typo,))
    spec_path = write_spec(tmp_path, document)
    with pytest.raises(SpecError, match=f"^unknown key {re.escape(field)}$"):
        load_runspec(spec_path)
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == f"error: unknown key {field}\n"


@pytest.mark.parametrize("matrix, field", [
    ([["a", "b"], [0.2, 0.8]], "source.obs_channel[0][0]"),
    ([[0.8, 0.2], [1.0]], "source.obs_channel[1]"),
    ([[True, 0.0], [0.2, 0.8]], "source.obs_channel[0][0]"),
], ids=["strings", "ragged", "bool"])
def test_malformed_matrix_entry_exit_2_naming_it(tmp_path, capsys, matrix, field):
    document = base_spec()
    document["source"]["obs_channel"] = matrix
    spec_path = write_spec(tmp_path, document)
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("rate", [2.0, 1e5, 1e6, 1e300])
def test_huge_codebook_exit_2_naming_the_index_cap(tmp_path, capsys, rate):
    # the count is refused before e^{n(R+eps)} is formed: e^{2e7} alone
    # would hold millions of digits
    document = base_spec()
    document["scheme"]["rates"] = [rate]
    spec_path = write_spec(tmp_path, document)
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert f"exceeds the {coding.MAX_TOTAL_CODEWORDS} index cap" in err
    assert err.count("\n") == 1


def test_large_negative_exponent_is_an_empty_codebook(tmp_path, capsys):
    document = base_spec()
    document["scheme"]["epsilons"]["slacks"] = [-1e300]
    spec_path = write_spec(tmp_path, document)
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
    assert "is empty" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_64_bits_exit_2(tmp_path, capsys, seed):
    # rng.derive_key reduces a seed mod 2**64, so these would replay the
    # rows of a seed in range
    document = base_spec()
    document["experiment"]["seed"] = seed
    spec_path = write_spec(tmp_path, document)
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv")) == 2
    assert "experiment.seed" in capsys.readouterr().err
    spec_path = write_spec(tmp_path, base_spec(), name="valid.json")
    assert cli.cmd_simulate(spec_path, str(tmp_path / "x.csv"), seed_override=seed) == 2
    assert "--seed-override" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_largest_seed_accepted():
    document = base_spec()
    document["experiment"]["seed"] = 2**64 - 1
    assert parse_runspec(document).seed == 2**64 - 1


def fresh_python(script: str) -> str:
    """Standard output of `script` run in a new interpreter on this source
    tree; the test process has imported far more than a CLI run does."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def pinned_run_script(spec_path: str, out_path: str, modules: set) -> str:
    return ("import sys\n"
            "import coordsim\n"
            "from coordsim import cli\n"
            f"coordsim.load_runspec({spec_path!r})\n"
            f"assert cli.cmd_simulate({spec_path!r}, {out_path!r}) == 0\n"
            f"print(sorted({modules!r} & set(sys.modules)))\n")


def test_pinned_channel_run_loads_neither_jsonschema_nor_mpmath(tmp_path):
    # numpy and scipy are the only runtime dependencies; a fresh process
    # shows what importing, loading a spec and simulating pull in
    spec_path = write_spec(tmp_path, base_spec())
    script = pinned_run_script(spec_path, str(tmp_path / "out.csv"), {"jsonschema", "mpmath"})
    assert fresh_python(script) == "[]\n"


def test_pinned_channel_run_loads_neither_the_solver_nor_a_process_pool(tmp_path):
    # scipy.optimize serves only the region solver, a one-worker run starts
    # no process pool, and the TV quantiles are taken without np.quantile,
    # whose np.unique imports numpy.ma
    document = base_spec()
    del document["region"]
    spec_path = write_spec(tmp_path, document)
    script = pinned_run_script(spec_path, str(tmp_path / "out.csv"),
                               {"scipy.optimize", "concurrent.futures.process", "numpy.ma"})
    assert fresh_python(script) == "[]\n"


@pytest.mark.parametrize("region, aux_channel, solver_loaded", [
    (True, True, True),
    (False, False, True),
    (False, True, False),
], ids=["region-section", "solver-chosen-channel", "pinned-channel"])
def test_spec_loading_imports_the_solver_iff_the_run_uses_it(tmp_path, region, aux_channel,
                                                             solver_loaded):
    # the import is paid in set-up, so a solver-driven command's run time
    # holds only its work
    document = base_spec()
    if not region:
        del document["region"]
    if not aux_channel:
        del document["scheme"]["aux_channel"]
    spec_path = write_spec(tmp_path, document)
    script = ("import sys\n"
              "import coordsim\n"
              "assert 'coordsim.region' not in sys.modules\n"
              f"coordsim.load_runspec({spec_path!r})\n"
              "print('coordsim.region' in sys.modules)\n")
    assert fresh_python(script) == f"{solver_loaded}\n"


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        assert cli.cmd_verify(only=["AC4"]) == 0
        out = capsys.readouterr().out
        assert "AC4" in out and "PASS" in out

    def test_reports_failure_exit_code(self, monkeypatch, capsys):
        from coordsim import verify

        def broken():
            return verify.CheckResult("AC4", False, "tampered tolerance", 0.0)

        monkeypatch.setattr(verify, "_CHECKS", (("AC4", broken),))
        assert cli.cmd_verify(only=["AC4"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_criterion_exit_2(self, capsys):
        assert cli.cmd_verify(only=["AC4", "AC10"]) == 2
        captured = capsys.readouterr()
        assert "AC10" in captured.err
        assert "criteria passed" not in captured.out


class TestMainEntry:
    def test_simulate_subcommand(self, tmp_path):
        spec_path = write_spec(tmp_path, base_spec())
        out = tmp_path / "out.csv"
        code = cli.main(["simulate", "--spec", spec_path, "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_verify_subcommand(self):
        assert cli.main(["verify", "--only", "AC4"]) == 0

    def test_verify_unknown_only_id(self, capsys):
        assert cli.main(["verify", "--only", "AC10"]) == 2
        assert "AC10" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])
