"""Command line behavior: formats, exit codes, files and determinism."""

import csv
import gc
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netshare
from conftest import import_calibrate_extra
from netshare import AreaKind, load_scenario_file, run_scenario
from netshare.cli import main
from netshare.scenario import fixture_path

USE_CASE = "paper_use_case.json"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden output bytes
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FORMATS = {
    "csv": ("--format", "csv"),
    "json": ("--format", "json", "--no-provenance"),
    "txt": ("--format", "table"),
}
GOLDEN_CASES = {
    "run_paper_use_case": ("run", USE_CASE),
    **{
        f"sweep_{parameter}": ("sweep", str(GOLDEN / "scenarios" / f"sweep_{parameter}.json"))
        for parameter in ("split_ratio", "horizon_years", "intl_shared", "class_cost_fraction")
    },
}


@pytest.mark.parametrize("suffix", sorted(GOLDEN_FORMATS))
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_output_matches_golden_bytes(case, suffix, capsys):
    """Header, row layout, 4-decimal CSV, full-precision JSON and table layout, byte for byte."""
    code, out, err = _run(capsys, *GOLDEN_CASES[case], *GOLDEN_FORMATS[suffix])
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{suffix}").read_bytes()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_csv_emits_header_and_eighteen_rows(capsys):
    code, out, err = _run(capsys, "run", USE_CASE, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "area,configuration,capex_saving_pct,opex_saving_pct,total_saving_pct,horizon_years"
    )
    assert len(lines) == 19
    assert all(line.count(",") == 5 for line in lines)


def test_run_single_cell_scenario_yields_one_row(tmp_path, capsys):
    doc = {
        "name": "single",
        "areas": ["rural"],
        "cost_tables": {
            "rural": {
                "area": "rural",
                "entries": {"nodeb": {"capex": 10.0, "opex_annual": 1.0}},
            }
        },
        "configurations": ["MOCN"],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "run", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "rural"


def test_run_csv_quotes_a_configuration_name_that_holds_a_comma_and_quotes(tmp_path, capsys):
    name = 'a,"b"'
    doc = {
        "name": "quoted",
        "areas": ["urban"],
        "cost_tables": {"urban": "reference_costs_urban.json"},
        "configurations": [{"name": name, "shared": {"passive_site": True}}, "MOCN"],
    }
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "run", str(path), "--format", "csv")
    assert code == 0, err
    assert out.splitlines()[1].startswith('urban,"a,""b""",')
    rows = list(csv.reader(out.splitlines()))
    assert [len(row) for row in rows] == [6, 6, 6]
    report = run_scenario(load_scenario_file(path)).report(AreaKind.URBAN, name)
    assert rows[1] == [
        "urban",
        name,
        f"{report.capex_saving_pct:.4f}",
        f"{report.opex_saving_pct:.4f}",
        f"{report.total_saving_pct:.4f}",
        "5",
    ]
    assert rows[2][:2] == ["urban", "MOCN"]


def test_run_table_shows_two_decimals(capsys):
    code, out, _ = _run(capsys, "run", USE_CASE)
    assert code == 0
    assert "27.12" in out
    assert "GWCN + Backhaul" in out


def test_run_json_round_trips_exact_values(capsys):
    code, out, _ = _run(capsys, "run", USE_CASE, "--format", "json", "--no-provenance")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert "provenance" not in doc
    result = run_scenario(load_scenario_file(USE_CASE))
    in_memory = result.report(AreaKind.URBAN, "GWCN + Backhaul").total_saving_pct
    emitted = next(
        r["total_saving_pct"]
        for r in doc["reports"]
        if r["area"] == "urban" and r["configuration"] == "GWCN + Backhaul"
    )
    assert emitted == in_memory
    assert doc["reports"] == [r.to_json_dict() for r in result.reports()]


def test_run_json_provenance_names_scenario_and_engine(capsys):
    code, out, _ = _run(capsys, "run", USE_CASE, "--format", "json")
    doc = json.loads(out)
    assert doc["provenance"]["scenario"] == "paper_use_case"
    assert "generated_at" in doc["provenance"]
    assert "engine_version" in doc["provenance"]
    assert doc["provenance"]["python"] == platform.python_version()


def test_run_csv_is_deterministic(capsys):
    _, first, _ = _run(capsys, "run", USE_CASE, "--format", "csv")
    _, second, _ = _run(capsys, "run", USE_CASE, "--format", "csv")
    assert first.encode() == second.encode()


def test_run_out_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = _run(capsys, "run", USE_CASE, "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = _run(capsys, "run", USE_CASE, "--format", "csv")
    assert target.read_text() == direct


def test_run_out_failure_is_a_domain_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "grid.csv"
    code, _, err = _run(capsys, "run", USE_CASE, "--out", str(target))
    assert code == 1
    assert "grid.csv" in err


def test_run_missing_scenario_exits_one(capsys):
    code, _, err = _run(capsys, "run", "no_such_scenario.json")
    assert code == 1
    assert "no_such_scenario.json" in err


def test_run_wrongly_typed_scenario_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "null_configurations.json"
    path.write_text(
        json.dumps({"name": "x", "areas": ["urban"], "cost_tables": {}, "configurations": None})
    )
    code, out, err = _run(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_run_wrongly_typed_configuration_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "string_flag.json"
    config = {"name": "c", "shared": {"passive_site": True}, "intl_shared": "no"}
    path.write_text(
        json.dumps(
            {
                "name": "x",
                "areas": ["urban"],
                "cost_tables": {"urban": "reference_costs_urban.json"},
                "configurations": [config],
            }
        )
    )
    code, out, err = _run(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "intl_shared" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("broken", ["scenario", "cost_table"])
@pytest.mark.parametrize("payload", [b'\xff{"name": "x"}', b"[" * 100_000], ids=["non_utf8", "deep"])
def test_run_unparseable_file_prints_one_error_line(tmp_path, broken, payload, capsys):
    files = {
        "scenario": {
            "name": "x",
            "areas": ["urban"],
            "cost_tables": {"urban": "table.json"},
            "configurations": ["MOCN"],
        },
        "cost_table": {"area": "urban", "entries": {"nodeb": {"capex": 1.0}}},
    }
    files = {name: json.dumps(doc).encode() for name, doc in files.items()}
    files[broken] = payload
    (tmp_path / "table.json").write_bytes(files["cost_table"])
    path = tmp_path / "scenario.json"
    path.write_bytes(files["scenario"])
    code, out, err = _run(capsys, "run", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_run_strict_fails_on_ladder_warnings(capsys):
    code, _, err = _run(capsys, "run", USE_CASE, "--strict")
    assert code == 1
    assert "NonContiguousLadder" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@pytest.fixture()
def sweep_file(tmp_path):
    doc = {
        "name": "sweep_unit",
        "areas": ["urban"],
        "cost_tables": {
            "urban": {
                "area": "urban",
                "entries": {
                    "nodeb": {"capex": 500.0, "opex_annual": 20.0},
                    "oam": {"capex": 100.0, "opex_annual": 60.0},
                },
            }
        },
        "configurations": ["MOCN", "GWCN"],
        "sweep": {"parameter": "horizon_years", "from": 1, "to": 6, "steps": 6},
    }
    path = tmp_path / "sweep_unit.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sweep_csv_rows_are_sorted_by_value(sweep_file, capsys):
    code, out, _ = _run(capsys, "sweep", sweep_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("parameter,value,area,configuration")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)  # independent sort oracle
    assert len(lines) == 1 + 6 * 2  # six points, two configurations


def test_sweep_json_structure(sweep_file, capsys):
    code, out, _ = _run(capsys, "sweep", sweep_file, "--format", "json", "--no-provenance")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "sweep"
    assert doc["parameter"] == "horizon_years"
    assert [p["value"] for p in doc["points"]] == [1, 2, 3, 4, 5, 6]
    assert doc["points"][0]["horizon_years"] == 1


def test_sweep_json_provenance_names_scenario_engine_and_python(sweep_file, capsys):
    code, out, _ = _run(capsys, "sweep", sweep_file, "--format", "json")
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert sorted(provenance) == ["engine_version", "generated_at", "python", "scenario"]
    assert provenance["scenario"] == "sweep_unit"
    assert provenance["engine_version"] == netshare.__version__
    assert provenance["python"] == platform.python_version()


def test_sweep_without_spec_exits_one(capsys):
    code, _, err = _run(capsys, "sweep", USE_CASE)
    assert code == 1
    assert "sweep" in err


# ---------------------------------------------------------------------------
# validate / presets / advisor commands
# ---------------------------------------------------------------------------


def test_validate_reports_warnings_and_strict_fails(capsys):
    code, out, _ = _run(capsys, "validate", USE_CASE)
    assert code == 0
    assert "NonContiguousLadder" in out
    code, _, err = _run(capsys, "validate", USE_CASE, "--strict")
    assert code == 1


def test_run_and_validate_strict_fail_with_the_same_error_line(capsys):
    errors = {}
    for command in ("run", "validate"):
        code, out, err = _run(capsys, command, USE_CASE, "--strict")
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: strict mode: ")
        errors[command] = err
    assert errors["run"] == errors["validate"]
    # validate still lists every configuration on stdout before it fails
    assert out.encode("utf-8") == (GOLDEN / "validate_run_paper_use_case.txt").read_bytes()


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_validate_output_matches_golden_bytes(case, capsys):
    code, out, err = _run(capsys, "validate", GOLDEN_CASES[case][1])
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / f"validate_{case}.txt").read_bytes()


def test_class_sweep_ignores_a_cost_table_for_an_unlisted_area(tmp_path, capsys):
    doc = json.loads(fixture_path(USE_CASE).read_text())
    doc["areas"] = ["urban"]
    doc["cost_tables"] = {"urban": doc["cost_tables"]["urban"]}
    doc["sweep"] = {
        "parameter": "class_cost_fraction", "from": 0.1, "to": 0.5, "steps": 5, "class": "backhaul"
    }
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(doc))
    # a rural table that carries no backhaul cost, which no area of the scenario uses
    rural = {"area": "rural", "entries": {"nodeb": {"capex": 100.0, "opex_annual": 10.0}}}
    doc["cost_tables"]["rural"] = rural
    unlisted = tmp_path / "unlisted.json"
    unlisted.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "validate", str(unlisted))
    assert code == 0, err
    for suffix in ("csv", "json"):
        outputs = []
        for path in (listed, unlisted):
            code, out, err = _run(capsys, "sweep", str(path), *GOLDEN_FORMATS[suffix])
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("case", sorted(c for c in GOLDEN_CASES if c.startswith("sweep_")))
def test_validate_accepts_the_golden_sweeps(case, capsys):
    code, out, err = _run(capsys, "validate", GOLDEN_CASES[case][1])
    assert code == 0 and err == ""
    assert out.startswith("scenario: golden_")


_UNSWEEPABLE = {
    "split_ratio_from_zero": (
        {"parameter": "split_ratio", "from": 0.0, "to": 0.9, "steps": 4},
        "split_ratio values must lie in (0, 1), got 0.0",
    ),
    "class_fraction_past_one": (
        {"parameter": "class_cost_fraction", "from": 0.1, "to": 1.5, "steps": 8, "class": "backhaul"},
        "class_cost_fraction values must lie in (0, 1), got 1.1",
    ),
    "horizon_below_one_year": (
        {"parameter": "horizon_years", "from": 0.2, "to": 5, "steps": 5},
        "horizon_years must be a positive integer, got 0",
    ),
    "class_without_cost": (
        {"parameter": "class_cost_fraction", "from": 0.1, "to": 0.5, "steps": 3, "class": "rnc"},
        "class 'rnc' cannot be rescaled in area urban: it or the rest of the table carries no cost",
    ),
    "horizon_overflowing_the_baseline": (
        {"parameter": "horizon_years", "from": 1, "to": 1e307, "steps": 3},
        "[area=urban configuration=MOCN] baseline grand total is inf; savings are undefined",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNSWEEPABLE))
def test_validate_rejects_what_sweep_rejects(tmp_path, capsys, case):
    spec, message = _UNSWEEPABLE[case]
    doc = json.loads(fixture_path(USE_CASE).read_text())
    if case == "class_without_cost":
        urban = json.loads(fixture_path(doc["cost_tables"]["urban"]).read_text())
        urban["entries"]["rnc"] = {"capex": 0.0, "opex_annual": 0.0}
        doc["cost_tables"]["urban"] = urban
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(doc, sweep=spec)))
    for command in ("validate", "sweep"):
        assert _run(capsys, command, str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_an_invalid_configuration_is_one_error_line(tmp_path, capsys, command):
    """A scenario is checked when it is built, before any command reads its sweep."""
    doc = json.loads(fixture_path(USE_CASE).read_text())
    doc["configurations"].append({"name": "core", "shared": {"core_sgsn": True}})
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    line = "error: scenario 'paper_use_case' has invalid configurations (core: GwcnWithoutRan)\n"
    assert _run(capsys, command, str(path)) == (1, "", line)


def test_presets_lists_all_nine_names(capsys):
    code, out, _ = _run(capsys, "presets")
    assert code == 0
    for name in (
        "MOCN",
        "MOCN + Backhaul",
        "MOCN - Spectrum",
        "GWCN",
        "GWCN + Backhaul",
        "GWCN - Spectrum",
        "PassiveOnly",
        "SiteAntenna",
        "GatewayRoaming",
    ):
        assert name in out.splitlines() or name in out


def test_recommend_prints_the_verdict_first(capsys):
    code, out, _ = _run(capsys, "recommend", "--area", "rural", "--tech", "3g")
    assert code == 0
    assert out.splitlines()[0] == "StronglyRecommended"


def test_recommend_json(capsys):
    code, out, _ = _run(capsys, "recommend", "--area", "urban", "--tech", "2g", "--format", "json")
    doc = json.loads(out)
    assert doc["verdict"] == "NotRecommended"


def test_compare_lte_table_and_preference(capsys):
    code, out, _ = _run(capsys, "compare-lte", "--needs-roaming", "--cost-weight", "0")
    assert code == 0
    assert "preferred: MOCN" in out
    code, out, _ = _run(capsys, "compare-lte", "--cost-weight", "1")
    assert "preferred: GWCN" in out


def test_checklist_lists_items(capsys):
    code, out, _ = _run(capsys, "checklist", "--state", "new")
    assert code == 0
    assert "backhaul" in out
    assert "[ ]" in out


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_infeasible_targets_exit_one(tmp_path, capsys):
    import_calibrate_extra()
    doc = {
        "horizon_years": 5,
        "seed": 0,
        "constraints": {
            "name": "impossible",
            "constraints": [
                {
                    "label": "a",
                    "ledger": "capex",
                    "classes": ["nodeb"],
                    "lower": 0.9,
                    "upper": 1.0,
                },
                {
                    "label": "b",
                    "ledger": "capex",
                    "classes": ["backhaul"],
                    "lower": 0.5,
                    "upper": 0.6,
                },
            ],
        },
        "targets": [
            {
                "kind": "saving",
                "area": "urban",
                "metric": "capex",
                "configuration": "MOCN",
                "value": 30.0,
            }
        ],
    }
    path = tmp_path / "targets.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "calibrate", "--targets", str(path), "--out", str(tmp_path))
    assert code == 1
    assert "urban" in err


@pytest.mark.parametrize(
    "doc",
    [{"seed": "x", "targets": [{"area": "urban", "configuration": "MOCN", "value": 1}]}],
    ids=("document_seed",),
)
def test_calibrate_bad_seed_prints_one_error_line(tmp_path, capsys, doc):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps(doc))
    argv = ["calibrate", "--targets", str(path), "--out", str(tmp_path)]
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "seed" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["weight", "bound"])
def test_calibrate_negative_weight_or_bound_prints_one_error_line(tmp_path, capsys, field):
    target = {"area": "urban", "configuration": "MOCN", "value": 25.0, field: -1}
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"targets": [target]}))
    code, out, err = _run(capsys, "calibrate", "--targets", str(path), "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [path]


def test_calibrate_writes_tables_and_a_record_the_seed_does_not_change(tmp_path, capsys):
    numpy, scipy = import_calibrate_extra()
    doc = {
        "seed": 0,
        "constraints": {
            "name": "loose",
            "constraints": [
                {"label": "nodeb_pin", "ledger": "capex", "classes": ["nodeb"],
                 "lower": 0.2, "upper": 0.6},
            ],
        },
        "targets": [
            {"area": "suburban", "metric": "capex", "configuration": "MOCN", "value": 28.0,
             "bound": 1.0},
        ],
    }
    written = {}
    for seed in ("0", "5"):
        path = tmp_path / f"targets_{seed}.json"
        path.write_text(json.dumps(dict(doc, seed=int(seed))))
        out_dir = tmp_path / f"seed_{seed}"
        argv = ["calibrate", "--targets", str(path), "--out", str(out_dir)]
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        assert err.startswith("wrote ") and out.splitlines()[0].split() == [
            "target", "achieved", "residual"
        ]
        written[seed] = {f.name: f.read_bytes() for f in out_dir.iterdir()}
        assert set(written[seed]) == {"reference_costs_suburban.json", "reference_calibration.json"}
        record = json.loads(written[seed]["reference_calibration.json"])
        assert record["kind"] == "calibration_record"
        assert "notes" not in record
        assert record["seed"] == int(seed)
        assert "SLSQP" in record["method"] and "seed changes no result" in record["method"]
        assert 0.0 < record["balances"]["suburban"] < 1.0
        assert record["provenance"] == {
            "engine_version": netshare.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        }
        (target,) = record["targets"]
        assert abs(target["residual"]) <= 1.0
    table = "reference_costs_suburban.json"
    assert written["0"][table] == written["5"][table]


# ---------------------------------------------------------------------------
# usage plumbing
# ---------------------------------------------------------------------------


def test_no_subcommand_prints_help_and_exits_two(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "command",
    [
        [],
        ["run"],
        ["sweep"],
        ["validate"],
        ["presets"],
        ["recommend"],
        ["compare-lte"],
        ["checklist"],
        ["calibrate"],
    ],
)
def test_every_help_exits_zero(command):
    with pytest.raises(SystemExit) as info:
        main(command + ["--help"])
    assert info.value.code == 0


@pytest.mark.parametrize(
    "command",
    ["netshare", "run", "sweep", "validate", "presets", "recommend", "compare-lte", "checklist",
     "calibrate"],
)
def test_help_matches_golden_bytes(command):
    """Every help text, byte for byte, as a console 80 columns wide prints it."""
    argv = [] if command == "netshare" else [command]
    proc = subprocess.run(
        [sys.executable, "-m", "netshare", *argv, "--help"],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "help" / f"{command}.txt").read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "netshare", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "netshare" in proc.stdout


# ---------------------------------------------------------------------------
# process exit: both entry points, in a child process
# ---------------------------------------------------------------------------

SRC = str(Path(netshare.__file__).resolve().parents[1])


def _script_call():
    """What the installed ``netshare`` script runs: the function pyproject.toml names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^netshare = "([\w.]+):(\w+)"$', text, re.M).groups()
    return f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"


SCRIPT_CALL = _script_call()
# What a child runs before the command's own arguments.
LAUNCHERS = {"module": ["-m", "netshare"], "script": ["-c", SCRIPT_CALL]}


def _child(launch, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *launch, *argv], capture_output=True, env=env)


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_child_run_prints_the_golden_csv(launcher):
    proc = _child(LAUNCHERS[launcher], "run", USE_CASE, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / "run_paper_use_case.csv").read_bytes()


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_child_run_out_writes_the_golden_csv(launcher, tmp_path):
    target = tmp_path / "grid.csv"
    proc = _child(LAUNCHERS[launcher], "run", USE_CASE, "--format", "csv", "--out", str(target))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert target.read_bytes() == (GOLDEN / "run_paper_use_case.csv").read_bytes()


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_child_missing_scenario_exits_one_with_one_error_line(launcher):
    proc = _child(LAUNCHERS[launcher], "run", "no_such_scenario.json")
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


# An atexit hook, registered before the command runs, reports the freeze count.
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"
)
_PROBED = {
    "module": _FREEZE_PROBE
    + "import runpy\nrunpy.run_module('netshare', run_name='__main__', alter_sys=True)\n",
    "script": _FREEZE_PROBE + SCRIPT_CALL,
}


@pytest.mark.parametrize(
    "argv, code",
    [(["presets"], 0), (["run", "no_such_scenario.json"], 1), (["--help"], 0), (["frobnicate"], 2)],
    ids=["returns", "domain-error", "help-exit", "usage-exit"],
)
@pytest.mark.parametrize("launcher", sorted(_PROBED))
def test_entry_freezes_the_collector_before_shutdown(launcher, argv, code):
    """Shutdown's collections skip what the command loaded, whether main returns or exits."""
    proc = _child(["-c", _PROBED[launcher]], *argv)
    assert proc.returncode == code, proc.stderr
    label, count = proc.stderr.decode().splitlines()[-1].rsplit(" ", 1)
    assert label == "freeze count"
    assert int(count) > 0


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert main(["presets"]) == 0
    assert main(["run", "no_such_scenario.json"]) == 1
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == before
