"""Import cost: each command and demo loads only what it runs; numpy and scipy only
for the calibration search."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netshare

SRC = str(Path(netshare.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _python(code: str, *args: str, flags=()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's netshare.

    ``flags`` go to the interpreter before ``-c``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args], capture_output=True, text=True, env=env
    )


_LOADED = "import sys; print(json.dumps(sorted({'numpy', 'scipy'} & set(sys.modules))))"


def test_import_netshare_loads_neither_numpy_nor_scipy():
    proc = _python(f"import json, netshare; {_LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demos_load_neither_numpy_nor_scipy(demo):
    code = (
        "import contextlib, io, json, runpy, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    runpy.run_path(sys.argv[1], run_name='__main__')\n"
        f"{_LOADED}\n"
    )
    proc = _python(code, str(demo))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


_SUBMODULES = (
    "import sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('netshare.'))))"
)


def test_import_netshare_loads_no_submodule():
    proc = _python(f"import json, netshare; {_SUBMODULES}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.fixture(scope="module")
def sweep_scenario(tmp_path_factory):
    doc = {
        "name": "import_guard",
        "areas": ["urban"],
        "cost_tables": {"urban": "reference_costs_urban.json"},
        "configurations": ["MOCN"],
        "sweep": {"parameter": "split_ratio", "from": 0.3, "to": 0.7, "steps": 3},
    }
    path = tmp_path_factory.mktemp("import_guard") / "sweep.json"
    path.write_text(json.dumps(doc))
    return str(path)


CLI_COMMANDS = [
    ["run", "paper_use_case.json", "--format", "json"],
    ["sweep", "SWEEP", "--format", "csv"],
    ["validate", "paper_use_case.json"],
    ["presets"],
    ["recommend", "--area", "rural", "--tech", "3g"],
    ["compare-lte", "--needs-roaming"],
    ["checklist", "--state", "new"],
]


def _run_command(argv, sweep_scenario, report, flags=()):
    """Run one command in a fresh interpreter; return what ``report`` prints after it."""
    argv = [sweep_scenario if a == "SWEEP" else a for a in argv]
    code = (
        "import contextlib, io, json, sys\n"
        "from netshare.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        f"{report}\n"
    )
    proc = _python(code, *argv, flags=flags)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: argv[0])
def test_cli_commands_other_than_calibrate_load_neither(argv, sweep_scenario):
    assert _run_command(argv, sweep_scenario, _LOADED) == []


# netshare modules each command must leave unloaded.
_ENGINE = {"advisor", "calibration", "repartition"}
_ADVISOR = {"calibration", "costmodel", "repartition", "scenario", "sharing"}
_NOT_LOADED = {
    "run": _ENGINE,
    "sweep": _ENGINE,
    "validate": _ENGINE,
    "presets": {"advisor", "calibration", "costmodel", "repartition", "scenario"},
    "recommend": _ADVISOR,
    "compare-lte": _ADVISOR,
    "checklist": _ADVISOR,
}


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: argv[0])
def test_cli_commands_load_only_the_modules_they_run(argv, sweep_scenario):
    loaded = {m.split(".", 1)[1] for m in _run_command(argv, sweep_scenario, _SUBMODULES)}
    assert "cli" in loaded
    assert loaded.isdisjoint(_NOT_LOADED[argv[0]]), sorted(loaded)


_STDLIB = "import sys; print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: argv[0])
def test_cli_commands_other_than_calibrate_load_neither_dataclasses_nor_inspect(
    argv, sweep_scenario
):
    """Every value type is a plain frozen value, so no dataclass is built at startup."""
    assert _run_command(argv, sweep_scenario, _STDLIB) == []


_FIXTURE_COMMANDS = [argv for argv in CLI_COMMANDS if argv[0] in ("run", "sweep", "validate")]
_RESOURCES = "import sys; print(json.dumps('importlib.resources' in sys.modules))"


@pytest.mark.parametrize("argv", _FIXTURE_COMMANDS, ids=lambda argv: argv[0])
def test_fixture_lookup_does_not_load_importlib_resources(argv, sweep_scenario):
    """The fixture directory sits beside the package's own file.

    ``-S`` keeps site hooks, which may load the module themselves, out of the child.
    """
    assert _run_command(argv, sweep_scenario, _RESOURCES, flags=("-S",)) is False


def test_no_public_name_is_a_dataclass():
    """Every public value type is a FrozenValue."""
    code = (
        "import dataclasses, json, netshare\n"
        "names = [n for n in netshare.__all__ if dataclasses.is_dataclass(getattr(netshare, n))]\n"
        "print(json.dumps(names))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_calibration_names_resolve_to_the_calibration_module():
    import netshare.calibration

    assert netshare.calibrate_reference is netshare.calibration.calibrate_reference
    assert netshare.CALIBRATION_CONSTRAINTS is netshare.calibration.CALIBRATION_CONSTRAINTS
    assert set(netshare.__all__) <= set(dir(netshare))
    with pytest.raises(AttributeError, match="no_such_name"):
        netshare.no_such_name


def test_every_public_name_resolves_to_its_defining_module():
    """In a fresh interpreter, each lazy name is what its module binds, and defines there."""
    code = (
        "import importlib, inspect, json, netshare\n"
        "wrong = []\n"
        "for name in netshare.__all__:\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    value = getattr(netshare, name)\n"
        "    module = importlib.import_module('netshare.' + netshare._MODULE_OF[name])\n"
        "    defines = inspect.isclass(value) or inspect.isfunction(value)\n"
        "    if value is not getattr(module, name) or (\n"
        "        defines and value.__module__ != module.__name__\n"
        "    ):\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_star_import_provides_every_public_name():
    namespace = {}
    exec("from netshare import *", namespace)
    assert set(netshare.__all__) <= set(namespace)


def test_calibrate_without_scipy_names_the_extra(tmp_path):
    code = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from netshare.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = _python(code, "calibrate", "--targets", "use_case_targets.json", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert "pip install 'netshare[calibrate]'" in proc.stderr
    assert list(tmp_path.iterdir()) == []
