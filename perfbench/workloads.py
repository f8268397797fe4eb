"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), computes what the
oracle expects (``prepare``), yields an endless seeded request stream
(``requests``), executes one request through netshare's public API or CLI
(``execute``) and checks the output against the oracle (``check``).  All
load comes from one process: a closed loop with a single client.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import inputs
import oracle

ROOT = Path.cwd()
SRC = ROOT / "src"
FIXTURES = SRC / "netshare" / "fixtures"
CLI_TIMEOUT_S = 120


def child_env():
    """Environment for a child process: netshare from this checkout's sources."""
    env = dict(os.environ)
    env.pop("NETSHARE_FIXTURES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def read_fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def bundled_use_case():
    """Oracle view of the bundled paper use case, read from its files."""
    doc = read_fixture("paper_use_case.json")
    tables = {area: read_fixture(ref) for area, ref in doc["cost_tables"].items()}
    configs = [oracle.preset_config(name) for name in doc["configurations"]]
    return doc, oracle.grid(doc["areas"], tables, configs, doc["horizon_years"])


class Outcome:
    """Result of checking one operation: ``failed`` or ``mismatch`` or fine."""

    __slots__ = ("failed", "mismatch", "message")

    def __init__(self, failed=False, mismatch=False, message=""):
        self.failed = failed or mismatch
        self.mismatch = mismatch
        self.message = message


OK = Outcome()


def _mismatch(message):
    return Outcome(mismatch=True, message=message)


def _error(exc):
    return Outcome(failed=True, message=f"{type(exc).__name__}: {exc}")


def compare_grid(reports, expected, label):
    """Savings reports against an oracle grid; reports are (area, name, capex, opex, total)."""
    if len(reports) != len(expected):
        return _mismatch(f"{label}: {len(reports)} cells, oracle has {len(expected)}")
    for area, name, *values in reports:
        want = expected.get((area, name))
        if want is None:
            return _mismatch(f"{label}: unexpected cell {area}/{name}")
        for got, exp in zip(values, want):
            if not oracle.close(got, exp):
                return _mismatch(f"{label}: {area}/{name} gives {got!r}, oracle {exp!r}")
    return OK


def report_rows(reports):
    return [
        (r.area.value, r.configuration, r.capex_saving_pct, r.opex_saving_pct, r.total_saving_pct)
        for r in reports
    ]


def compare_sweep(points, expected, label):
    """Program sweep points (value, horizon, rows) against the oracle's."""
    if len(points) != len(expected):
        return _mismatch(f"{label}: {len(points)} points, oracle has {len(expected)}")
    for (value, horizon, rows), (exp_value, exp_horizon, exp_grid) in zip(points, expected):
        if not oracle.close(value, exp_value) or horizon != exp_horizon:
            return _mismatch(f"{label}: point {value}/{horizon}, oracle {exp_value}/{exp_horizon}")
        outcome = compare_grid(rows, exp_grid, f"{label} at {value:g}")
        if outcome is not OK:
            return outcome
    return OK


class Workload:
    name = ""
    # Requests per second the traced run is sized for (see run.py).
    trace_rate = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.ns = None

    def import_engine(self):
        self.ns = importlib.import_module("netshare")
        return self.ns

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def requests(self):
        raise NotImplementedError

    def execute(self, request):
        raise NotImplementedError

    def check(self, request, output, error):
        """Outcomes of the request's operations (one or more)."""
        raise NotImplementedError

    def kind(self, request):
        return request[0]

    def units(self, request):
        return 1


# ---------------------------------------------------------------------------
# grid_sweep
# ---------------------------------------------------------------------------


class GridSweep(Workload):
    """sweep() and run_scenario() on a seeded 3-area, 14-configuration grid."""

    name = "grid_sweep"
    trace_rate = 20.0
    CUSTOM = 5
    STEPS = 30
    PARAMETERS = ("split_ratio", "horizon_years", "intl_shared", "class_cost_fraction")

    def setup(self):
        ns = self.import_engine()
        rng = inputs.rng_for(self.seed, self.name)
        base = {a: ns.reference_cost_table(ns.AreaKind(a)).to_json_dict() for a in inputs.AREAS}
        self.doc = inputs.scenario_document(
            rng, f"grid-sweep-{self.seed}", base, oracle.PRESETS, self.CUSTOM
        )
        cls = inputs.swept_class(rng, self.doc["cost_tables"])
        self.specs = {p: inputs.sweep_spec(p, self.STEPS, cls) for p in self.PARAMETERS}
        self.scenarios = {"run": ns.load_scenario(self.doc)}
        for parameter, spec in self.specs.items():
            self.scenarios[parameter] = ns.load_scenario(dict(self.doc, sweep=spec))
        self.order_rng = inputs.rng_for(self.seed, "grid_sweep.order")
        for kind in self.scenarios:
            self.execute((kind,))

    def prepare(self):
        doc = self.doc
        configs = [
            oracle.preset_config(c) if isinstance(c, str) else oracle.config_from_doc(c)
            for c in doc["configurations"]
        ]
        self.cells = len(doc["areas"]) * len(configs)
        args = (doc["areas"], doc["cost_tables"], configs, doc["horizon_years"])
        self.expected = {"run": oracle.grid(*args)}
        for parameter, spec in self.specs.items():
            self.expected[parameter] = oracle.sweep(*args, spec)

    def requests(self):
        for kind in inputs.shuffled_blocks(self.order_rng, tuple(self.scenarios)):
            yield (kind,)

    def execute(self, request):
        kind = request[0]
        if kind == "run":
            return self.ns.run_scenario(self.scenarios["run"])
        return self.ns.sweep(self.scenarios[kind])

    def check(self, request, output, error):
        if error is not None:
            return [_error(error)]
        kind = request[0]
        if kind == "run":
            return [compare_grid(report_rows(output.reports()), self.expected["run"], "run")]
        points = [
            (p.value, p.result.horizon_years, report_rows(p.result.reports()))
            for p in output.points
        ]
        return [compare_sweep(points, self.expected[kind], f"sweep {kind}")]

    def units(self, request):
        kind = request[0]
        return self.cells * (1 if kind == "run" else len(self.expected[kind]))


# ---------------------------------------------------------------------------
# api_calls
# ---------------------------------------------------------------------------


class ApiCalls(Workload):
    """A seeded mix of single-cell calls and the bundled 18-cell grid."""

    name = "api_calls"
    trace_rate = 3000.0
    POOL = 48
    # Fixed shares per block of ten: the pooled median falls inside "fresh".
    BLOCK = ("reuse",) * 3 + ("fresh",) * 4 + ("grid18",) * 3

    def setup(self):
        ns = self.import_engine()
        rng = inputs.rng_for(self.seed, self.name)
        base = {a: ns.reference_cost_table(ns.AreaKind(a)).to_json_dict() for a in inputs.AREAS}
        self.cells = []
        for i in range(self.POOL):
            area = rng.choice(inputs.AREAS)
            table_doc = inputs.perturbed_table(base[area], rng)
            if rng.random() < 0.5:
                config_doc = inputs.preset_as_document(rng, rng.choice(tuple(oracle.PRESETS)))
            else:
                config_doc = inputs.custom_config(rng, f"custom-{i}")
            horizon = rng.randint(1, 15)
            self.cells.append((table_doc, config_doc, horizon))
        self.objects = [
            (ns.CostTable.from_json_dict(t), ns.SharingConfiguration.from_json_dict(c))
            for t, c, _ in self.cells
        ]
        self.use_case = ns.load_scenario_file("paper_use_case.json")
        self.order_rng = inputs.rng_for(self.seed, "api_calls.order")
        for kind in ("reuse", "fresh", "grid18"):
            self.execute((kind, 0))

    def prepare(self):
        self.expected = [
            oracle.savings(t, oracle.config_from_doc(c), h) for t, c, h in self.cells
        ]
        _, self.expected_grid = bundled_use_case()

    def requests(self):
        for kind in inputs.shuffled_blocks(self.order_rng, self.BLOCK):
            yield (kind, self.order_rng.randrange(self.POOL))

    def execute(self, request):
        kind, i = request
        ns = self.ns
        if kind == "grid18":
            return ns.run_scenario(self.use_case)
        table_doc, config_doc, horizon = self.cells[i]
        if kind == "reuse":
            table, config = self.objects[i]
        else:
            table = ns.CostTable.from_json_dict(table_doc)
            config = ns.SharingConfiguration.from_json_dict(config_doc)
        baseline = ns.cumulative_cost(table, horizon)
        shared = ns.apply_sharing(baseline, config)
        return ns.savings_report(baseline, shared, config)

    def check(self, request, output, error):
        if error is not None:
            return [_error(error)]
        kind, i = request
        if kind == "grid18":
            rows = report_rows(output.reports())
            outcome = compare_grid(rows, self.expected_grid, "grid18")
            if outcome is OK:
                outcome = check_headline(rows)
            return [outcome]
        got = (output.capex_saving_pct, output.opex_saving_pct, output.total_saving_pct)
        want = self.expected[i]
        if output.configuration != self.cells[i][1]["name"] or not all(
            oracle.close(g, w) for g, w in zip(got, want)
        ):
            return [_mismatch(f"{kind} cell {i}: {got!r}, oracle {want!r}")]
        return [OK]


def check_headline(rows):
    area, name, want = oracle.HEADLINE
    for r_area, r_name, *values in rows:
        if (r_area, r_name) == (area, name):
            got = tuple(f"{v:.2f}" for v in values)
            if got != want:
                return _mismatch(f"headline {area}/{name} is {got}, README says {want}")
            return OK
    return _mismatch(f"headline cell {area}/{name} missing")


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

_TABLE_ROW = re.compile(r"^(\S+)\s{2,}(.+?)\s{2,}(\S+)\s{2,}(\S+)\s{2,}(\S+)$")
CSV_HEADER = [
    "area",
    "configuration",
    "capex_saving_pct",
    "opex_saving_pct",
    "total_saving_pct",
    "horizon_years",
]


class CliSession(Workload):
    """One client running `python -m netshare ...` invocations, one at a time."""

    name = "cli_session"
    trace_rate = 250.0
    SWEEP_STEPS = 12
    # Set by run.py for the traced run: call cli.main in this process.
    in_process = False

    def setup(self):
        if self.in_process:
            self.import_engine()
            importlib.import_module("netshare.cli")
        rng = inputs.rng_for(self.seed, self.name)
        self.workdir.mkdir(parents=True, exist_ok=True)
        base = {a: read_fixture(f"reference_costs_{a}.json") for a in inputs.AREAS}
        presets = rng.sample(tuple(oracle.PRESETS), 4)
        doc = inputs.scenario_document(rng, f"cli-session-{self.seed}", base, presets, 3)
        parameter = rng.choice(GridSweep.PARAMETERS)
        cls = inputs.swept_class(rng, doc["cost_tables"])
        doc["sweep"] = inputs.sweep_spec(parameter, self.SWEEP_STEPS, cls)
        self.doc = doc
        # The urban table goes by file reference, the others inline.
        urban_file = self.workdir / "seeded_costs_urban.json"
        urban_file.write_text(json.dumps(doc["cost_tables"]["urban"]), encoding="utf-8")
        on_disk = dict(doc, cost_tables=dict(doc["cost_tables"], urban=urban_file.name))
        self.scenario_file = self.workdir / "seeded_scenario.json"
        self.scenario_file.write_text(json.dumps(on_disk, indent=1), encoding="utf-8")
        self.session_rng = inputs.rng_for(self.seed, "cli_session.order")
        self.execute(("presets", ["presets"], None))

    def prepare(self):
        self.use_case_doc, self.use_case_grid = bundled_use_case()
        doc = self.doc
        self.configs = [
            oracle.preset_config(c) if isinstance(c, str) else oracle.config_from_doc(c)
            for c in doc["configurations"]
        ]
        args = (doc["areas"], doc["cost_tables"], self.configs, doc["horizon_years"])
        self.seeded_grid = oracle.grid(*args)
        self.seeded_sweep = oracle.sweep(*args, doc["sweep"])

    def session(self):
        """One session: every command once, in a seeded order and with seeded flags."""
        rng = self.session_rng
        scenario = str(self.scenario_file)
        area = rng.choice(inputs.AREAS)
        tech = rng.choice(("2g", "3g"))
        lte = {flag: rng.random() < 0.5 for flag in ("inter_rat", "cs_fallback", "roaming", "ims")}
        weight = round(rng.uniform(0.0, 1.0), 2)
        lte_argv = ["compare-lte", "--cost-weight", str(weight), "--format", "json"]
        for flag, option in (
            ("inter_rat", "--needs-inter-rat-mobility"),
            ("cs_fallback", "--needs-cs-fallback"),
            ("roaming", "--needs-roaming"),
            ("ims", "--voice-via-ims"),
        ):
            if lte[flag]:
                lte_argv.append(option)
        state = rng.choice(("existing", "new"))
        ops = [
            ("run_table", ["run", "paper_use_case.json"], None),
            ("run_csv", ["run", "paper_use_case.json", "--format", "csv"], None),
            ("run_json", ["run", "paper_use_case.json", "--format", "json", "--no-provenance"], None),
            ("seeded_run_csv", ["run", scenario, "--format", "csv"], None),
            ("seeded_sweep_json", ["sweep", scenario, "--format", "json", "--no-provenance"], None),
            ("validate", ["validate", scenario], None),
            ("presets", ["presets", "--format", "json"], None),
            ("recommend", ["recommend", "--area", area, "--tech", tech, "--format", "json"], (area, tech)),
            ("compare_lte", lte_argv, (lte, weight)),
            ("checklist", ["checklist", "--state", state, "--format", "json"], state),
        ]
        rng.shuffle(ops)
        return ops

    def requests(self):
        while True:
            yield from self.session()

    def kind(self, request):
        return request[1][0]

    def execute(self, request):
        argv = request[1]
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.ns.cli.main(argv)
            return code, buffer.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "netshare", *argv],
            cwd=self.workdir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def check(self, request, output, error):
        if error is not None:
            return [_error(error)]
        code, text = output
        op, argv, extra = request
        if code != 0:
            return [Outcome(failed=True, message=f"netshare {' '.join(argv)} exited {code}")]
        try:
            return [getattr(self, f"_check_{op}")(text, extra)]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [_mismatch(f"{op}: unreadable output ({type(exc).__name__}: {exc})")]

    # -- per-command checks ------------------------------------------------

    def _check_run_table(self, text, _):
        lines = text.splitlines()
        title = (
            f"scenario: {self.use_case_doc['name']} "
            f"(horizon {self.use_case_doc['horizon_years']} years, per-operator savings)"
        )
        if lines[0] != title:
            return _mismatch(f"run table title {lines[0]!r}")
        rows = []
        for line in lines[2:]:
            match = _TABLE_ROW.match(line)
            if match is None:
                return _mismatch(f"run table row {line!r}")
            area, name, *cells = match.groups()
            want = self.use_case_grid.get((area, name))
            if want is None or not all(
                oracle.matches_printed(c, w, 2) for c, w in zip(cells, want)
            ):
                return _mismatch(f"run table row {line!r}, oracle {want!r}")
            rows.append((area, name, *map(float, cells)))
        if len(rows) != len(self.use_case_grid):
            return _mismatch(f"run table has {len(rows)} rows")
        return check_headline(rows)

    def _csv_rows(self, text, expected, horizon, label):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != CSV_HEADER:
            return _mismatch(f"{label}: header {rows[0]!r}")
        if len(rows) - 1 != len(expected):
            return _mismatch(f"{label}: {len(rows) - 1} rows, oracle has {len(expected)}")
        for area, name, *cells, years in rows[1:]:
            want = expected.get((area, name))
            if want is None or int(years) != horizon or not all(
                oracle.matches_printed(c, w, 4) for c, w in zip(cells, want)
            ):
                return _mismatch(f"{label}: row {area}/{name} {cells!r}, oracle {want!r}")
        return OK

    def _check_run_csv(self, text, _):
        return self._csv_rows(
            text, self.use_case_grid, self.use_case_doc["horizon_years"], "run csv"
        )

    def _check_seeded_run_csv(self, text, _):
        return self._csv_rows(text, self.seeded_grid, self.doc["horizon_years"], "seeded run csv")

    def _check_run_json(self, text, _):
        doc = json.loads(text)
        if doc["kind"] != "savings_grid" or "provenance" in doc:
            return _mismatch("run json: wrong kind or provenance present")
        rows = [
            (r["area"], r["configuration"], r["capex_saving_pct"], r["opex_saving_pct"], r["total_saving_pct"])
            for r in doc["reports"]
        ]
        return compare_grid(rows, self.use_case_grid, "run json")

    def _check_seeded_sweep_json(self, text, _):
        doc = json.loads(text)
        if doc["kind"] != "sweep" or doc["parameter"] != self.doc["sweep"]["parameter"]:
            return _mismatch("sweep json: wrong kind or parameter")
        points = [
            (
                p["value"],
                p["horizon_years"],
                [
                    (r["area"], r["configuration"], r["capex_saving_pct"], r["opex_saving_pct"], r["total_saving_pct"])
                    for r in p["reports"]
                ],
            )
            for p in doc["points"]
        ]
        return compare_sweep(points, self.seeded_sweep, "sweep json")

    def _check_validate(self, text, _):
        doc = self.doc
        want = [f"scenario: {doc['name']}"]
        for config in self.configs:
            codes = oracle.warning_codes(config)
            want.append(f"  {config['name']}: " + ("warnings: " + ", ".join(codes) if codes else "ok"))
        want.append(
            f"{len(doc['areas'])} areas x {len(self.configs)} configurations, "
            f"horizon {doc['horizon_years']} years"
        )
        if text.splitlines() != want:
            return _mismatch(f"validate printed {text!r}")
        return OK

    def _check_presets(self, text, _):
        doc = json.loads(text)
        if doc["presets"] != list(oracle.PRESETS) or doc["aliases"] != list(oracle.PRESET_ALIASES):
            return _mismatch(f"presets printed {doc!r}")
        return OK

    def _check_recommend(self, text, extra):
        doc = json.loads(text)
        area, tech = extra
        if (
            doc["kind"] != "recommendation"
            or (doc["area"], doc["technology"]) != (area, tech)
            or doc["verdict"] != oracle.VERDICTS[(area, tech)]
            or len(doc["notes"]) != oracle.recommendation_notes(area, tech)
        ):
            return _mismatch(f"recommend {area}/{tech} printed {doc!r}")
        return OK

    def _check_compare_lte(self, text, extra):
        doc = json.loads(text)
        flags, weight = extra
        mocn, gwcn, preferred = oracle.lte_scores(
            flags["inter_rat"], flags["cs_fallback"], flags["roaming"], weight
        )
        if (
            doc["kind"] != "lte_comparison"
            or len(doc["rows"]) != 5
            or not oracle.close(doc["mocn_score"], mocn)
            or not oracle.close(doc["gwcn_score"], gwcn)
            or doc["preferred"] != preferred
        ):
            return _mismatch(f"compare-lte printed {doc!r}, oracle {(mocn, gwcn, preferred)!r}")
        return OK

    def _check_checklist(self, text, state):
        doc = json.loads(text)
        items = doc["items"]
        if (
            doc["kind"] != "checklist"
            or doc["network_state"] != state
            or len(items) != oracle.CHECKLIST_ITEMS[state]
            or any(i["domain"] not in oracle.CHECKLIST_DOMAINS or i["answered"] is not None for i in items)
        ):
            return _mismatch(f"checklist {state} printed {doc!r}")
        return OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def probe_document(seed):
    """Targets out of reach: staff pinned to >= 0.9 of CAPEX, MOCN CAPEX at 40 %."""
    return {
        "horizon_years": 5,
        "seed": seed,
        "constraints": {
            "name": "pinned",
            "constraints": [
                {
                    "label": "staff_pin",
                    "ledger": "capex",
                    "classes": ["staff"],
                    "lower": 0.9,
                    "upper": 1.0,
                    "area": None,
                }
            ],
        },
        "targets": [
            {"kind": "saving", "area": "urban", "metric": "capex", "configuration": "MOCN", "value": 40.0, "bound": 2.0}
        ],
    }


class Calibrate(Workload):
    """calibrate_reference on the bundled targets, one area per call, plus the probe."""

    name = "calibrate"
    trace_rate = 0.15
    SEARCH = {"restarts": 2, "maxiter": 120}

    def setup(self):
        ns = self.import_engine()
        self.calibration = importlib.import_module("netshare.calibration")
        self.targets_text = (FIXTURES / "use_case_targets.json").read_text(encoding="utf-8")
        targets, constraints, horizon, doc_seed = self.calibration.load_targets_document(
            self.targets_text
        )
        self.constraints = constraints
        self.horizon = horizon
        self.areas = []
        for target in targets:
            if target.area.value not in self.areas:
                self.areas.append(target.area.value)
        self.area_targets = {
            a: [t for t in targets if t.area.value == a] for a in self.areas
        }
        self.doc_seed = doc_seed
        self.seed_rng = inputs.rng_for(self.seed, self.name)
        self.probes = {}
        self.constraint_docs = constraints.to_json_dict()["constraints"]
        # Warm-up: a one-target, few-iteration search.
        try:
            ns.calibrate_reference(
                constraints, self.area_targets[self.areas[0]][:1], restarts=1, maxiter=10, seed=1
            )
        except ns.NetshareError:
            pass

    def prepare(self):
        doc = json.loads(self.targets_text)
        self.target_docs = {a: [t for t in doc["targets"] if t["area"] == a] for a in self.areas}
        self.residuals = []  # |residual| per target of every successful calibration

    def requests(self):
        yield ("set", self.doc_seed)
        while True:
            yield ("set", self.seed_rng.randrange(1, 2**31))

    def _probe(self, seed):
        if seed not in self.probes:
            self.probes[seed] = self.calibration.load_targets_document(json.dumps(probe_document(seed)))
        targets, constraints, horizon, probe_seed = self.probes[seed]
        return self.ns.calibrate_reference(
            constraints, targets, horizon_years=horizon, seed=probe_seed, **self.SEARCH
        )

    def execute(self, request):
        """Outputs per call: (what, result or exception)."""
        seed = request[1]
        outputs = []
        for area in self.areas:
            try:
                result = self.ns.calibrate_reference(
                    self.constraints,
                    self.area_targets[area],
                    horizon_years=self.horizon,
                    seed=seed,
                    **self.SEARCH,
                )
            except Exception as exc:  # the program's error is this call's output
                result = exc
            outputs.append((area, result))
        try:
            outputs.append(("probe", self._probe(seed)))
        except Exception as exc:
            outputs.append(("probe", exc))
        return outputs

    def units(self, request):
        return len(self.areas) + 1

    def check(self, request, output, error):
        if error is not None:
            return [_error(error)]
        outcomes = []
        for what, result in output:
            if what == "probe":
                outcomes.append(self._check_probe(request[1], result))
            elif isinstance(result, Exception):
                outcomes.append(_error(result))
            else:
                outcomes.append(self._check_area(what, result))
        return outcomes

    def _check_probe(self, seed, result):
        if isinstance(result, self.ns.errors.InfeasibleCalibration):
            if "residual" in str(result):
                return OK
            return Outcome(
                failed=True,
                message=f"probe at seed {seed}: wrong error kind, InfeasibleCalibration: {result}",
            )
        if isinstance(result, Exception):
            return _error(result)
        return _mismatch(f"probe at seed {seed}: calibration succeeded on unreachable targets")

    def _check_area(self, area, result):
        table = result.tables[self.ns.AreaKind(area)].to_json_dict()
        broken = oracle.constraint_violations(table, self.constraint_docs, area)
        if broken:
            return _mismatch(f"{area}: returned table breaks {broken}")
        achieved = [o.achieved for o in result.outcomes]
        docs = self.target_docs[area]
        if len(achieved) != len(docs):
            return _mismatch(f"{area}: {len(achieved)} outcomes for {len(docs)} targets")
        for got, doc in zip(achieved, docs):
            want = self._target_value(table, doc)
            if not oracle.close(got, want):
                return _mismatch(f"{area}: achieved {got!r}, oracle {want!r}")
            residual = abs(want - doc["value"])
            if residual > doc.get("bound", 2.0):
                return _mismatch(f"{area}: residual {residual:.4f} pp beyond its bound")
            self.residuals.append(residual)
        return OK

    def _target_value(self, table, doc):
        index = ("capex", "opex", "total").index(doc.get("metric", "total"))

        def metric(name):
            return oracle.savings(table, oracle.preset_config(name), self.horizon)[index]

        if doc.get("kind", "saving") == "saving":
            return metric(doc["configuration"])
        return metric(doc["first"]) - metric(doc["second"])


WORKLOADS = {cls.name: cls for cls in (CliSession, GridSweep, ApiCalls, Calibrate)}
