"""Scenario loading, grid execution and parameter sweeps."""

import copy
import importlib.util
import json
import pickle
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from netshare import (
    AreaKind,
    AreaProfile,
    CostTable,
    ElementClass,
    Scenario,
    SharingConfiguration,
    SweepSpec,
    apply_sharing,
    cumulative_cost,
    load_scenario,
    load_scenario_file,
    preset,
    reference_cost_table,
    run_scenario,
    savings_report,
    sweep,
)
from netshare.errors import (
    InvalidAmount,
    InvalidHorizon,
    InvalidScenario,
    InvalidSweepParameter,
    MalformedScenario,
    ZeroBaseline,
)
from netshare.scenario import (
    _check_fraction,
    _class_share,
    _intl_configs,
    _intl_flag,
    _rescaled_entry,
    _split_configs,
    fixture_dir,
    fixture_path,
)

from conftest import random_config, random_cost_table

USE_CASE = "paper_use_case.json"
GRID_PRESETS = (
    "MOCN",
    "MOCN + Backhaul",
    "MOCN - Spectrum",
    "GWCN",
    "GWCN + Backhaul",
    "GWCN - Spectrum",
)


def _document(**overrides):
    """Minimal valid scenario document, inline cost table."""
    doc = {
        "name": "unit",
        "areas": ["urban"],
        "cost_tables": {
            "urban": {
                "area": "urban",
                "entries": {
                    "nodeb": {"capex": 600.0, "opex_annual": 40.0},
                    "backhaul": {"capex": 200.0, "opex_annual": 30.0},
                    "oam": {"capex": 100.0, "opex_annual": 50.0},
                    "international_connectivity": {"capex": 0.0, "opex_annual": 80.0},
                },
            }
        },
        "configurations": ["MOCN"],
    }
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_bundled_use_case_loads_three_by_six():
    scenario = load_scenario_file(USE_CASE)
    assert scenario.name == "paper_use_case"
    assert scenario.horizon_years == 5
    assert scenario.areas == (
        AreaKind.URBAN,
        AreaKind.SUBURBAN,
        AreaKind.RURAL,
    )
    assert tuple(c.name for c in scenario.configurations) == GRID_PRESETS


def test_empty_configuration_list_is_invalid():
    with pytest.raises(InvalidScenario):
        load_scenario(_document(configurations=[]))


def test_misspelled_top_level_key_is_named():
    with pytest.raises(MalformedScenario, match="horizon_yrs"):
        load_scenario(_document(horizon_yrs=5))


def test_misspelled_sweep_key_is_named():
    bad_sweep = {"parameter": "horizon_years", "from": 1, "to": 5, "stepz": 5}
    with pytest.raises(MalformedScenario, match="stepz"):
        load_scenario(_document(sweep=bad_sweep))


_UNIT_TABLE = json.loads(_document())["cost_tables"]["urban"]


# Each document override, with the part of the error that names the field or value.
_MALFORMED = [
    ({"configurations": None}, "'configurations' must be a list"),
    ({"areas": None}, "'areas' must be a list"),
    ({"areas": {"urban": 1}}, "'areas' must be a list"),
    ({"name": 5}, "'name' must be a string"),
    ({"policy": []}, "policy must be an object"),
    ({"policy": {"spectrum_pooling_allowed": "no"}}, "spectrum_pooling_allowed must be true"),
    ({"policy": {"min_own_coverage_fraction": 0.1}}, "keys: ['min_own_coverage_fraction']"),
    ({"sweep": 5}, "sweep must be an object"),
    (
        {"sweep": {"parameter": "horizon_years", "from": "1", "to": 5, "steps": 5}},
        "sweep 'from' must be a number",
    ),
    (
        {"cost_tables": {"urban": {**_UNIT_TABLE, "entries": {"nodeb": {"capex": None}}}}},
        "nodeb capex must be a number",
    ),
    ({"cost_tables": {"urban": {**_UNIT_TABLE, "currency": 5}}}, "'currency' must be a string"),
    ({"areas": [{"kind": "urban", "nodeb_count": 40}]}, "got {'kind': 'urban', 'nodeb_count': 40}"),
    ({"areas": [True]}, "area must be one of ['urban', 'suburban', 'rural'], got True"),
]


@pytest.mark.parametrize(
    "overrides, message", _MALFORMED, ids=[json.dumps(overrides) for overrides, _ in _MALFORMED]
)
def test_wrongly_typed_fields_are_malformed(overrides, message):
    with pytest.raises(MalformedScenario, match=re.escape(message)):
        load_scenario(_document(**overrides))


def test_json_syntax_errors_carry_position():
    with pytest.raises(MalformedScenario, match="line"):
        load_scenario('{"name": "x",}')


def test_unknown_preset_name_is_rejected():
    from netshare.errors import UnknownPreset

    with pytest.raises(UnknownPreset, match="MOCN plus"):
        load_scenario(_document(configurations=["MOCN plus"]))


def test_inline_configuration_matrix_is_accepted():
    inline = preset("MOCN").to_json_dict()
    inline["name"] = "custom"
    scenario = load_scenario(_document(configurations=[inline]))
    assert scenario.configurations[0].name == "custom"


def test_cost_table_area_must_match_its_key():
    doc = json.loads(_document())
    doc["cost_tables"]["urban"]["area"] = "rural"
    with pytest.raises(InvalidScenario, match="rural"):
        load_scenario(json.dumps(doc))


def test_invalid_configuration_aborts_loading():
    # a pooled core without a shared RNC violates a structural rule
    bad = SharingConfiguration(
        name="core_only", shared=(ElementClass.CORE_SGSN, ElementClass.PASSIVE_SITE)
    ).to_json_dict()
    with pytest.raises(InvalidScenario, match="GwcnWithoutRan"):
        load_scenario(_document(configurations=[bad]))


def test_policy_block_feeds_validation():
    doc = json.loads(_document())
    doc["policy"] = {"spectrum_pooling_allowed": False}
    with pytest.raises(InvalidScenario, match="SpectrumPoolingForbidden"):
        load_scenario(json.dumps(doc))
    doc["configurations"] = ["MOCN - Spectrum"]
    scenario = load_scenario(json.dumps(doc))
    assert scenario.policy is not None


def test_scenario_file_resolution_prefers_cwd(tmp_path, monkeypatch):
    custom = json.loads(_document(name="local_copy"))
    (tmp_path / USE_CASE).write_text(json.dumps(custom))
    monkeypatch.chdir(tmp_path)
    assert load_scenario_file(USE_CASE).name == "local_copy"


def test_cost_table_reference_prefers_the_scenario_directory_to_the_working_directory(
    tmp_path, monkeypatch
):
    table = reference_cost_table(AreaKind.URBAN)
    scenario_dir, work_dir = tmp_path / "scenario", tmp_path / "work"
    for directory, factor in ((scenario_dir, 2.0), (work_dir, 3.0)):
        directory.mkdir()
        (directory / "table.json").write_text(table.scaled(factor).to_json())
    path = scenario_dir / "scenario.json"
    path.write_text(_document(cost_tables={"urban": "table.json"}))
    monkeypatch.chdir(work_dir)
    assert load_scenario_file(path).cost_tables[AreaKind.URBAN] == table.scaled(2.0)
    (scenario_dir / "table.json").unlink()
    assert load_scenario_file(path).cost_tables[AreaKind.URBAN] == table.scaled(3.0)


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    table = reference_cost_table(AreaKind.URBAN)
    (tmp_path / "reference_costs_urban.json").write_text(table.scaled(2.0).to_json())
    monkeypatch.setenv("NETSHARE_FIXTURES", str(tmp_path))
    assert fixture_dir() == tmp_path
    doubled = reference_cost_table(AreaKind.URBAN)
    assert doubled.capex_total() == pytest.approx(2.0 * table.capex_total())


def test_cost_table_name_too_long_for_the_file_system_is_malformed():
    with pytest.raises(MalformedScenario, match="too long"):
        load_scenario(_document(cost_tables={"urban": "x" * 300 + ".json"}))


def test_missing_fixture_reports_search_paths():
    with pytest.raises(MalformedScenario, match="no_such_file.json"):
        fixture_path("no_such_file.json")


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


def test_grid_has_full_cardinality():
    scenario = load_scenario_file(USE_CASE)
    result = run_scenario(scenario)
    assert len(result.cells) == 18
    assert result.area_order == (AreaKind.URBAN, AreaKind.SUBURBAN, AreaKind.RURAL)
    assert result.configuration_order == GRID_PRESETS
    reports = result.reports()
    assert [r.area for r in reports[:6]] == [AreaKind.URBAN] * 6


def test_nothing_shared_column_is_all_zero():
    nothing = SharingConfiguration(name="alone").to_json_dict()
    scenario = load_scenario(_document(configurations=[nothing]))
    result = run_scenario(scenario)
    report = result.report(AreaKind.URBAN, "alone")
    assert report.total_saving_pct == 0.0
    assert report.capex_saving_pct == 0.0


def test_rural_capex_band_on_bundled_fixture():
    result = run_scenario(load_scenario_file(USE_CASE))
    for name in GRID_PRESETS:
        pct = result.report(AreaKind.RURAL, name).capex_saving_pct
        assert 27.4 <= pct <= 50.6


def test_reruns_are_identical():
    scenario = load_scenario_file(USE_CASE)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert len(first.cells) == len(second.cells) == 18
    for report, other in zip(first.cells, second.cells):
        assert (report.area, report.configuration) == (other.area, other.configuration)
        assert report.total_saving_pct == other.total_saving_pct
        assert report.capex_saving_pct == other.capex_saving_pct


def test_best_configuration_breaks_ties_in_grid_order():
    scenario = load_scenario_file(USE_CASE)
    result = run_scenario(scenario)
    best = result.best_configuration(AreaKind.URBAN)
    assert best.configuration == "GWCN + Backhaul"


@pytest.mark.parametrize("horizon", [True, False, 0, 2.0])
def test_scenario_rejects_non_integer_horizons(horizon):
    with pytest.raises(InvalidHorizon):
        Scenario(
            name="bool horizon",
            areas=(AreaKind.URBAN,),
            cost_tables={AreaKind.URBAN: reference_cost_table(AreaKind.URBAN)},
            configurations=(preset("MOCN"),),
            horizon_years=horizon,
        )


@pytest.mark.parametrize(
    "area",
    [AreaProfile(AreaKind.URBAN, nodeb_count=78), "urban", {"kind": "urban"}],
    ids=["profile", "name", "object"],
)
def test_scenario_refuses_an_area_that_is_not_a_kind(area):
    with pytest.raises(InvalidScenario, match=f"not an AreaKind: {re.escape(repr(area))}$"):
        Scenario(
            name="profile",
            areas=(area,),
            cost_tables={AreaKind.URBAN: reference_cost_table(AreaKind.URBAN)},
            configurations=(preset("MOCN"),),
        )


def test_cell_errors_carry_grid_coordinates():
    empty = CostTable(area=AreaKind.URBAN, entries={})
    scenario = Scenario(
        name="broken",
        areas=(AreaKind.URBAN,),
        cost_tables={AreaKind.URBAN: empty},
        configurations=(preset("MOCN"),),
    )
    with pytest.raises(ZeroBaseline, match=r"area=urban configuration=MOCN"):
        run_scenario(scenario)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _swept_scenario(scenario: Scenario, spec: SweepSpec, value: float) -> Scenario:
    """The whole scenario rebuilt at one sweep point: the reference for :func:`sweep`."""
    if spec.parameter == "horizon_years":
        return scenario.replace(horizon_years=int(value), sweep=None)
    if spec.parameter == "split_ratio":
        configs = _split_configs(scenario.configurations, value)
        return scenario.replace(configurations=configs, sweep=None)
    if spec.parameter == "intl_shared":
        configs = _intl_configs(scenario.configurations, _intl_flag(value))
        return scenario.replace(configurations=configs, sweep=None)

    # class_cost_fraction: rescale one class so it takes the requested
    # fraction of each area's cumulative grand total.
    _check_fraction(spec.parameter, value)
    cls = ElementClass(spec.class_name)
    tables = {}
    for kind, table in scenario.cost_tables.items():
        share = _class_share(kind, table, cls, scenario.horizon_years)
        entries = dict(table.entries)
        entries[cls] = _rescaled_entry(entries[cls], value, share)
        tables[kind] = CostTable(area=table.area, entries=entries, currency=table.currency)
    return scenario.replace(cost_tables=tables, sweep=None)


def _sweep_scenario(sweep_doc, **extra):
    return load_scenario(_document(sweep=sweep_doc, **extra))


def test_sweep_requires_a_specification():
    scenario = load_scenario(_document())
    with pytest.raises(InvalidSweepParameter):
        sweep(scenario)


def test_sweep_values_are_strictly_ordered():
    scenario = _sweep_scenario(
        {"parameter": "horizon_years", "from": 1, "to": 5, "steps": 9}
    )
    result = sweep(scenario)
    values = [p.value for p in result.points]
    assert values == sorted(set(values))  # independent sort oracle
    assert values == [1, 2, 3, 4, 5]  # integer horizons deduplicate


def test_split_ratio_sweep_is_linear_for_a_single_shared_class():
    # one shared class holding everything: saving fraction = 1 - ratio
    doc = {
        "name": "split",
        "areas": ["urban"],
        "cost_tables": {
            "urban": {"area": "urban", "entries": {"nodeb": {"capex": 100.0, "opex_annual": 0.0}}}
        },
        "configurations": [
            {
                "name": "nodeb_only",
                "shared": {"nodeb": True},
                "operators": 2,
                "split": [0.5, 0.5],
                "intl_shared": False,
            }
        ],
        "sweep": {"parameter": "split_ratio", "from": 0.5, "to": 0.9, "steps": 5},
    }
    result = sweep(load_scenario(json.dumps(doc)))
    for point in result.points:
        report = point.result.report(AreaKind.URBAN, "nodeb_only")
        assert report.total_saving_pct == pytest.approx(100.0 * (1.0 - point.value), abs=1e-9)
    assert [p.value for p in result.points] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])


def test_horizon_sweep_matches_closed_form_weighting():
    scenario = _sweep_scenario({"parameter": "horizon_years", "from": 1, "to": 8, "steps": 8})
    table = scenario.cost_tables[AreaKind.URBAN]
    config = scenario.configurations[0]
    capex_total = table.capex_total()
    opex_annual = table.opex_annual_total()
    result = sweep(scenario)
    previous_weight = -1.0
    for point in result.points:
        horizon = int(point.value)
        report = point.result.report(AreaKind.URBAN, "MOCN")
        # independent oracle: blend the two per-ledger savings by cost mass
        opex_weight = horizon * opex_annual / (capex_total + horizon * opex_annual)
        expected = (
            report.capex_saving_pct * (1.0 - opex_weight)
            + report.opex_saving_pct * opex_weight
        )
        assert report.total_saving_pct == pytest.approx(expected, rel=1e-9)
        assert opex_weight > previous_weight  # strictly increasing with horizon
        previous_weight = opex_weight


def test_intl_sweep_strictly_increases_total_saving():
    scenario = _sweep_scenario({"parameter": "intl_shared", "from": 0, "to": 1, "steps": 2})
    result = sweep(scenario)
    off = result.points[0].result.report(AreaKind.URBAN, "MOCN").total_saving_pct
    on = result.points[1].result.report(AreaKind.URBAN, "MOCN").total_saving_pct
    assert on > off  # the international link carries cost in the table


def test_class_cost_fraction_sweep_hits_requested_share():
    spec_doc = {
        "parameter": "class_cost_fraction",
        "class": "backhaul",
        "from": 0.1,
        "to": 0.4,
        "steps": 4,
    }
    scenario = _sweep_scenario(spec_doc)
    result = sweep(scenario)
    for point in result.points:
        swept = point.result
        report = swept.report(AreaKind.URBAN, "MOCN")
        baseline = report.baseline
        backhaul = list(ElementClass).index(ElementClass.BACKHAUL)
        share = (baseline.capex[backhaul] + baseline.opex[backhaul]) / baseline.grand_total()
        assert share == pytest.approx(point.value, rel=1e-6)


def test_class_cost_fraction_needs_the_class_somewhere():
    spec_doc = {
        "parameter": "class_cost_fraction",
        "class": "staff",
        "from": 0.1,
        "to": 0.4,
        "steps": 4,
    }
    scenario = _sweep_scenario(spec_doc)
    with pytest.raises(InvalidSweepParameter, match="staff"):
        sweep(scenario)


def test_sweep_spec_validation():
    with pytest.raises(InvalidSweepParameter):
        SweepSpec(parameter="horizon_years", start=5, stop=1, steps=4)
    with pytest.raises(InvalidSweepParameter):
        SweepSpec(parameter="horizon_years", start=1, stop=5, steps=1)
    with pytest.raises(InvalidSweepParameter):
        SweepSpec(parameter="horizon_years", start=1, stop=5, steps=20_000)
    with pytest.raises(InvalidSweepParameter):
        SweepSpec(parameter="discount_rate", start=0.0, stop=0.1, steps=3)
    spec = SweepSpec(parameter="split_ratio", start=0.2, stop=0.8, steps=4)
    assert spec.values() == pytest.approx([0.2, 0.4, 0.6, 0.8])


def test_a_sweep_spec_given_integers_writes_what_a_document_reads_back():
    built = SweepSpec("split_ratio", 0, 1, 3)
    read = SweepSpec.from_json_dict(built.to_json_dict())
    assert json.dumps(built.to_json_dict()) == json.dumps(read.to_json_dict())
    assert repr(built) == repr(read)


@pytest.mark.parametrize(
    "start, stop", [(float("-inf"), 5.0), (1.0, float("inf")), (-1e308, 1e308)]
)
def test_non_finite_sweep_range_is_rejected(start, stop):
    # an infinite span makes every point NaN, which int() cannot take for horizon_years
    bad_sweep = {"parameter": "horizon_years", "from": start, "to": stop, "steps": 3}
    with pytest.raises(InvalidSweepParameter, match="finite"):
        load_scenario(_document(sweep=bad_sweep))


@pytest.mark.parametrize(
    "bad_sweep, message",
    [
        ({"parameter": "class_cost_fraction", "class": 5}, "must be a string"),
        ({"parameter": "class_cost_fraction", "class": "nope"}, "nope"),
        ({"parameter": ["split_ratio"]}, "must be a string"),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
)
def test_sweep_class_and_parameter_are_checked_at_load(bad_sweep, message):
    with pytest.raises(InvalidSweepParameter, match=message):
        load_scenario(_document(sweep={"from": 0.1, "to": 0.4, "steps": 3, **bad_sweep}))


def test_class_sweep_overflowing_the_swept_class_is_an_invalid_amount():
    entries = {cls.value: {"capex": 1e300, "opex_annual": 1e300} for cls in ElementClass}
    entries["backhaul"] = {"capex": 1e-300, "opex_annual": 1e-300}
    spec = {
        "parameter": "class_cost_fraction",
        "class": "backhaul",
        "from": 0.1,
        "to": 0.4,
        "steps": 3,
    }
    scenario = _sweep_scenario(spec, cost_tables={"urban": {"area": "urban", "entries": entries}})
    with pytest.raises(InvalidAmount, match="capex must be finite, got inf"):
        sweep(scenario)
    with pytest.raises(InvalidAmount, match="capex must be finite, got inf"):
        _swept_scenario(scenario, scenario.sweep, 0.1)


def test_sweep_spec_round_trips_through_json():
    spec = SweepSpec(
        parameter="class_cost_fraction", start=0.1, stop=0.5, steps=5, class_name="backhaul"
    )
    assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec


def test_split_ratio_sweep_rejects_degenerate_ratios():
    scenario = _sweep_scenario({"parameter": "split_ratio", "from": 0.0, "to": 1.0, "steps": 3})
    with pytest.raises(InvalidSweepParameter):
        sweep(scenario)


# ---------------------------------------------------------------------------
# grid kernel against the per-class pipeline
# ---------------------------------------------------------------------------


def _random_scenario(rng: random.Random) -> Scenario:
    kinds = (AreaKind.URBAN, AreaKind.SUBURBAN, AreaKind.RURAL)
    configs = []
    for index in range(8):
        config = random_config(rng, name=f"random-{index}")
        if {ElementClass.CORE_SGSN, ElementClass.CORE_GGSN} & set(config.shared):
            config = config.replace(shared=config.shared + (ElementClass.RNC,))
        configs.append(config)
    return Scenario(
        name="random",
        areas=kinds,
        cost_tables={kind: random_cost_table(rng, kind) for kind in kinds},
        configurations=tuple(configs) + (preset("GWCN + Backhaul"),),
        horizon_years=rng.randint(1, 12),
    )


def _assert_pipeline_equal(result, scenario: Scenario) -> None:
    """Every cell equals the per-class pipeline's report exactly, not approximately:
    its three percentages, its baseline, and the configuration it was built
    from, which at a split or intl sweep point is that point's copy."""
    assert result.horizon_years == scenario.horizon_years
    for kind in scenario.areas:
        table = scenario.cost_tables[kind]
        baseline = cumulative_cost(table, scenario.horizon_years)
        for config in scenario.configurations:
            expected = savings_report(baseline, apply_sharing(baseline, config), config)
            assert result.report(kind, config.name) == expected


def _rescalable_classes(scenario: Scenario) -> list:
    """Classes that carry some, but not all, of every area's cumulative cost."""
    h = scenario.horizon_years
    return [
        cls
        for cls in ElementClass
        if all(
            0 < t.entries[cls].capex + t.entries[cls].opex_annual * h
            < t.capex_total() + t.opex_annual_total() * h
            for t in scenario.cost_tables.values()
        )
    ]


def _rescalable_class(scenario: Scenario) -> ElementClass:
    classes = _rescalable_classes(scenario)
    if not classes:
        raise AssertionError("no class carries cost in every area")
    return classes[0]


@pytest.mark.parametrize("seed", range(6))
def test_grid_kernel_is_bit_identical_to_the_pipeline(seed):
    rng = random.Random(seed)
    scenario = _random_scenario(rng)
    _assert_pipeline_equal(run_scenario(scenario), scenario)
    specs = (
        SweepSpec("split_ratio", 0.05, 0.95, 7),
        SweepSpec("horizon_years", 1, 15, 6),
        SweepSpec("intl_shared", 0.0, 1.0, 3),
        SweepSpec(
            "class_cost_fraction", 0.05, 0.6, 5, class_name=_rescalable_class(scenario).value
        ),
    )
    for spec in specs:
        result = sweep(scenario.replace(sweep=spec))
        assert [p.value for p in result.points] == list(spec.values())
        for point in result.points:
            _assert_pipeline_equal(point.result, _swept_scenario(scenario, spec, point.value))


def test_class_sweep_matches_the_pipeline_at_every_slot():
    scenario = _random_scenario(random.Random(17))
    classes = _rescalable_classes(scenario)
    slots = [tuple(ElementClass).index(cls) for cls in classes]
    assert slots[0] == 0 and slots[-1] == len(ElementClass) - 1
    for cls in classes:
        spec = SweepSpec("class_cost_fraction", 0.05, 0.6, 4, class_name=cls.value)
        swept = scenario.replace(sweep=spec)
        result = sweep(swept)
        for point in result.points:
            _assert_pipeline_equal(point.result, _swept_scenario(scenario, spec, point.value))
        # A second sweep starts from fresh products, not from the first's last point.
        assert sweep(swept) == result


# ---------------------------------------------------------------------------
# run and sweeps against the benchmark's independent oracle
# ---------------------------------------------------------------------------

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench():
    """``perfbench/oracle.py`` and ``perfbench/inputs.py``, imported by path.

    The oracle recomputes every saving in plain Python from the documents and
    never imports netshare, so unlike ``_swept_scenario`` it shares no helper
    with the engine.  ``inputs.py`` imports it under its own name.
    """

    def load(name):
        spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    oracle = load("oracle")
    with mock.patch.dict(sys.modules, {"oracle": oracle}):
        return oracle, load("inputs")


def _assert_oracle_grid(result, expected, close) -> None:
    cells = [(r.area.value, r.configuration) for r in result.reports()]
    assert cells == list(expected)
    for report, want in zip(result.reports(), expected.values()):
        got = (report.capex_saving_pct, report.opex_saving_pct, report.total_saving_pct)
        assert all(map(close, got, want)), (report.area.value, report.configuration, got, want)


@pytest.mark.parametrize("seed", range(4))
def test_run_and_every_sweep_kind_match_the_independent_oracle(seed):
    oracle, inputs = _perfbench()
    rng = inputs.rng_for(seed, "tier1")
    base = {a: reference_cost_table(AreaKind(a)).to_json_dict() for a in inputs.AREAS}
    doc = inputs.scenario_document(rng, f"oracle-{seed}", base, oracle.PRESETS, 5)
    swept_class = inputs.swept_class(rng, doc["cost_tables"])
    configs = [
        oracle.preset_config(c) if isinstance(c, str) else oracle.config_from_doc(c)
        for c in doc["configurations"]
    ]
    args = (doc["areas"], doc["cost_tables"], configs, doc["horizon_years"])
    _assert_oracle_grid(run_scenario(load_scenario(doc)), oracle.grid(*args), oracle.close)
    for parameter in ("split_ratio", "horizon_years", "intl_shared", "class_cost_fraction"):
        spec = inputs.sweep_spec(parameter, 12, swept_class)
        points = sweep(load_scenario(dict(doc, sweep=spec))).points
        expected = oracle.sweep(*args, spec)
        assert len(points) == len(expected)
        for point, (value, horizon, grid) in zip(points, expected):
            assert oracle.close(point.value, value)
            assert point.result.horizon_years == horizon
            _assert_oracle_grid(point.result, grid, oracle.close)


def _assert_lookups_agree(result) -> None:
    """report(), cells and best_configuration() against the flat reports() tuple."""
    reports = result.reports()
    width = len(result.configuration_order)
    assert len(reports) == len(result.area_order) * width == len(result.cells)
    for i, area in enumerate(result.area_order):
        row = reports[i * width : (i + 1) * width]
        for name, cell in zip(result.configuration_order, row):
            assert cell.area is area and cell.configuration == name
            assert result.report(area, name) is cell
        # first wins ties, as the documented rule says
        best = row[0]
        for cell in row[1:]:
            if cell.total_saving_pct > best.total_saving_pct + 1e-12:
                best = cell
        assert result.best_configuration(area) is best


@pytest.mark.parametrize("seed", range(4))
def test_flat_result_lookups_agree_with_reports(seed):
    scenario = _random_scenario(random.Random(100 + seed))
    _assert_lookups_agree(run_scenario(scenario))
    for point in sweep(scenario.replace(sweep=SweepSpec("split_ratio", 0.1, 0.9, 3))).points:
        _assert_lookups_agree(point.result)


def test_flat_result_unknown_cells_raise_key_error():
    result = run_scenario(load_scenario(_document(configurations=["MOCN", "GWCN"])))
    with pytest.raises(KeyError):
        result.report(AreaKind.RURAL, "MOCN")
    with pytest.raises(KeyError):
        result.report(AreaKind.URBAN, "GWCN + Backhaul")
    with pytest.raises(KeyError):
        result.report("urban", "MOCN")
    with pytest.raises(KeyError):
        result.best_configuration(AreaKind.RURAL)
    with pytest.raises(KeyError):
        result.report(AreaKind.SUBURBAN, "MOCN")
    assert result.report(AreaKind.URBAN, "GWCN").configuration == "GWCN"


def _split_point_configs():
    ran = (ElementClass.PASSIVE_SITE, ElementClass.NODEB, ElementClass.RNC)
    thirds, quarters = (1.0 / 3,) * 3, (0.25,) * 4
    return (
        SharingConfiguration(name="ran", shared=ran, split_ratios=thirds),
        SharingConfiguration(
            name="coupled", shared=ran, split_ratios=quarters, couple_site_costs=True
        ),
        SharingConfiguration(
            name="single", shared=ran, split_ratios=thirds, single_spectrum=True, intl_shared=True
        ),
        SharingConfiguration(
            name="everything",
            shared=ElementClass,
            split_ratios=(0.1, 0.2, 0.3, 0.4),
            intl_shared=True,
            couple_site_costs=True,
            single_spectrum=True,
        ),
        preset("GWCN + Backhaul").replace(split_ratios=(0.5, 0.25, 0.25)),
    )


@pytest.mark.parametrize("value", [0.05, 1 / 3, 0.5, 0.95])
def test_split_point_configurations_keep_every_field(value):
    configs = _split_point_configs()
    for config, got in zip(configs, _split_configs(configs, value)):
        rest = (1.0 - value) / (config.operator_count - 1)
        expected = config.replace(split_ratios=(value,) + (rest,) * (config.operator_count - 1))
        for name in SharingConfiguration._fields:
            assert getattr(got, name) == getattr(expected, name), name
        assert got == expected


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_split_point_configurations_refuse_invalid_splits(value):
    with pytest.raises(InvalidSweepParameter):
        _split_configs(_split_point_configs(), value)


# ---------------------------------------------------------------------------
# settled work: one grid per intl_shared flag, one validation per scenario
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_sweep_equals_the_rebuilt_scenario_field_for_field(seed):
    scenario = _random_scenario(random.Random(200 + seed))
    specs = (
        SweepSpec("split_ratio", 0.1, 0.9, 5),
        SweepSpec("horizon_years", 1, 9, 5),
        SweepSpec("intl_shared", 0.0, 1.0, 6),
        SweepSpec("class_cost_fraction", 0.1, 0.5, 4, class_name=_rescalable_class(scenario).value),
    )
    for spec in specs:
        for point in sweep(scenario.replace(sweep=spec)).points:
            expected = run_scenario(_swept_scenario(scenario, spec, point.value))
            for name in type(expected)._fields:
                assert getattr(point.result, name) == getattr(expected, name), (spec, name)


def test_intl_points_with_one_flag_share_one_result():
    scenario = _random_scenario(random.Random(7))
    points = sweep(scenario.replace(sweep=SweepSpec("intl_shared", 0.0, 1.0, 7))).points
    by_flag = {}
    for point in points:
        result = by_flag.setdefault(_intl_flag(point.value), point.result)
        assert point.result is result
    assert set(by_flag) == {False, True} and by_flag[False] is not by_flag[True]


def test_intl_sweep_below_one_half_evaluates_only_the_unshared_grid(monkeypatch):
    import netshare.scenario as scenario_module

    grids = []
    evaluate = scenario_module._evaluate

    def counting(scenario, horizon, baselines, configs, factors):
        grids.append(tuple(config.intl_shared for config in configs))
        return evaluate(scenario, horizon, baselines, configs, factors)

    monkeypatch.setattr(scenario_module, "_evaluate", counting)
    scenario = _random_scenario(random.Random(8))
    result = sweep(scenario.replace(sweep=SweepSpec("intl_shared", 0.0, 0.45, 10)))
    assert len(result.points) == 10
    assert grids == [(False,) * len(scenario.configurations)]


def test_a_loaded_scenario_is_validated_once(monkeypatch):
    import netshare.scenario as scenario_module

    validated = []
    validate = scenario_module.validate_configuration

    def counting(config, policy=None):
        validated.append(config.name)
        return validate(config, policy)

    spec = {"parameter": "split_ratio", "from": 0.2, "to": 0.8, "steps": 4}
    document = _document(configurations=["MOCN", "GWCN"], sweep=spec)
    intl = load_scenario(document).replace(sweep=SweepSpec("intl_shared", 0.0, 1.0, 3))
    monkeypatch.setattr(scenario_module, "validate_configuration", counting)
    scenario = load_scenario(document)
    run_scenario(scenario)
    sweep(scenario)
    sweep(intl)
    run_scenario(scenario)
    assert validated == ["MOCN", "GWCN"]


def test_an_invalid_scenario_fails_on_every_call():
    core_without_rnc = SharingConfiguration(name="core", shared=(ElementClass.CORE_SGSN,))
    fields = dict(
        name="direct",
        areas=(AreaKind.URBAN,),
        cost_tables={AreaKind.URBAN: reference_cost_table(AreaKind.URBAN)},
        configurations=(preset("MOCN"), core_without_rnc),
    )
    for _ in range(2):
        with pytest.raises(InvalidScenario, match="core: GwcnWithoutRan") as caught:
            Scenario(**fields)
        assert [report.codes()[0] for report in caught.value.reports] == ["GwcnWithoutRan"]
    valid = Scenario(**dict(fields, configurations=(preset("MOCN"),)))
    with pytest.raises(InvalidScenario, match="core: GwcnWithoutRan") as caught:
        valid.replace(configurations=fields["configurations"])
    assert [report.codes()[0] for report in caught.value.reports] == ["GwcnWithoutRan"]


def test_a_loaded_configuration_is_a_hashable_value_of_tuples():
    """A configuration holds only tuples, so it cannot change after its scenario is checked."""
    scenario, twin = load_scenario_file(USE_CASE), load_scenario_file(USE_CASE)
    config = scenario.configurations[0]
    assert config.shared == preset("MOCN").shared
    assert type(config.shared) is tuple and type(config.split_ratios) is tuple
    assert hash(config) == hash(twin.configurations[0])
    assert all(report.valid for report in scenario.validation_reports().values())
    result = run_scenario(scenario)
    assert result == run_scenario(twin) and hash(result) == hash(run_scenario(twin))
    assert hash(result.cells[0]) == hash(run_scenario(twin).cells[0])
    assert copy.deepcopy(config) == config == pickle.loads(pickle.dumps(config))
