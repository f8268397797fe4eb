"""Acceptance suite: one test per release criterion.

Criteria 1-6 check the committed reference tables against the published
savings bands.  Criteria 7-13 are structural properties on randomized
inputs.  Criterion 14 is the standing calibration regression.  The summary
hook in conftest prints one PASS/FAIL line per criterion.
"""

import json
import random
import time

import pytest

from netshare import (
    AreaKind,
    CALIBRATION_CONSTRAINTS,
    ElementClass,
    LteContext,
    Market,
    SharingConfiguration,
    Technology,
    USE_CASE_CONSTRAINTS,
    Verdict,
    apply_sharing,
    check_repartition,
    compare_lte,
    config_delta,
    cumulative_cost,
    default_market_costs,
    load_scenario_file,
    preset,
    recommend,
    reference_cost_table,
    run_scenario,
    savings_report,
)
from netshare.cli import main
from netshare.scenario import fixture_dir

from conftest import oracle_pcts, random_config, random_cost_table

USE_CASE = "paper_use_case.json"
GRID_PRESETS = (
    "MOCN",
    "MOCN + Backhaul",
    "MOCN - Spectrum",
    "GWCN",
    "GWCN + Backhaul",
    "GWCN - Spectrum",
)


@pytest.fixture(scope="module")
def grid():
    return run_scenario(load_scenario_file(USE_CASE))


def _pcts(grid, area, metric):
    return [getattr(grid.report(area, name), metric) for name in GRID_PRESETS]


# ---------------------------------------------------------------------------
# quantitative criteria on the committed reference tables
# ---------------------------------------------------------------------------


def test_criterion_01_urban_flagship_total_under_one_second():
    started = time.perf_counter()
    table = reference_cost_table(AreaKind.URBAN)
    config = preset("GWCN + Backhaul")
    baseline = cumulative_cost(table, 5)
    report = savings_report(baseline, apply_sharing(baseline, config), config)
    elapsed = time.perf_counter() - started
    assert report.total_saving_pct == pytest.approx(27.12, abs=2.0)
    assert elapsed < 1.0


def test_criterion_02_urban_capex_span_and_opex_band(grid):
    capex = _pcts(grid, AreaKind.URBAN, "capex_saving_pct")
    opex = _pcts(grid, AreaKind.URBAN, "opex_saving_pct")
    assert all(23.0 <= pct <= 50.0 for pct in capex), capex
    assert max(capex) - min(capex) >= 15.0
    assert all(14.0 <= pct <= 20.0 for pct in opex), opex


def test_criterion_03_suburban_totals_deltas_and_opex(grid):
    flagship = grid.report(AreaKind.SUBURBAN, "GWCN + Backhaul")
    assert flagship.total_saving_pct == pytest.approx(25.0, abs=2.0)

    ran_only = grid.report(AreaKind.SUBURBAN, "MOCN + Backhaul")
    core_delta = config_delta(flagship, ran_only).total_delta_pp
    assert 1.0 <= core_delta <= 2.9

    dedicated = grid.report(AreaKind.SUBURBAN, "GWCN - Spectrum")
    spectrum_delta = config_delta(flagship, dedicated).total_delta_pp
    assert 0.3 <= spectrum_delta <= 2.0

    opex = _pcts(grid, AreaKind.SUBURBAN, "opex_saving_pct")
    assert all(13.0 <= pct <= 18.0 for pct in opex), opex


def test_criterion_04_rural_bands_and_spectrum_delta(grid):
    capex = _pcts(grid, AreaKind.RURAL, "capex_saving_pct")
    opex = _pcts(grid, AreaKind.RURAL, "opex_saving_pct")
    assert all(27.4 <= pct <= 50.6 for pct in capex), capex
    assert all(16.5 <= pct <= 21.9 for pct in opex), opex

    flagship = grid.report(AreaKind.RURAL, "GWCN + Backhaul")
    dedicated = grid.report(AreaKind.RURAL, "GWCN - Spectrum")
    delta = config_delta(flagship, dedicated).total_delta_pp
    assert 0.2 <= delta <= 1.5


def test_criterion_05_core_and_backhaul_pooling_wins_everywhere(grid):
    for area in (AreaKind.URBAN, AreaKind.SUBURBAN, AreaKind.RURAL):
        best = grid.best_configuration(area)
        assert best.configuration == "GWCN + Backhaul", (area, best.configuration)


def test_criterion_06_emerging_market_coarse_bands():
    table = default_market_costs(Market.EMERGING)
    baseline = cumulative_cost(table, 5)

    site_antenna = preset("SiteAntenna")
    report = savings_report(baseline, apply_sharing(baseline, site_antenna), site_antenna)
    assert 20.0 <= report.capex_saving_pct <= 30.0

    ran = preset("MOCN")
    report = savings_report(baseline, apply_sharing(baseline, ran), ran)
    assert 25.0 <= report.capex_saving_pct <= 45.0


# ---------------------------------------------------------------------------
# structural properties on randomized inputs
# ---------------------------------------------------------------------------


def test_criterion_07_savings_match_brute_force_oracle():
    rng = random.Random(1007)
    for _ in range(1000):
        table = random_cost_table(rng)
        config = random_config(rng)
        horizon = rng.randint(1, 10)
        index = rng.randrange(config.operator_count)
        baseline = cumulative_cost(table, horizon)
        report = savings_report(baseline, apply_sharing(baseline, config, index), config)
        expected = oracle_pcts(table, config, horizon, index)
        assert report.capex_saving_pct == pytest.approx(expected[0], rel=1e-9, abs=1e-9)
        assert report.opex_saving_pct == pytest.approx(expected[1], rel=1e-9, abs=1e-9)
        assert report.total_saving_pct == pytest.approx(expected[2], rel=1e-9, abs=1e-9)


def test_criterion_08_sharing_more_never_saves_less():
    rng = random.Random(1008)
    trials = 0
    while trials < 10_000:
        table = random_cost_table(rng)
        baseline = cumulative_cost(table, rng.randint(1, 8))
        operator_count = rng.choice((2, 3, 4))
        split = (1.0 / operator_count,) * operator_count
        intl = rng.random() < 0.3
        couple = rng.random() < 0.3
        for _ in range(20):
            superset = [cls for cls in ElementClass if rng.random() < 0.5]
            subset = [cls for cls in superset if rng.random() < 0.7]
            small = SharingConfiguration(
                name="small",
                shared=subset,
                split_ratios=split,
                intl_shared=intl,
                couple_site_costs=couple,
            )
            large = SharingConfiguration(
                name="large",
                shared=superset,
                split_ratios=split,
                intl_shared=intl,
                couple_site_costs=couple,
            )
            small_report = savings_report(
                baseline, apply_sharing(baseline, small), small
            )
            large_report = savings_report(
                baseline, apply_sharing(baseline, large), large
            )
            assert large_report.capex_saving_pct >= small_report.capex_saving_pct - 1e-12
            assert large_report.opex_saving_pct >= small_report.opex_saving_pct - 1e-12
            assert large_report.total_saving_pct >= small_report.total_saving_pct - 1e-12
            trials += 1


def test_criterion_09_even_split_caps_savings_at_half():
    rng = random.Random(1009)
    for _ in range(2000):
        table = random_cost_table(rng)
        config = random_config(rng, operator_count=2, equal_split=True)
        baseline = cumulative_cost(table, rng.randint(1, 8))
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        assert report.capex_saving_pct <= 50.0 + 1e-9
        assert report.opex_saving_pct <= 50.0 + 1e-9
        assert report.total_saving_pct <= 50.0 + 1e-9


def test_criterion_10_grid_presets_match_hard_coded_matrix():
    matrix_rows = (
        ElementClass.PASSIVE_SITE,
        ElementClass.NODEB,
        ElementClass.RNC,
        ElementClass.BACKHAUL,
        ElementClass.SPECTRUM_LICENSE,
        ElementClass.CORE_SGSN,
    )
    expected = {
        "MOCN": (True, True, True, False, True, False),
        "MOCN + Backhaul": (True, True, True, True, True, False),
        "MOCN - Spectrum": (True, True, True, True, False, False),
        "GWCN": (True, True, True, False, True, True),
        "GWCN + Backhaul": (True, True, True, True, True, True),
        "GWCN - Spectrum": (True, True, True, True, False, True),
    }
    checked = 0
    for name, flags in expected.items():
        config = preset(name)
        for cls, flag in zip(matrix_rows, flags):
            assert (cls in config.shared) is flag, (name, cls)
            checked += 1
        assert set(config.shared) <= set(matrix_rows), name
    assert checked == 36


def test_criterion_11_savings_are_scale_invariant():
    rng = random.Random(1011)
    for _ in range(200):
        table = random_cost_table(rng)
        config = random_config(rng)
        horizon = rng.randint(1, 8)
        baseline = cumulative_cost(table, horizon)
        reference = savings_report(baseline, apply_sharing(baseline, config), config)
        for factor in (1e-3, 1.0, 1e6):
            scaled = cumulative_cost(table.scaled(factor), horizon)
            report = savings_report(scaled, apply_sharing(scaled, config), config)
            assert report.capex_saving_pct == pytest.approx(
                reference.capex_saving_pct, rel=1e-9, abs=1e-9
            )
            assert report.opex_saving_pct == pytest.approx(
                reference.opex_saving_pct, rel=1e-9, abs=1e-9
            )
            assert report.total_saving_pct == pytest.approx(
                reference.total_saving_pct, rel=1e-9, abs=1e-9
            )


def test_criterion_12_advisor_tables_and_monotone_cost_weight():
    verdicts = {
        (AreaKind.RURAL, Technology.G2): Verdict.STRONGLY_RECOMMENDED,
        (AreaKind.RURAL, Technology.G3): Verdict.STRONGLY_RECOMMENDED,
        (AreaKind.SUBURBAN, Technology.G2): Verdict.CASE_BY_CASE,
        (AreaKind.SUBURBAN, Technology.G3): Verdict.CASE_BY_CASE,
        (AreaKind.URBAN, Technology.G2): Verdict.NOT_RECOMMENDED,
        (AreaKind.URBAN, Technology.G3): Verdict.CASE_BY_CASE,
    }
    for (area, tech), verdict in verdicts.items():
        assert recommend(area, tech).verdict is verdict

    rows = {r.criterion: (r.mocn, r.gwcn) for r in compare_lte(LteContext()).rows}
    assert rows == {
        "internetworking_with_legacy": ("+", "-"),
        "cs_fallback": ("+", "-"),
        "ims_voice": ("=", "="),
        "roaming": ("+", "-"),
        "cost": ("-", "+"),
    }

    ctx_flags = dict(
        needs_inter_rat_mobility=True,
        needs_cs_fallback=False,
        voice_via_ims=True,
        needs_roaming=True,
    )
    previous = None
    for step in range(11):
        report = compare_lte(LteContext(cost_priority_weight=step / 10.0, **ctx_flags))
        margin = report.gwcn_score - report.mocn_score
        if previous is not None:
            assert margin >= previous - 1e-12
        previous = margin


def test_criterion_13_scenario_csv_is_byte_identical(capsys):
    assert main(["run", USE_CASE, "--format", "csv"]) == 0
    first = capsys.readouterr().out.encode()
    assert main(["run", USE_CASE, "--format", "csv"]) == 0
    second = capsys.readouterr().out.encode()
    assert first == second
    assert main(["run", USE_CASE, "--format", "json", "--no-provenance"]) == 0
    third = capsys.readouterr().out.encode()
    assert main(["run", USE_CASE, "--format", "json", "--no-provenance"]) == 0
    fourth = capsys.readouterr().out.encode()
    assert third == fourth


def test_criterion_14_committed_tables_reverify_their_record():
    record = json.loads(
        (fixture_dir() / "reference_calibration.json").read_text(encoding="utf-8")
    )
    assert record["seed"] == 0
    assert record["method"]
    horizon = record["horizon_years"]

    tables = {kind: reference_cost_table(kind) for kind in AreaKind}

    # calibration constraints hold on every committed table
    for kind, table in tables.items():
        report = check_repartition(table, CALIBRATION_CONSTRAINTS)
        assert report.overall, [
            (c.constraint.label, c.observed) for c in report.failures()
        ]

    # recorded residuals are within bound and reproducible through the model
    configs = {name: preset(name) for name in GRID_PRESETS}

    def metric(kind, configuration, name):
        baseline = cumulative_cost(tables[kind], horizon)
        config = configs[configuration]
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        return getattr(report, f"{name}_saving_pct")

    for target in record["targets"]:
        assert abs(target["residual"]) <= target["bound"], target
        kind = AreaKind(target["area"])
        if target["kind"] == "saving":
            achieved = metric(kind, target["configuration"], target["metric"])
        else:
            achieved = metric(kind, target["first"], target["metric"]) - metric(
                kind, target["second"], target["metric"]
            )
        assert achieved == pytest.approx(target["achieved"], abs=1e-6)
        assert achieved - target["value"] == pytest.approx(target["residual"], abs=1e-6)

    # the recorded misses against the use-case envelope still hold
    for kind, table in tables.items():
        observed_failures = {
            check.constraint.label
            for check in check_repartition(table, USE_CASE_CONSTRAINTS).failures()
        }
        recorded = {entry["label"] for entry in record["default_envelope_failures"][kind.value]}
        assert observed_failures == recorded, (kind, observed_failures, recorded)
