"""Cumulative costs, the sharing rule, savings reports and deltas."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshare import (
    AreaKind,
    CostTable,
    ElementClass,
    SharingConfiguration,
    apply_sharing,
    config_delta,
    cumulative_cost,
    preset,
    reference_cost_table,
    savings_report,
)
from netshare.errors import (
    AreaMismatch,
    HorizonMismatch,
    InvalidHorizon,
    InvalidOperatorIndex,
    ZeroBaseline,
)

from conftest import oracle_pcts, random_config, random_cost_table


def _single_class_table(capex=100.0, opex=0.0, cls=ElementClass.NODEB):
    return CostTable(area=AreaKind.URBAN, entries={cls: (capex, opex)})


def _at(amounts, cls):
    """The amount of ``cls`` in a breakdown's ``capex`` or ``opex`` tuple."""
    return amounts[list(ElementClass).index(cls)]


def _full_report(table, config, horizon=5, index=0):
    baseline = cumulative_cost(table, horizon)
    mine = apply_sharing(baseline, config, index)
    return savings_report(baseline, mine, config)


# ---------------------------------------------------------------------------
# cumulative cost
# ---------------------------------------------------------------------------


def test_opex_accumulates_over_the_horizon():
    table = _single_class_table(capex=0.0, opex=7.0)
    breakdown = cumulative_cost(table, 5)
    assert _at(breakdown.opex, ElementClass.NODEB) == pytest.approx(35.0)
    assert breakdown.opex_cumulative_total() == pytest.approx(35.0)


def test_capex_counts_once():
    table = _single_class_table(capex=100.0, opex=10.0)
    year1 = cumulative_cost(table, 1)
    year9 = cumulative_cost(table, 9)
    assert year1.capex_total() == year9.capex_total() == 100.0
    assert year9.grand_total() == pytest.approx(100.0 + 90.0)


def test_zero_table_accumulates_to_zero():
    table = CostTable(area=AreaKind.RURAL, entries={})
    breakdown = cumulative_cost(table, 5)
    assert breakdown.grand_total() == 0.0


def test_bad_horizons_are_rejected():
    table = _single_class_table()
    for horizon in (0, -1, 2.5, True):
        with pytest.raises(InvalidHorizon):
            cumulative_cost(table, horizon)


def test_reference_grand_total_matches_hand_summation():
    table = reference_cost_table(AreaKind.URBAN)
    breakdown = cumulative_cost(table, 5)
    by_hand = sum(
        entry.capex + 5 * entry.opex_annual for entry in table.entries.values()
    )
    assert breakdown.grand_total() == pytest.approx(by_hand, rel=1e-12)


def test_breakdown_totals_equal_per_class_sums():
    rng = random.Random(7)
    for _ in range(50):
        breakdown = cumulative_cost(random_cost_table(rng), rng.randint(1, 12))
        assert breakdown.grand_total() == pytest.approx(
            breakdown.capex_total() + breakdown.opex_cumulative_total(), rel=1e-9
        )


# ---------------------------------------------------------------------------
# the sharing rule
# ---------------------------------------------------------------------------


def test_two_operators_at_half_pay_half():
    table = _single_class_table(capex=100.0)
    baseline = cumulative_cost(table, 5)
    mine = apply_sharing(baseline, preset("MOCN"))  # NodeB shared
    assert _at(mine.capex, ElementClass.NODEB) == pytest.approx(50.0)


def test_nothing_shared_is_the_identity():
    rng = random.Random(1)
    table = random_cost_table(rng)
    baseline = cumulative_cost(table, 5)
    config = SharingConfiguration(name="solo")
    mine = apply_sharing(baseline, config)
    for cls in ElementClass:
        assert _at(mine.capex, cls) == _at(baseline.capex, cls)
        assert _at(mine.opex, cls) == _at(baseline.opex, cls)


def test_three_way_split_leaves_a_third_each():
    table = _single_class_table(capex=90.0)
    baseline = cumulative_cost(table, 5)
    config = preset("MOCN").replace(split_ratios=(1.0 / 3,) * 3)
    for index in range(3):
        mine = apply_sharing(baseline, config, index)
        assert _at(mine.capex, ElementClass.NODEB) == pytest.approx(30.0)
    report = savings_report(baseline, apply_sharing(baseline, config, 0), config)
    assert report.capex_saving_pct == pytest.approx(100.0 * 2.0 / 3.0)


def test_operator_index_bounds():
    baseline = cumulative_cost(_single_class_table(), 5)
    config = preset("MOCN")
    for index in (-1, 2, 0.5):
        with pytest.raises(InvalidOperatorIndex):
            apply_sharing(baseline, config, index)


@pytest.mark.parametrize("index", [True, False])
def test_a_bool_operator_index_is_refused(index):
    # A bool is an int, so True would read operator 1's share; check_horizon refuses bools too.
    config = preset("MOCN").replace(split_ratios=(0.25, 0.75))
    with pytest.raises(InvalidOperatorIndex, match=f"operator_index {index!r} out of range"):
        apply_sharing(cumulative_cost(_single_class_table(), 5), config, index)


def test_intl_flag_shares_the_international_link():
    table = _single_class_table(capex=0.0, opex=10.0, cls=ElementClass.INTERNATIONAL_CONNECTIVITY)
    baseline = cumulative_cost(table, 5)
    plain = preset("MOCN")
    wired = preset("MOCN").replace(intl_shared=True)
    intl = ElementClass.INTERNATIONAL_CONNECTIVITY
    assert _at(apply_sharing(baseline, plain).opex, intl) == pytest.approx(50.0)
    assert _at(apply_sharing(baseline, wired).opex, intl) == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# savings reports
# ---------------------------------------------------------------------------


def test_halved_grand_total_is_fifty_percent():
    entries = {cls: (100.0, 20.0) for cls in ElementClass}
    table = CostTable(area=AreaKind.URBAN, entries=entries)
    baseline = cumulative_cost(table, 5)
    config = SharingConfiguration(name="everything", shared=ElementClass)
    report = savings_report(baseline, apply_sharing(baseline, config), config)
    assert report.total_saving_pct == pytest.approx(50.0)
    assert report.capex_saving_pct == pytest.approx(50.0)
    assert report.opex_saving_pct == pytest.approx(50.0)


def test_identical_breakdowns_save_nothing():
    baseline = cumulative_cost(_single_class_table(), 5)
    config = SharingConfiguration(name="solo")
    report = savings_report(baseline, apply_sharing(baseline, config), config)
    assert report.total_saving_pct == 0.0


def test_zero_baseline_is_rejected():
    empty = cumulative_cost(CostTable(area=AreaKind.URBAN, entries={}), 5)
    with pytest.raises(ZeroBaseline):
        savings_report(empty, empty, preset("MOCN"))


def test_mismatched_horizons_are_rejected():
    table = _single_class_table()
    config = preset("MOCN")
    a = cumulative_cost(table, 5)
    b = apply_sharing(cumulative_cost(table, 3), config)
    with pytest.raises(HorizonMismatch):
        savings_report(a, b, config)


def test_breakdowns_of_different_areas_are_rejected():
    config = preset("MOCN")
    urban = cumulative_cost(_single_class_table(), 5)
    rural_table = CostTable(area=AreaKind.RURAL, entries={ElementClass.NODEB: (100.0, 0.0)})
    rural = apply_sharing(cumulative_cost(rural_table, 5), config)
    with pytest.raises(AreaMismatch, match="^baseline area urban, shared area rural$"):
        savings_report(urban, rural, config)


def test_flagship_configuration_near_published_total():
    table = reference_cost_table(AreaKind.URBAN)
    report = _full_report(table, preset("GWCN + Backhaul"))
    assert report.total_saving_pct == pytest.approx(27.12, abs=2.0)


def test_savings_never_negative_under_the_model():
    rng = random.Random(29)
    for _ in range(500):
        report = _full_report(random_cost_table(rng), random_config(rng), 5)
        assert report.capex_saving_pct >= 0.0
        assert report.opex_saving_pct >= 0.0
        assert report.total_saving_pct >= 0.0


_REPORT_ATTRIBUTES = (
    "configuration",
    "area",
    "horizon_years",
    "capex_saving_pct",
    "opex_saving_pct",
    "total_saving_pct",
    "baseline",
    "sharing",
)


@pytest.mark.parametrize("name", _REPORT_ATTRIBUTES)
def test_savings_report_attributes_cannot_be_assigned(name):
    report = _full_report(reference_cost_table(AreaKind.URBAN), preset("MOCN"))
    before = getattr(report, name)
    with pytest.raises(AttributeError):
        setattr(report, name, before)
    assert getattr(report, name) == before


def test_savings_reports_compare_by_value():
    table = reference_cost_table(AreaKind.SUBURBAN)
    report = _full_report(table, preset("GWCN"))
    assert report == _full_report(reference_cost_table(AreaKind.SUBURBAN), preset("GWCN"))
    other_baseline = cumulative_cost(table, 6)
    variants = [
        report.replace(capex_saving_pct=report.capex_saving_pct + 1.0),
        report.replace(opex_saving_pct=report.opex_saving_pct + 1.0),
        report.replace(total_saving_pct=report.total_saving_pct + 1.0),
        report.replace(baseline=other_baseline),
        report.replace(sharing=preset("GWCN").replace(couple_site_costs=True)),
        _full_report(table, preset("GWCN"), horizon=6),
    ]
    for variant in variants:
        assert variant != report


def test_savings_report_reads_its_cell_from_baseline_and_configuration():
    rng = random.Random(37)
    for index in range(40):
        horizon = rng.randint(1, 15)
        area = rng.choice(tuple(AreaKind))
        config = random_config(rng, name=f"cell-{index}")
        report = _full_report(random_cost_table(rng, area), config, horizon)
        assert report.configuration == report.sharing.name == f"cell-{index}"
        assert report.area is report.baseline.area is area
        assert report.horizon_years == report.baseline.horizon_years == horizon
        assert report.to_json_dict()["configuration"] == config.name


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_closed_form_for_equal_two_way_split():
    # total saving = 50 x sum of shared grand-total fractions
    rng = random.Random(41)
    for _ in range(200):
        table = random_cost_table(rng)
        config = random_config(rng, operator_count=2, equal_split=True)
        baseline = cumulative_cost(table, 5)
        grand = baseline.grand_total()
        shared = [c for c, flag in zip(ElementClass, config.shared_mask()) if flag]
        shared_fraction = (
            sum(_at(baseline.capex, c) + _at(baseline.opex, c) for c in shared) / grand
            if grand
            else 0.0
        )
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        assert report.total_saving_pct == pytest.approx(50.0 * shared_fraction, abs=1e-9)


def test_decomposition_weights_ledgers_by_grand_share():
    rng = random.Random(43)
    for _ in range(200):
        table = random_cost_table(rng)
        config = random_config(rng)
        baseline = cumulative_cost(table, 5)
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        grand = baseline.grand_total()
        weighted = (
            report.capex_saving_pct * baseline.capex_total()
            + report.opex_saving_pct * baseline.opex_cumulative_total()
        ) / grand
        assert report.total_saving_pct == pytest.approx(weighted, rel=1e-9, abs=1e-9)


def test_core_pooling_beats_ran_only_exactly_when_core_costs():
    rng = random.Random(47)
    for _ in range(100):
        table = random_cost_table(rng)
        ran_only = _full_report(table, preset("MOCN + Backhaul"))
        pooled = _full_report(table, preset("GWCN + Backhaul"))
        sgsn = table.entries[ElementClass.CORE_SGSN]
        if sgsn.capex + sgsn.opex_annual > 0:
            assert pooled.total_saving_pct > ran_only.total_saving_pct
        else:
            assert pooled.total_saving_pct == pytest.approx(
                ran_only.total_saving_pct, abs=1e-12
            )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    capex=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    opex=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    horizon=st.integers(min_value=1, max_value=30),
)
def test_oracle_agreement_on_two_class_tables(capex, opex, horizon):
    table = CostTable(
        area=AreaKind.URBAN,
        entries={ElementClass.NODEB: (capex, 0.0), ElementClass.OAM: (0.0, opex)},
    )
    if not table.is_usable():
        return
    config = preset("MOCN")
    report = _full_report(table, config, horizon)
    expected = oracle_pcts(table, config, horizon)
    assert report.capex_saving_pct == pytest.approx(expected[0], abs=1e-9)
    assert report.opex_saving_pct == pytest.approx(expected[1], abs=1e-9)
    assert report.total_saving_pct == pytest.approx(expected[2], abs=1e-9)


# ---------------------------------------------------------------------------
# deltas
# ---------------------------------------------------------------------------


def test_delta_against_itself_is_zero():
    table = reference_cost_table(AreaKind.SUBURBAN)
    report = _full_report(table, preset("MOCN"))
    delta = config_delta(report, report)
    assert delta.total_delta_pp == 0.0
    assert delta.capex_delta_pp == 0.0


def test_rural_spectrum_delta_band():
    table = reference_cost_table(AreaKind.RURAL)
    pooled = _full_report(table, preset("GWCN + Backhaul"))
    dedicated = _full_report(table, preset("GWCN - Spectrum"))
    delta = config_delta(pooled, dedicated)
    assert 0.3 <= delta.total_delta_pp <= 1.2


def test_urban_core_delta_band():
    table = reference_cost_table(AreaKind.URBAN)
    pooled = _full_report(table, preset("GWCN + Backhaul"))
    ran_only = _full_report(table, preset("MOCN + Backhaul"))
    delta = config_delta(pooled, ran_only)
    assert 1.0 <= delta.total_delta_pp <= 2.5


def test_delta_requires_matching_area_and_horizon():
    urban = _full_report(reference_cost_table(AreaKind.URBAN), preset("MOCN"))
    rural = _full_report(reference_cost_table(AreaKind.RURAL), preset("MOCN"))
    with pytest.raises(AreaMismatch):
        config_delta(urban, rural)
    shorter = _full_report(reference_cost_table(AreaKind.URBAN), preset("MOCN"), horizon=3)
    with pytest.raises(HorizonMismatch):
        config_delta(urban, shorter)


def test_savings_report_keeps_its_value_behaviour():
    report = _full_report(reference_cost_table(AreaKind.RURAL), preset("GWCN + Backhaul"))
    names = ("capex_saving_pct", "opex_saving_pct", "total_saving_pct", "baseline", "sharing")
    assert type(report)._fields == names
    assert repr(report) == "SavingsReport(" + ", ".join(
        f"{name}={getattr(report, name)!r}" for name in names
    ) + ")"
    # Positional and keyword construction agree.
    values = [getattr(report, name) for name in names]
    twin = type(report)(*values)
    assert twin == type(report)(**dict(zip(names, values))) == report.replace()
    assert twin == report and repr(twin) == repr(report)
    assert twin != report.replace(total_saving_pct=0.0)
    # Every field is a tuple, a number or an enum, so a report hashes by its fields.
    assert hash(twin) == hash(report) == hash(report.replace())
    with pytest.raises(AttributeError, match="cannot assign to field 'capex_saving_pct'"):
        report.capex_saving_pct = 0.0
