"""Element classes, cost tables, area profiles and repartition constraints."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netshare
from netshare import (
    AreaKind,
    CostTable,
    ElementClass,
    Ledger,
    Market,
    RepartitionConstraint,
    RepartitionConstraintSet,
    USE_CASE_CONSTRAINTS,
    build_inventory,
    check_repartition,
    default_constraints,
    default_market_costs,
    default_profile,
)
from netshare.errors import (
    InvalidAmount,
    MissingCostEntry,
    ZeroTotalLedger,
)
from netshare.inventory import (
    CORE_CLASSES,
    CostEntry,
    OVERHEAD_CLASSES,
    RAN_CLASSES,
    TRANSPORT_CLASSES,
    element_quantity,
)

from conftest import random_cost_table

SRC = str(Path(netshare.__file__).resolve().parents[1])


# ---------------------------------------------------------------------------
# element classes
# ---------------------------------------------------------------------------


def test_element_class_is_closed_with_thirteen_members():
    assert len(ElementClass) == 13
    labels = {cls.value for cls in ElementClass}
    assert labels == {
        "passive_site",
        "antenna",
        "nodeb",
        "rnc",
        "backhaul",
        "core_sgsn",
        "core_ggsn",
        "oam",
        "spectrum_license",
        "international_connectivity",
        "site_rent",
        "power",
        "staff",
    }


def test_class_groups_partition_the_enumeration():
    groups = (RAN_CLASSES, TRANSPORT_CLASSES, CORE_CLASSES, OVERHEAD_CLASSES)
    union = set().union(*groups)
    assert union == set(ElementClass)
    total = sum(len(g) for g in groups)
    assert total == len(ElementClass)  # pairwise disjoint
    assert RAN_CLASSES == {
        ElementClass.PASSIVE_SITE,
        ElementClass.ANTENNA,
        ElementClass.NODEB,
        ElementClass.RNC,
    }
    assert TRANSPORT_CLASSES == {
        ElementClass.BACKHAUL,
        ElementClass.INTERNATIONAL_CONNECTIVITY,
    }
    assert CORE_CLASSES == {ElementClass.CORE_SGSN, ElementClass.CORE_GGSN}


# ---------------------------------------------------------------------------
# cost tables
# ---------------------------------------------------------------------------


def test_cost_table_rejects_negative_and_non_finite_amounts():
    with pytest.raises(InvalidAmount):
        CostTable(area=AreaKind.URBAN, entries={ElementClass.NODEB: (-1.0, 0.0)})
    with pytest.raises(InvalidAmount):
        CostTable(area=AreaKind.URBAN, entries={ElementClass.NODEB: (float("nan"), 0.0)})
    with pytest.raises(InvalidAmount):
        CostTable(area=AreaKind.URBAN, entries={ElementClass.NODEB: (0.0, float("inf"))})


def test_cost_table_fills_missing_classes_with_zero():
    table = CostTable(area=AreaKind.RURAL, entries={ElementClass.NODEB: (10.0, 2.0)})
    assert set(table.entries) == set(ElementClass)
    assert table.entries[ElementClass.STAFF].capex == 0.0
    assert table.capex_total() == 10.0
    assert table.opex_annual_total() == 2.0


def test_all_zero_table_is_flagged_unusable():
    table = CostTable(area=AreaKind.URBAN, entries={})
    assert not table.is_usable()
    assert table.capex_total() == 0.0


def test_fractions_sum_to_one_when_total_positive():
    rng = random.Random(11)
    for _ in range(50):
        table = random_cost_table(rng)
        for ledger in (Ledger.CAPEX, Ledger.OPEX):
            if table.ledger_total(ledger) > 0:
                total = sum(table.fractions(ledger).values())
                assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    amounts=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=13, max_size=13
    ),
    factor=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_scaling_preserves_fractions(amounts, factor):
    entries = {cls: (amt, amt / 2.0) for cls, amt in zip(ElementClass, amounts)}
    table = CostTable(area=AreaKind.URBAN, entries=entries)
    if not table.is_usable():
        return
    scaled = table.scaled(factor)
    for ledger in (Ledger.CAPEX, Ledger.OPEX):
        if table.ledger_total(ledger) == 0:
            continue
        before = table.fractions(ledger)
        after = scaled.fractions(ledger)
        for cls in ElementClass:
            assert after[cls] == pytest.approx(before[cls], rel=1e-9, abs=1e-12)


def test_cost_table_json_round_trip():
    rng = random.Random(5)
    table = random_cost_table(rng, AreaKind.SUBURBAN)
    doc = json.loads(table.to_json())
    back = CostTable.from_json_dict(doc)
    assert back.area is table.area
    for cls in ElementClass:
        assert back.entries[cls] == table.entries[cls]


def test_an_entry_given_integers_writes_what_a_document_reads_back():
    built = CostTable(AreaKind.URBAN, {ElementClass.NODEB: CostEntry(1, 2)})
    paired = CostTable(AreaKind.URBAN, {ElementClass.NODEB: (1, 2)})
    read = CostTable.from_json_dict(json.loads(built.to_json()))
    assert built.to_json() == paired.to_json() == read.to_json()
    assert repr(built) == repr(paired) == repr(read)


def test_cost_table_document_rejects_unknown_keys():
    doc = {"area": "urban", "entries": {}, "comment": "oops"}
    with pytest.raises(InvalidAmount, match="comment"):
        CostTable.from_json_dict(doc)
    with pytest.raises(InvalidAmount, match="enodeb"):
        CostTable.from_json_dict(
            {"area": "urban", "entries": {"enodeb": {"capex": 1, "opex_annual": 0}}}
        )


def test_cost_table_names_unknown_keys_of_types_that_do_not_compare():
    entry = CostEntry(1.0, 2.0)
    with pytest.raises(InvalidAmount, match=r"in cost table: \['nodeb', 3\]$"):
        CostTable(AreaKind.URBAN, {"nodeb": entry, 3: entry})


# ---------------------------------------------------------------------------
# area profiles and inventory building
# ---------------------------------------------------------------------------


def test_default_profiles_match_published_footprint():
    expected = {AreaKind.URBAN: 78, AreaKind.SUBURBAN: 58, AreaKind.RURAL: 108}
    for kind, nodebs in expected.items():
        profile = default_profile(kind)
        assert profile.nodeb_count == nodebs
        assert profile.rnc_count == 1
        assert profile.sgsn_count == 1
        assert profile.ggsn_count == 1


_SCALED = (
    ElementClass.NODEB,
    ElementClass.RNC,
    ElementClass.CORE_SGSN,
    ElementClass.CORE_GGSN,
    ElementClass.PASSIVE_SITE,
    ElementClass.ANTENNA,
    ElementClass.SITE_RENT,
    ElementClass.POWER,
)


def _units(**overrides):
    """Zero unit costs for every scaled class, overridden by label."""
    units = {cls: (0.0, 0.0) for cls in _SCALED}
    for label, pair in overrides.items():
        units[ElementClass(label)] = pair
    return units


def test_build_inventory_scales_nodeb_by_count():
    profile = default_profile(AreaKind.URBAN)
    unit = 7.5
    table = build_inventory(profile, _units(nodeb=(unit, 1.0)))
    assert table.entries[ElementClass.NODEB].capex == pytest.approx(78 * unit)
    assert table.entries[ElementClass.NODEB].opex_annual == pytest.approx(78.0)


def test_build_inventory_site_classes_scale_with_sites():
    profile = default_profile(AreaKind.RURAL)
    table = build_inventory(
        profile,
        _units(passive_site=(2.0, 0.5), rnc=(100.0, 10.0), oam=(3.0, 3.0)),
    )
    assert table.entries[ElementClass.PASSIVE_SITE].capex == pytest.approx(2.0 * 108)
    assert table.entries[ElementClass.RNC].capex == pytest.approx(100.0)
    assert table.entries[ElementClass.OAM].capex == pytest.approx(3.0)  # quantity 1


def test_build_inventory_zero_costs_give_unusable_table():
    profile = default_profile(AreaKind.SUBURBAN)
    table = build_inventory(profile, {cls: (0.0, 0.0) for cls in ElementClass})
    assert not table.is_usable()


def test_build_inventory_errors():
    profile = default_profile(AreaKind.URBAN)
    units = _units()
    del units[ElementClass.NODEB]
    with pytest.raises(MissingCostEntry, match="nodeb"):
        build_inventory(profile, units)
    with pytest.raises(InvalidAmount):
        build_inventory(profile, _units(nodeb=(-2.0, 0.0)))


# Cost pairs that are not two usable numbers, with the amount each names after its class.
_BAD_PAIRS = {
    "text": (("x", 1.0), "capex"),
    "too-large-for-a-float": ((10**400, 1.0), "capex"),
    "none": ((None, 1.0), "capex"),
    "text-opex": ((1.0, "x"), "opex_annual"),
}


@pytest.mark.parametrize("pair, amount", _BAD_PAIRS.values(), ids=_BAD_PAIRS)
def test_cost_table_refuses_a_pair_that_is_not_two_numbers(pair, amount):
    with pytest.raises(InvalidAmount, match=f"^nodeb {amount} must"):
        CostTable(AreaKind.URBAN, {ElementClass.NODEB: pair})


@pytest.mark.parametrize("pair, amount", _BAD_PAIRS.values(), ids=_BAD_PAIRS)
def test_build_inventory_refuses_a_pair_that_is_not_two_numbers(pair, amount):
    with pytest.raises(InvalidAmount, match=f"^nodeb {amount} must"):
        build_inventory(default_profile(AreaKind.URBAN), _units(nodeb=pair))


def test_build_inventory_is_homogeneous_in_unit_costs():
    profile = default_profile(AreaKind.URBAN)
    units = _units(nodeb=(5.0, 1.0), rnc=(50.0, 5.0), backhaul=(2.0, 2.0))
    k = 37.5
    base = build_inventory(profile, units)
    scaled = build_inventory(profile, {c: (u[0] * k, u[1] * k) for c, u in units.items()})
    for cls in ElementClass:
        assert scaled.entries[cls].capex == pytest.approx(base.entries[cls].capex * k)
    assert scaled.fraction({ElementClass.NODEB}, Ledger.CAPEX) == pytest.approx(
        base.fraction({ElementClass.NODEB}, Ledger.CAPEX)
    )


def test_element_quantity_matches_profile_counts():
    profile = default_profile(AreaKind.SUBURBAN)
    assert element_quantity(ElementClass.NODEB, profile) == 58
    assert element_quantity(ElementClass.PASSIVE_SITE, profile) == 58
    assert element_quantity(ElementClass.RNC, profile) == 1
    assert element_quantity(ElementClass.STAFF, profile) == 1


# ---------------------------------------------------------------------------
# repartition constraints
# ---------------------------------------------------------------------------


def _table_with_fraction(cls: ElementClass, fraction: float) -> CostTable:
    rest = 1000.0 * (1.0 - fraction)
    entries = {
        cls: (1000.0 * fraction, 0.0),
        ElementClass.STAFF: (rest, 0.0),
        ElementClass.OAM: (0.0, 10.0),
    }
    return CostTable(area=AreaKind.SUBURBAN, entries=entries)


def test_constraint_inside_interval_is_satisfied():
    table = _table_with_fraction(ElementClass.BACKHAUL, 0.36)
    constraints = RepartitionConstraintSet(
        "t",
        [
            RepartitionConstraint(
                "backhaul_share",
                Ledger.CAPEX,
                frozenset({ElementClass.BACKHAUL}),
                0.32,
                0.41,
                area=AreaKind.SUBURBAN,
            )
        ],
    )
    report = check_repartition(table, constraints)
    assert report.overall
    assert report.checks[0].observed == pytest.approx(0.36, abs=1e-4)


def test_degenerate_full_share_constraint():
    table = CostTable(area=AreaKind.URBAN, entries={ElementClass.NODEB: (500.0, 1.0)})
    constraints = RepartitionConstraintSet(
        "t",
        [
            RepartitionConstraint(
                "everything", Ledger.CAPEX, frozenset({ElementClass.NODEB}), 1.0, 1.0
            )
        ],
    )
    assert check_repartition(table, constraints).overall


def test_constraint_outside_interval_fails_and_reports_observed():
    table = _table_with_fraction(ElementClass.BACKHAUL, 0.50)
    constraints = RepartitionConstraintSet(
        "t",
        [
            RepartitionConstraint(
                "backhaul_share", Ledger.CAPEX, frozenset({ElementClass.BACKHAUL}), 0.32, 0.41
            )
        ],
    )
    report = check_repartition(table, constraints)
    assert not report.overall
    (failure,) = report.failures()
    assert failure.observed == pytest.approx(0.5, abs=1e-4)


def test_constraints_scoped_to_other_areas_are_skipped():
    table = _table_with_fraction(ElementClass.BACKHAUL, 0.9)
    constraints = RepartitionConstraintSet(
        "t",
        [
            RepartitionConstraint(
                "rural_only",
                Ledger.CAPEX,
                frozenset({ElementClass.BACKHAUL}),
                0.0,
                0.1,
                area=AreaKind.RURAL,
            )
        ],
    )
    report = check_repartition(table, constraints)
    assert report.overall
    assert not report.checks  # nothing applicable


def test_zero_total_ledger_raises():
    table = CostTable(area=AreaKind.URBAN, entries={ElementClass.NODEB: (100.0, 0.0)})
    constraints = RepartitionConstraintSet(
        "t",
        [RepartitionConstraint("op", Ledger.OPEX, frozenset({ElementClass.OAM}), 0.0, 1.0)],
    )
    with pytest.raises(ZeroTotalLedger):
        check_repartition(table, constraints)


def test_check_repartition_is_scale_invariant():
    rng = random.Random(23)
    constraints = default_constraints(Market.EMERGING, Ledger.CAPEX)
    for _ in range(20):
        table = random_cost_table(rng)
        if table.capex_total() == 0 or table.opex_annual_total() == 0:
            continue
        before = check_repartition(table, constraints)
        after = check_repartition(table.scaled(1e6), constraints)
        assert [c.satisfied for c in before.checks] == [c.satisfied for c in after.checks]


def test_constraint_validation_rejects_bad_intervals():
    with pytest.raises(InvalidAmount):
        RepartitionConstraint(
            "bad", Ledger.CAPEX, frozenset({ElementClass.NODEB}), 0.5, 0.4
        )
    with pytest.raises(InvalidAmount):
        RepartitionConstraint(
            "bad", Ledger.CAPEX, frozenset({ElementClass.NODEB}), -0.1, 0.4
        )
    with pytest.raises(InvalidAmount):
        RepartitionConstraint("empty", Ledger.CAPEX, frozenset(), 0.1, 0.4)


def test_a_ledger_is_capex_or_opex():
    assert list(Ledger) == [Ledger.CAPEX, Ledger.OPEX]


@pytest.mark.parametrize("ledger", ["use_case_capex", "use_case_opex"])
def test_a_constraint_document_refuses_a_ledger_that_is_not_capex_or_opex(ledger):
    doc = {"label": "x", "ledger": ledger, "classes": ["nodeb"], "lower": 0.1, "upper": 0.2}
    with pytest.raises(InvalidAmount, match=f"'{ledger}'"):
        RepartitionConstraint.from_json_dict(doc)


def test_a_constraint_document_refuses_an_unknown_element_class():
    doc = {"label": "x", "ledger": "capex", "classes": ["enodeb"], "lower": 0.1, "upper": 0.2}
    with pytest.raises(InvalidAmount, match="^constraint 'x': 'enodeb' is not a valid ElementClass$"):
        RepartitionConstraint.from_json_dict(doc)


def test_constraint_set_round_trips_through_json():
    original = USE_CASE_CONSTRAINTS
    doc = original.to_json_dict()
    back = RepartitionConstraintSet.from_json_dict(doc)
    assert back == original


# ---------------------------------------------------------------------------
# published defaults
# ---------------------------------------------------------------------------


def test_emerging_capex_defaults_encode_published_shares():
    constraints = {c.label: c for c in default_constraints(Market.EMERGING, Ledger.CAPEX).constraints}
    civil = constraints["civil_site_share"]
    assert civil.classes == frozenset({ElementClass.PASSIVE_SITE})
    assert (civil.lower, civil.upper) == (0.39, 0.43)
    assert (constraints["power_share"].lower, constraints["power_share"].upper) == (0.29, 0.33)
    assert (constraints["nodeb_share"].lower, constraints["nodeb_share"].upper) == (0.13, 0.17)


def test_developed_capex_defaults_put_half_into_civil_works():
    constraints = {c.label: c for c in default_constraints(Market.DEVELOPED, Ledger.CAPEX).constraints}
    civil = constraints["civil_site_share"]
    assert (civil.lower, civil.upper) == (0.50, 0.54)


def test_use_case_constraints_bound_both_ledgers_of_the_use_case():
    capex, opex, E = Ledger.CAPEX, Ledger.OPEX, ElementClass
    core = {E.CORE_SGSN, E.CORE_GGSN}
    assert USE_CASE_CONSTRAINTS.name == "use_case"
    assert [
        (c.label, c.ledger, c.classes, c.lower, c.upper, c.area)
        for c in USE_CASE_CONSTRAINTS.constraints
    ] == [
        ("core_share", capex, core, 0.08, 0.17, None),
        ("oam_share", capex, {E.OAM}, 0.08, 0.17, None),
        ("backhaul_share", capex, {E.BACKHAUL}, 0.32, 0.41, None),
        ("nodeb_share", capex, {E.NODEB}, 0.23, 0.29, None),
        ("rnc_share_urban", capex, {E.RNC}, 0.32, 0.41, AreaKind.URBAN),
        ("rnc_share_suburban", capex, {E.RNC}, 0.32, 0.41, AreaKind.SUBURBAN),
        ("rnc_share_rural", capex, {E.RNC}, 0.09, 0.13, AreaKind.RURAL),
        ("international_share", opex, {E.INTERNATIONAL_CONNECTIVITY}, 0.50, 0.60, None),
        ("licence_core_share", opex, {E.SPECTRUM_LICENSE, *core}, 0.08, 0.12, None),
    ]


def test_check_repartition_reads_a_constraint_set_as_its_constraints():
    table = default_market_costs(Market.DEVELOPED, AreaKind.RURAL)
    report = check_repartition(table, USE_CASE_CONSTRAINTS)
    assert report == check_repartition(table, USE_CASE_CONSTRAINTS.constraints)
    assert tuple(c.constraint for c in report.checks) == USE_CASE_CONSTRAINTS.for_area(
        AreaKind.RURAL
    )


# Prints the suburban licence-and-core OPEX share as float.hex: three classes,
# held in a frozenset whose order follows the hash seed.
_LICENCE_CORE_SHARE = """
from netshare import AreaKind, reference_cost_table
from netshare.repartition import USE_CASE_CONSTRAINTS
(c,) = [c for c in USE_CASE_CONSTRAINTS.constraints if c.label == "licence_core_share"]
print(reference_cost_table(AreaKind.SUBURBAN).fraction(c.classes, c.ledger).hex())
"""


def test_a_constraint_fraction_does_not_follow_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    shares = {
        subprocess.run(
            [sys.executable, "-c", _LICENCE_CORE_SHARE],
            capture_output=True,
            check=True,
            env={**env, "PYTHONHASHSEED": seed},
            text=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(shares) == 1, shares


def test_use_case_opex_defaults_bound_international_share():
    constraints = {c.label: c for c in USE_CASE_CONSTRAINTS.constraints}
    intl = constraints["international_share"]
    assert intl.classes == frozenset({ElementClass.INTERNATIONAL_CONNECTIVITY})
    assert intl.lower == 0.50
    assert intl.upper == 0.60


def test_default_market_tables_pass_their_own_constraints():
    for market in Market:
        table = default_market_costs(market)
        for ledger in (Ledger.CAPEX, Ledger.OPEX):
            report = check_repartition(table, default_constraints(market, ledger))
            assert report.overall, [
                (c.constraint.label, c.observed) for c in report.failures()
            ]
