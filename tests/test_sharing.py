"""Sharing configurations, presets, level ladder and validation rules."""

import inspect
import random
import re
from pathlib import Path

import pytest

from netshare import (
    ElementClass,
    NO_SHARING,
    PRESET_NAMES,
    RegulatoryPolicy,
    SharingConfiguration,
    SharingLevel,
    preset,
    sharing_level,
    validate_configuration,
)
from netshare.costmodel import sharing_factors
from netshare.errors import InvalidConfiguration, UnknownPreset
from netshare.sharing import _MAX_OPERATORS, ALIAS_NAMES

from conftest import random_config


def _shared_labels(config):
    return {cls.value for cls in config.shared}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_the_nine_preset_names():
    assert PRESET_NAMES == (
        "MOCN",
        "MOCN + Backhaul",
        "MOCN - Spectrum",
        "GWCN",
        "GWCN + Backhaul",
        "GWCN - Spectrum",
        "PassiveOnly",
        "SiteAntenna",
        "GatewayRoaming",
    )
    assert "MORAN" in ALIAS_NAMES


def test_gwcn_backhaul_shares_all_six_rows():
    config = preset("GWCN + Backhaul")
    assert _shared_labels(config) == {
        "passive_site",
        "nodeb",
        "rnc",
        "backhaul",
        "spectrum_license",
        "core_sgsn",
    }


def test_mocn_pools_spectrum_but_not_backhaul_or_core():
    config = preset("MOCN")
    shared = _shared_labels(config)
    assert shared == {"passive_site", "nodeb", "rnc", "spectrum_license"}


def test_mocn_minus_spectrum_swaps_spectrum_for_backhaul():
    config = preset("MOCN - Spectrum")
    shared = _shared_labels(config)
    assert "backhaul" in shared
    assert "spectrum_license" not in shared
    assert "core_sgsn" not in shared


def test_moran_alias_is_dedicated_spectrum_ran():
    config = preset("MORAN")
    assert _shared_labels(config) == {"passive_site", "nodeb", "rnc"}


def test_gateway_roaming_sets_single_spectrum_flag():
    config = preset("GatewayRoaming")
    assert config.single_spectrum
    assert _shared_labels(config) == {"passive_site", "nodeb", "rnc", "backhaul"}


def test_preset_defaults_to_two_operators_at_half():
    config = preset("MOCN")
    assert config.operator_count == 2
    assert config.split_ratios == (0.5, 0.5)
    assert not config.intl_shared


def test_preset_is_referentially_transparent():
    for name in PRESET_NAMES:
        assert preset(name) == preset(name)


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset, match="MOCN\\+B"):
        preset("MOCN+B")


def test_preset_takes_only_a_name_and_replace_changes_the_rest():
    assert list(inspect.signature(preset).parameters) == ["name"]
    config = preset("MOCN").replace(split_ratios=(0.2, 0.3, 0.5))
    assert config.operator_count == 3
    assert config.shared == preset("MOCN").shared


def test_the_readme_preset_table_names_each_presets_shared_classes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| preset .*?\n\n", readme, re.MULTILINE | re.DOTALL).group()
    rows = re.findall(r"^\| `([^`]+)` +\|([^|]*)\|", table, re.MULTILINE)
    assert [name for name, _ in rows] == list(PRESET_NAMES + ALIAS_NAMES)
    for name, cells in rows:
        labels = tuple(re.findall(r"`(\w+)`", cells))
        assert labels == tuple(cls.value for cls in preset(name).shared), name


# ---------------------------------------------------------------------------
# configuration construction
# ---------------------------------------------------------------------------


def test_shared_keeps_each_class_once_in_element_class_order():
    config = SharingConfiguration(
        name="bare", shared=[ElementClass.RNC, ElementClass.NODEB, ElementClass.RNC]
    )
    assert config.shared == (ElementClass.NODEB, ElementClass.RNC)
    assert SharingConfiguration("bare", iter([ElementClass.RNC, ElementClass.NODEB])) == config
    assert SharingConfiguration(name="none").shared == ()
    base = preset("MOCN")
    assert base.replace(shared=(ElementClass.ANTENNA,) + base.shared).shared == (
        ElementClass.PASSIVE_SITE,
        ElementClass.ANTENNA,
        ElementClass.NODEB,
        ElementClass.RNC,
        ElementClass.SPECTRUM_LICENSE,
    )


def test_configuration_replaced_from_a_normalised_one_equals_a_fresh_one():
    base = preset("GWCN + Backhaul")
    assert base.replace(shared=reversed(base.shared)) == base
    assert base.replace(split_ratios=(0.2, 0.3, 0.5)) == SharingConfiguration(
        "GWCN + Backhaul", base.shared, (0.2, 0.3, 0.5)
    )
    assert base.replace(intl_shared=True) == SharingConfiguration(
        "GWCN + Backhaul", base.shared, intl_shared=True
    )


def test_operator_count_is_the_length_of_the_split():
    assert len(SharingConfiguration._fields) == 6
    assert "operator_count" not in SharingConfiguration._fields
    assert preset("MOCN").operator_count == 2
    with pytest.raises(TypeError, match="operator_count"):
        preset("MOCN").replace(operator_count=3)


def test_shared_with_an_unknown_item_is_rejected():
    base = preset("MOCN")
    with pytest.raises(InvalidConfiguration, match="unknown element classes"):
        base.replace(shared=base.shared + ("nodeb",))
    with pytest.raises(InvalidConfiguration, match="unknown element classes"):
        SharingConfiguration(name="labels", shared=["nodeb"])


def test_shared_names_unknown_items_of_types_that_do_not_compare():
    with pytest.raises(InvalidConfiguration, match=r"in shared: \['nodeb', 3\]$"):
        SharingConfiguration("x", shared=["nodeb", 3])


def test_replace_builds_the_copy_through_the_constructor():
    base = preset("MOCN")
    with pytest.raises(InvalidConfiguration, match="sum to 1"):
        base.replace(split_ratios=(0.7, 0.7))
    with pytest.raises(TypeError, match="splits"):
        base.replace(splits=(0.5, 0.5))
    assert base.replace() == base and base.replace() is not base


@pytest.mark.parametrize(
    "shared",
    [
        5,
        None,
        "nodeb",
        {ElementClass.RNC: False},
        {ElementClass.RNC: True},
    ],
    ids=["int", "none", "string", "map-false", "map-true"],
)
def test_shared_that_is_not_a_collection_of_classes_is_an_invalid_configuration(shared):
    # A map of flags is refused whole: iterating it would read RNC: False as "RNC shared".
    with pytest.raises(InvalidConfiguration, match="shared must be a collection of element"):
        SharingConfiguration(name="api", shared=shared)


def test_split_ratios_must_sum_to_one():
    with pytest.raises(InvalidConfiguration):
        SharingConfiguration(name="bad", split_ratios=(0.7, 0.7))
    with pytest.raises(InvalidConfiguration):
        SharingConfiguration(name="bad", split_ratios=(1.0, 0.0))


@pytest.mark.parametrize("count", [0, 1, _MAX_OPERATORS + 1])
def test_a_split_has_one_ratio_for_each_of_two_to_the_bound_operators(count):
    with pytest.raises(InvalidConfiguration, match=f"2 to {_MAX_OPERATORS}, got {count}$"):
        SharingConfiguration(name="bad", split_ratios=(1.0 / max(count, 1),) * count)


def test_shared_mask_applies_couple_and_intl_flags():
    config = SharingConfiguration(
        name="coupled",
        shared=(ElementClass.PASSIVE_SITE,),
        couple_site_costs=True,
        intl_shared=True,
    )
    effective = dict(zip(ElementClass, config.shared_mask()))
    assert effective[ElementClass.SITE_RENT]
    assert effective[ElementClass.POWER]
    assert effective[ElementClass.INTERNATIONAL_CONNECTIVITY]
    # coupling only follows a shared passive layer
    bare = SharingConfiguration(
        name="uncoupled", shared=(ElementClass.NODEB,), couple_site_costs=True
    )
    assert not dict(zip(ElementClass, bare.shared_mask()))[ElementClass.SITE_RENT]


# Columns in ElementClass order: passive_site, antenna, nodeb, rnc, backhaul,
# core_sgsn, core_ggsn, oam, spectrum_license, international_connectivity,
# site_rent, power, staff.  Every configuration below also shares the NodeB.
_MASKS = [
    # site shared, couple_site_costs, intl_shared, effective mask
    (True, False, False, "1010000000000"),
    (True, True, False, "1010000000110"),
    (True, False, True, "1010000001000"),
    (True, True, True, "1010000001110"),
    (False, False, False, "0010000000000"),
    (False, True, False, "0010000000000"),
    (False, False, True, "0010000001000"),
    (False, True, True, "0010000001000"),
]


@pytest.mark.parametrize("site, couple, intl, mask", _MASKS)
def test_shared_mask_adds_coupled_site_costs_and_intl(site, couple, intl, mask):
    assert [cls.value for cls in ElementClass] == [
        "passive_site", "antenna", "nodeb", "rnc", "backhaul", "core_sgsn", "core_ggsn",
        "oam", "spectrum_license", "international_connectivity", "site_rent", "power", "staff",
    ]
    config = SharingConfiguration(
        name="masked",
        shared=(ElementClass.PASSIVE_SITE, ElementClass.NODEB) if site else (ElementClass.NODEB,),
        couple_site_costs=couple,
        intl_shared=intl,
    )
    assert config.shared_mask() == tuple(flag == "1" for flag in mask)
    assert all(type(flag) is bool for flag in config.shared_mask())


def test_shared_mask_of_every_class_and_its_factors_on_an_unequal_split():
    everything = SharingConfiguration(name="all", shared=ElementClass)
    assert everything.shared_mask() == (True,) * 13
    config = SharingConfiguration(
        name="three",
        shared=(ElementClass.PASSIVE_SITE, ElementClass.RNC),
        split_ratios=(0.5, 0.3, 0.2),
        couple_site_costs=True,
    )
    assert sharing_factors(config, 1) == (
        0.3, 1.0, 1.0, 0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.3, 0.3, 1.0
    )


def test_configuration_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        config = random_config(rng)
        back = SharingConfiguration.from_json_dict(config.to_json_dict())
        assert back == config


def test_configuration_document_rejects_unknown_keys():
    doc = preset("MOCN").to_json_dict()
    doc["sharend"] = doc["shared"]
    with pytest.raises(InvalidConfiguration, match="sharend"):
        SharingConfiguration.from_json_dict(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"intl_shared": "no"},
        {"couple_site_costs": "no"},
        {"shared": {"rnc": 1}},
        {"single_spectrum": "no"},
        {"split": 5},
        {"split": [None, 1]},
        {"split": [0.5, "0.5"]},
        {"split": [True, 0.0]},
        {"split": [float("nan"), 1.0]},
        {"name": 5},
    ],
    ids=repr,
)
def test_configuration_document_rejects_wrongly_typed_fields(overrides):
    doc = dict(preset("MOCN").to_json_dict(), **overrides)
    with pytest.raises(InvalidConfiguration):
        SharingConfiguration.from_json_dict(doc)


def test_configuration_document_must_be_an_object():
    with pytest.raises(InvalidConfiguration, match="object"):
        SharingConfiguration.from_json_dict(["MOCN"])


# ---------------------------------------------------------------------------
# level ladder
# ---------------------------------------------------------------------------


def test_levels_are_strictly_ordered():
    levels = list(SharingLevel)
    assert levels == sorted(levels)
    assert SharingLevel.L1_SITE < SharingLevel.L2_ANTENNA < SharingLevel.L3_NODEB
    assert SharingLevel.L3_NODEB < SharingLevel.L4_RNC < SharingLevel.L5_CORE


def test_gwcn_reaches_core_level_with_a_gap():
    assessment = sharing_level(preset("GWCN"))
    assert assessment.level is SharingLevel.L5_CORE
    assert assessment.non_contiguous  # antenna rung unshared


def test_passive_only_is_level_one_contiguous():
    assessment = sharing_level(preset("PassiveOnly"))
    assert assessment.level is SharingLevel.L1_SITE
    assert not assessment.non_contiguous


def test_rnc_only_is_level_four_with_gaps():
    config = SharingConfiguration(name="rnc", shared=(ElementClass.RNC,))
    assessment = sharing_level(config)
    assert assessment.level is SharingLevel.L4_RNC
    assert assessment.non_contiguous


def test_nothing_shared_is_a_distinct_sentinel():
    config = SharingConfiguration(name="solo")
    assessment = sharing_level(config)
    assert assessment.level is None
    assert assessment is not NO_SHARING or assessment == NO_SHARING
    assert sharing_level(preset("PassiveOnly")).level is not None


def test_adding_a_shared_class_never_lowers_the_level():
    rng = random.Random(17)
    for _ in range(300):
        config = random_config(rng)
        before = sharing_level(config).level
        addition = rng.choice(list(ElementClass))
        after = sharing_level(config.replace(shared=config.shared + (addition,))).level
        if before is not None:
            assert after is not None and after >= before


# ---------------------------------------------------------------------------
# validation rules
# ---------------------------------------------------------------------------


def test_core_sharing_without_ran_is_an_error():
    config = SharingConfiguration(name="bad", shared=(ElementClass.CORE_SGSN,))
    report = validate_configuration(config)
    assert not report.valid
    assert "GwcnWithoutRan" in report.codes()


def test_passive_only_is_clean():
    report = validate_configuration(preset("PassiveOnly"))
    assert report.valid
    assert not report.warnings


def test_spectrum_pooling_can_be_forbidden_by_policy():
    policy = RegulatoryPolicy(spectrum_pooling_allowed=False)
    report = validate_configuration(preset("MOCN"), policy=policy)
    assert "SpectrumPoolingForbidden" in [i.code for i in report.errors]
    # the dedicated-spectrum variant stays legal
    assert validate_configuration(preset("MOCN - Spectrum"), policy=policy).valid


def test_policy_level_cap_is_enforced():
    policy = RegulatoryPolicy(max_level=SharingLevel.L4_RNC)
    report = validate_configuration(preset("GWCN"), policy=policy)
    assert "MaxLevelExceeded" in [i.code for i in report.errors]
    assert validate_configuration(preset("MOCN"), policy=policy).valid


def test_non_contiguous_ladder_warns_but_passes():
    report = validate_configuration(preset("GWCN"))
    assert report.valid
    assert "NonContiguousLadder" in [i.code for i in report.warnings]


def test_crowded_nodeb_warns_above_four_operators():
    config = preset("MOCN").replace(split_ratios=(0.2,) * 5)
    report = validate_configuration(config)
    assert "ManyOperators" in [i.code for i in report.warnings]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_passes_default_validation(name):
    report = validate_configuration(preset(name))
    assert report.valid, report.codes()


def test_single_spectrum_flag_warns_about_capacity():
    report = validate_configuration(preset("GatewayRoaming"))
    assert report.valid
    assert "SingleSpectrumCapacity" in [i.code for i in report.warnings]
