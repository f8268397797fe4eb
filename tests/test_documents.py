"""Input documents: numbers a float cannot hold, totals that overflow and oversized
counts end in one ``error:`` line, never in a traceback."""

import json
import math
import sys

import pytest

from netshare import SharingConfiguration, SweepSpec, cumulative_cost, reference_cost_table
from netshare.cli import main
from netshare.advisor import ConstraintChecklist
from netshare.errors import (
    InvalidAmount,
    InvalidConfiguration,
    InvalidSweepParameter,
    MalformedScenario,
    read_integer,
    read_number,
    read_object,
)
from netshare.inventory import AreaKind
from netshare.scenario import fixture_path
from netshare.sharing import _MAX_OPERATORS

BIG = 10**400  # 401 digits: an integer JSON can carry and float() cannot take
USE_CASE = json.loads(fixture_path("paper_use_case.json").read_text(encoding="utf-8"))
TARGETS = json.loads(fixture_path("use_case_targets.json").read_text(encoding="utf-8"))
CUSTOM = {"name": "custom", "shared": {"nodeb": True}}


def _use_case(**overrides):
    return {**USE_CASE, **overrides}


def _with_configuration(**fields):
    return _use_case(configurations=USE_CASE["configurations"] + [{**CUSTOM, **fields}])


def _urban_table(entries):
    tables = {**USE_CASE["cost_tables"], "urban": {"area": "urban", "entries": entries}}
    return _use_case(cost_tables=tables)


def _cli(tmp_path, capsys, text, *argv):
    path = tmp_path / "document.json"
    path.write_text(text, encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_short_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err) < 200  # names the field without echoing hundreds of digits


_BIG_UPPER = {"label": "oam", "ledger": "capex", "classes": ["oam"], "lower": 0.1, "upper": BIG}
_OVERSIZED = {
    "validate sweep to": (
        "validate",
        _use_case(sweep={"parameter": "split_ratio", "from": 0.1, "to": BIG, "steps": 3}),
    ),
    "validate split entry": ("validate", _with_configuration(split=[BIG, 0.5])),
    "validate operators": ("validate", _with_configuration(operators=BIG)),
    "run table capex": ("run", _urban_table({"nodeb": {"capex": BIG}})),
    "run horizon": ("run", _use_case(horizon_years=BIG)),
    "targets value": ("targets", {**TARGETS, "targets": [{**TARGETS["targets"][0], "value": BIG}]}),
    "targets constraint upper": (
        "targets",
        {**TARGETS, "constraints": {"name": "big", "constraints": [_BIG_UPPER]}},
    ),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_integer_too_large_for_a_float_is_one_error_line(tmp_path, capsys, case):
    command, doc = _OVERSIZED[case]
    if command == "targets":
        from netshare.calibration import load_targets_document

        with pytest.raises(MalformedScenario) as caught:
            load_targets_document(json.dumps(doc))
        assert len(str(caught.value)) < 200
    else:
        _assert_one_short_error_line(*_cli(tmp_path, capsys, json.dumps(doc), command))


@pytest.mark.parametrize(
    "doc",
    [
        _urban_table({c: {"capex": 1e308, "opex_annual": 1e308} for c in ("nodeb", "rnc", "oam")}),
        _use_case(horizon_years=10**308),
        _use_case(horizon_years=10**309),
    ],
    ids=["table amounts 1e308", "horizon 10**308", "horizon 10**309"],
)
def test_baseline_without_a_finite_total_is_one_error_line(tmp_path, capsys, doc):
    code, out, err = _cli(tmp_path, capsys, json.dumps(doc), "run", "--format", "csv")
    _assert_one_short_error_line(code, out, err)
    assert "nan" not in err


def test_horizon_overflowing_a_float_is_an_invalid_amount():
    with pytest.raises(InvalidAmount, match="horizon_years"):
        cumulative_cost(reference_cost_table(AreaKind.URBAN), 10**309)


def test_class_sweep_over_a_horizon_too_large_for_a_float_is_one_error_line(tmp_path, capsys):
    spec = {"parameter": "class_cost_fraction", "from": 0.1, "to": 0.5, "steps": 3}
    text = json.dumps(_use_case(horizon_years=BIG, sweep={**spec, "class": "nodeb"}))
    for command in ("validate", "sweep"):
        _assert_one_short_error_line(*_cli(tmp_path, capsys, text, command))


def test_sweep_whose_points_overflow_is_rejected():
    # A finite span times steps - 1 overflows, so a point would be infinite.
    with pytest.raises(InvalidSweepParameter, match="finite"):
        SweepSpec("horizon_years", -1e308, 9.0, 5)


@pytest.mark.parametrize("count", [BIG, _MAX_OPERATORS + 1], ids=["10**400", "bound + 1"])
def test_operator_count_is_bounded(count):
    with pytest.raises(InvalidConfiguration, match="operator_count"):
        SharingConfiguration.from_json_dict({**CUSTOM, "operators": count})


_PAST_DIGIT_LIMIT = "9" * 5000  # longer than int() reads by default (4300 digits)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python reads integers of any length"
)
def test_integer_past_the_digit_limit_is_malformed(tmp_path, capsys):
    text = json.dumps(_use_case(horizon_years=5))
    text = text.replace('"horizon_years": 5', f'"horizon_years": {_PAST_DIGIT_LIMIT}')
    _assert_one_short_error_line(*_cli(tmp_path, capsys, text, "validate"))

    from netshare.calibration import load_targets_document

    text = json.dumps({**TARGETS, "seed": 0}).replace('"seed": 0', f'"seed": {_PAST_DIGIT_LIMIT}')
    with pytest.raises(MalformedScenario, match="too long"):
        load_targets_document(text)


def test_readers_name_the_field_in_the_callers_error():
    with pytest.raises(InvalidAmount, match="unknown thing keys: \\['x'\\]"):
        read_object({"x": 1}, "thing", InvalidAmount, ("a",))
    with pytest.raises(InvalidAmount, match="thing needs keys: \\['a'\\]"):
        read_object({}, "thing", InvalidAmount, ("a",), ("a",))
    with pytest.raises(InvalidAmount, match="thing must be an object, got list"):
        read_object([], "thing", InvalidAmount, ("a",))
    with pytest.raises(MalformedScenario, match="'w' must be a number, got True"):
        read_number(True, "'w'", MalformedScenario)
    with pytest.raises(MalformedScenario, match="'w' must fit in a float, got an integer of about"):
        read_number(BIG, "'w'", MalformedScenario)
    with pytest.raises(MalformedScenario, match="n must be an integer from 2 to 9, got an integer"):
        read_integer(-BIG, "n", MalformedScenario, 2, 9)
    # Range checks belong to the constructors, which name the range they need.
    assert math.isinf(read_number(float("inf"), "w", MalformedScenario))
    assert math.isnan(read_number(float("nan"), "w", MalformedScenario))
    assert read_number(3, "w", MalformedScenario) == 3.0


@pytest.mark.parametrize(
    "doc",
    [
        _urban_table({c: {"capex": 1e308, "opex_annual": 1e308} for c in ("nodeb", "rnc", "oam")}),
        _use_case(horizon_years=10**308),
        _use_case(horizon_years=BIG),
        _use_case(areas=["urban", "suburban", {"kind": "rural", "nodeb_count": 40}]),
        _use_case(policy={"min_own_coverage_fraction": 0.1}),
    ],
    ids=[
        "table amounts 1e308",
        "horizon 10**308",
        "horizon 10**400",
        "area object",
        "policy min_own_coverage_fraction",
    ],
)
def test_validate_refuses_the_baselines_run_refuses(tmp_path, capsys, doc):
    text = json.dumps(doc)
    validated = _cli(tmp_path, capsys, text, "validate")
    _assert_one_short_error_line(*validated)
    assert validated == _cli(tmp_path, capsys, text, "run", "--format", "csv")


def test_sweep_spec_with_an_integer_too_large_for_a_float_names_the_field():
    with pytest.raises(InvalidSweepParameter, match="sweep 'to' must fit in a float") as caught:
        SweepSpec("split_ratio", 0, BIG, 3)
    assert len(str(caught.value)) < 200
    with pytest.raises(InvalidSweepParameter, match="sweep 'from' must fit in a float"):
        SweepSpec("split_ratio", -BIG, 0.5, 3)


def test_split_ratio_too_large_for_a_float_is_an_invalid_configuration():
    with pytest.raises(InvalidConfiguration, match="must each fit in a float") as caught:
        SharingConfiguration(name="x", split_ratios=(BIG, 0.5))
    assert "0000" not in str(caught.value)


@pytest.mark.parametrize("ratios", [("x", 0.5), 5], ids=["not a number", "not a sequence"])
def test_split_ratios_that_are_not_numbers_are_an_invalid_configuration(ratios):
    with pytest.raises(InvalidConfiguration, match="split ratios must be numbers"):
        SharingConfiguration(name="x", split_ratios=ratios)


_NETWORK_STATE = {"network_state": "new"}
_ITEM = {"domain": "site", "text": "Mast height?"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_NETWORK_STATE, "items": [5]}, "checklist item must be an object, got int"),
        ({**_NETWORK_STATE, "items": [{"text": "x"}]}, "item needs keys: \\['domain'\\]"),
        ({"network_state": "bogus"}, "unknown network_state 'bogus'"),
        ({**_NETWORK_STATE, "items": 5}, "checklist 'items' must be a list, got int"),
        ({**_NETWORK_STATE, "items": [{**_ITEM, "domain": 5}]}, "'domain' must be a string"),
        ({**_NETWORK_STATE, "items": [{**_ITEM, "answered": "yes"}]}, "'answered' must be true"),
    ],
    ids=["item not an object", "item without domain", "unknown state", "items not a list",
         "domain not a string", "answered not a flag"],
)
def test_malformed_checklist_is_an_invalid_amount(doc, message):
    with pytest.raises(InvalidAmount, match=message):
        ConstraintChecklist.from_json_dict(doc)
