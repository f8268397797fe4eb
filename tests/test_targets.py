"""Calibration targets: the targets document, the target types and the
argument checks of ``calibrate_reference``.

None of these needs numpy or scipy: the arguments are checked before the
search loads them.
"""

import json

import pytest

from netshare import AreaKind, CALIBRATION_CONSTRAINTS, SavingsTarget, calibrate_reference
from netshare.calibration import DeltaTarget, load_targets_document
from netshare.errors import MalformedScenario
from netshare.scenario import fixture_path

# ---------------------------------------------------------------------------
# calibrate_reference arguments
# ---------------------------------------------------------------------------


def test_unknown_target_configuration_is_malformed():
    targets = [SavingsTarget(AreaKind.URBAN, "total", "MORAN Deluxe", 30.0)]
    with pytest.raises(MalformedScenario, match="MORAN Deluxe"):
        calibrate_reference(CALIBRATION_CONSTRAINTS, targets)


def test_empty_target_list_is_malformed():
    with pytest.raises(MalformedScenario):
        calibrate_reference(CALIBRATION_CONSTRAINTS, [])


@pytest.mark.parametrize("horizon", [0, -1, True, 2.5])
def test_horizon_must_be_a_positive_integer(horizon):
    targets = [SavingsTarget(AreaKind.URBAN, "total", "MOCN", 25.0)]
    with pytest.raises(MalformedScenario, match="horizon_years"):
        calibrate_reference(CALIBRATION_CONSTRAINTS, targets, horizon_years=horizon)


def test_tuple_targets_are_malformed():
    with pytest.raises(MalformedScenario, match="cannot interpret calibration target"):
        calibrate_reference(CALIBRATION_CONSTRAINTS, [("urban", "MOCN", 30.0)])


# ---------------------------------------------------------------------------
# targets document
# ---------------------------------------------------------------------------


def test_bundled_targets_document_parses():
    text = fixture_path("use_case_targets.json").read_text(encoding="utf-8")
    targets, constraints, horizon, seed = load_targets_document(text)
    assert horizon == 5
    assert seed == 0
    assert constraints.name == "use_case_calibration"
    areas = {t.area for t in targets}
    assert areas == {AreaKind.URBAN, AreaKind.SUBURBAN, AreaKind.RURAL}
    kinds = {type(t) for t in targets}
    assert kinds == {SavingsTarget, DeltaTarget}


def test_targets_document_rejects_unknown_keys():
    doc = {"horizon_years": 5, "seed": 0, "targets": [], "extra": 1}
    with pytest.raises(MalformedScenario, match="extra"):
        load_targets_document(json.dumps(doc))
    bad_target = {
        "horizon_years": 5,
        "seed": 0,
        "targets": [
            {
                "kind": "saving",
                "area": "urban",
                "metric": "total",
                "configuration": "MOCN",
                "value": 20.0,
                "wieght": 1.0,
            }
        ],
    }
    with pytest.raises(MalformedScenario, match="wieght"):
        load_targets_document(json.dumps(bad_target))


def test_deeply_nested_targets_document_is_malformed():
    with pytest.raises(MalformedScenario, match="nested too deeply"):
        load_targets_document("[" * 100_000)


_GOOD_TARGET = {"kind": "saving", "area": "urban", "configuration": "MOCN", "value": 20.0}


@pytest.mark.parametrize(
    "doc",
    [
        5,
        {"targets": 5},
        {"targets": [5]},
        {"targets": [dict(_GOOD_TARGET, value="x")]},
        {"targets": [dict(_GOOD_TARGET, value=None)]},
        {"targets": [{k: v for k, v in _GOOD_TARGET.items() if k != "value"}]},
        {"targets": [dict(_GOOD_TARGET, weight="1")]},
        {"targets": [_GOOD_TARGET], "seed": "x"},
        {"targets": [_GOOD_TARGET], "seed": -1},
        {"targets": [_GOOD_TARGET], "horizon_years": True},
        {"targets": [_GOOD_TARGET], "constraints": 5},
        {"targets": [_GOOD_TARGET], "constraints": {"constraints": [5]}},
        {"targets": [_GOOD_TARGET], "constraints": {"constraints": [{"label": "a"}]}},
        {"targets": [dict(_GOOD_TARGET, configuration=["MOCN"])]},
        {"targets": [dict(_GOOD_TARGET, metric=["total"])]},
        {"targets": [dict(_GOOD_TARGET, note=5)]},
        {"targets": [{**_GOOD_TARGET, "kind": "delta", "first": "GWCN", "second": 5}]},
        {"targets": [{**_GOOD_TARGET, "kind": "delta", "first": ["GWCN"], "second": "MOCN"}]},
        {"targets": [dict(_GOOD_TARGET, value=float("nan"))]},
        {"targets": [dict(_GOOD_TARGET, value=float("inf"))]},
        {"targets": [dict(_GOOD_TARGET, value=float("-inf"))]},
        {"targets": [dict(_GOOD_TARGET, weight=float("nan"))]},
        {"targets": [dict(_GOOD_TARGET, bound=float("inf"))]},
        {"targets": [{**_GOOD_TARGET, "kind": "delta", "first": "GWCN", "second": "MOCN",
                      "value": float("nan")}]},
    ],
    ids=json.dumps,
)
def test_wrongly_typed_targets_documents_are_malformed(doc):
    with pytest.raises(MalformedScenario):
        load_targets_document(json.dumps(doc))


@pytest.mark.parametrize("field", ["weight", "bound"])
def test_negative_target_weight_or_bound_is_malformed(field):
    # A negative weight rewards distance from the target; a negative bound
    # can never be met.  Both are refused before any search runs.
    doc = {"targets": [dict(_GOOD_TARGET, **{field: -1})]}
    with pytest.raises(MalformedScenario, match=f"'{field}' must not be negative"):
        load_targets_document(json.dumps(doc))


def test_target_metric_names_are_validated():
    with pytest.raises(MalformedScenario, match="grand"):
        SavingsTarget(AreaKind.URBAN, "grand", "MOCN", 20.0)
