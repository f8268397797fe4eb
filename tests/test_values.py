"""The frozen value types: immutable, compared and hashed by field, copied and pickled whole."""

import copy
import importlib
import operator
import pickle

import pytest

from conftest import import_calibrate_extra
from netshare.advisor import (
    ChecklistItem,
    ComparisonRow,
    ConstraintChecklist,
    LteComparisonReport,
    LteContext,
    Recommendation,
    Verdict,
)
from netshare.calibration import CalibrationResult, DeltaTarget, SavingsTarget, TargetOutcome
from netshare.costmodel import (
    ConfigDelta,
    CostBreakdown,
    SavingsReport,
    apply_sharing,
    cumulative_cost,
    savings_report,
)
from netshare.errors import FrozenValue
from netshare.inventory import (
    AreaKind,
    AreaProfile,
    CostEntry,
    CostTable,
    ElementClass,
    Ledger,
    NetworkState,
    Technology,
)
from netshare.repartition import (
    ConstraintCheck,
    ConstraintReport,
    RepartitionConstraint,
    RepartitionConstraintSet,
)
from netshare.scenario import (
    Scenario,
    ScenarioResult,
    SweepPoint,
    SweepResult,
    SweepSpec,
    load_scenario_file,
    run_scenario,
)
from netshare.sharing import (
    LevelAssessment,
    RegulatoryPolicy,
    SharingConfiguration,
    SharingLevel,
    ValidationIssue,
    ValidationReport,
)

_URBAN = AreaKind.URBAN
_TABLE = CostTable(_URBAN, {ElementClass.NODEB: CostEntry(1.0, 2.0)})
_ISSUE = ValidationIssue("GwcnWithoutRan", "a shared core gateway requires a shared RNC")
_ROW = ComparisonRow("cost", "-", "+", "pooling splits one more cost block")
_ITEM = ChecklistItem("site", "Choice of site.", True)
_CONSTRAINT = RepartitionConstraint(
    "nodeb", Ledger.CAPEX, frozenset({ElementClass.NODEB}), 0.1, 0.5, _URBAN
)
_CONSTRAINTS = RepartitionConstraintSet("set", (_CONSTRAINT,))
_CHECK = ConstraintCheck(_CONSTRAINT, 0.25, True)
_TARGET = SavingsTarget(_URBAN, "capex", "MOCN", 40.0, 1.0, 2.0, "headline")
_OUTCOME = TargetOutcome(_TARGET, 39.5, -0.5)
_POINT = SweepPoint(0.5, ScenarioResult("s", 5, (), (), ()))
_POLICY = RegulatoryPolicy(False, SharingLevel.L4_RNC)
_CONFIG = SharingConfiguration("three", (ElementClass.NODEB,), (0.2, 0.3, 0.5), True, True, True)
_BASELINE = cumulative_cost(_TABLE, 5)
_REPORT = savings_report(_BASELINE, apply_sharing(_BASELINE, _CONFIG), _CONFIG)
_SPEC = SweepSpec("split_ratio", 0.2, 0.8, 3, None)

# Each value type with the arguments of one small valid instance, in field order.
# The instances above, which others hold, give their own fields.
VALUES = {
    CostEntry: (1.0, 2.0),
    CostTable: _TABLE[:],
    AreaProfile: (AreaKind.RURAL, 3, 1, 1, 1),
    CostBreakdown: (_URBAN, 5, (1.0, 2.0), (3.0, 4.0)),
    ConfigDelta: ("MOCN", "GWCN", _URBAN, 1.0, 2.0, 3.0),
    LevelAssessment: (SharingLevel.L3_NODEB, True),
    RegulatoryPolicy: _POLICY[:],
    ValidationIssue: _ISSUE[:],
    ValidationReport: ((_ISSUE,), ()),
    SweepSpec: _SPEC[:],
    SweepPoint: _POINT[:],
    SweepResult: ("s", "split_ratio", None, (_POINT,)),
    Recommendation: (AreaKind.RURAL, Technology.G3, Verdict.CASE_BY_CASE, ("note",)),
    LteContext: (True, False, True, False, 0.25),
    ComparisonRow: _ROW[:],
    LteComparisonReport: ((_ROW,), 1.0, -1.0, "MOCN"),
    ChecklistItem: _ITEM[:],
    ConstraintChecklist: (NetworkState.NEW, (_ITEM,)),
    RepartitionConstraint: _CONSTRAINT[:],
    RepartitionConstraintSet: _CONSTRAINTS[:],
    ConstraintCheck: _CHECK[:],
    ConstraintReport: ((_CHECK,), True),
    SavingsTarget: _TARGET[:],
    DeltaTarget: (_URBAN, "total", "GWCN", "MOCN", 1.5, 1.0, 2.0, ""),
    TargetOutcome: _OUTCOME[:],
    CalibrationResult: (
        {_URBAN: _TABLE},
        (_OUTCOME,),
        0,
        5,
        {_URBAN: 0.5},
    ),
    SharingConfiguration: _CONFIG[:],
    SavingsReport: _REPORT[:],
    Scenario: (
        "s", (_URBAN,), {_URBAN: _TABLE}, (_CONFIG,), 5, _POLICY, _SPEC
    ),
    ScenarioResult: ("s", 5, (_URBAN,), ("three",), (_REPORT,)),
}
# They hold dicts, or values that hold dicts (a scenario's cost tables).
UNHASHABLE = {CostTable, CalibrationResult, Scenario}
# The types with no __new__ of their own: FrozenValue's constructor builds them.
STORED_BY_THE_BASE = (
    CostBreakdown,
    ConfigDelta,
    ValidationIssue,
    ValidationReport,
    SweepResult,
    Recommendation,
    ComparisonRow,
    LteComparisonReport,
    ConstraintChecklist,
    ConstraintCheck,
    ConstraintReport,
    TargetOutcome,
    CalibrationResult,
    SavingsReport,
    ScenarioResult,
    SweepPoint,
)

_MODULES = (
    "advisor", "calibration", "costmodel", "inventory", "repartition", "scenario", "sharing"
)


def _with_fields(cls, values):
    """An instance of ``cls`` holding ``values``, bypassing its checks."""
    return tuple.__new__(cls, values)


def test_every_value_type_is_covered():
    found = {
        obj
        for name in _MODULES
        for obj in vars(importlib.import_module(f"netshare.{name}")).values()
        if isinstance(obj, type) and issubclass(obj, FrozenValue) and obj is not FrozenValue
    }
    assert found == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_type_behaves_as_a_frozen_value(cls):
    args = VALUES[cls]
    value = cls(*args)
    fields = cls._fields
    assert len(fields) == len(args)

    # Immutable: no field can be assigned or deleted, and no attribute added.
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == value[:]
    assert not hasattr(value, "__dict__")

    # Equal by field, within one class only.
    twin = cls(*args)
    assert twin is not value and twin == value and not twin != value
    for i in range(len(fields)):
        changed = list(value[:])
        changed[i] = object()
        assert value != _with_fields(cls, changed), fields[i]
    impostor = type(cls.__name__, (FrozenValue,), {"__slots__": (), "_fields": fields})
    assert value != _with_fields(impostor, value[:])
    assert _with_fields(impostor, value[:]) != value
    # Never equal to the plain tuple of its fields, and not ordered.
    plain = value[:]
    assert value != plain and plain != value and not value == plain and not plain == value
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(value, twin)

    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value.replace()) == hash(twin) == hash(value)

    # Copies and pickles rebuild it through its constructor.
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value

    assert cls(**dict(zip(fields, args))) == value
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in fields
    ) + ")"


def test_value_reprs_read_like_their_constructor_calls():
    assert repr(CostEntry(1.0, 2.0)) == "CostEntry(capex=1.0, opex_annual=2.0)"
    assert repr(SweepSpec("split_ratio", 0.2, 0.8, 3)) == (
        "SweepSpec(parameter='split_ratio', start=0.2, stop=0.8, steps=3, class_name=None)"
    )
    assert repr(LevelAssessment(SharingLevel.L3_NODEB)) == (
        "LevelAssessment(level=<SharingLevel.L3_NODEB: 3>, non_contiguous=False)"
    )


def _copies(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def test_scenario_keeps_its_validation_verdict_through_copies_and_pickles():
    scenario = load_scenario_file("paper_use_case.json")
    expected = run_scenario(scenario)
    for copied in _copies(scenario):
        assert copied == scenario and run_scenario(copied) == expected


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_constructor_refuses_a_value_too_many_and_an_unknown_name(cls):
    args = VALUES[cls]
    value = cls(*args)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*args, object())
    for build in (lambda: cls(*args, bogus=1), lambda: value.replace(bogus=1)):
        with pytest.raises(TypeError, match=rf"{cls.__name__}\b.*'bogus'"):
            build()


@pytest.mark.parametrize("cls", STORED_BY_THE_BASE, ids=lambda cls: cls.__name__)
def test_base_constructor_names_a_repeated_or_missing_field(cls):
    assert "__new__" not in vars(cls)
    args, fields = VALUES[cls], cls._fields
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == cls(*args)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) got field '{fields[0]}' twice$"):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) is missing field '{fields[-1]}'$"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) is missing field '{fields[0]}'$"):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {len(fields)} fields"):
        cls(*args, object())


def _assert_plain_json(doc, where):
    """Fail unless ``doc`` holds only JSON primitives, dicts and lists, at any depth.

    ``json`` writes any tuple, a value included, as a list without complaint,
    so a value left in an output by mistake would not fail there.
    """
    if type(doc) is dict:
        for key, item in doc.items():
            assert type(key) is str, f"{where}: key {key!r}"
            _assert_plain_json(item, f"{where}[{key!r}]")
    elif type(doc) is list:
        for i, item in enumerate(doc):
            _assert_plain_json(item, f"{where}[{i}]")
    else:
        assert doc is None or isinstance(doc, (str, int, float)), f"{where}: {doc!r}"


# Each value type that writes a document, with the method that writes it.
_WRITERS = {cls: cls.to_json_dict for cls in VALUES if "to_json_dict" in vars(cls)}


def _calibration_record(result):
    import_calibrate_extra()  # the record names the numpy and scipy versions
    return result.record(_CONSTRAINTS)


_WRITERS[CalibrationResult] = _calibration_record


@pytest.mark.parametrize("cls", _WRITERS, ids=lambda cls: cls.__name__)
def test_value_documents_hold_no_value(cls):
    _assert_plain_json(_WRITERS[cls](cls(*VALUES[cls])), cls.__name__)
