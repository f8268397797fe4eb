"""Reference-table calibration: feasibility, determinism and diagnostics."""

import json
from dataclasses import replace

import numpy as np
import pytest

from netshare import (
    AreaKind,
    CALIBRATION_CONSTRAINTS,
    CostTable,
    ElementClass,
    Ledger,
    RepartitionConstraint,
    RepartitionConstraintSet,
    SavingsTarget,
    apply_sharing,
    calibrate_reference,
    check_repartition,
    cumulative_cost,
    savings_report,
)
from netshare.calibration import (
    GRID_PRESETS,
    DeltaTarget,
    _AreaProblem,
    _feasible_point,
    _within_constraints,
    load_targets_document,
)
from netshare.errors import InfeasibleCalibration, MalformedScenario
from netshare.repartition import FRACTION_TOL
from netshare.sharing import preset


def _capex_pin(cls: ElementClass, lower: float, upper: float, label=None):
    return RepartitionConstraint(
        label or f"{cls.value}_pin", Ledger.CAPEX, frozenset({cls}), lower, upper
    )


FAST = dict(restarts=2, maxiter=120)


# ---------------------------------------------------------------------------
# infeasibility diagnostics
# ---------------------------------------------------------------------------


def test_overcommitted_fractions_are_detected_before_searching():
    constraints = RepartitionConstraintSet(
        "impossible",
        [
            _capex_pin(ElementClass.NODEB, 1.0, 1.0),
            _capex_pin(ElementClass.BACKHAUL, 0.5, 0.6),
        ],
    )
    targets = [(AreaKind.URBAN, "MOCN", 30.0)]
    with pytest.raises(InfeasibleCalibration) as info:
        calibrate_reference(constraints, targets, **FAST)
    assert "urban" in str(info.value)
    assert info.value.violations  # names the offending subset


def test_target_outside_reach_fails_with_residual_bound():
    # capex is pinned into an unshared class, so MOCN cannot reach 40 percent
    constraints = RepartitionConstraintSet(
        "pinned",
        [_capex_pin(ElementClass.STAFF, 0.9, 1.0)],
    )
    targets = [SavingsTarget(AreaKind.URBAN, "capex", "MOCN", 40.0, bound=2.0)]
    with pytest.raises(InfeasibleCalibration, match="residual"):
        calibrate_reference(constraints, targets, **FAST)


@pytest.mark.parametrize("seed", range(20))
def test_unreachable_target_fails_on_the_residual_bound_at_every_seed(seed):
    constraints = RepartitionConstraintSet(
        "pinned",
        [_capex_pin(ElementClass.STAFF, 0.9, 1.0)],
    )
    targets = [SavingsTarget(AreaKind.URBAN, "capex", "MOCN", 40.0, bound=2.0)]
    with pytest.raises(InfeasibleCalibration, match="residual"):
        calibrate_reference(constraints, targets, seed=seed, **FAST)


@pytest.mark.parametrize("seed", range(3))
def test_search_metric_matches_the_cost_model(seed):
    configs = [preset(name) for name in GRID_PRESETS] + [
        replace(preset("GWCN", operator_count=3, split_ratios=(0.2, 0.3, 0.5)), name="3-way"),
        replace(preset("MOCN + Backhaul", intl_shared=True), name="intl"),
        replace(preset("GWCN - Spectrum", couple_site_costs=True), name="coupled"),
    ]
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, 2 * len(ElementClass)) * (rng.random(2 * len(ElementClass)) > 0.2)
    x[0] = x[-1] = 0.5  # keep both ledgers non-empty
    horizon = 3 + seed
    problem = _AreaProblem(AreaKind.URBAN, [], [], {c.name: c for c in configs}, horizon)
    table = CostTable(
        AreaKind.URBAN,
        {cls: (x[i], x[len(ElementClass) + i]) for i, cls in enumerate(ElementClass)},
    )
    baseline = cumulative_cost(table, horizon)
    for config in configs:
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        for metric in ("capex", "opex", "total"):
            expected = getattr(report, f"{metric}_saving_pct")
            assert problem._metric(x, metric, config.name) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "constraints",
    [
        RepartitionConstraintSet("pinned", [_capex_pin(ElementClass.STAFF, 0.9, 1.0)]),
        CALIBRATION_CONSTRAINTS,
    ],
    ids=["pinned", "use_case"],
)
def test_every_initial_guess_is_feasible(constraints):
    configs = {name: preset(name) for name in GRID_PRESETS}
    for area in AreaKind:
        problem = _AreaProblem(area, [], constraints.for_area(area), configs, 5)
        for seed in range(5):
            guesses = problem.initial_guesses(np.random.default_rng(seed), 8)
            assert len(guesses) == 8
            for guess in guesses:
                assert problem._max_violation(guess) <= FRACTION_TOL


@pytest.mark.parametrize("opex_total", [0.02, 0.1, 0.3])
def test_opex_rows_are_judged_as_fractions(opex_total):
    # an OPEX share 2 * FRACTION_TOL above its bound violates, whatever the ledger's scale
    intl = RepartitionConstraint(
        "intl", Ledger.OPEX, frozenset({ElementClass.INTERNATIONAL_CONNECTIVITY}), 0.5, 0.6
    )
    problem = _AreaProblem(AreaKind.URBAN, [], [intl], {}, 5)
    cap = np.full(len(ElementClass), 1.0 / len(ElementClass))
    index = list(ElementClass).index(ElementClass.INTERNATIONAL_CONNECTIVITY)
    for share, violates in ((0.6, False), (0.6 + 2 * FRACTION_TOL, True)):
        op = np.full(len(ElementClass), (1.0 - share) / (len(ElementClass) - 1))
        op[index] = share
        x = np.concatenate([cap, op * opex_total])
        assert bool(problem._max_violation(x) > FRACTION_TOL) is violates


@pytest.mark.parametrize("seed", range(4))
def test_linear_rows_agree_with_the_verifier(seed):
    # LP vertices sit on their bounds; moved 1e-13 .. 1e-3 of the way toward a
    # random point, they land on both sides of the tolerance
    n = len(ElementClass)
    rng = np.random.default_rng(seed)
    outcomes = set()
    for area in AreaKind:
        problem = _AreaProblem(area, [], CALIBRATION_CONSTRAINTS.for_area(area), {}, 5)
        for _ in range(12):
            x = np.concatenate(
                [_feasible_point(problem.by_ledger[ledger], rng.standard_normal(n))
                 for ledger in (Ledger.CAPEX, Ledger.OPEX)]
            )
            step = 10 ** rng.uniform(-13, -3)
            x = (1.0 - step) * x + step * rng.random(2 * n)
            x[:n] /= x[:n].sum()
            x[n:] *= 10 ** rng.uniform(-2, 1) / x[n:].sum()
            table = CostTable(area, {cls: (x[i], x[n + i]) for i, cls in enumerate(ElementClass)})
            rejected = not check_repartition(table, CALIBRATION_CONSTRAINTS).overall
            assert bool(problem._max_violation(x) > FRACTION_TOL) is rejected
            outcomes.add(rejected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("ledger", [Ledger.CAPEX, Ledger.OPEX])
def test_projected_amounts_pass_the_verifier_after_rounding(ledger):
    for area in AreaKind:
        constraints = [
            c for c in CALIBRATION_CONSTRAINTS.for_area(area) if c.ledger.base() is ledger
        ]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            amounts = rng.random(len(ElementClass))
            amounts *= 10 ** rng.uniform(2, 6) / amounts.sum()
            projected = _within_constraints(amounts, constraints)
            assert projected.sum() == pytest.approx(amounts.sum())
            rounded = [round(float(x), 4) for x in projected]
            entries = {
                cls: (x, 0.0) if ledger is Ledger.CAPEX else (0.0, x)
                for cls, x in zip(ElementClass, rounded)
            }
            table = CostTable(area, entries)
            assert check_repartition(table, constraints).overall


def test_projection_meets_its_rows_in_a_single_target_search():
    # HiGHS's default feasibility tolerance let the projected CAPEX ledger
    # miss core_share by more than the rounding margin.
    targets = [SavingsTarget(AreaKind.URBAN, "capex", "MOCN", 25.0)]
    result = calibrate_reference(CALIBRATION_CONSTRAINTS, targets, **FAST)
    table = result.tables[AreaKind.URBAN]
    assert check_repartition(table, result.constraint_sets[AreaKind.URBAN]).overall


def test_unknown_target_configuration_is_malformed():
    targets = [(AreaKind.URBAN, "MORAN Deluxe", 30.0)]
    with pytest.raises(MalformedScenario, match="MORAN Deluxe"):
        calibrate_reference(CALIBRATION_CONSTRAINTS, targets, **FAST)


def test_empty_target_list_is_malformed():
    with pytest.raises(MalformedScenario):
        calibrate_reference(CALIBRATION_CONSTRAINTS, [], **FAST)


@pytest.mark.parametrize("horizon", [0, -1, True, 2.5])
def test_horizon_must_be_a_positive_integer(horizon):
    targets = [("urban", "MOCN", 25.0)]
    with pytest.raises(MalformedScenario, match="horizon_years"):
        calibrate_reference(CALIBRATION_CONSTRAINTS, targets, horizon_years=horizon, **FAST)


@pytest.mark.parametrize(
    "target, message", [(("nope", "MOCN", 30), "area"), (("urban", "MOCN", "x"), "value")]
)
def test_malformed_tuple_targets_are_malformed(target, message):
    with pytest.raises(MalformedScenario, match=message):
        calibrate_reference(CALIBRATION_CONSTRAINTS, [target], **FAST)


# ---------------------------------------------------------------------------
# small end-to-end searches
# ---------------------------------------------------------------------------


def _loose_constraints():
    return RepartitionConstraintSet(
        "loose",
        [
            _capex_pin(ElementClass.NODEB, 0.2, 0.6),
            RepartitionConstraint(
                "oam_op", Ledger.OPEX, frozenset({ElementClass.OAM}), 0.1, 0.9
            ),
        ],
    )


def test_single_area_search_meets_its_target():
    targets = [SavingsTarget(AreaKind.SUBURBAN, "capex", "MOCN", 28.0, bound=1.0)]
    result = calibrate_reference(_loose_constraints(), targets, seed=3, **FAST)
    assert set(result.tables) == {AreaKind.SUBURBAN}
    (outcome,) = result.outcomes
    assert outcome.within_bound
    assert abs(outcome.residual) <= 1.0
    table = result.tables[AreaKind.SUBURBAN]
    assert check_repartition(table, _loose_constraints()).overall


@pytest.mark.parametrize("seed", range(20))
def test_returned_tables_pass_the_verifier_at_every_seed(seed):
    targets = [SavingsTarget(AreaKind.SUBURBAN, "capex", "MOCN", 28.0, bound=1.0)]
    try:
        result = calibrate_reference(_loose_constraints(), targets, seed=seed, **FAST)
    except InfeasibleCalibration as exc:
        assert "residual" in str(exc)
    else:
        table = result.tables[AreaKind.SUBURBAN]
        assert check_repartition(table, _loose_constraints()).overall


def test_same_seed_reproduces_identical_tables():
    targets = [SavingsTarget(AreaKind.URBAN, "total", "GWCN", 22.0, bound=2.0)]
    first = calibrate_reference(_loose_constraints(), targets, seed=11, **FAST)
    second = calibrate_reference(_loose_constraints(), targets, seed=11, **FAST)
    a = first.tables[AreaKind.URBAN]
    b = second.tables[AreaKind.URBAN]
    for cls in ElementClass:
        assert a.entries[cls] == b.entries[cls]


def test_delta_targets_steer_configuration_gaps():
    targets = [
        SavingsTarget(AreaKind.URBAN, "total", "GWCN + Backhaul", 27.0, bound=2.0),
        DeltaTarget(
            AreaKind.URBAN, "total", "GWCN + Backhaul", "MOCN + Backhaul", 1.5, bound=1.0
        ),
    ]
    result = calibrate_reference(_loose_constraints(), targets, seed=5, **FAST)
    for outcome in result.outcomes:
        assert outcome.within_bound, outcome.target.describe()


def test_result_records_method_seed_and_horizon():
    targets = [SavingsTarget(AreaKind.RURAL, "opex", "MOCN", 18.0, bound=2.0)]
    result = calibrate_reference(_loose_constraints(), targets, seed=7, **FAST)
    assert "SLSQP" in result.method
    assert result.seed == 7
    assert result.horizon_years == 5
    assert len(result.configurations) == 6
    report = result.residual_report()
    assert len(report) == 1
    description, achieved, residual = report[0]
    assert "rural" in description
    assert achieved == pytest.approx(18.0 + residual)


# ---------------------------------------------------------------------------
# targets document
# ---------------------------------------------------------------------------


def test_bundled_targets_document_parses():
    from netshare.scenario import fixture_path

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
