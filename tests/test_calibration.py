"""Reference-table calibration: feasibility, determinism and diagnostics.

Every test here runs the search or its internals, so the module skips
without the calibrate extra.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netshare
from conftest import import_calibrate_extra
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
    CalibrationResult,
    DeltaTarget,
    _AreaProblem,
    _feasible_point,
    _interval_rows,
    _load_search,
    _within_constraints,
    load_targets_document,
)
from netshare.errors import InfeasibleCalibration
from netshare.repartition import FRACTION_TOL
from netshare.scenario import fixture_path, reference_cost_table
from netshare.sharing import preset

np, _ = import_calibrate_extra()
# The internals read numpy and scipy from their module, which the first search binds.
_load_search()


def _capex_pin(cls: ElementClass, lower: float, upper: float, label=None):
    return RepartitionConstraint(
        label or f"{cls.value}_pin", Ledger.CAPEX, frozenset({cls}), lower, upper
    )


FAST = dict(restarts=2, maxiter=120)
_SRC = str(Path(netshare.__file__).resolve().parents[1])


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
    targets = [SavingsTarget(AreaKind.URBAN, "total", "MOCN", 30.0)]
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
        preset("GWCN").replace(name="3-way", split_ratios=(0.2, 0.3, 0.5)),
        preset("MOCN + Backhaul").replace(name="intl", intl_shared=True),
        preset("GWCN - Spectrum").replace(name="coupled", couple_site_costs=True),
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
    # the search's variables: both ledgers' fractions, and the cumulative OPEX share
    cap, op = np.split(x, 2)
    z = np.concatenate([cap / cap.sum(), op / op.sum()])
    opex_cum = horizon * op.sum() / cap.sum()
    balance = opex_cum / (1.0 + opex_cum)
    baseline = cumulative_cost(table, horizon)
    for config in configs:
        report = savings_report(baseline, apply_sharing(baseline, config), config)
        for metric in ("capex", "opex", "total"):
            expected = getattr(report, f"{metric}_saving_pct")
            row = problem.row(metric, config.name, balance)
            assert row @ z == pytest.approx(expected, rel=1e-12)


def _row_excess(constraints, fractions):
    """The largest amount by which ``fractions`` overshoot a row of ``constraints``."""
    a_ub, b_ub = _interval_rows(constraints)
    return (a_ub @ fractions - b_ub).max(initial=0.0)


@pytest.mark.parametrize(
    "constraints",
    [
        RepartitionConstraintSet("pinned", [_capex_pin(ElementClass.STAFF, 0.9, 1.0)]),
        CALIBRATION_CONSTRAINTS,
    ],
    ids=["pinned", "use_case"],
)
def test_every_initial_guess_is_feasible(constraints):
    # Each balance the scalar search tries starts a fit from even fractions,
    # which may break the rows; the fit it compares must meet them all.
    targets, _, horizon, _ = load_targets_document(
        fixture_path("use_case_targets.json").read_text(encoding="utf-8")
    )
    configs = {name: preset(name) for name in GRID_PRESETS}
    n = len(ElementClass)
    for area in AreaKind:
        problem = _AreaProblem(
            area,
            [t for t in targets if t.area is area],
            constraints.for_area(area),
            configs,
            horizon,
        )
        fits = []
        solve_at = problem._solve_at

        def recording(balance, rows, maxiter):
            fit = solve_at(balance, rows, maxiter)
            fits.append(fit.x)
            return fit

        problem._solve_at = recording
        balance, amounts = problem.solve(FAST["maxiter"])
        assert len(fits) > 1
        assert 0.0 < balance < 1.0
        for z in fits + [np.concatenate([amounts[:n], amounts[n:] / amounts[n:].sum()])]:
            assert z.min() >= -FRACTION_TOL
            for ledger, fractions in zip((Ledger.CAPEX, Ledger.OPEX), np.split(z, 2)):
                assert fractions.sum() == pytest.approx(1.0, abs=FRACTION_TOL)
                assert _row_excess(problem.by_ledger[ledger], fractions) <= FRACTION_TOL


@pytest.mark.parametrize("opex_total", [0.02, 0.1, 0.3])
def test_opex_rows_are_judged_as_fractions(opex_total):
    # an OPEX share 2 * FRACTION_TOL above its bound violates, whatever the ledger's scale,
    # and projecting the amounts moves it back inside without changing the ledger's total
    intl = RepartitionConstraint(
        "intl", Ledger.OPEX, frozenset({ElementClass.INTERNATIONAL_CONNECTIVITY}), 0.5, 0.6
    )
    n = len(ElementClass)
    index = list(ElementClass).index(ElementClass.INTERNATIONAL_CONNECTIVITY)
    for share, violates in ((0.6, False), (0.6 + 2 * FRACTION_TOL, True)):
        op = np.full(n, (1.0 - share) / (n - 1))
        op[index] = share
        amounts = op * opex_total
        assert bool(_row_excess([intl], amounts / amounts.sum()) > FRACTION_TOL) is violates
        table = CostTable(
            AreaKind.URBAN, {cls: (1.0 / n, amounts[i]) for i, cls in enumerate(ElementClass)}
        )
        assert check_repartition(table, [intl]).overall is not violates
        # the search hands over CAPEX summing to 1 and OPEX at opex_total, scaled jointly
        projected = _within_constraints(amounts * 100_000.0, [intl])
        assert projected.sum() == pytest.approx(opex_total * 100_000.0)
        assert 0.5 <= projected[index] / projected.sum() <= 0.6


@pytest.mark.parametrize("seed", range(4))
def test_linear_rows_agree_with_the_verifier(seed):
    # LP vertices sit on their bounds; moved 1e-13 .. 1e-3 of the way toward a
    # random point, they land on both sides of the tolerance
    n = len(ElementClass)
    rng = np.random.default_rng(seed)
    outcomes = set()
    for area in AreaKind:
        problem = _AreaProblem(area, [], CALIBRATION_CONSTRAINTS.for_area(area), {}, 5)
        ledgers = (Ledger.CAPEX, Ledger.OPEX)
        for _ in range(12):
            x = np.concatenate(
                [_feasible_point(problem.by_ledger[ledger], rng.standard_normal(n))
                 for ledger in ledgers]
            )
            step = 10 ** rng.uniform(-13, -3)
            x = (1.0 - step) * x + step * rng.random(2 * n)
            x[:n] /= x[:n].sum()
            x[n:] *= 10 ** rng.uniform(-2, 1) / x[n:].sum()
            table = CostTable(area, {cls: (x[i], x[n + i]) for i, cls in enumerate(ElementClass)})
            rejected = not check_repartition(table, CALIBRATION_CONSTRAINTS).overall
            excess = max(
                _row_excess(problem.by_ledger[ledger], part / part.sum())
                for ledger, part in zip(ledgers, np.split(x, 2))
            )
            assert bool(excess > FRACTION_TOL) is rejected
            outcomes.add(rejected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("ledger", [Ledger.CAPEX, Ledger.OPEX])
def test_projected_amounts_pass_the_verifier_after_rounding(ledger):
    for area in AreaKind:
        constraints = [c for c in CALIBRATION_CONSTRAINTS.for_area(area) if c.ledger is ledger]
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
    assert check_repartition(table, CALIBRATION_CONSTRAINTS).overall


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
    record = result.record(_loose_constraints())
    assert "SLSQP" in record["method"]
    assert result.seed == 7
    assert result.horizon_years == 5
    assert record["configurations"] == list(GRID_PRESETS)
    report = result.residual_report()
    assert len(report) == 1
    description, achieved, residual = report[0]
    assert "rural" in description
    assert achieved == pytest.approx(18.0 + residual)


# The bundled targets calibrated in a fresh interpreter: the BLAS thread
# count is fixed when numpy is imported.  Prints each table's fractions.
_CALIBRATE_FRACTIONS = """
import json, sys
from netshare import ElementClass, calibrate_reference
from netshare.calibration import load_targets_document
from netshare.scenario import fixture_path

targets, constraints, horizon, _ = load_targets_document(
    fixture_path("use_case_targets.json").read_text(encoding="utf-8")
)
result = calibrate_reference(constraints, targets, horizon_years=horizon, seed=int(sys.argv[1]))
fractions = {}
for area, table in result.tables.items():
    for ledger in ("capex", "opex_annual"):
        amounts = [getattr(table.entries[c], ledger) for c in ElementClass]
        fractions[f"{area.value} {ledger}"] = [a / sum(amounts) for a in amounts]
print(json.dumps(fractions))
"""


def test_tables_agree_across_seeds_and_blas_thread_counts():
    # ...and with the bundled tables, which the shipped search wrote: the
    # committed record names the method that CalibrationResult.record writes.
    committed = {}
    for area in AreaKind:
        table = reference_cost_table(area)
        for ledger in ("capex", "opex_annual"):
            amounts = [getattr(table.entries[c], ledger) for c in ElementClass]
            committed[f"{area.value} {ledger}"] = [a / sum(amounts) for a in amounts]
    record = json.loads(fixture_path("reference_calibration.json").read_text(encoding="utf-8"))
    empty = CalibrationResult(tables={}, outcomes=(), seed=0, horizon_years=5, balances={})
    assert record["method"] == empty.record(CALIBRATION_CONSTRAINTS)["method"]
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
        for seed in ("0", "5"):
            proc = subprocess.run(
                [sys.executable, "-c", _CALIBRATE_FRACTIONS, seed],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs[threads, seed] = json.loads(proc.stdout)
    assert len(committed) == 6
    for key, run in runs.items():
        assert run.keys() == committed.keys(), key
        for name, fractions in run.items():
            assert fractions == pytest.approx(runs["1", "0"][name], abs=1e-5), (key, name)
            assert fractions == pytest.approx(committed[name], abs=1e-5), (key, name)
