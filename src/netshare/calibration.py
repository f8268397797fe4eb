"""Offline calibration search for the bundled reference cost tables.

No absolute costs are available for the three-area use case, only fraction
envelopes (which classes take which share of each ledger) and headline
savings figures per configuration.  This module reconstructs cost tables
from those two ingredients: a constrained least-squares search over per-area
fraction vectors that must satisfy every repartition constraint and should
come as close as possible to the savings targets.

The search runs offline, seeded and deterministic.  Its output is committed
as fixtures (``reference_costs_*.json``) together with a sidecar record
(``reference_calibration.json``) holding the method, seed, constraint set,
achieved residuals and derived unit costs.  A standing regression test
re-verifies the committed tables against that record; the optimizer itself
never runs inside the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

from .costmodel import apply_sharing, cumulative_cost, savings_report, sharing_factors
from .errors import (
    InfeasibleCalibration,
    MalformedScenario,
    MissingDependency,
    NetshareError,
    read_integer,
    read_number,
    read_object,
    read_text,
)
from .inventory import AreaKind, CostEntry, CostTable, ElementClass, Ledger
from .repartition import (
    FRACTION_TOL,
    RepartitionConstraint,
    RepartitionConstraintSet,
    _c,
    check_repartition,
)
from .scenario import _parse_json
from .sharing import SharingConfiguration, preset

try:
    import numpy as np
    from scipy.optimize import linprog, minimize
except ImportError as exc:
    raise MissingDependency(
        f"calibration needs numpy and scipy ({exc}); "
        "install them with: pip install 'netshare[calibrate]'"
    ) from exc

__all__ = [
    "CALIBRATION_CONSTRAINTS",
    "CalibrationResult",
    "DeltaTarget",
    "SavingsTarget",
    "TargetOutcome",
    "calibrate_reference",
    "load_targets_document",
]

_CLASSES = tuple(ElementClass)
_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}
_N = len(_CLASSES)
# Where each ledger's 13 amounts sit in a search vector.
_LEDGER_PART = {Ledger.CAPEX: slice(None, _N), Ledger.OPEX: slice(_N, None)}

GRID_PRESETS = (
    "MOCN",
    "MOCN + Backhaul",
    "MOCN - Spectrum",
    "GWCN",
    "GWCN + Backhaul",
    "GWCN - Spectrum",
)


@dataclass(frozen=True)
class SavingsTarget:
    """One headline savings figure: metric of one configuration in one area."""

    area: AreaKind
    metric: str  # "capex", "opex" or "total"
    configuration: str
    value: float  # percent
    weight: float = 1.0
    bound: float = 2.0  # max acceptable |residual|, percentage points
    note: str = ""

    def __post_init__(self) -> None:
        _check_target(self)

    def describe(self) -> str:
        return f"{self.area.value}: {self.metric}({self.configuration}) = {self.value}"


@dataclass(frozen=True)
class DeltaTarget:
    """Difference of one metric between two configurations in one area."""

    area: AreaKind
    metric: str
    first: str
    second: str
    value: float  # percentage points
    weight: float = 1.0
    bound: float = 2.0
    note: str = ""

    def __post_init__(self) -> None:
        _check_target(self)

    def describe(self) -> str:
        return (
            f"{self.area.value}: {self.metric}({self.first}) - "
            f"{self.metric}({self.second}) = {self.value}"
        )


Target = Union[SavingsTarget, DeltaTarget]


def _check_target(target: Target) -> None:
    if target.metric not in ("capex", "opex", "total"):
        raise MalformedScenario(f"unknown target metric {target.metric!r}")
    for name in ("value", "weight", "bound"):
        number = read_number(getattr(target, name), f"target {name!r}", MalformedScenario)
        if not math.isfinite(number):
            raise MalformedScenario(f"target {name!r} must be finite, got {number!r}")
        if name != "value" and number < 0:
            raise MalformedScenario(f"target {name!r} must not be negative, got {number!r}")


@dataclass(frozen=True)
class TargetOutcome:
    target: Target
    achieved: float
    residual: float  # achieved - target.value

    @property
    def within_bound(self) -> bool:
        return abs(self.residual) <= self.target.bound


@dataclass(frozen=True)
class CalibrationResult:
    tables: Mapping[AreaKind, CostTable]
    outcomes: Tuple[TargetOutcome, ...]
    constraint_sets: Mapping[AreaKind, RepartitionConstraintSet]
    method: str
    seed: int
    horizon_years: int
    configurations: Tuple[str, ...]

    def residual_report(self) -> Tuple[Tuple[str, float, float], ...]:
        return tuple((o.target.describe(), o.achieved, o.residual) for o in self.outcomes)


# ---------------------------------------------------------------------------
# Calibration constraint set
# ---------------------------------------------------------------------------

_E = ElementClass


# Feasible variant of the use-case envelope from default_constraints().
# Two lower bounds are widened, because the published point estimates are
# jointly unsatisfiable once the savings targets enter:
#   - rnc_share for urban/suburban drops 0.32 -> 0.27 (nodeb + rnc floors
#     alone would otherwise exceed the CAPEX shared base implied by the
#     minimum-savings target);
#   - backhaul_share for rural drops 0.32 -> 0.24 (the rural CAPEX floor
#     plus backhaul/core/oam floors would exceed the whole ledger).
# The regression suite records exactly which default-envelope members the
# committed tables miss, so the deviation stays visible.
CALIBRATION_CONSTRAINTS = RepartitionConstraintSet(
    name="use_case_calibration",
    constraints=(
        _c("core_share", Ledger.CAPEX, {_E.CORE_SGSN, _E.CORE_GGSN}, 0.08, 0.17),
        _c("oam_share", Ledger.CAPEX, {_E.OAM}, 0.08, 0.17),
        _c("nodeb_share", Ledger.CAPEX, {_E.NODEB}, 0.23, 0.29),
        _c("backhaul_share_urban", Ledger.CAPEX, {_E.BACKHAUL}, 0.32, 0.41, AreaKind.URBAN),
        _c(
            "backhaul_share_suburban",
            Ledger.CAPEX,
            {_E.BACKHAUL},
            0.32,
            0.41,
            AreaKind.SUBURBAN,
        ),
        _c("backhaul_share_rural", Ledger.CAPEX, {_E.BACKHAUL}, 0.24, 0.41, AreaKind.RURAL),
        _c("rnc_share_urban", Ledger.CAPEX, {_E.RNC}, 0.27, 0.41, AreaKind.URBAN),
        _c("rnc_share_suburban", Ledger.CAPEX, {_E.RNC}, 0.27, 0.41, AreaKind.SUBURBAN),
        _c("rnc_share_rural", Ledger.CAPEX, {_E.RNC}, 0.09, 0.13, AreaKind.RURAL),
        _c(
            "international_share",
            Ledger.OPEX,
            {_E.INTERNATIONAL_CONNECTIVITY},
            0.50,
            0.60,
        ),
        _c(
            "licence_core_share",
            Ledger.OPEX,
            {_E.SPECTRUM_LICENSE, _E.CORE_SGSN, _E.CORE_GGSN},
            0.08,
            0.12,
        ),
    ),
)


# ---------------------------------------------------------------------------
# Search internals
# ---------------------------------------------------------------------------


def _normalise_targets(targets: Sequence) -> Tuple[Target, ...]:
    out = []
    for t in targets:
        if isinstance(t, (SavingsTarget, DeltaTarget)):
            out.append(t)
        elif isinstance(t, (tuple, list)) and len(t) == 3:
            area, configuration, value = t
            out.append(
                SavingsTarget(
                    area=_area(area),
                    metric="total",
                    configuration=str(configuration),
                    value=read_number(value, "target value", MalformedScenario),
                )
            )
        else:
            raise MalformedScenario(f"cannot interpret calibration target {t!r}")
    return tuple(out)


def _mask(classes) -> np.ndarray:
    """Indicator vector of ``classes`` in ``ElementClass`` order."""
    mask = np.zeros(_N)
    for cls in classes:
        mask[_INDEX[cls]] = 1.0
    return mask


def _interval_rows(constraints: Sequence[RepartitionConstraint], margin: float = 0.0):
    """``A_ub @ f <= b_ub`` rows keeping each group's fraction ``margin`` inside its bounds.

    The margin is capped at half of each interval's width.
    """
    a_ub, b_ub = [], []
    for con in constraints:
        row = _mask(con.classes)
        inset = min(margin, (con.upper - con.lower) / 2)
        a_ub.append(row)  # sum <= upper
        b_ub.append(con.upper - inset)
        a_ub.append(-row)  # sum >= lower
        b_ub.append(-(con.lower + inset))
    return np.array(a_ub).reshape(-1, _N), np.array(b_ub)


def _feasible_point(constraints: Sequence[RepartitionConstraint], cost: np.ndarray):
    """The LP vertex of ``cost`` among fraction vectors meeting ``constraints``, or None."""
    a_ub, b_ub = _interval_rows(constraints)
    res = linprog(
        c=cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, _N)),
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * _N,
        method="highs",
    )
    if not res.success:
        return None
    return np.clip(res.x, 0.0, 1.0)


def _within_constraints(
    amounts: np.ndarray, constraints: Sequence[RepartitionConstraint]
) -> np.ndarray:
    """One ledger's amounts, moved the least (L1 on fractions) to meet ``constraints``.

    The ledger total is kept.  The tables store amounts rounded to 4
    decimals, which moves each of the 13 amounts by up to 0.5e-4 and so a
    group's fraction by up to about ``13 * 0.5e-4 / total``.  Every fraction
    is kept twice that far inside its bounds, so the rounded table still
    passes :func:`check_repartition`.  When the narrowed intervals admit no
    vector, the amounts come back unchanged and the verifier decides.
    """
    total = float(amounts.sum())
    if not constraints or total <= 0:
        return amounts
    fractions = amounts / total
    a_int, b_int = _interval_rows(constraints, margin=2 * _N * 0.5e-4 / total)
    # variables: projected fractions p, then t >= |p - fractions|; minimise sum(t)
    eye = np.eye(_N)
    res = linprog(
        c=np.concatenate([np.zeros(_N), np.ones(_N)]),
        A_ub=np.block([[a_int, np.zeros_like(a_int)], [eye, -eye], [-eye, -eye]]),
        b_ub=np.concatenate([b_int, fractions, -fractions]),
        A_eq=np.concatenate([np.ones(_N), np.zeros(_N)])[None, :],
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * _N + [(0.0, None)] * _N,
        method="highs",
        # The default feasibility tolerance (1e-7) exceeds the margin and let points miss the rows.
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        return amounts
    return total * np.clip(res.x[:_N], 0.0, 1.0)


class _AreaProblem:
    """Least-squares problem over one area's 26 cost amounts.

    Variables: x[:13] CAPEX amounts (normalised to sum 1) and x[13:] annual
    OPEX amounts (free scale, which sets the CAPEX/OPEX weighting of the
    total).  All savings metrics are smooth rational functions of x.
    """

    def __init__(
        self,
        area: AreaKind,
        targets: Sequence[Target],
        constraints: Sequence[RepartitionConstraint],
        configurations: Mapping[str, SharingConfiguration],
        horizon_years: int,
    ) -> None:
        self.area = area
        self.targets = tuple(targets)
        self.horizon = horizon_years
        self.by_ledger = {
            ledger: tuple(c for c in constraints if c.ledger.base() is ledger)
            for ledger in _LEDGER_PART
        }
        # Share of each class's cost that operator 0 stops carrying, per configuration.
        self.weights = {
            name: 1.0 - np.array(sharing_factors(config))
            for name, config in configurations.items()
        }
        # Linear constraints G @ x >= h.  With f = x[part] / sum(x[part]), a
        # fraction row a @ f <= b is the amount row (b * 1 - a) @ x[part] >= 0.
        # Row 0 keeps the OPEX ledger non-degenerate; S @ x is the ledger sum
        # of every later row.
        rows, sums = [], []
        for ledger, part in _LEDGER_PART.items():
            a_ub, b_ub = _interval_rows(self.by_ledger[ledger])
            row = np.zeros((len(b_ub), 2 * _N))
            row[:, part] = b_ub[:, None] - a_ub
            total = np.zeros_like(row)
            total[:, part] = 1.0
            rows.append(row)
            sums.append(total)
        self.G = np.vstack([np.repeat([[0.0, 1.0]], _N, axis=1), *rows])
        self.h = np.zeros(len(self.G))
        self.h[0] = 1e-3
        self.S = np.vstack(sums)

    # -- metric evaluation ------------------------------------------------

    def _metric(self, x: np.ndarray, metric: str, configuration: str) -> float:
        cap = x[:_N]
        op = x[_N:]
        cap_total = cap.sum()
        op_total = op.sum()
        weight = self.weights[configuration]
        scap = 100.0 * float(weight @ cap) / cap_total
        sop = 100.0 * float(weight @ op) / op_total if op_total > 0 else 0.0
        if metric == "capex":
            return scap
        if metric == "opex":
            return sop
        opex_cum = self.horizon * op_total
        grand = cap_total + opex_cum
        return (cap_total * scap + opex_cum * sop) / grand

    def evaluate(self, x: np.ndarray, target: Target) -> float:
        if isinstance(target, SavingsTarget):
            return self._metric(x, target.metric, target.configuration)
        return self._metric(x, target.metric, target.first) - self._metric(
            x, target.metric, target.second
        )

    def objective(self, x: np.ndarray) -> float:
        total = 0.0
        for target in self.targets:
            err = self.evaluate(x, target) - target.value
            total += target.weight * err * err
        return total

    # -- constraints for SLSQP ---------------------------------------------

    def slsqp_constraints(self):
        """The CAPEX equality and all inequality rows, each with its constant Jacobian."""
        capex_sum, G, h = np.repeat([[1.0, 0.0]], _N, axis=1), self.G, self.h
        return (
            {"type": "eq", "fun": lambda x: capex_sum @ x - 1.0, "jac": lambda x: capex_sum},
            {"type": "ineq", "fun": lambda x: G @ x - h, "jac": lambda x: G},
        )

    def initial_guesses(self, rng: np.random.Generator, count: int):
        vertices = []
        for _ in range(count):
            cap = _feasible_point(self.by_ledger[Ledger.CAPEX], rng.standard_normal(_N))
            op = _feasible_point(self.by_ledger[Ledger.OPEX], rng.standard_normal(_N))
            if cap is not None and op is not None:
                vertices.append((cap, op))
        if not vertices:
            return []
        # soften LP-vertex starts toward the mean of the vertices drawn: a
        # convex blend of feasible points stays feasible
        cap_centre = np.mean([cap for cap, _ in vertices], axis=0)
        op_centre = np.mean([op for _, op in vertices], axis=0)
        guesses = []
        for cap, op in vertices:
            blend = rng.uniform(0.05, 0.35)
            cap = (1 - blend) * cap + blend * cap_centre
            op = (1 - blend) * op + blend * op_centre
            # annual OPEX scale: start near an even CAPEX/OPEX split of the
            # cumulative total, then jitter
            omega = rng.uniform(0.5, 1.5) / self.horizon
            guesses.append(np.concatenate([cap, op * omega]))
        return guesses

    def solve(self, rng: np.random.Generator, restarts: int, maxiter: int):
        best = None
        cons = self.slsqp_constraints()
        bounds = [(0.0, 1.0)] * _N + [(0.0, 5.0)] * _N
        for guess in self.initial_guesses(rng, restarts):
            res = minimize(
                self.objective,
                guess,
                method="SLSQP",
                bounds=bounds,
                constraints=cons,
                options={"maxiter": maxiter, "ftol": 1e-14},
            )
            if not np.all(np.isfinite(res.x)):
                continue
            violation = self._max_violation(res.x)
            score = (violation > FRACTION_TOL, res.fun)
            if best is None or score < best[0]:
                best = (score, res.x.copy())
        if best is None:
            return None
        return best[1]

    def _max_violation(self, x: np.ndarray) -> float:
        """Largest constraint violation at ``x``, on the scale of ``FRACTION_TOL``.

        Repartition rows are amounts; dividing each shortfall by its ledger's
        sum makes it a fraction, as :func:`check_repartition` measures it.  An
        empty OPEX ledger already breaks the floor row, so rows of an empty
        ledger are not divided.
        """
        shortfall = np.maximum(self.h - self.G @ x, 0.0)
        sums = self.S @ x
        fractions = np.divide(shortfall[1:], sums, out=np.zeros_like(sums), where=sums > 0)
        return max(abs(x[:_N].sum() - 1.0), shortfall[0], fractions.max(initial=0.0))


def _pipeline_metric(
    table: CostTable, config: SharingConfiguration, metric: str, horizon: int
) -> float:
    """Metric recomputed through the real cost model (not the search form)."""
    baseline = cumulative_cost(table, horizon)
    report = savings_report(baseline, apply_sharing(baseline, config), config)
    return getattr(report, f"{metric}_saving_pct")


def calibrate_reference(
    constraints: RepartitionConstraintSet,
    targets: Sequence,
    *,
    configurations: Optional[Sequence[SharingConfiguration]] = None,
    horizon_years: int = 5,
    seed: int = 0,
    restarts: int = 8,
    maxiter: int = 400,
    capex_scale: float = 100_000.0,
    currency: str = "units",
) -> CalibrationResult:
    """Fit one cost table per targeted area to constraints and targets.

    The best search candidate of each area is moved back onto that area's
    constraints before its amounts are rounded, so every returned table
    passes :func:`check_repartition` with the constraints it was fitted to.

    Raises :class:`InfeasibleCalibration` when the constraint set admits no
    fraction vector for some area, when the rounded table of the best
    candidate still fails :func:`check_repartition`, or when a target ends up
    farther from its value than its declared residual bound.
    """
    horizon_years = read_integer(horizon_years, "horizon_years", MalformedScenario, 1)
    targets = _normalise_targets(targets)
    if not targets:
        raise MalformedScenario("calibration needs at least one target")
    if configurations is None:
        configurations = tuple(preset(name) for name in GRID_PRESETS)
    config_map = {c.name: c for c in configurations}
    for target in targets:
        names = (
            (target.configuration,)
            if isinstance(target, SavingsTarget)
            else (target.first, target.second)
        )
        for name in names:
            if name not in config_map:
                raise MalformedScenario(
                    f"target references unknown configuration {name!r}"
                )

    areas = []
    for target in targets:
        if target.area not in areas:
            areas.append(target.area)

    rng = np.random.default_rng(read_integer(seed, "seed", MalformedScenario, 0))
    tables = {}
    constraint_sets = {}
    outcomes = []
    for area in areas:
        area_constraints = constraints.for_area(area)
        problem = _AreaProblem(
            area=area,
            targets=[t for t in targets if t.area is area],
            constraints=area_constraints,
            configurations=config_map,
            horizon_years=horizon_years,
        )
        for ledger, subset in problem.by_ledger.items():
            if _feasible_point(subset, np.zeros(_N)) is None:
                raise InfeasibleCalibration(
                    f"{area.value} {ledger.value} constraints admit no fraction vector",
                    violations=[c.label for c in subset],
                )
        solution = problem.solve(rng, restarts=restarts, maxiter=maxiter)
        if solution is None:
            raise InfeasibleCalibration(
                f"search found no candidate for {area.value}",
                violations=[c.label for c in area_constraints],
            )
        cap = np.clip(solution[:_N], 0.0, None)
        op = np.clip(solution[_N:], 0.0, None)
        # rescale jointly so the CAPEX ledger sums to capex_scale without
        # moving the CAPEX/OPEX balance
        scale = capex_scale / cap.sum()
        cap = _within_constraints(cap * scale, problem.by_ledger[Ledger.CAPEX])
        op = _within_constraints(op * scale, problem.by_ledger[Ledger.OPEX])
        entries = {}
        for cls in _CLASSES:
            capex = round(float(cap[_INDEX[cls]]), 4)
            opex = round(float(op[_INDEX[cls]]), 4)
            if capex or opex:
                entries[cls] = CostEntry(capex, opex)
        table = CostTable(area=area, entries=entries, currency=currency)
        report = check_repartition(
            table, RepartitionConstraintSet(constraints.name, area_constraints)
        )
        if not report.overall:
            raise InfeasibleCalibration(
                f"calibrated {area.value} table violates constraints",
                violations=[c.constraint.label for c in report.failures()],
            )
        tables[area] = table
        constraint_sets[area] = RepartitionConstraintSet(constraints.name, area_constraints)
        for target in problem.targets:
            if isinstance(target, SavingsTarget):
                achieved = _pipeline_metric(
                    table, config_map[target.configuration], target.metric, horizon_years
                )
            else:
                achieved = _pipeline_metric(
                    table, config_map[target.first], target.metric, horizon_years
                ) - _pipeline_metric(
                    table, config_map[target.second], target.metric, horizon_years
                )
            outcomes.append(
                TargetOutcome(target=target, achieved=achieved, residual=achieved - target.value)
            )

    out_of_bound = [o for o in outcomes if not o.within_bound]
    if out_of_bound:
        raise InfeasibleCalibration(
            "calibration could not reach the residual bounds",
            violations=[
                f"{o.target.describe()} (achieved {o.achieved:.4f})" for o in out_of_bound
            ],
        )
    return CalibrationResult(
        tables=tables,
        outcomes=tuple(outcomes),
        constraint_sets=constraint_sets,
        method=(
            f"multistart SLSQP over per-area fraction vectors ({restarts} LP-seeded starts), "
            "winner L1-projected onto the constraints"
        ),
        seed=seed,
        horizon_years=horizon_years,
        configurations=tuple(config_map),
    )


# ---------------------------------------------------------------------------
# Targets document
# ---------------------------------------------------------------------------

# Each target kind: its class and the configuration names it reads.
_TARGET_KINDS = {
    "saving": (SavingsTarget, ("configuration",)),
    "delta": (DeltaTarget, ("first", "second")),
}
_TARGET_KEYS = (
    "kind", "area", "metric", "configuration", "first", "second", "value", "weight", "bound", "note"
)


def _parse_target(doc: Mapping) -> Target:
    read_object(doc, "target", MalformedScenario, _TARGET_KEYS, ("value",))
    kind = read_text(doc.get("kind", "saving"), "target 'kind'", MalformedScenario)
    if kind not in _TARGET_KINDS:
        raise MalformedScenario(f"unknown target kind {kind!r}")
    cls, names = _TARGET_KINDS[kind]
    read_object(doc, f"{kind} target", MalformedScenario, _TARGET_KEYS, names)

    def text(name, default=None):
        return read_text(doc.get(name, default), f"target {name!r}", MalformedScenario)

    def number(name, default=None):
        return read_number(doc.get(name, default), f"target {name!r}", MalformedScenario)

    return cls(
        area=_area(doc.get("area")),
        metric=text("metric", "total"),
        value=number("value"),
        weight=number("weight", 1.0),
        bound=number("bound", 2.0),
        note=text("note", ""),
        **{name: text(name) for name in names},
    )


def _area(value) -> AreaKind:
    try:
        return AreaKind(value)
    except ValueError as exc:
        raise MalformedScenario(f"target needs a valid 'area': {exc}") from exc


def load_targets_document(text: str):
    """Parse a calibration targets document.

    Returns (targets, constraints, horizon_years, seed).  Schema:
    ``{"horizon_years": n, "seed": n, "constraints": {...}?, "targets": [...]}``;
    constraints default to :data:`CALIBRATION_CONSTRAINTS`.
    """
    doc = _parse_json(text)
    keys = ("horizon_years", "seed", "constraints", "targets")
    read_object(doc, "targets document", MalformedScenario, keys)
    if "targets" not in doc or not doc["targets"]:
        raise MalformedScenario("targets document lists no targets")
    if not isinstance(doc["targets"], list):
        raise MalformedScenario(f"'targets' must be a list, got {doc['targets']!r}")
    targets = tuple(_parse_target(t) for t in doc["targets"])
    constraints = CALIBRATION_CONSTRAINTS
    if doc.get("constraints"):
        try:
            constraints = RepartitionConstraintSet.from_json_dict(doc["constraints"])
        except NetshareError as exc:
            raise MalformedScenario(f"constraints: {exc}") from exc
    return (
        targets,
        constraints,
        read_integer(doc.get("horizon_years", 5), "horizon_years", MalformedScenario, 1),
        read_integer(doc.get("seed", 0), "seed", MalformedScenario, 0),
    )
