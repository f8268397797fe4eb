"""Offline calibration search for the bundled reference cost tables.

No absolute costs are available for the three-area use case, only fraction
envelopes (which classes take which share of each ledger) and headline
savings figures per configuration.  This module reconstructs cost tables
from those two ingredients: a constrained least-squares search over per-area
fraction vectors that must satisfy every repartition constraint and should
come as close as possible to the savings targets.

Once the balance between an area's cumulative CAPEX and OPEX is fixed,
every savings metric is linear in the two ledgers' fractions, so the search
is one bounded scalar search over that balance, with a convex SLSQP problem
at each value.  It draws no random numbers: the seed is checked, but
changes no result and is not recorded.  Its output is committed as fixtures
(``reference_costs_*.json``) together with a sidecar record
(``reference_calibration.json``) holding the method, horizon, balances,
constraint set, achieved residuals, the use-case envelope members each
table misses and the versions that produced them.  A standing regression
test re-verifies the committed tables against that record; the optimizer
itself never runs inside the engine.  Only the search and the record need
numpy and scipy (the ``calibrate`` extra), and they load when the first
search runs.
"""

from __future__ import annotations

import math
import os
import platform
from typing import Mapping, Sequence, Tuple, Union

from . import __version__
from .costmodel import apply_sharing, cumulative_cost, savings_report, sharing_factors
from .errors import (
    FrozenValue,
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
    USE_CASE_CONSTRAINTS,
    RepartitionConstraint,
    RepartitionConstraintSet,
    _c,
    check_repartition,
)
from .scenario import _parse_json
from .sharing import SharingConfiguration, preset

__all__ = [
    "CALIBRATION_CONSTRAINTS",
    "CalibrationResult",
    "DeltaTarget",
    "SavingsTarget",
    "TargetOutcome",
    "calibrate_reference",
    "load_targets_document",
]

# numpy and scipy, which only the search and its record read.  The first
# search binds them (_load_search), so targets, results and the constraint
# set load without the calibrate extra.
np = scipy = block_diag = linprog = minimize = minimize_scalar = None


def _load_search() -> None:
    """Bind numpy and scipy in this module, or raise :class:`MissingDependency`."""
    global np, scipy, block_diag, linprog, minimize, minimize_scalar
    if minimize_scalar is not None:  # the last name the imports bind
        return
    try:
        import numpy as np
        import scipy
        from scipy.linalg import block_diag
        from scipy.optimize import linprog, minimize, minimize_scalar
    except ImportError as exc:
        raise MissingDependency(
            f"calibration needs numpy and scipy ({exc}); "
            "install them with: pip install 'netshare[calibrate]'"
        ) from exc


_CLASSES = tuple(ElementClass)
_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}
_N = len(_CLASSES)
# The ledgers in the order of a search vector's two halves.
_LEDGERS = (Ledger.CAPEX, Ledger.OPEX)
# The environment variables that set the BLAS thread count, recorded with a result.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The search space, with the CAPEX amounts summing to 1: the OPEX amounts
# sum to at least _OPEX_FLOOR and none exceeds _OPEX_CAP.
_OPEX_FLOOR = 1e-3
_OPEX_CAP = 5.0
# The CAPEX ledger total of a calibrated table.
_CAPEX_SCALE = 100_000.0
# Pull toward even fractions.  It picks one minimiser where the targets
# leave the optimum flat, so the result does not hang on rounding.
_RIDGE = 1e-4

GRID_PRESETS = (
    "MOCN",
    "MOCN + Backhaul",
    "MOCN - Spectrum",
    "GWCN",
    "GWCN + Backhaul",
    "GWCN - Spectrum",
)

# How the search works, as the calibration record states it.
_METHOD = (
    "bounded scalar search over each area's CAPEX/OPEX balance, SLSQP with the "
    "exact gradient at each balance from even fractions, solution L1-projected "
    "onto the constraints; the seed changes no result"
)


class SavingsTarget(FrozenValue):
    """One headline savings figure: metric of one configuration in one area."""

    __slots__ = ()
    _fields = ("area", "metric", "configuration", "value", "weight", "bound", "note")

    def __new__(
        cls,
        area: AreaKind,
        metric: str,  # "capex", "opex" or "total"
        configuration: str,
        value: float,  # percent
        weight: float = 1.0,
        bound: float = 2.0,  # max acceptable |residual|, percentage points
        note: str = "",
    ):
        self = super().__new__(cls, area, metric, configuration, value, weight, bound, note)
        _check_target(self)
        return self

    def describe(self) -> str:
        return f"{self.area.value}: {self.metric}({self.configuration}) = {self.value}"

    @property
    def terms(self) -> Tuple[Tuple[float, str], ...]:
        """(sign, configuration) of each metric the target's value sums."""
        return ((1.0, self.configuration),)


class DeltaTarget(FrozenValue):
    """Difference of one metric between two configurations in one area."""

    __slots__ = ()
    _fields = ("area", "metric", "first", "second", "value", "weight", "bound", "note")

    def __new__(
        cls,
        area: AreaKind,
        metric: str,
        first: str,
        second: str,
        value: float,  # percentage points
        weight: float = 1.0,
        bound: float = 2.0,
        note: str = "",
    ):
        self = super().__new__(cls, area, metric, first, second, value, weight, bound, note)
        _check_target(self)
        return self

    def describe(self) -> str:
        return (
            f"{self.area.value}: {self.metric}({self.first}) - "
            f"{self.metric}({self.second}) = {self.value}"
        )

    @property
    def terms(self) -> Tuple[Tuple[float, str], ...]:
        """(sign, configuration) of each metric the target's value sums."""
        return ((1.0, self.first), (-1.0, self.second))


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


class TargetOutcome(FrozenValue):
    __slots__ = ()
    _fields = (
        "target",
        "achieved",
        "residual",  # achieved - target.value
    )

    @property
    def within_bound(self) -> bool:
        return abs(self.residual) <= self.target.bound


class CalibrationResult(FrozenValue):
    __slots__ = ()
    _fields = (
        "tables",
        "outcomes",
        "seed",
        "horizon_years",
        # Per area, the cumulative OPEX share of the total cost that the search settled on.
        "balances",
    )

    def residual_report(self) -> Tuple[Tuple[str, float, float], ...]:
        return tuple((o.target.describe(), o.achieved, o.residual) for o in self.outcomes)

    def record(self, constraints: RepartitionConstraintSet) -> dict:
        """The calibration record's body, ``reference_calibration.json``.

        ``constraints`` is the whole set the search was given.
        """
        _load_search()  # the provenance names the numpy and scipy versions
        targets_doc = []
        for outcome in self.outcomes:
            target = outcome.target
            entry = {
                "area": target.area.value,
                "metric": target.metric,
                "value": target.value,
                "weight": target.weight,
                "bound": target.bound,
            }
            entry["kind"] = "saving" if isinstance(target, SavingsTarget) else "delta"
            for name in _TARGET_KINDS[entry["kind"]][1]:
                entry[name] = getattr(target, name)
            if target.note:
                entry["note"] = target.note
            entry["achieved"] = outcome.achieved
            entry["residual"] = outcome.residual
            targets_doc.append(entry)

        # The members of the use-case envelope that each table misses.
        envelope_failures = {
            kind.value: [
                {
                    "label": check.constraint.label,
                    "observed": check.observed,
                    "lower": check.constraint.lower,
                    "upper": check.constraint.upper,
                }
                for check in check_repartition(table, USE_CASE_CONSTRAINTS).failures()
            ]
            for kind, table in self.tables.items()
        }
        return {
            "method": _METHOD,
            "horizon_years": self.horizon_years,
            "configurations": list(GRID_PRESETS),
            "balances": {kind.value: balance for kind, balance in self.balances.items()},
            "constraints": constraints.to_json_dict(),
            "targets": targets_doc,
            "use_case_envelope_failures": envelope_failures,
            "provenance": {
                "engine_version": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                **{name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
            },
        }


# ---------------------------------------------------------------------------
# Calibration constraint set
# ---------------------------------------------------------------------------

_E = ElementClass


# Feasible variant of the use-case envelope, repartition.USE_CASE_CONSTRAINTS.
# Two lower bounds are widened, because the published point estimates are
# jointly unsatisfiable once the savings targets enter:
#   - rnc_share for urban/suburban drops 0.32 -> 0.27 (nodeb + rnc floors
#     alone would otherwise exceed the CAPEX shared base implied by the
#     minimum-savings target);
#   - backhaul_share for rural drops 0.32 -> 0.24 (the rural CAPEX floor
#     plus backhaul/core/oam floors would exceed the whole ledger).
# The record lists exactly which use-case envelope members each table misses,
# and the regression suite re-checks that list, so the deviation stays visible.
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


def _interval_rows(constraints: Sequence[RepartitionConstraint], margin: float = 0.0):
    """``A_ub @ f <= b_ub`` rows keeping each group's fraction ``margin`` inside its bounds.

    The margin is capped at half of each interval's width.
    """
    a_ub, b_ub = [], []
    for con in constraints:
        row = np.array([float(cls in con.classes) for cls in _CLASSES])
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
    """Least-squares problem over one area's CAPEX and OPEX fractions.

    The CAPEX amounts sum to 1 and ``O`` is the annual OPEX sum, so with
    ``H`` the horizon the cumulative OPEX share of the total is the balance
    ``λ = H·O / (1 + H·O)``.  At a fixed ``λ`` every savings metric is
    linear in ``z = (cap, op / O)``: with ``w`` the share of each class's
    cost that operator 0 stops carrying, capex is ``100·w@cap``, opex
    ``100·w@(op / O)`` and total their ``(1 − λ, λ)`` blend.  So each
    balance is a convex problem, and one scalar search over ``λ`` finds the
    best of them.
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
            ledger: tuple(c for c in constraints if c.ledger is ledger)
            for ledger in _LEDGERS
        }
        # Share of each class's cost that operator 0 stops carrying, per configuration.
        self.weights = {
            name: 1.0 - np.array(sharing_factors(config))
            for name, config in configurations.items()
        }

    def row(self, metric: str, configuration: str, balance: float) -> np.ndarray:
        """The vector whose product with ``z`` is ``metric`` of ``configuration`` at ``balance``."""
        w = 100.0 * self.weights[configuration]
        if metric == "capex":
            return np.concatenate([w, np.zeros(_N)])
        if metric == "opex":
            return np.concatenate([np.zeros(_N), w])
        return np.concatenate([(1.0 - balance) * w, balance * w])

    def _opex_sum(self, balance: float) -> float:
        return balance / (self.horizon * (1.0 - balance))

    def _balance(self, opex_sum: float) -> float:
        return self.horizon * opex_sum / (1.0 + self.horizon * opex_sum)

    def _solve_at(self, balance: float, constraints, maxiter: int):
        """SLSQP on the convex problem at ``balance``, from even fractions.

        The residuals are taken in fractions, not percent.  SLSQP's ``ftol``
        is absolute, and at percent scale its line search stopped (exit mode
        8) with fits up to 2e-3 outside the rows.
        """
        root = np.sqrt([t.weight for t in self.targets]) / 100.0
        a = root[:, None] * np.array([
            sum(sign * self.row(t.metric, name, balance) for sign, name in t.terms)
            for t in self.targets
        ])
        b = root * np.array([t.value for t in self.targets])
        start = np.full(2 * _N, 1.0 / _N)
        ridge = _RIDGE / 100.0**2  # the same pull as _RIDGE on percent residuals

        def objective(z):
            residual, pull = a @ z - b, z - start
            value = residual @ residual + ridge * (pull @ pull)
            return value, 2.0 * (a.T @ residual + ridge * pull)

        opex_cap = min(1.0, _OPEX_CAP / self._opex_sum(balance))
        return minimize(
            objective,
            start,
            jac=True,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * _N + [(0.0, opex_cap)] * _N,
            constraints=constraints,
            options={"maxiter": maxiter, "ftol": 1e-14},
        )

    def solve(self, maxiter: int):
        """(balance, 26 amounts with the CAPEX ones summing to 1), or None.

        The balance runs over what the amounts allow: an OPEX sum of at
        least ``_OPEX_FLOOR`` and no OPEX amount above ``_OPEX_CAP``.
        """
        (a_cap, b_cap), (a_op, b_op) = (
            _interval_rows(self.by_ledger[ledger]) for ledger in _LEDGERS
        )
        rows, bounds = block_diag(a_cap, a_op), np.concatenate([b_cap, b_op])
        sums = np.kron(np.eye(2), np.ones(_N))  # each ledger's fractions sum to 1
        constraints = [
            {"type": "eq", "fun": lambda z: sums @ z - 1.0, "jac": lambda z: sums},
            {"type": "ineq", "fun": lambda z: bounds - rows @ z, "jac": lambda z: -rows},
        ]
        ceiling = _OPEX_CAP / _least_largest_fraction(self.by_ledger[Ledger.OPEX])
        found = {}

        def profile(balance):
            found[balance] = self._solve_at(balance, constraints, maxiter)
            return found[balance].fun

        span = (self._balance(_OPEX_FLOOR), self._balance(ceiling))
        balance = minimize_scalar(profile, bounds=span, method="bounded").x
        z = found[balance].x
        if not np.all(np.isfinite(z)):
            return None
        return balance, np.concatenate([z[:_N], z[_N:] * self._opex_sum(balance)])


def _least_largest_fraction(constraints: Sequence[RepartitionConstraint]) -> float:
    """The least that the largest fraction of a ledger meeting ``constraints`` can be."""
    a_ub, b_ub = _interval_rows(constraints)
    # variables: fractions f, then t >= every fraction; minimise t
    res = linprog(
        c=np.append(np.zeros(_N), 1.0),
        A_ub=np.block([[a_ub, np.zeros((len(b_ub), 1))], [np.eye(_N), -np.ones((_N, 1))]]),
        b_ub=np.concatenate([b_ub, np.zeros(_N)]),
        A_eq=np.append(np.ones(_N), 0.0)[None, :],
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * (_N + 1),
        method="highs",
    )
    return res.x[_N]


def calibrate_reference(
    constraints: RepartitionConstraintSet,
    targets: Sequence[Target],
    *,
    horizon_years: int = 5,
    seed: int = 0,
    restarts: int = 8,
    maxiter: int = 400,
) -> CalibrationResult:
    """Fit one cost table per targeted area to constraints and targets.

    Each target is a :class:`SavingsTarget` or :class:`DeltaTarget` that names
    configurations of :data:`GRID_PRESETS`.  The search's solution for each area is moved back onto that area's
    constraints before its amounts are rounded, so every returned table
    passes :func:`check_repartition` with the constraints it was fitted to.

    ``maxiter`` caps each SLSQP solve.  ``seed`` must be a non-negative
    integer and is recorded in the result, but the search is deterministic
    and the seed changes no table.  ``restarts`` is accepted and ignored:
    there is one search, not a set of restarts.

    Raises :class:`InfeasibleCalibration` when the constraint set admits no
    fraction vector for some area, when the rounded table of the best
    candidate still fails :func:`check_repartition`, or when a target ends up
    farther from its value than its declared residual bound.  Raises
    :class:`MissingDependency` when the arguments are valid but numpy or
    scipy cannot be imported.
    """
    horizon_years = read_integer(horizon_years, "horizon_years", MalformedScenario, 1)
    targets = tuple(targets)
    if not targets:
        raise MalformedScenario("calibration needs at least one target")
    config_map = {name: preset(name) for name in GRID_PRESETS}
    for target in targets:
        if not isinstance(target, (SavingsTarget, DeltaTarget)):
            raise MalformedScenario(f"cannot interpret calibration target {target!r}")
        for _, name in target.terms:
            if name not in config_map:
                raise MalformedScenario(
                    f"target references unknown configuration {name!r}"
                )

    areas = []
    for target in targets:
        if target.area not in areas:
            areas.append(target.area)

    seed = read_integer(seed, "seed", MalformedScenario, 0)
    _load_search()
    tables = {}
    balances = {}
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
        solution = problem.solve(maxiter)
        if solution is None:
            raise InfeasibleCalibration(
                f"search found no candidate for {area.value}",
                violations=[c.label for c in area_constraints],
            )
        balances[area], solution = solution
        cap = np.clip(solution[:_N], 0.0, None)
        op = np.clip(solution[_N:], 0.0, None)
        # rescale jointly so the CAPEX ledger sums to _CAPEX_SCALE without
        # moving the CAPEX/OPEX balance
        scale = _CAPEX_SCALE / cap.sum()
        cap = _within_constraints(cap * scale, problem.by_ledger[Ledger.CAPEX])
        op = _within_constraints(op * scale, problem.by_ledger[Ledger.OPEX])
        entries = {}
        for cls in _CLASSES:
            capex = round(float(cap[_INDEX[cls]]), 4)
            opex = round(float(op[_INDEX[cls]]), 4)
            if capex or opex:
                entries[cls] = CostEntry(capex, opex)
        table = CostTable(area=area, entries=entries)
        report = check_repartition(table, area_constraints)
        if not report.overall:
            raise InfeasibleCalibration(
                f"calibrated {area.value} table violates constraints",
                violations=[c.constraint.label for c in report.failures()],
            )
        tables[area] = table
        # each target recomputed through the cost model, not the search's form
        baseline = cumulative_cost(table, horizon_years)
        for target in problem.targets:
            achieved = 0.0
            for sign, name in target.terms:
                config = config_map[name]
                report = savings_report(baseline, apply_sharing(baseline, config), config)
                achieved += sign * getattr(report, f"{target.metric}_saving_pct")
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
        seed=seed,
        horizon_years=horizon_years,
        balances=balances,
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
