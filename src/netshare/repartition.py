"""Repartition constraints: the cost-structure envelopes a cost table must fit.

Cost structures are validated against :class:`RepartitionConstraint` sets:
closed intervals on the fraction each class (or group of classes) takes of a
ledger total.  :func:`default_constraints` gives the typical CAPEX or OPEX
structure of an emerging or developed market, and
:data:`USE_CASE_CONSTRAINTS` the tighter structure, on both ledgers, of the
bundled three-area use case.

Only calibration and its record need these: the engine never checks a cost
structure, so running a scenario does not import this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import FrozenValue, InvalidAmount, listed, read_number, read_object, read_text
from .inventory import AreaKind, CostTable, ElementClass, Ledger, Market

__all__ = [
    "ConstraintCheck",
    "ConstraintReport",
    "FRACTION_TOL",
    "RepartitionConstraint",
    "RepartitionConstraintSet",
    "USE_CASE_CONSTRAINTS",
    "check_repartition",
    "default_constraints",
]


class RepartitionConstraint(FrozenValue):
    """Closed interval on the ledger fraction carried by a class group.

    ``area`` narrows the constraint to one area kind; ``None`` applies to
    every area.  Bounds are fractions in [0, 1] with ``lower <= upper``.
    ``label`` must be a string, ``ledger`` a :class:`Ledger`, each class an
    :class:`ElementClass`, each bound a number and ``area`` an
    :class:`AreaKind` or ``None``, or :class:`InvalidAmount` is raised.
    """

    __slots__ = ()
    _fields = ("label", "ledger", "classes", "lower", "upper", "area")

    def __new__(
        cls,
        label: str,
        ledger: Ledger,
        classes: Iterable[ElementClass],
        lower: float,
        upper: float,
        area: Optional[AreaKind] = None,
    ):
        read_text(label, "constraint 'label'", InvalidAmount)
        if not isinstance(ledger, Ledger):
            raise InvalidAmount(f"constraint 'ledger' must be a Ledger, got {ledger!r}")
        classes = frozenset(classes)
        if not classes:
            raise InvalidAmount(f"constraint {label!r} must name at least one class")
        strays = [element for element in classes if not isinstance(element, ElementClass)]
        if strays:  # all of them, sorted: a set's order follows the hash seed
            raise InvalidAmount(
                f"constraint 'classes' must be ElementClass members, got {listed(strays)}"
            )
        lower = read_number(lower, "constraint 'lower'", InvalidAmount)
        upper = read_number(upper, "constraint 'upper'", InvalidAmount)
        if not (0.0 <= lower <= upper <= 1.0):
            raise InvalidAmount(
                f"constraint {label!r} needs 0 <= lower <= upper <= 1, got [{lower}, {upper}]"
            )
        if area is not None and not isinstance(area, AreaKind):
            raise InvalidAmount(f"constraint 'area' must be an AreaKind or None, got {area!r}")
        return super().__new__(cls, label, ledger, classes, lower, upper, area)

    def applies_to(self, area: AreaKind) -> bool:
        return self.area is None or self.area is area

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "ledger": self.ledger.value,
            "classes": sorted(c.value for c in self.classes),
            "lower": self.lower,
            "upper": self.upper,
            "area": self.area.value if self.area else None,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RepartitionConstraint":
        required = ("label", "ledger", "classes", "lower", "upper")
        read_object(doc, "constraint", InvalidAmount, required + ("area",), required)
        if not isinstance(doc["classes"], (list, tuple)):
            raise InvalidAmount(f"constraint 'classes' must be a list, got {doc['classes']!r}")
        try:
            ledger = Ledger(doc["ledger"])
            classes = [ElementClass(v) for v in doc["classes"]]
            area = AreaKind(doc["area"]) if doc.get("area") else None
        except ValueError as exc:
            # An unknown ledger, element class or area label.
            raise InvalidAmount(f"constraint {doc['label']!r}: {exc}") from exc
        return cls(doc["label"], ledger, classes, doc["lower"], doc["upper"], area)


class RepartitionConstraintSet(FrozenValue):
    """Named, ordered collection of repartition constraints."""

    __slots__ = ()
    _fields = ("name", "constraints")

    def __new__(cls, name: str, constraints: Iterable[RepartitionConstraint]):
        read_text(name, "constraint set 'name'", InvalidAmount)
        constraints = tuple(constraints)
        for constraint in constraints:
            if not isinstance(constraint, RepartitionConstraint):
                raise InvalidAmount(
                    f"constraint set {name!r} holds {constraint!r}, not a RepartitionConstraint"
                )
        return super().__new__(cls, name, constraints)

    def for_area(self, area: AreaKind) -> Tuple[RepartitionConstraint, ...]:
        return tuple(c for c in self.constraints if c.applies_to(area))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "constraints": [c.to_json_dict() for c in self.constraints],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RepartitionConstraintSet":
        read_object(doc, "constraint set", InvalidAmount, ("name", "constraints"))
        if not isinstance(doc.get("constraints", ()), (list, tuple)):
            raise InvalidAmount(f"'constraints' must be a list, got {doc['constraints']!r}")
        return cls(
            doc.get("name", "unnamed"),
            [RepartitionConstraint.from_json_dict(c) for c in doc.get("constraints", ())],
        )


class ConstraintCheck(FrozenValue):
    __slots__ = ()
    _fields = (
        "constraint",
        "observed",  # rounded to 4 decimals for reporting
        "satisfied",
    )


class ConstraintReport(FrozenValue):
    __slots__ = ()
    _fields = ("checks", "overall")

    def failures(self) -> Tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if not c.satisfied)


# Slack allowed on every interval bound.  The calibration search shares it, so
# the tables it returns are judged by the same tolerance it selected them with.
FRACTION_TOL = 1e-9


def check_repartition(
    table: CostTable, constraints: Union[RepartitionConstraintSet, Sequence[RepartitionConstraint]]
) -> ConstraintReport:
    """Evaluate every applicable constraint against the table's fractions.

    Constraints scoped to a different area are skipped.  Referencing a ledger
    whose total is zero raises :class:`ZeroTotalLedger`.
    """
    if isinstance(constraints, RepartitionConstraintSet):
        constraints = constraints.constraints
    checks = []
    for constraint in constraints:
        if not constraint.applies_to(table.area):
            continue
        observed = table.fraction(constraint.classes, constraint.ledger)
        ok = constraint.lower - FRACTION_TOL <= observed <= constraint.upper + FRACTION_TOL
        checks.append(ConstraintCheck(constraint, round(observed, 4), ok))
    return ConstraintReport(checks=tuple(checks), overall=all(c.satisfied for c in checks))


# ---------------------------------------------------------------------------
# Default constraint catalogues
# ---------------------------------------------------------------------------

_E = ElementClass
# The catalogues' short name; a constraint without an area applies to every area.
_c = RepartitionConstraint


# Coarse market-level cost structures.  Intervals are +/- 2 points around the
# headline shares of the respective market profile.
_EMERGING_CAPEX = (
    _c("civil_site_share", Ledger.CAPEX, {_E.PASSIVE_SITE}, 0.39, 0.43),
    _c("power_share", Ledger.CAPEX, {_E.POWER}, 0.29, 0.33),
    _c("nodeb_share", Ledger.CAPEX, {_E.NODEB}, 0.13, 0.17),
)
_DEVELOPED_CAPEX = (
    _c("civil_site_share", Ledger.CAPEX, {_E.PASSIVE_SITE}, 0.50, 0.54),
)
_EMERGING_OPEX = (
    _c("support_share", Ledger.OPEX, {_E.OAM}, 0.18, 0.22),
    _c("power_share", Ledger.OPEX, {_E.POWER}, 0.18, 0.22),
    _c("land_rent_share", Ledger.OPEX, {_E.SITE_RENT}, 0.13, 0.17),
    _c("backhaul_share", Ledger.OPEX, {_E.BACKHAUL}, 0.12, 0.16),
)
_DEVELOPED_OPEX = (
    _c("land_rent_share", Ledger.OPEX, {_E.SITE_RENT}, 0.40, 0.44),
)

# Tighter structure of the bundled three-area use case.  RNC weight drops in
# the rural area, where a coverage-driven NodeB grid dominates radio CAPEX.
USE_CASE_CONSTRAINTS = RepartitionConstraintSet(
    name="use_case",
    constraints=(
        _c("core_share", Ledger.CAPEX, {_E.CORE_SGSN, _E.CORE_GGSN}, 0.08, 0.17),
        _c("oam_share", Ledger.CAPEX, {_E.OAM}, 0.08, 0.17),
        _c("backhaul_share", Ledger.CAPEX, {_E.BACKHAUL}, 0.32, 0.41),
        _c("nodeb_share", Ledger.CAPEX, {_E.NODEB}, 0.23, 0.29),
        _c("rnc_share_urban", Ledger.CAPEX, {_E.RNC}, 0.32, 0.41, AreaKind.URBAN),
        _c("rnc_share_suburban", Ledger.CAPEX, {_E.RNC}, 0.32, 0.41, AreaKind.SUBURBAN),
        _c("rnc_share_rural", Ledger.CAPEX, {_E.RNC}, 0.09, 0.13, AreaKind.RURAL),
        _c("international_share", Ledger.OPEX, {_E.INTERNATIONAL_CONNECTIVITY}, 0.50, 0.60),
        _c(
            "licence_core_share",
            Ledger.OPEX,
            {_E.SPECTRUM_LICENSE, _E.CORE_SGSN, _E.CORE_GGSN},
            0.08,
            0.12,
        ),
    ),
)

_CATALOGUE = {
    (Market.EMERGING, Ledger.CAPEX): ("emerging_capex", _EMERGING_CAPEX),
    (Market.EMERGING, Ledger.OPEX): ("emerging_opex", _EMERGING_OPEX),
    (Market.DEVELOPED, Ledger.CAPEX): ("developed_capex", _DEVELOPED_CAPEX),
    (Market.DEVELOPED, Ledger.OPEX): ("developed_opex", _DEVELOPED_OPEX),
}


def default_constraints(market: Market, ledger: Ledger) -> RepartitionConstraintSet:
    """Published cost-structure envelope for a market profile and ledger."""
    name, constraints = _CATALOGUE[(market, ledger)]
    return RepartitionConstraintSet(name, constraints)

