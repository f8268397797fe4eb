"""Network inventories, cost tables, area profiles and market tables.

The unit of account is an element class: a category of network equipment or
recurring expense (sites, antennas, NodeBs, RNCs, backhaul, packet-core
gateways, licences, rent, power, staff).  A :class:`CostTable` assigns each
class a one-off CAPEX amount and an annual OPEX amount for one operator
deploying alone in one area.  Everything downstream (sharing arithmetic,
scenario grids, calibration) consumes these tables.

A :class:`Ledger` names one side of those books, CAPEX or OPEX.  The
cost-structure envelopes a table must fit on each ledger live in
:mod:`netshare.repartition`.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    FrozenValue,
    InvalidAmount,
    MissingCostEntry,
    ZeroTotalLedger,
    listed,
    read_integer,
    read_number,
    read_object,
    read_text,
)

__all__ = [
    "AreaKind",
    "AreaProfile",
    "CostEntry",
    "CostTable",
    "ElementClass",
    "Ledger",
    "Market",
    "NetworkState",
    "Technology",
    "build_inventory",
    "default_market_costs",
    "default_profile",
    "CORE_CLASSES",
    "OVERHEAD_CLASSES",
    "RAN_CLASSES",
    "TRANSPORT_CLASSES",
]


class ElementClass(Enum):
    """Closed enumeration of cost-bearing network element classes."""

    PASSIVE_SITE = "passive_site"
    ANTENNA = "antenna"
    NODEB = "nodeb"
    RNC = "rnc"
    BACKHAUL = "backhaul"
    CORE_SGSN = "core_sgsn"
    CORE_GGSN = "core_ggsn"
    OAM = "oam"
    SPECTRUM_LICENSE = "spectrum_license"
    INTERNATIONAL_CONNECTIVITY = "international_connectivity"
    SITE_RENT = "site_rent"
    POWER = "power"
    STAFF = "staff"


_CLASS_LABELS = frozenset(cls.value for cls in ElementClass)
_AMOUNTS = ("capex", "opex_annual")


# Domain partition: every class belongs to exactly one group.
RAN_CLASSES = frozenset(
    {
        ElementClass.PASSIVE_SITE,
        ElementClass.ANTENNA,
        ElementClass.NODEB,
        ElementClass.RNC,
    }
)
TRANSPORT_CLASSES = frozenset(
    {ElementClass.BACKHAUL, ElementClass.INTERNATIONAL_CONNECTIVITY}
)
CORE_CLASSES = frozenset({ElementClass.CORE_SGSN, ElementClass.CORE_GGSN})
OVERHEAD_CLASSES = frozenset(
    {
        ElementClass.OAM,
        ElementClass.SITE_RENT,
        ElementClass.POWER,
        ElementClass.STAFF,
        ElementClass.SPECTRUM_LICENSE,
    }
)


class AreaKind(Enum):
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


class Technology(Enum):
    G2 = "2g"
    G3 = "3g"


class NetworkState(Enum):
    EXISTING = "existing"
    NEW = "new"


class Market(Enum):
    EMERGING = "emerging"
    DEVELOPED = "developed"


class Ledger(Enum):
    """Which side of the books a constraint or figure refers to."""

    CAPEX = "capex"
    OPEX = "opex"


# The ledger sums that the golden run/sweep outputs pin go through
# _ledger_sum, which adds left to right on every Python.  From 3.12 on the
# built-in sum() of floats is compensated, so its last digits can differ.
# Before 3.12 sum() already adds left to right and runs the grid kernel's
# ledger sums faster than the loop: on 3.11.7 (2-core Xeon) the loop cost
# grid_sweep 9.8 % of its work_per_s, lower in 10 of 10 alternating pairs.
if sys.version_info >= (3, 12):

    def _ledger_sum(values) -> float:
        """Sum ``values`` left to right, as ``sum`` did before Python 3.12."""
        total = 0
        for value in values:
            total += value
        return total

else:
    _ledger_sum = sum


class CostEntry(FrozenValue):
    """One-off CAPEX and annual OPEX for a single element class."""

    __slots__ = ()
    _fields = ("capex", "opex_annual")

    def __new__(cls, capex: float = 0.0, opex_annual: float = 0.0):
        amounts = []
        for name, amount in zip(_AMOUNTS, (capex, opex_annual)):
            value = read_number(amount, name, InvalidAmount)
            if not math.isfinite(value):
                raise InvalidAmount(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise InvalidAmount(f"{name} must be >= 0, got {value!r}")
            amounts.append(value)
        # Built for every rescaled class at each class_cost_fraction sweep point.
        return tuple.__new__(cls, amounts)


def _normalise_entry(value: Union["CostEntry", Tuple[float, float]]) -> CostEntry:
    if isinstance(value, CostEntry):
        return value
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return CostEntry(*value)
    raise InvalidAmount(f"cost entry must be CostEntry or (capex, opex) pair, got {value!r}")


# The entry a table gives each class it is not given; entries are immutable,
# so every table shares this one.
_ZERO_ENTRY = CostEntry()


class CostTable(FrozenValue):
    """Per-class cost amounts for one operator deploying alone in one area.

    Missing classes are filled with zero-cost entries so that every table
    covers the full enumeration.  Amounts are in an arbitrary but consistent
    currency unit; all downstream results are relative, so only the shape of
    the table matters.
    """

    __slots__ = ()
    _fields = ("area", "entries", "currency")

    def __new__(
        cls,
        area: AreaKind,
        entries: Mapping[ElementClass, CostEntry] = MappingProxyType({}),
        currency: str = "units",
    ):
        filled = {}
        for element in ElementClass:
            filled[element] = _normalise_entry(entries.get(element, _ZERO_ENTRY))
        unknown = set(entries) - set(ElementClass)
        if unknown:
            raise InvalidAmount(f"unknown element classes in cost table: {listed(unknown)}")
        return super().__new__(cls, area, filled, currency)

    # -- totals ---------------------------------------------------------

    def capex_total(self) -> float:
        return _ledger_sum(e.capex for e in self.entries.values())

    def opex_annual_total(self) -> float:
        return _ledger_sum(e.opex_annual for e in self.entries.values())

    def is_usable(self) -> bool:
        """A table with no cost at all cannot support savings figures."""
        return self.capex_total() > 0 or self.opex_annual_total() > 0

    # -- fractions ------------------------------------------------------

    def ledger_total(self, ledger: Ledger) -> float:
        if ledger is Ledger.CAPEX:
            return self.capex_total()
        return self.opex_annual_total()

    def ledger_amount(self, cls: ElementClass, ledger: Ledger) -> float:
        entry = self.entries[cls]
        return entry.capex if ledger is Ledger.CAPEX else entry.opex_annual

    def fraction(self, classes: Iterable[ElementClass], ledger: Ledger) -> float:
        """Fraction of the ledger total carried by ``classes`` together."""
        total = self.ledger_total(ledger)
        if total == 0:
            raise ZeroTotalLedger(f"{ledger.value} total is zero for area {self.area.value}")
        # Summed in ElementClass order: a frozenset's order, and so the last
        # digit of its sum, would follow the hash seed.
        ordered = sorted(frozenset(classes), key=list(ElementClass).index)
        return _ledger_sum([self.ledger_amount(c, ledger) for c in ordered]) / total

    def fractions(self, ledger: Ledger) -> Mapping[ElementClass, float]:
        return {cls: self.fraction((cls,), ledger) for cls in ElementClass}

    def scaled(self, factor: float) -> "CostTable":
        if factor < 0:
            raise InvalidAmount(f"scale factor must be >= 0, got {factor!r}")
        return CostTable(
            area=self.area,
            entries={
                cls: CostEntry(e.capex * factor, e.opex_annual * factor)
                for cls, e in self.entries.items()
            },
            currency=self.currency,
        )

    # -- serialisation --------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "area": self.area.value,
            "currency": self.currency,
            "entries": {
                cls.value: {"capex": e.capex, "opex_annual": e.opex_annual}
                for cls, e in self.entries.items()
                if e.capex != 0 or e.opex_annual != 0
            },
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "CostTable":
        read_object(doc, "cost table", InvalidAmount, ("area", "currency", "entries"), ("area",))
        try:
            area = AreaKind(doc["area"])
        except ValueError as exc:
            raise InvalidAmount(f"cost table needs a valid 'area': {exc}") from exc
        raw = doc.get("entries", {})
        read_object(raw, "'entries'", InvalidAmount, _CLASS_LABELS)
        entries = {}
        for label, payload in raw.items():
            read_object(payload, f"entry for {label!r}", InvalidAmount, _AMOUNTS)
            entries[ElementClass(label)] = CostEntry(
                *(read_number(payload.get(k, 0.0), f"{label} {k}", InvalidAmount) for k in _AMOUNTS)
            )
        currency = read_text(doc.get("currency", "units"), "'currency'", InvalidAmount)
        return cls(area=area, entries=entries, currency=currency)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=False)


class AreaProfile(FrozenValue):
    """Deployment footprint of one operator in one area type.

    Default counts follow a reference national deployment in which every
    area is engineered to carry the same subscriber load, so the NodeB count
    varies with radio conditions (dense urban clutter, sparse rural
    coverage-limited cells) while core elements stay at one per area.
    """

    __slots__ = ()
    _fields = ("kind", "nodeb_count", "rnc_count", "sgsn_count", "ggsn_count")

    def __new__(
        cls,
        kind: AreaKind,
        nodeb_count: int = 1,
        rnc_count: int = 1,
        sgsn_count: int = 1,
        ggsn_count: int = 1,
    ):
        self = super().__new__(cls, kind, nodeb_count, rnc_count, sgsn_count, ggsn_count)
        for name in ("nodeb_count", "rnc_count", "sgsn_count", "ggsn_count"):
            read_integer(getattr(self, name), name, InvalidAmount, 1)
        return self


# Reference deployment: equal subscriber load per area, NodeB count set by
# radio planning (urban capacity-limited, rural coverage-limited).
_DEFAULT_PROFILES: Mapping[AreaKind, AreaProfile] = {
    AreaKind.URBAN: AreaProfile(kind=AreaKind.URBAN, nodeb_count=78),
    AreaKind.SUBURBAN: AreaProfile(kind=AreaKind.SUBURBAN, nodeb_count=58),
    AreaKind.RURAL: AreaProfile(kind=AreaKind.RURAL, nodeb_count=108),
}


def default_profile(kind: AreaKind) -> AreaProfile:
    return _DEFAULT_PROFILES[kind]


# Classes whose total cost scales with a per-area equipment count.  Site
# classes (civil works, rent, power) scale with the site count, for which the
# NodeB count is the proxy: one NodeB per site in the reference deployment.
_SCALED_BY = {
    ElementClass.NODEB: "nodeb_count",
    ElementClass.RNC: "rnc_count",
    ElementClass.CORE_SGSN: "sgsn_count",
    ElementClass.CORE_GGSN: "ggsn_count",
    ElementClass.PASSIVE_SITE: "nodeb_count",
    ElementClass.ANTENNA: "nodeb_count",
    ElementClass.SITE_RENT: "nodeb_count",
    ElementClass.POWER: "nodeb_count",
}


def element_quantity(cls: ElementClass, profile: AreaProfile) -> int:
    """How many units of ``cls`` the profile deploys (1 for area-wide items)."""
    attr = _SCALED_BY.get(cls)
    return getattr(profile, attr) if attr else 1


def build_inventory(
    profile: AreaProfile,
    unit_costs: Mapping[ElementClass, Union[CostEntry, Tuple[float, float]]],
    currency: str = "units",
) -> CostTable:
    """Expand per-unit costs into a full area cost table.

    Scaled classes (NodeB, RNC, core gateways and the per-site classes) must
    carry a unit cost; area-wide classes may be omitted and default to zero.
    """
    entries = {}
    for cls in ElementClass:
        qty = element_quantity(cls, profile)
        if cls in unit_costs:
            unit = _normalise_entry(unit_costs[cls])
        elif cls in _SCALED_BY:
            raise MissingCostEntry(
                f"no unit cost for scaled class {cls.value!r} "
                f"(quantity {qty} in {profile.kind.value})"
            )
        else:
            unit = _ZERO_ENTRY
        entries[cls] = CostEntry(unit.capex * qty, unit.opex_annual * qty)
    unknown = set(unit_costs) - set(ElementClass)
    if unknown:
        raise InvalidAmount(f"unknown element classes in unit costs: {listed(unknown)}")
    return CostTable(area=profile.kind, entries=entries, currency=currency)


_E = ElementClass


# Representative whole-market cost tables.  CAPEX shares in an emerging
# market are dominated by civil works and power infrastructure; developed
# markets spend over half of OPEX-side cash on land rent instead.  Amounts
# are expressed on a 100 000-unit CAPEX base.
_MARKET_SHAPES = {
    Market.EMERGING: {
        "capex": {
            _E.PASSIVE_SITE: 0.41,
            _E.POWER: 0.31,
            _E.NODEB: 0.15,
            _E.ANTENNA: 0.01,
            _E.RNC: 0.04,
            _E.BACKHAUL: 0.05,
            _E.CORE_SGSN: 0.01,
            _E.CORE_GGSN: 0.01,
            _E.OAM: 0.01,
        },
        "opex": {
            _E.OAM: 0.20,
            _E.POWER: 0.20,
            _E.SITE_RENT: 0.15,
            _E.BACKHAUL: 0.14,
            _E.STAFF: 0.12,
            _E.INTERNATIONAL_CONNECTIVITY: 0.10,
            _E.SPECTRUM_LICENSE: 0.05,
            _E.NODEB: 0.04,
        },
    },
    Market.DEVELOPED: {
        "capex": {
            _E.PASSIVE_SITE: 0.52,
            _E.NODEB: 0.12,
            _E.RNC: 0.06,
            _E.BACKHAUL: 0.10,
            _E.POWER: 0.08,
            _E.CORE_SGSN: 0.03,
            _E.CORE_GGSN: 0.03,
            _E.OAM: 0.06,
        },
        "opex": {
            _E.SITE_RENT: 0.42,
            _E.OAM: 0.14,
            _E.BACKHAUL: 0.10,
            _E.STAFF: 0.10,
            _E.POWER: 0.08,
            _E.INTERNATIONAL_CONNECTIVITY: 0.08,
            _E.SPECTRUM_LICENSE: 0.04,
            _E.NODEB: 0.04,
        },
    },
}

_MARKET_CAPEX_BASE = 100_000.0
_MARKET_OPEX_BASE = 40_000.0  # annual


def default_market_costs(market: Market, area: AreaKind = AreaKind.URBAN) -> CostTable:
    """Representative cost table matching the market's default constraints."""
    shape = _MARKET_SHAPES[market]
    entries = {}
    for cls in ElementClass:
        capex = shape["capex"].get(cls, 0.0) * _MARKET_CAPEX_BASE
        opex = shape["opex"].get(cls, 0.0) * _MARKET_OPEX_BASE
        if capex or opex:
            entries[cls] = CostEntry(capex, opex)
    return CostTable(area=area, entries=entries)
