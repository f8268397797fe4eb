"""Scenario documents: load, validate, run grids and parameter sweeps.

A scenario bundles area kinds, their cost tables, a list of sharing
configurations and a planning horizon.  Running it produces one savings
report per (area, configuration) cell.  An optional sweep varies a single
parameter over a range and re-runs the grid at every point.

Scenario documents are strict JSON: unknown keys are rejected rather than
ignored, so typos fail loudly instead of silently changing results.  Cost
tables may be inlined or referenced by file name; references resolve against
the scenario's own directory first, then the working directory, then the
fixture directory (bundled, or overridden through the ``NETSHARE_FIXTURES``
environment variable).
"""

from __future__ import annotations

import json
import math
import os
from operator import itemgetter, mul
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .costmodel import (
    DEFAULT_HORIZON_YEARS,
    CostBreakdown,
    SavingsReport,
    _area_reports,
    check_horizon,
    cumulative_cost,
    sharing_factors,
)
from .errors import (
    FrozenValue,
    InvalidScenario,
    InvalidSweepParameter,
    MalformedScenario,
    NetshareError,
    read_flag,
    read_integer,
    read_number,
    read_object,
    read_text,
)
from .inventory import (
    AreaKind,
    CostEntry,
    CostTable,
    ElementClass,
    _CLASS_LABELS,
    _ledger_sum,
)
from .sharing import (
    RegulatoryPolicy,
    SharingConfiguration,
    SharingLevel,
    ValidationReport,
    preset,
    validate_configuration,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "fixture_dir",
    "fixture_path",
    "load_scenario",
    "load_scenario_file",
    "reference_cost_table",
    "run_scenario",
    "sweep",
    "SWEEP_PARAMETERS",
]

SWEEP_PARAMETERS = ("split_ratio", "horizon_years", "intl_shared", "class_cost_fraction")


# ---------------------------------------------------------------------------
# Fixture resolution
# ---------------------------------------------------------------------------


def fixture_dir() -> Path:
    """Directory holding bundled data files, unless overridden by env var."""
    override = os.environ.get("NETSHARE_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str, base_dir: Optional[Path] = None) -> Path:
    """Resolve a data file name against base_dir, cwd, then the fixture dir."""
    candidates = []
    raw = Path(name)
    if raw.is_absolute():
        candidates.append(raw)
    else:
        if base_dir is not None:
            candidates.append(Path(base_dir) / raw)
        candidates.append(raw)
        candidates.append(fixture_dir() / raw)
    for candidate in candidates:
        try:
            found = candidate.is_file()
        except OSError as exc:  # e.g. a name longer than the file system allows
            raise MalformedScenario(f"cannot look up file: {exc}") from exc
        if found:
            return candidate
    raise MalformedScenario(
        f"file {name!r} not found (searched {[str(c) for c in candidates]})"
    )


def reference_cost_table(kind: AreaKind) -> CostTable:
    """Calibrated reference cost table bundled for each area kind."""
    path = fixture_path(f"reference_costs_{kind.value}.json")
    return CostTable.from_json_dict(_read_json(path))


def _read_text(path: Path) -> str:
    """A UTF-8 input file's text; unreadable or undecodable files are malformed input."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedScenario(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, where: str = ""):
    """Parse a JSON input document; syntax errors, runaway nesting and integers
    too long to read are malformed input."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedScenario(
            f"{where}invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise MalformedScenario(f"{where}JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit (4300 by default)
        raise MalformedScenario(f"{where}JSON integer too long to read") from exc


def _read_json(path: Path):
    return _parse_json(_read_text(path), f"{path.name}: ")


# ---------------------------------------------------------------------------
# Sweep specification
# ---------------------------------------------------------------------------


class SweepSpec(FrozenValue):
    """Single-parameter range to re-run the grid over.

    ``parameter`` is one of :data:`SWEEP_PARAMETERS`; ``class_name`` is
    required (as an element-class label) only for ``class_cost_fraction``.
    """

    __slots__ = ()
    _fields = ("parameter", "start", "stop", "steps", "class_name")

    def __new__(
        cls,
        parameter: str,
        start: float,
        stop: float,
        steps: int,
        class_name: Optional[str] = None,
    ):
        read_text(parameter, "sweep parameter", InvalidSweepParameter)
        if parameter not in SWEEP_PARAMETERS:
            raise InvalidSweepParameter(
                f"unknown sweep parameter {parameter!r}; "
                f"expected one of {list(SWEEP_PARAMETERS)}"
            )
        read_integer(steps, "steps", InvalidSweepParameter, 2, 10_000)
        self = super().__new__(
            cls,
            parameter,
            read_number(start, "sweep 'from'", InvalidSweepParameter),
            read_number(stop, "sweep 'to'", InvalidSweepParameter),
            steps,
            class_name,
        )
        if not (self.start < self.stop):
            raise InvalidSweepParameter(
                f"sweep range must satisfy from < to, got [{self.start}, {self.stop}]"
            )
        # values() forms span * i for i up to steps - 1; each product must stay finite.
        if not math.isfinite((self.stop - self.start) * (self.steps - 1)):
            raise InvalidSweepParameter(
                f"sweep range must be finite, got [{self.start}, {self.stop}]"
            )
        if self.class_name is not None:
            read_text(self.class_name, "sweep 'class'", InvalidSweepParameter)
        if self.parameter == "class_cost_fraction" and not self.class_name:
            raise InvalidSweepParameter("class_cost_fraction sweeps need a 'class'")
        if self.parameter != "class_cost_fraction" and self.class_name:
            raise InvalidSweepParameter(
                f"'class' only applies to class_cost_fraction, not {self.parameter!r}"
            )
        if self.class_name and self.class_name not in _CLASS_LABELS:
            raise InvalidSweepParameter(
                f"sweep 'class': unknown element class {self.class_name!r}"
            )
        return self

    def values(self) -> Tuple[float, ...]:
        span = self.stop - self.start
        raw = [self.start + span * i / (self.steps - 1) for i in range(self.steps)]
        if self.parameter == "horizon_years":
            ints = sorted({int(round(v)) for v in raw})
            return tuple(float(v) for v in ints)
        return tuple(raw)

    def to_json_dict(self) -> dict:
        doc = {
            "parameter": self.parameter,
            "from": self.start,
            "to": self.stop,
            "steps": self.steps,
        }
        if self.class_name:
            doc["class"] = self.class_name
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SweepSpec":
        required = ("parameter", "from", "to", "steps")
        read_object(doc, "sweep", MalformedScenario, required + ("class",), required)
        return cls(
            parameter=doc["parameter"],
            start=read_number(doc["from"], "sweep 'from'", MalformedScenario),
            stop=read_number(doc["to"], "sweep 'to'", MalformedScenario),
            steps=doc["steps"],
            class_name=doc.get("class"),
        )


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


class Scenario(FrozenValue):
    """Immutable bundle of everything one model run needs.

    The constructor refuses a scenario that cannot run: one without areas or
    configurations, with an area that is not an :class:`AreaKind`, a bad
    horizon, a repeated area kind or configuration name, a missing or
    mislabelled cost table, or a configuration that fails validation under
    the scenario policy.
    """

    __slots__ = ()
    _fields = (
        "name", "areas", "cost_tables", "configurations", "horizon_years", "policy", "sweep"
    )

    def __new__(
        cls,
        name: str,
        areas: Sequence[AreaKind],
        cost_tables: Mapping[AreaKind, CostTable],
        configurations: Sequence[SharingConfiguration],
        horizon_years: int = DEFAULT_HORIZON_YEARS,
        policy: Optional[RegulatoryPolicy] = None,
        sweep: Optional[SweepSpec] = None,
    ):
        areas, tables, configs = tuple(areas), dict(cost_tables), tuple(configurations)
        self = super().__new__(cls, name, areas, tables, configs, horizon_years, policy, sweep)
        if not self.areas:
            raise InvalidScenario(f"scenario {self.name!r} lists no areas")
        if not self.configurations:
            raise InvalidScenario(f"scenario {self.name!r} lists no configurations")
        for kind in self.areas:
            if not isinstance(kind, AreaKind):
                raise InvalidScenario(
                    f"scenario {self.name!r} lists an area that is not an AreaKind: {kind!r}"
                )
        check_horizon(self.horizon_years)
        if len(set(self.areas)) != len(self.areas):
            raise InvalidScenario(f"scenario {self.name!r} repeats an area kind")
        names = [c.name for c in self.configurations]
        if len(set(names)) != len(names):
            raise InvalidScenario(f"scenario {self.name!r} repeats a configuration name")
        for kind in self.areas:
            table = self.cost_tables.get(kind)
            if table is None:
                raise InvalidScenario(f"scenario {self.name!r} has no cost table for {kind.value}")
            if table.area is not kind:
                raise InvalidScenario(f"cost table for {kind.value} is labelled {table.area.value}")
        failed = {n: r for n, r in self.validation_reports().items() if not r.valid}
        if failed:
            detail = "; ".join(
                f"{n}: {', '.join(i.code for i in r.errors)}" for n, r in failed.items()
            )
            raise InvalidScenario(
                f"scenario {self.name!r} has invalid configurations ({detail})",
                reports=list(failed.values()),
            )
        return self

    def validation_reports(self) -> Mapping[str, ValidationReport]:
        """Validation report per configuration under the scenario policy."""
        return {
            config.name: validate_configuration(config, policy=self.policy)
            for config in self.configurations
        }


class ScenarioResult(FrozenValue):
    """Savings reports for every (area, configuration) grid cell.

    ``cells`` holds the reports row-major: one row per area in
    ``area_order``, one report per configuration in ``configuration_order``.
    """

    __slots__ = ()
    _fields = ("scenario_name", "horizon_years", "area_order", "configuration_order", "cells")

    def report(self, area: AreaKind, configuration: str) -> SavingsReport:
        try:
            i = self.area_order.index(area)
            j = self.configuration_order.index(configuration)
        except ValueError:
            raise KeyError((area, configuration)) from None
        return self.cells[i * len(self.configuration_order) + j]

    def reports(self) -> Tuple[SavingsReport, ...]:
        """Grid cells in deterministic scenario order (areas outer)."""
        return self.cells

    def best_configuration(self, area: AreaKind) -> SavingsReport:
        """Cell with the highest total saving in the area (first wins ties)."""
        try:
            i = self.area_order.index(area)
        except ValueError:
            raise KeyError(area) from None
        width = len(self.configuration_order)
        best = None
        for candidate in self.cells[i * width : (i + 1) * width]:
            if best is None or candidate.total_saving_pct > best.total_saving_pct + 1e-12:
                best = candidate
        return best


def _baselines(scenario: Scenario, horizon: int) -> Tuple[CostBreakdown, ...]:
    tables = scenario.cost_tables
    return tuple([cumulative_cost(tables[kind], horizon) for kind in scenario.areas])


def _factors(configs: Sequence[SharingConfiguration]) -> Tuple[Tuple[float, ...], ...]:
    return tuple([sharing_factors(config) for config in configs])


def _ledger_sums(ledger: Sequence[float], factors: Sequence[Tuple[float, ...]]) -> List[float]:
    """Each configuration's share of one ledger: one ``_ledger_sum`` of its per-class products.

    The products are the ones :func:`apply_sharing` forms, summed left to
    right in ``ElementClass`` order, so each cell equals
    ``savings_report(baseline, apply_sharing(baseline, config), config)`` bit
    for bit on every Python.  A sweep point that moves one product sums the
    whole ledger again, in the same order.
    """
    return [_ledger_sum(map(mul, ledger, factor)) for factor in factors]


def _evaluate(
    scenario: Scenario,
    horizon: int,
    baselines: Sequence[CostBreakdown],
    configs: Sequence[SharingConfiguration],
    sums: Sequence[Tuple[Sequence[float], Sequence[float]]],
) -> ScenarioResult:
    """Grid of the scenario's areas from their baselines over ``horizon`` and,
    per area, the shared CAPEX and OPEX :func:`_ledger_sums` of ``configs``."""
    cells = []
    for kind, baseline, (capex, opex) in zip(scenario.areas, baselines, sums):
        try:
            cells += _area_reports(baseline, configs, capex, opex)
        except NetshareError as exc:
            # A cell error is a zero or infinite baseline, which fails the area's first cell.
            raise type(exc)(
                f"[area={kind.value} configuration={configs[0].name}] {exc}"
            ) from exc
    names = tuple([c.name for c in configs])
    fields = (scenario.name, horizon, scenario.areas, names, tuple(cells))
    return tuple.__new__(ScenarioResult, fields)  # built once a grid or sweep point


def _grid_sums(
    baselines: Sequence[CostBreakdown], factors: Sequence[Tuple[float, ...]]
) -> List[Tuple[List[float], List[float]]]:
    """Each area's CAPEX and OPEX :func:`_ledger_sums`, as :func:`_evaluate` takes them."""
    return [(_ledger_sums(b.capex, factors), _ledger_sums(b.opex, factors)) for b in baselines]


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Evaluate every grid cell of the scenario.

    Cost-model errors are re-raised annotated with the grid cell that
    produced them.
    """
    horizon, configs = scenario.horizon_years, scenario.configurations
    baselines = _baselines(scenario, horizon)
    sums = _grid_sums(baselines, _factors(configs))
    return _evaluate(scenario, horizon, baselines, configs, sums)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class SweepPoint(FrozenValue):
    __slots__ = ()
    _fields = ("value", "result")


class SweepResult(FrozenValue):
    __slots__ = ()
    _fields = ("scenario_name", "parameter", "class_name", "points")


def _check_fraction(parameter: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise InvalidSweepParameter(f"{parameter} values must lie in (0, 1), got {value}")


def _split_configs(
    configs: Sequence[SharingConfiguration], value: float
) -> Tuple[SharingConfiguration, ...]:
    """``configs`` with operator 0 paying ``value`` of each shared cost, the rest
    split evenly between the other operators.

    ``value`` lies in (0, 1), so every ratio lies in (0, 1] and they sum to 1
    up to rounding, as the constructor requires.
    """
    _check_fraction("split_ratio", value)
    out = []
    for config in configs:
        count = len(config.split_ratios)
        rest = (1.0 - value) / (count - 1)
        out.append(config._sweep_copy((value,) + (rest,) * (count - 1), config.intl_shared))
    return tuple(out)


def _intl_flag(value: float) -> bool:
    return value >= 0.5


def _intl_configs(
    configs: Sequence[SharingConfiguration], flag: bool
) -> Tuple[SharingConfiguration, ...]:
    return tuple(config._sweep_copy(config.split_ratios, flag) for config in configs)


def _class_share(
    kind: AreaKind, table: CostTable, cls: ElementClass, horizon: int
) -> Tuple[float, float]:
    """(cost of the rest of the table, cost of ``cls``) over ``horizon``; both must be positive."""
    entry = table.entries[cls]
    where = f"class {cls.value!r} cannot be rescaled in area {kind.value}"
    try:
        class_grand = entry.capex + entry.opex_annual * horizon
        grand = table.capex_total() + table.opex_annual_total() * horizon
    except OverflowError as exc:
        raise InvalidSweepParameter(f"{where}: horizon_years is too large for a float") from exc
    others = grand - class_grand
    if class_grand <= 0 or others <= 0:
        raise InvalidSweepParameter(f"{where}: it or the rest of the table carries no cost")
    return others, class_grand


def _rescaled_entry(entry: CostEntry, value: float, share: Tuple[float, float]) -> CostEntry:
    """``entry`` scaled so that its class takes ``value`` of its table's cumulative total.

    ``share`` is the table's :func:`_class_share`.  ``CostEntry`` rejects an
    amount that the scaling overflows to infinity.
    """
    others, class_grand = share
    factor = (value * others / (1.0 - value)) / class_grand
    return CostEntry(entry.capex * factor, entry.opex_annual * factor)


def _slot_sums(
    products: Sequence[List[float]], factors: Sequence[Tuple[float, ...]], slot: int, amount: float
) -> List[float]:
    """:func:`_ledger_sums` of a ledger whose ``slot`` now holds ``amount``.

    ``products`` holds each configuration's per-class products of the ledger;
    the slot's product is overwritten in place, and the whole list summed.
    """
    sums = []
    for ledger, factor in zip(products, factors):
        ledger[slot] = amount * factor[slot]
        sums.append(_ledger_sum(ledger))
    return sums


def _picker(mask: Sequence[bool]) -> itemgetter:
    """Picks, from a ledger followed by its scaled copy, each class's product
    under ``mask``: the scaled amount where the class is shared."""
    width = len(mask)
    return itemgetter(*[slot + width * flag for slot, flag in enumerate(mask)])


def _picked_sums(
    ledger: Sequence[float], value: float, pickers: Sequence[itemgetter]
) -> List[float]:
    """:func:`_ledger_sums` of ``ledger`` for operator-0 split ``value``, one per :func:`_picker`."""
    products = (*ledger, *[amount * value for amount in ledger])
    return [_ledger_sum(pick(products)) for pick in pickers]


def _points(scenario: Scenario, spec: SweepSpec):
    """``(value, ScenarioResult)`` of each sweep point.

    Each point equals the whole scenario rebuilt at that value, but works
    out only the ledger products its parameter moves.
    """
    horizon, configs = scenario.horizon_years, scenario.configurations
    values = spec.values()
    if spec.parameter == "horizon_years":
        # The CAPEX ledgers do not depend on the horizon: their sums are
        # worked out at the first point and kept for the others.
        factors = _factors(configs)
        capex = None
        for value in values:
            years = int(value)
            baselines = _baselines(scenario, years)
            if capex is None:
                capex = [_ledger_sums(b.capex, factors) for b in baselines]
            sums = [(c, _ledger_sums(b.opex, factors)) for c, b in zip(capex, baselines)]
            yield value, _evaluate(scenario, years, baselines, configs, sums)
        return

    baselines = _baselines(scenario, horizon)
    if spec.parameter == "split_ratio":
        # Operator 0 pays ``value`` of each class its mask shares and all of the
        # rest, so each product is the baseline amount (``amount * 1.0`` is
        # ``amount`` exactly) or ``amount * value``: a point scales each ledger
        # once, and each configuration picks its 13 products from that.
        # run, horizon_years and intl_shared gain nothing from pickers, so they
        # keep _ledger_sums.  The class sweep keeps its per-configuration product
        # lists: picking from columns scaled by a grid's distinct operator-0
        # ratios made its requests about 18 % slower.
        pickers = [_picker(config.shared_mask()) for config in configs]
        for value in values:
            swept = _split_configs(configs, value)
            sums = [
                (_picked_sums(b.capex, value, pickers), _picked_sums(b.opex, value, pickers))
                for b in baselines
            ]
            yield value, _evaluate(scenario, horizon, baselines, swept, sums)
        return

    if spec.parameter == "intl_shared":
        # Every value maps to one of two flags; points with the same flag share
        # one result, evaluated the first time the flag comes up.
        by_flag = {}
        for value in values:
            flag = _intl_flag(value)
            if flag not in by_flag:
                swept = _intl_configs(configs, flag)
                sums = _grid_sums(baselines, _factors(swept))
                by_flag[flag] = _evaluate(scenario, horizon, baselines, swept, sums)
            yield value, by_flag[flag]
        return

    # class_cost_fraction: each point moves one slot of each area's baseline,
    # with the float operations of CostTable -> cumulative_cost, and one
    # product of each ledger, kept per sweep in lists of every class's product.
    cls = ElementClass(spec.class_name)
    slot = tuple(ElementClass).index(cls)
    factors = _factors(configs)
    tables = scenario.cost_tables
    shares = {kind: _class_share(kind, tables[kind], cls, horizon) for kind in scenario.areas}
    products = [
        (
            [list(map(mul, base.capex, factor)) for factor in factors],
            [list(map(mul, base.opex, factor)) for factor in factors],
        )
        for base in baselines
    ]
    for value in values:
        _check_fraction(spec.parameter, value)
        entries = {
            kind: _rescaled_entry(tables[kind].entries[cls], value, share)
            for kind, share in shares.items()
        }
        point, sums = [], []
        for kind, base, (capex_products, opex_products) in zip(
            scenario.areas, baselines, products
        ):
            entry = entries[kind]
            capex, opex = entry.capex, entry.opex_annual * horizon
            ledgers = (
                base.capex[:slot] + (capex,) + base.capex[slot + 1 :],
                base.opex[:slot] + (opex,) + base.opex[slot + 1 :],
            )
            point.append(tuple.__new__(CostBreakdown, (base.area, horizon, *ledgers)))
            sums.append(
                (
                    _slot_sums(capex_products, factors, slot, capex),
                    _slot_sums(opex_products, factors, slot, opex),
                )
            )
        yield value, _evaluate(scenario, horizon, point, configs, sums)


def sweep(scenario: Scenario) -> SweepResult:
    """Re-run the scenario grid at every point of its ``sweep`` range.

    Points come back strictly ordered by parameter value with no
    duplicates.  Validation reads neither the swept parameter nor the costs,
    so the scenario's constructor has done it; each point checks the value
    it uses, and a bad value anywhere in the range fails the whole sweep.  A
    point works out only the shared-ledger products its parameter changes,
    and sums each ledger whole: ``horizon_years`` rebuilds the area baselines and sums
    their OPEX ledgers, with the CAPEX sums worked out once per sweep;
    ``class_cost_fraction`` rescales the swept class's slot of each baseline
    and rewrites that one product of each ledger, kept per sweep;
    ``split_ratio`` copies the configurations with the point's split, scales
    each ledger by the point's value once, and picks each configuration's
    products from the ledger and its scaled copy by its sharing mask;
    ``intl_shared`` evaluates each flag's grid once per sweep, and the points
    with that flag share its result.
    """
    spec = scenario.sweep
    if spec is None:
        raise InvalidSweepParameter(f"scenario {scenario.name!r} has no sweep specification")
    points = tuple([tuple.__new__(SweepPoint, point) for point in _points(scenario, spec)])
    values = [p.value for p in points]
    assert values == sorted(set(values)), "sweep values must be strictly increasing"
    return SweepResult(
        scenario_name=scenario.name,
        parameter=spec.parameter,
        class_name=spec.class_name,
        points=points,
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("name", "areas", "cost_tables", "configurations")
_TOP_LEVEL_KEYS = _REQUIRED_KEYS + ("horizon_years", "policy", "sweep")
_POLICY_KEYS = {"spectrum_pooling_allowed", "max_level"}


def _parse_policy(doc: Mapping) -> RegulatoryPolicy:
    read_object(doc, "policy", MalformedScenario, _POLICY_KEYS)
    max_level = None
    if doc.get("max_level") is not None:
        label = read_text(doc["max_level"], "max_level", MalformedScenario)
        try:
            max_level = SharingLevel[label]
        except KeyError as exc:
            raise MalformedScenario(
                f"unknown max_level {label!r}; expected one of "
                f"{[lvl.name for lvl in SharingLevel]}"
            ) from exc
    pooling = "spectrum_pooling_allowed"
    return RegulatoryPolicy(
        spectrum_pooling_allowed=read_flag(doc.get(pooling, True), pooling, MalformedScenario),
        max_level=max_level,
    )


def _parse_area(doc) -> AreaKind:
    try:
        return AreaKind(doc)
    except ValueError as exc:
        raise MalformedScenario(
            f"area must be one of {[kind.value for kind in AreaKind]}, got {doc!r}"
        ) from exc


def _parse_configuration(doc: Union[str, Mapping]) -> SharingConfiguration:
    if isinstance(doc, str):
        return preset(doc)
    if isinstance(doc, Mapping):
        return SharingConfiguration.from_json_dict(doc)
    raise MalformedScenario(f"configuration must be a preset name or an object, got {doc!r}")


def _parse_cost_table(
    kind: AreaKind, doc: Union[str, Mapping], base_dir: Optional[Path]
) -> CostTable:
    if isinstance(doc, str):
        payload = _read_json(fixture_path(doc, base_dir))
    elif isinstance(doc, Mapping):
        payload = doc
    else:
        raise MalformedScenario(
            f"cost table for {kind.value!r} must be a file name or an object, got {doc!r}"
        )
    try:
        return CostTable.from_json_dict(payload)
    except NetshareError as exc:
        raise MalformedScenario(f"cost table for {kind.value!r}: {exc}") from exc


def load_scenario(document: Union[str, Mapping], base_dir: Optional[Path] = None) -> Scenario:
    """Parse and validate a scenario document (JSON text or parsed object).

    Raises :class:`MalformedScenario` for JSON or schema problems and
    :class:`InvalidScenario` when the parsed scenario fails semantic
    validation (no configurations, configuration errors under the policy).
    """
    doc = _parse_json(document) if isinstance(document, str) else document
    read_object(doc, "scenario", MalformedScenario, _TOP_LEVEL_KEYS, _REQUIRED_KEYS)
    for key in ("areas", "configurations"):
        if not isinstance(doc[key], (list, tuple)):
            raise MalformedScenario(f"{key!r} must be a list, got {doc[key]!r}")
    areas = tuple(_parse_area(a) for a in doc["areas"])
    raw_tables = doc["cost_tables"]
    read_object(raw_tables, "cost_tables", MalformedScenario, [kind.value for kind in AreaKind])
    tables = {}
    for key, value in raw_tables.items():
        kind = AreaKind(key)
        tables[kind] = _parse_cost_table(kind, value, base_dir)
    configurations = tuple(_parse_configuration(c) for c in doc["configurations"])
    policy = _parse_policy(doc["policy"]) if doc.get("policy") is not None else None
    sweep_spec = (
        SweepSpec.from_json_dict(doc["sweep"]) if doc.get("sweep") is not None else None
    )

    return Scenario(
        name=read_text(doc["name"], "'name'", MalformedScenario),
        areas=areas,
        cost_tables=tables,
        configurations=configurations,
        horizon_years=read_integer(
            doc.get("horizon_years", DEFAULT_HORIZON_YEARS), "horizon_years", MalformedScenario, 1
        ),
        policy=policy,
        sweep=sweep_spec,
    )


def load_scenario_file(path: Union[str, Path]) -> Scenario:
    """Load a scenario from a file, resolving it like a fixture name."""
    resolved = fixture_path(str(path))
    return load_scenario(_read_text(resolved), base_dir=resolved.parent)
