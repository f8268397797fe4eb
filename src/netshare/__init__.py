"""netshare: techno-economic model of mobile network infrastructure sharing.

Quantifies the CAPEX/OPEX an operator saves by sharing network elements
(passive sites, antennas, NodeB/RNC, backhaul, spectrum, core gateways)
with a partner, per area type and sharing configuration, over a multi-year
amortization horizon.  Includes a scenario engine with parameter sweeps,
a rule-based advisor and a calibration search for reference cost tables.

The calibration names are resolved on first use: only they need numpy and
scipy (the ``calibrate`` extra), so the engine, the advisor and every other
command import neither.
"""

from .advisor import (
    LteComparisonReport,
    LteContext,
    NetworkState,
    Recommendation,
    Technology,
    Verdict,
    checklist,
    compare_lte,
    recommend,
)
from .costmodel import (
    CostBreakdown,
    SavingsReport,
    apply_sharing,
    config_delta,
    cumulative_cost,
    savings_report,
)
from .errors import NetshareError
from .inventory import (
    AreaKind,
    AreaProfile,
    CostEntry,
    CostTable,
    ElementClass,
    Ledger,
    Market,
    RepartitionConstraint,
    RepartitionConstraintSet,
    build_inventory,
    check_repartition,
    default_constraints,
    default_market_costs,
    default_profile,
)
from .scenario import (
    Scenario,
    ScenarioResult,
    SweepSpec,
    load_scenario,
    load_scenario_file,
    reference_cost_table,
    run_scenario,
    sweep,
)
from .sharing import (
    NO_SHARING,
    PRESET_NAMES,
    RegulatoryPolicy,
    SharingConfiguration,
    SharingLevel,
    preset,
    sharing_level,
    validate_configuration,
)

__version__ = "0.1.0"

_CALIBRATION_NAMES = frozenset(
    {
        "CALIBRATION_CONSTRAINTS",
        "CalibrationResult",
        "DeltaTarget",
        "SavingsTarget",
        "calibrate_reference",
    }
)


def __getattr__(name):
    # Lazy, because importing calibration imports numpy and scipy.
    if name in _CALIBRATION_NAMES:
        from . import calibration

        return getattr(calibration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _CALIBRATION_NAMES)


__all__ = [
    "AreaKind",
    "AreaProfile",
    "CALIBRATION_CONSTRAINTS",
    "CalibrationResult",
    "CostBreakdown",
    "CostEntry",
    "CostTable",
    "DeltaTarget",
    "ElementClass",
    "Ledger",
    "LteComparisonReport",
    "LteContext",
    "Market",
    "NetshareError",
    "NetworkState",
    "NO_SHARING",
    "PRESET_NAMES",
    "Recommendation",
    "RegulatoryPolicy",
    "RepartitionConstraint",
    "RepartitionConstraintSet",
    "SavingsReport",
    "SavingsTarget",
    "Scenario",
    "ScenarioResult",
    "SharingConfiguration",
    "SharingLevel",
    "SweepSpec",
    "Technology",
    "Verdict",
    "apply_sharing",
    "build_inventory",
    "calibrate_reference",
    "check_repartition",
    "checklist",
    "compare_lte",
    "config_delta",
    "cumulative_cost",
    "default_constraints",
    "default_market_costs",
    "default_profile",
    "load_scenario",
    "load_scenario_file",
    "preset",
    "recommend",
    "reference_cost_table",
    "run_scenario",
    "savings_report",
    "sharing_level",
    "sweep",
    "validate_configuration",
    "__version__",
]
