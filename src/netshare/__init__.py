"""netshare: techno-economic model of mobile network infrastructure sharing.

Quantifies the CAPEX/OPEX an operator saves by sharing network elements
(passive sites, antennas, NodeB/RNC, backhaul, spectrum, core gateways)
with a partner, per area type and sharing configuration, over a multi-year
amortization horizon.  Includes a scenario engine with parameter sweeps,
a rule-based advisor and a calibration search for reference cost tables.

``import netshare`` loads no submodule: each public name loads its module
on first use.  So a command line call imports only what its command runs.
Only the calibration search loads numpy and scipy (the ``calibrate``
extra); every public name, the calibration ones included, imports without
them.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "advisor": (
        "LteComparisonReport",
        "LteContext",
        "Recommendation",
        "Verdict",
        "checklist",
        "compare_lte",
        "recommend",
    ),
    "calibration": (
        "CALIBRATION_CONSTRAINTS",
        "CalibrationResult",
        "DeltaTarget",
        "SavingsTarget",
        "calibrate_reference",
    ),
    "costmodel": (
        "CostBreakdown",
        "SavingsReport",
        "apply_sharing",
        "config_delta",
        "cumulative_cost",
        "savings_report",
    ),
    "errors": ("NetshareError",),
    "inventory": (
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
    ),
    "repartition": (
        "RepartitionConstraint",
        "RepartitionConstraintSet",
        "USE_CASE_CONSTRAINTS",
        "check_repartition",
        "default_constraints",
    ),
    "scenario": (
        "Scenario",
        "ScenarioResult",
        "SweepSpec",
        "load_scenario",
        "load_scenario_file",
        "reference_cost_table",
        "run_scenario",
        "sweep",
    ),
    "sharing": (
        "NO_SHARING",
        "PRESET_NAMES",
        "RegulatoryPolicy",
        "SharingConfiguration",
        "SharingLevel",
        "preset",
        "sharing_level",
        "validate_configuration",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
