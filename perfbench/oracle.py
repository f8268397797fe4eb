"""Independent oracle for every output the benchmark checks.

Written in plain Python from the documented data formats only: cost tables
as JSON documents, configurations as plain dicts.  Nothing here imports
netshare, so a defect in the engine cannot hide in the oracle.

Per ledger, an operator saves ``(1 - own split) * shared / total`` percent,
where ``shared`` sums the ledger amounts of the effectively shared classes.
The total saving blends the two ledgers by their cumulative cost.
"""

from __future__ import annotations

CLASSES = (
    "passive_site",
    "antenna",
    "nodeb",
    "rnc",
    "backhaul",
    "core_sgsn",
    "core_ggsn",
    "oam",
    "spectrum_license",
    "international_connectivity",
    "site_rent",
    "power",
    "staff",
)

_RAN = ("passive_site", "nodeb", "rnc")

# The documented preset catalogue: shared classes per preset name.
PRESETS = {
    "MOCN": _RAN + ("spectrum_license",),
    "MOCN + Backhaul": _RAN + ("backhaul", "spectrum_license"),
    "MOCN - Spectrum": _RAN + ("backhaul",),
    "GWCN": _RAN + ("spectrum_license", "core_sgsn"),
    "GWCN + Backhaul": _RAN + ("backhaul", "spectrum_license", "core_sgsn"),
    "GWCN - Spectrum": _RAN + ("backhaul", "core_sgsn"),
    "PassiveOnly": ("passive_site",),
    "SiteAntenna": ("passive_site", "antenna"),
    "GatewayRoaming": _RAN + ("backhaul",),
}
PRESET_ALIASES = ("MORAN",)
SINGLE_SPECTRUM_PRESETS = ("GatewayRoaming",)

# README headline: urban "GWCN + Backhaul" on the bundled tables, 2 decimals.
HEADLINE = ("urban", "GWCN + Backhaul", ("45.14", "18.00", "27.12"))

# Sharing ladder rungs, bottom to top; the core rung counts either gateway.
LADDER = (
    ("passive_site",),
    ("antenna",),
    ("nodeb",),
    ("rnc",),
    ("core_sgsn", "core_ggsn"),
)

VERDICTS = {
    ("rural", "2g"): "StronglyRecommended",
    ("rural", "3g"): "StronglyRecommended",
    ("suburban", "2g"): "CaseByCase",
    ("suburban", "3g"): "CaseByCase",
    ("urban", "2g"): "NotRecommended",
    ("urban", "3g"): "CaseByCase",
}


def recommendation_notes(area, tech):
    """Notes a recommendation carries: the area note, plus one for 3G or urban 2G."""
    return 2 if tech == "3g" or area == "urban" else 1


CHECKLIST_ITEMS = {"existing": 11, "new": 7}
CHECKLIST_DOMAINS = {"site", "energy", "ran", "backhaul"}

ABS_TOL = 1e-9


def preset_config(name):
    """Plain-dict configuration for a catalogue preset: two operators, equal split."""
    return {
        "name": name,
        "shared": set(PRESETS[name]),
        "operators": 2,
        "split": None,
        "intl_shared": False,
        "couple_site_costs": False,
        "single_spectrum": name in SINGLE_SPECTRUM_PRESETS,
    }


def config_from_doc(doc):
    """Plain-dict configuration from an inline configuration document."""
    return {
        "name": doc["name"],
        "shared": {label for label, flag in doc["shared"].items() if flag},
        "operators": doc.get("operators", 2),
        "split": doc.get("split"),
        "intl_shared": bool(doc.get("intl_shared", False)),
        "couple_site_costs": bool(doc.get("couple_site_costs", False)),
        "single_spectrum": bool(doc.get("single_spectrum", False)),
    }


def effective_shared(config):
    shared = set(config["shared"])
    if config["couple_site_costs"] and "passive_site" in shared:
        shared |= {"site_rent", "power"}
    if config["intl_shared"]:
        shared.add("international_connectivity")
    return shared


def own_split(config):
    if config["split"]:
        return float(config["split"][0])
    return 1.0 / config["operators"]


def ledgers(table_doc):
    """(capex, annual opex) amounts per class label; absent classes are 0."""
    capex = dict.fromkeys(CLASSES, 0.0)
    opex = dict.fromkeys(CLASSES, 0.0)
    for label, entry in table_doc["entries"].items():
        capex[label] = float(entry.get("capex", 0.0))
        opex[label] = float(entry.get("opex_annual", 0.0))
    return capex, opex


def savings(table_doc, config, horizon):
    """(capex %, opex %, total %) saved by operator 0."""
    capex, opex = ledgers(table_doc)
    shared = effective_shared(config)
    factor = 1.0 - own_split(config)

    def pct(ledger):
        total = sum(ledger.values())
        if total == 0:
            return 0.0
        return 100.0 * factor * sum(ledger[c] for c in shared) / total

    capex_pct = pct(capex)
    opex_pct = pct(opex)
    capex_total = sum(capex.values())
    opex_total = sum(opex.values()) * horizon
    total_pct = (capex_total * capex_pct + opex_total * opex_pct) / (capex_total + opex_total)
    return capex_pct, opex_pct, total_pct


def grid(areas, tables, configs, horizon):
    """Expected savings per (area, configuration name), areas outer."""
    return {
        (area, cfg["name"]): savings(tables[area], cfg, horizon)
        for area in areas
        for cfg in configs
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_values(spec):
    start, stop, steps = float(spec["from"]), float(spec["to"]), int(spec["steps"])
    raw = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    if spec["parameter"] == "horizon_years":
        return [float(v) for v in sorted({int(round(v)) for v in raw})]
    return raw


def _rescaled_table(table_doc, label, fraction, horizon):
    capex, opex = ledgers(table_doc)
    class_grand = capex[label] + opex[label] * horizon
    grand = sum(capex.values()) + sum(opex.values()) * horizon
    factor = (fraction * (grand - class_grand) / (1.0 - fraction)) / class_grand
    entries = {c: {"capex": capex[c], "opex_annual": opex[c]} for c in CLASSES}
    entries[label] = {"capex": capex[label] * factor, "opex_annual": opex[label] * factor}
    return {"area": table_doc["area"], "entries": entries}


def sweep(areas, tables, configs, horizon, spec):
    """Expected sweep points: a list of (value, horizon, grid)."""
    parameter = spec["parameter"]
    points = []
    for value in sweep_values(spec):
        point_tables, point_configs, point_horizon = tables, configs, horizon
        if parameter == "horizon_years":
            point_horizon = int(value)
        elif parameter == "split_ratio":
            point_configs = [dict(c, split=[value]) for c in configs]
        elif parameter == "intl_shared":
            point_configs = [dict(c, intl_shared=value >= 0.5) for c in configs]
        else:
            point_tables = {
                a: _rescaled_table(t, spec["class"], value, horizon) for a, t in tables.items()
            }
        points.append(
            (value, point_horizon, grid(areas, point_tables, point_configs, point_horizon))
        )
    return points


# ---------------------------------------------------------------------------
# Validation, advisor and calibration checks
# ---------------------------------------------------------------------------


def warning_codes(config):
    """Warning codes validation must report, in the documented order."""
    shared = set(config["shared"])
    rungs = [any(c in shared for c in rung) for rung in LADDER]
    codes = []
    if any(rungs):
        top = max(i for i, flag in enumerate(rungs) if flag)
        if not all(rungs[:top]):
            codes.append("NonContiguousLadder")
    if config["operators"] > 4:
        codes.append("ManyOperators")
    if config["single_spectrum"]:
        codes.append("SingleSpectrumCapacity")
    return codes


def lte_scores(inter_rat, cs_fallback, roaming, cost_weight):
    """(MOCN score, GWCN score, preferred) of the LTE core comparison."""
    legacy = float(inter_rat) + float(cs_fallback) + float(roaming)
    mocn = legacy - cost_weight
    gwcn = -legacy + cost_weight
    if abs(mocn - gwcn) <= 1e-12:
        return mocn, gwcn, "Tie"
    return mocn, gwcn, "MOCN" if mocn > gwcn else "GWCN"


def constraint_violations(table_doc, constraint_docs, area):
    """Labels of repartition constraints the table breaks in ``area``."""
    capex, opex = ledgers(table_doc)
    broken = []
    for con in constraint_docs:
        if con["area"] not in (None, area):
            continue
        ledger = capex if con["ledger"] == "capex" else opex
        fraction = sum(ledger[c] for c in con["classes"]) / sum(ledger.values())
        if not (con["lower"] - ABS_TOL <= fraction <= con["upper"] + ABS_TOL):
            broken.append(con["label"])
    return broken


def close(actual, expected):
    return abs(float(actual) - expected) <= ABS_TOL * max(1.0, abs(expected))


def matches_printed(text, expected, decimals):
    """A number printed at ``decimals`` places agrees with the exact value."""
    return abs(float(text) - expected) <= 0.5 * 10.0 ** -decimals + ABS_TOL
