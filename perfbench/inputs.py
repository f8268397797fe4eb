"""Seeded input generator.  Every document it returns is plain JSON data.

The same seed always yields the same documents.  Seeds change the cost
amounts, the custom configurations, the horizon, the swept class and the
request order, but not the input sizes, so runs on different seeds do the
same amount of work.
"""

from __future__ import annotations

import random

from oracle import CLASSES, PRESETS

AREAS = ("urban", "suburban", "rural")


def perturbed_table(base_doc, rng, low=0.6, high=1.4):
    """Copy of a cost-table document with every non-zero amount rescaled."""
    entries = {}
    for label, entry in base_doc["entries"].items():
        entries[label] = {
            key: round(float(entry.get(key, 0.0)) * rng.uniform(low, high), 4)
            for key in ("capex", "opex_annual")
        }
    return {"area": base_doc["area"], "currency": "units", "entries": entries}


def unequal_split(rng, operators):
    weights = [rng.uniform(1.0, 3.0) for _ in range(operators)]
    total = sum(weights)
    split = [round(w / total, 6) for w in weights[:-1]]
    split.append(1.0 - sum(split))
    return split


def custom_config(rng, name):
    """An inline configuration document that passes validation.

    2 to 4 operators on an unequal split; a shared core gateway always sits
    on a shared RNC, so validation raises no error.
    """
    shared = {label: rng.random() < 0.5 for label in CLASSES}
    if shared["core_sgsn"] or shared["core_ggsn"]:
        shared["rnc"] = True
    operators = rng.randint(2, 4)
    return {
        "name": name,
        "shared": shared,
        "operators": operators,
        "split": unequal_split(rng, operators),
        "intl_shared": rng.random() < 0.5,
        "couple_site_costs": rng.random() < 0.5,
    }


def preset_as_document(rng, name):
    """A catalogue preset spelled out as an inline document, seeded flags."""
    operators = rng.randint(2, 4)
    return {
        "name": name,
        "shared": {label: label in PRESETS[name] for label in CLASSES},
        "operators": operators,
        "split": unequal_split(rng, operators),
        "intl_shared": rng.random() < 0.5,
        "couple_site_costs": rng.random() < 0.5,
    }


def sweep_spec(parameter, steps, swept_class=None):
    ranges = {
        "split_ratio": (0.05, 0.95),
        "horizon_years": (1, steps),
        "intl_shared": (0.0, 1.0),
        "class_cost_fraction": (0.02, 0.6),
    }
    start, stop = ranges[parameter]
    spec = {"parameter": parameter, "from": start, "to": stop, "steps": steps}
    if parameter == "class_cost_fraction":
        spec["class"] = swept_class
    return spec


def swept_class(rng, tables):
    """A class with cost in every table, so it can be rescaled everywhere."""
    def has_cost(doc, label):
        entry = doc["entries"].get(label, {})
        return entry.get("capex", 0.0) > 0 or entry.get("opex_annual", 0.0) > 0

    usable = [c for c in CLASSES if all(has_cost(t, c) for t in tables.values())]
    return rng.choice(usable)


def scenario_document(rng, name, base_tables, preset_names, custom_count):
    """Scenario over all three areas with perturbed inline tables."""
    tables = {area: perturbed_table(base_tables[area], rng) for area in AREAS}
    configurations = list(preset_names) + [
        custom_config(rng, f"custom-{i}") for i in range(custom_count)
    ]
    return {
        "name": name,
        "horizon_years": rng.randint(3, 10),
        "areas": list(AREAS),
        "cost_tables": tables,
        "configurations": configurations,
    }


def shuffled_blocks(rng, block):
    """Endless stream of the block's items, each block in a seeded order."""
    while True:
        items = list(block)
        rng.shuffle(items)
        yield from items


def rng_for(seed, stream):
    return random.Random(f"{seed}:{stream}")
