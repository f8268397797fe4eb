"""Mutated input documents: only NetshareError escapes, the CLI prints one error line."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from netshare import NetshareError, load_scenario, run_scenario, sweep
from netshare.calibration import load_targets_document
from netshare.cli import main
from netshare.scenario import fixture_path

# Every optional part of the schema: inline and referenced tables, preset and
# inline configurations (one with couple_site_costs), a policy with both keys
# and a sweep.
SCENARIO = {
    "name": "fuzz",
    "horizon_years": 5,
    "areas": ["urban", "rural"],
    "cost_tables": {
        "urban": {
            "area": "urban",
            "currency": "EUR",
            "entries": {
                "nodeb": {"capex": 600.0, "opex_annual": 40.0},
                "backhaul": {"capex": 200.0, "opex_annual": 30.0},
                "international_connectivity": {"opex_annual": 80.0},
            },
        },
        "rural": "reference_costs_rural.json",
    },
    "configurations": [
        "MOCN",
        {
            "name": "custom",
            "shared": {"passive_site": True, "antenna": True, "nodeb": True, "rnc": True},
            "operators": 3,
            "split": [0.5, 0.3, 0.2],
            "intl_shared": True,
            "couple_site_costs": False,
        },
    ],
    "policy": {"spectrum_pooling_allowed": True, "max_level": "L5_CORE"},
    "sweep": {
        "parameter": "class_cost_fraction",
        "from": 0.1,
        "to": 0.6,
        "steps": 4,
        "class": "nodeb",
    },
}

# A sweep of each kind: costs moved per point, or the horizon rounded to integers.
SCENARIOS = (
    SCENARIO,
    {**SCENARIO, "sweep": {"parameter": "horizon_years", "from": 1, "to": 9, "steps": 5}},
)

TARGETS = json.loads(fixture_path("use_case_targets.json").read_text(encoding="utf-8"))
TARGETS["targets"] = TARGETS["targets"][:2] + [
    {"kind": "delta", "area": "rural", "first": "GWCN", "second": "MOCN", "value": 1.0}
]
TARGETS["constraints"] = {
    "name": "fuzz",
    "constraints": [
        {"label": "oam", "ledger": "capex", "classes": ["oam"], "lower": 0.1, "upper": 0.2},
        {
            "label": "staff",
            "ledger": "opex",
            "classes": ["staff"],
            "lower": 0.0,
            "upper": 0.5,
            "area": "urban",
        },
    ],
}

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -1e308]),
    # Integers that float() cannot take.  No huge integer a float can hold:
    # as a count it could allocate before a check.
    st.sampled_from([10**400, -(10**400)]),
    st.sampled_from(
        ["urban", "MOCN", "nodeb", "capex", "L1_SITE", "horizon_years", "paper_use_case.json"]
    ),
    st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=3), st.floats()), max_size=3),
    st.dictionaries(
        st.sampled_from(["kind", "area", "x", "nodeb"]), st.integers(0, 3), max_size=2
    ),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


@st.composite
def _mutated(draw, document):
    """``document`` with one to three values replaced or removed, anywhere in the tree."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    return doc


def test_unmutated_documents_are_valid():
    for document in SCENARIOS:
        scenario = load_scenario(document)
        run_scenario(scenario)
        sweep(scenario)
    load_targets_document(json.dumps(TARGETS))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.sampled_from(SCENARIOS).flatmap(_mutated))
def test_mutated_scenarios_raise_only_netshare_errors(doc):
    text = json.dumps(doc)
    try:
        scenario = load_scenario(text)
        run_scenario(scenario)
    except NetshareError:
        runs = False
    else:
        runs = True
        if scenario.sweep is not None:
            try:
                sweep(scenario)
            except NetshareError:
                pass

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["run", str(path)])
    if runs:
        assert code == 0
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_mutated(TARGETS))
def test_mutated_targets_documents_raise_only_netshare_errors(doc):
    try:
        load_targets_document(json.dumps(doc))
    except NetshareError:
        pass
