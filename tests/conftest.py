"""Shared test helpers: random model inputs, an independent savings oracle and
the skip for tests that need the calibrate extra.

Also collects the acceptance-criteria test outcomes and prints one PASS/FAIL
line per criterion in the terminal summary.
"""

import random
import re

import pytest

from netshare import (
    AreaKind,
    CostTable,
    ElementClass,
    SharingConfiguration,
)

# ---------------------------------------------------------------------------
# random model inputs
# ---------------------------------------------------------------------------


def random_cost_table(rng: random.Random, area: AreaKind = AreaKind.URBAN) -> CostTable:
    """Cost table with uniform random amounts and occasional exact zeros."""
    entries = {}
    for cls in ElementClass:
        capex = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 1000.0)
        opex = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 400.0)
        entries[cls] = (capex, opex)
    table = CostTable(area=area, entries=entries)
    if not table.is_usable():
        entries[ElementClass.NODEB] = (rng.uniform(1.0, 10.0), 0.0)
        table = CostTable(area=area, entries=entries)
    return table


def random_split(rng: random.Random, operator_count: int):
    weights = [rng.random() + 0.1 for _ in range(operator_count)]
    total = sum(weights)
    ratios = [w / total for w in weights]
    # keep the sum exact despite float division
    ratios[-1] = 1.0 - sum(ratios[:-1])
    return tuple(ratios)


def random_config(
    rng: random.Random,
    operator_count: int = None,
    equal_split: bool = False,
    share_chance: float = 0.5,
    name: str = "randomized",
) -> SharingConfiguration:
    if operator_count is None:
        operator_count = rng.choice((2, 2, 3, 4))
    shared = {cls: rng.random() < share_chance for cls in ElementClass}
    split = None if equal_split else random_split(rng, operator_count)
    return SharingConfiguration(
        name=name,
        shared=shared,
        operator_count=operator_count,
        split_ratios=split,
        intl_shared=rng.random() < 0.3,
        couple_site_costs=rng.random() < 0.3,
    )


# ---------------------------------------------------------------------------
# independent savings oracle
# ---------------------------------------------------------------------------


def oracle_pcts(table: CostTable, config: SharingConfiguration, horizon: int, index: int = 0):
    """Brute-force per-operator savings, restated from the sharing rule.

    A shared class costs the operator split_ratio x cost, an unshared class
    costs in full; site-coupled classes follow PassiveSite when the coupling
    flag is on, and the international link follows intl_shared.
    """
    ratio = config.split_ratios[index]
    shared = {cls for cls, flag in config.shared.items() if flag}
    if config.couple_site_costs and ElementClass.PASSIVE_SITE in shared:
        shared.add(ElementClass.SITE_RENT)
        shared.add(ElementClass.POWER)
    if config.intl_shared:
        shared.add(ElementClass.INTERNATIONAL_CONNECTIVITY)

    base_cap = base_op = mine_cap = mine_op = 0.0
    for cls in ElementClass:
        entry = table.entries[cls]
        cap = entry.capex
        op = entry.opex_annual * horizon
        factor = ratio if cls in shared else 1.0
        base_cap += cap
        base_op += op
        mine_cap += cap * factor
        mine_op += op * factor

    def pct(baseline, mine):
        return 0.0 if baseline == 0 else 100.0 * (baseline - mine) / baseline

    return (
        pct(base_cap, mine_cap),
        pct(base_op, mine_op),
        pct(base_cap + base_op, mine_cap + mine_op),
    )


def assert_close(a: float, b: float, rel: float = 1e-9) -> None:
    assert a == pytest.approx(b, rel=rel, abs=1e-12), f"{a!r} != {b!r}"


def import_calibrate_extra():
    """numpy and scipy, or skip the caller: the calibration search and record need them."""
    reason = "calibration needs numpy and scipy: pip install 'netshare[calibrate]'"
    return pytest.importorskip("numpy", reason=reason), pytest.importorskip("scipy", reason=reason)


# ---------------------------------------------------------------------------
# acceptance summary
# ---------------------------------------------------------------------------

CRITERIA = {
    1: "urban GWCN + Backhaul total saving 27.12 +/- 2.0 pp, under 1 s",
    2: "urban capex savings in [23, 50] spanning >= 15 pp, opex in [14, 20]",
    3: "suburban total, core and spectrum deltas, opex band",
    4: "rural capex, opex and spectrum-delta bands",
    5: "GWCN + Backhaul is the total-saving argmax in every area",
    6: "default emerging table: site+antenna and RAN sharing bands",
    7: "formula savings equal brute-force oracle on 1000 random inputs",
    8: "shared-set inclusion implies saving order in 10000 trials",
    9: "two operators at 50/50 never save more than 50 percent",
    10: "six grid presets match the hard-coded sharing matrix cell by cell",
    11: "savings invariant under uniform cost scaling (1e-3, 1, 1e6)",
    12: "advisor verdicts, LTE matrix and cost-weight monotonicity",
    13: "scenario runs emit byte-identical csv",
    14: "committed reference tables re-verify constraints and residuals",
}

_outcomes = {}
_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _outcomes[num] = report.passed
    elif report.failed:  # setup/teardown crash
        _outcomes[num] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_outcomes):
        status = "PASS" if _outcomes[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {CRITERIA[num]}")
