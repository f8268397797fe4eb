"""
How the planning horizon shifts the balance of savings
======================================================

CAPEX is spent once, OPEX returns every year, so the horizon decides which
ledger dominates the total.  This sweep stretches the horizon from one to
ten years on the urban reference table and watches the total saving drift
from the CAPEX figure towards the OPEX figure.
"""

from netshare import (
    AreaKind,
    Scenario,
    SweepSpec,
    preset,
    reference_cost_table,
    sweep,
)

table = reference_cost_table(AreaKind.URBAN)
scenario = Scenario(
    name="horizon_sensitivity",
    areas=(AreaKind.URBAN,),
    cost_tables={AreaKind.URBAN: table},
    configurations=(preset("GWCN + Backhaul"),),
    sweep=SweepSpec(parameter="horizon_years", start=1, stop=10, steps=10),
)

result = sweep(scenario)

print("urban, GWCN + Backhaul, per-operator savings by horizon")
print()
print(f"{'years':>5} {'capex%':>8} {'opex%':>8} {'total%':>8}   opex share of cost")
for point in result.points:
    report = point.result.report(AreaKind.URBAN, "GWCN + Backhaul")
    baseline = report.baseline
    opex_share = baseline.opex_cumulative_total() / baseline.grand_total()
    bar = "#" * round(40 * opex_share)
    print(
        f"{int(point.value):>5} {report.capex_saving_pct:8.2f} "
        f"{report.opex_saving_pct:8.2f} {report.total_saving_pct:8.2f}   {bar}"
    )

# the per-ledger percentages never move; only their weighting does, so the
# total is always pinned between the OPEX and CAPEX savings
print()
print("the total saving is a cost-weighted blend of the two ledgers:")
print("short horizons lean on CAPEX sharing, long horizons on OPEX sharing")
