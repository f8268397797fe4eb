"""
Modeling your own market from unit costs
========================================

Builds a cost inventory for a custom operator footprint, checks the CAPEX
structure against the published emerging-market breakdown, and compares
dedicated-spectrum RAN sharing with pooled-spectrum variants under a
regulator that forbids frequency pooling.
"""

from netshare import (
    AreaKind,
    AreaProfile,
    ElementClass as E,
    Ledger,
    Market,
    RegulatoryPolicy,
    apply_sharing,
    build_inventory,
    check_repartition,
    cumulative_cost,
    default_constraints,
    preset,
    savings_report,
    validate_configuration,
)

# a mid-sized rural region: 60 coverage-driven sites behind one controller
profile = AreaProfile(kind=AreaKind.RURAL, nodeb_count=60)

# unit costs in arbitrary currency; scaled classes multiply by their counts
unit_costs = {
    E.PASSIVE_SITE: (98.4, 4.0),
    E.ANTENNA: (3.0, 0.3),
    E.NODEB: (36.0, 5.0),
    E.RNC: (692.0, 120.0),
    E.CORE_SGSN: (260.0, 60.0),
    E.CORE_GGSN: (240.0, 50.0),
    E.SITE_RENT: (0.0, 10.0),
    E.POWER: (74.4, 11.0),
    E.BACKHAUL: (400.0, 900.0),
    E.OAM: (100.0, 800.0),
    E.SPECTRUM_LICENSE: (0.0, 400.0),
    E.INTERNATIONAL_CONNECTIVITY: (0.0, 2_500.0),
    E.STAFF: (0.0, 700.0),
}

table = build_inventory(profile, unit_costs)
print(f"rural inventory: capex {table.capex_total():,.0f}, "
      f"annual opex {table.opex_annual_total():,.0f}")

# sanity-check the structure against the published emerging-market shares
report = check_repartition(table, default_constraints(Market.EMERGING, Ledger.CAPEX))
print("\nemerging-market CAPEX structure:")
for check in report.checks:
    status = "ok " if check.satisfied else "OFF"
    print(f"  [{status}] {check.constraint.label}: {check.observed:.4f} "
          f"in [{check.constraint.lower}, {check.constraint.upper}]")

# compare three ladder rungs over five years
baseline = cumulative_cost(table, 5)
print("\nfive-year per-operator savings (two operators, 50/50):")
for name in ("MORAN", "MOCN", "GWCN"):
    config = preset(name)
    result = savings_report(baseline, apply_sharing(baseline, config), config)
    print(f"  {name:<6} capex {result.capex_saving_pct:5.2f}%  "
          f"opex {result.opex_saving_pct:5.2f}%  total {result.total_saving_pct:5.2f}%")

# a regulator that forbids frequency pooling rules out the MOCN family
policy = RegulatoryPolicy(spectrum_pooling_allowed=False)
print("\nvalidation with spectrum pooling forbidden:")
for name in ("MORAN", "MOCN", "GWCN"):
    verdict = validate_configuration(preset(name), policy=policy)
    codes = ", ".join(verdict.codes()) or "clean"
    print(f"  {name:<6} {'valid' if verdict.valid else 'INVALID'} ({codes})")
