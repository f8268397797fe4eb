"""Command line front end.

Subcommands: run, sweep, validate, presets, recommend, compare-lte,
checklist, calibrate.  Data documents go to stdout (or ``--out``);
diagnostics go to stderr.  Exit codes: 0 success, 1 domain errors,
2 usage errors.

Output formats: ``table`` (human-readable, 2 decimals), ``csv`` (4
decimals, stable header) and ``json`` (full precision, versioned schema).
Identical inputs produce byte-identical csv/json; the provenance block of
run and sweep json carries a timestamp and is suppressed by
``--no-provenance`` so golden-file comparisons stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .errors import IoFailure, NetshareError
from .inventory import AreaKind, NetworkState, Technology

# Each command imports the modules it runs when it runs, so a call loads
# only what its command needs.

SCHEMA_VERSION = 1


def _provenance(scenario_name: str) -> dict:
    from datetime import datetime, timezone

    return {
        "scenario": scenario_name,
        "engine_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {out!r}: {exc}") from exc


def _format_table(rows, header) -> str:
    widths = [len(h) for h in header]
    rendered = []
    for row in rows:
        cells = [str(c) for c in row]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        rendered.append(cells)
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for cells in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# documents and savings output
# ---------------------------------------------------------------------------


def _document(kind: str, body: dict) -> str:
    """A versioned JSON document: ``schema_version``, ``kind``, then ``body``'s keys."""
    return json.dumps({"schema_version": SCHEMA_VERSION, "kind": kind, **body}, indent=2)


def _savings_csv(parameter: Optional[str], points) -> str:
    """One row per report: its JSON fields in order, floats to 4 decimals.

    A sweep's rows lead with its ``parameter`` and the point's value.
    """
    import csv
    import io

    rows = []
    for value, result in points:
        lead = {} if parameter is None else {"parameter": parameter, "value": format(value, ".6g")}
        for report in result.reports():
            row = dict(lead)
            for key, cell in report.to_json_dict().items():
                row[key] = f"{cell:.4f}" if isinstance(cell, float) else cell
            rows.append(row)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _point_json(result) -> dict:
    """A point's JSON fields: its horizon and its reports."""
    return {
        "horizon_years": result.horizon_years,
        "reports": [r.to_json_dict() for r in result.reports()],
    }


def _run_table(result) -> str:
    rows = [
        (
            r.area.value,
            r.configuration,
            f"{r.capex_saving_pct:.2f}",
            f"{r.opex_saving_pct:.2f}",
            f"{r.total_saving_pct:.2f}",
        )
        for r in result.reports()
    ]
    title = (
        f"scenario: {result.scenario_name} "
        f"(horizon {result.horizon_years} years, per-operator savings)\n"
    )
    return title + _format_table(rows, ("area", "configuration", "capex %", "opex %", "total %"))


def _sweep_table(parameter: str, points) -> str:
    rows = [
        (format(value, ".6g"), r.area.value, r.configuration, f"{r.total_saving_pct:.2f}")
        for value, result in points
        for r in result.reports()
    ]
    return _format_table(rows, (parameter, "area", "configuration", "total %"))


def _write_savings(args, kind: str, head: dict, parameter: Optional[str], points) -> None:
    """Write ``(value, ScenarioResult)`` points in ``args.format``.

    A run is one point with no ``parameter``: its JSON body carries the
    point's fields.  A sweep names its ``parameter`` and its JSON body lists
    the points.  ``head`` opens the JSON body.
    """
    if args.format == "csv":
        text = _savings_csv(parameter, points)
    elif args.format == "json":
        body = dict(head)
        if parameter is None:
            body.update(_point_json(points[0][1]))
        else:
            body["points"] = [{"value": value, **_point_json(result)} for value, result in points]
        if not args.no_provenance:
            body["provenance"] = _provenance(head["scenario"])
        text = _document(kind, body)
    elif parameter is None:
        text = _run_table(points[0][1])
    else:
        text = _sweep_table(parameter, points)
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# run / sweep / validate
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    from .scenario import load_scenario_file, run_scenario

    scenario = load_scenario_file(args.scenario)
    if args.strict:
        _fail_on_warnings(scenario)
    result = run_scenario(scenario)
    _write_savings(args, "savings_grid", {"scenario": result.scenario_name}, None, [(None, result)])
    return 0


def _cmd_sweep(args) -> int:
    from .scenario import load_scenario_file, sweep

    result = sweep(load_scenario_file(args.scenario))
    head = {
        "scenario": result.scenario_name,
        "parameter": result.parameter,
        "class": result.class_name,
    }
    points = [(point.value, point.result) for point in result.points]
    _write_savings(args, "sweep", head, result.parameter, points)
    return 0


def _fail_on_warnings(scenario) -> None:
    noisy = {
        name: rep for name, rep in scenario.validation_reports().items() if rep.warnings
    }
    if noisy:
        detail = "; ".join(
            f"{name}: {', '.join(i.code for i in rep.warnings)}" for name, rep in noisy.items()
        )
        raise NetshareError(f"strict mode: configuration warnings present ({detail})")


def _cmd_validate(args) -> int:
    from .scenario import load_scenario_file, run_scenario, sweep

    scenario = load_scenario_file(args.scenario)
    # Refuse what the run and sweep commands refuse; write neither result.
    run_scenario(scenario)
    if scenario.sweep is not None:
        sweep(scenario)
    reports = scenario.validation_reports()
    lines = [f"scenario: {scenario.name}"]
    warned = False
    for name, report in reports.items():
        status = "ok"
        if report.warnings:
            warned = True
            status = "warnings: " + ", ".join(i.code for i in report.warnings)
        lines.append(f"  {name}: {status}")
    lines.append(
        f"{len(scenario.areas)} areas x {len(scenario.configurations)} configurations, "
        f"horizon {scenario.horizon_years} years"
    )
    _emit("\n".join(lines) + "\n", None)
    if args.strict and warned:
        print("strict mode: warnings treated as errors", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# presets / advisor commands
# ---------------------------------------------------------------------------


def _cmd_presets(args) -> int:
    from .sharing import PRESET_NAMES, preset_names

    aliases = [name for name in preset_names(include_aliases=True) if name not in PRESET_NAMES]
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "presets": list(PRESET_NAMES), "aliases": aliases}
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit("\n".join(PRESET_NAMES) + f"\naliases: {', '.join(aliases)}\n", args.out)
    return 0


def _cmd_recommend(args) -> int:
    from .advisor import recommend

    rec = recommend(AreaKind(args.area), Technology(args.tech))
    if args.format == "json":
        _emit(_document("recommendation", rec.to_json_dict()), args.out)
    else:
        lines = [rec.verdict.value]
        for note in rec.notes:
            lines.append(f"  - {note}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_compare_lte(args) -> int:
    from .advisor import LteContext, compare_lte

    ctx = LteContext(
        needs_inter_rat_mobility=args.needs_inter_rat_mobility,
        needs_cs_fallback=args.needs_cs_fallback,
        voice_via_ims=args.voice_via_ims,
        needs_roaming=args.needs_roaming,
        cost_priority_weight=args.cost_weight,
    )
    report = compare_lte(ctx)
    if args.format == "json":
        _emit(_document("lte_comparison", report.to_json_dict()), args.out)
    else:
        rows = [(r.criterion, r.mocn, r.gwcn, r.remark) for r in report.rows]
        table = _format_table(rows, ("criterion", "MOCN", "GWCN", "remark"))
        tail = (
            f"scores: MOCN {report.mocn_score:+.2f}, GWCN {report.gwcn_score:+.2f}\n"
            f"preferred: {report.preferred}\n"
        )
        _emit(table + tail, args.out)
    return 0


def _cmd_checklist(args) -> int:
    from .advisor import checklist

    doc = checklist(NetworkState(args.state))
    if args.format == "json":
        _emit(_document("checklist", doc.to_json_dict()), args.out)
    else:
        lines = [f"checklist for {doc.network_state.value} networks:"]
        for idx, item in enumerate(doc.items):
            mark = " " if item.answered is None else ("x" if item.answered else "-")
            lines.append(f"  [{mark}] {idx:2d} ({item.domain}) {item.text}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> int:
    # Imported here: calibration loads numpy and scipy, which no other command needs.
    from .calibration import calibrate_reference, load_targets_document
    from .scenario import _read_text, fixture_path

    targets, constraints, horizon, seed = load_targets_document(
        _read_text(fixture_path(args.targets))
    )
    if args.seed is not None:
        seed = args.seed
    result = calibrate_reference(constraints, targets, horizon_years=horizon, seed=seed)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc

    written = []
    for kind, table in result.tables.items():
        path = out_dir / f"reference_costs_{kind.value}.json"
        _emit(table.to_json(indent=2), str(path))
        written.append(path.name)

    path = out_dir / "reference_calibration.json"
    _emit(_document("calibration_record", result.record(constraints)), str(path))
    written.append(path.name)

    print(f"wrote {', '.join(written)} to {out_dir}", file=sys.stderr)
    rows = [
        (desc, f"{achieved:.4f}", f"{residual:+.4f}")
        for desc, achieved, residual in result.residual_report()
    ]
    _emit(_format_table(rows, ("target", "achieved", "residual")), None)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format_flags(parser, formats=("table", "csv", "json")) -> None:
    parser.add_argument(
        "--format", choices=formats, default="table", help="output format (default: table)"
    )
    parser.add_argument("--out", metavar="PATH", help="write the document to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netshare",
        description="Techno-economic model of mobile network infrastructure sharing.",
        # An explicit help column: from 3.13 on, argparse would widen it to fit
        # the subcommand list, and the help would differ from earlier Pythons.
        formatter_class=functools.partial(argparse.HelpFormatter, max_help_position=15),
    )
    parser.add_argument("--version", action="version", version=f"netshare {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("run", help="execute a scenario and report per-cell savings")
    p.add_argument("scenario", help="scenario file (searched in cwd, then the fixture directory)")
    _add_format_flags(p)
    p.add_argument(
        "--no-provenance",
        action="store_true",
        help="omit the provenance block (timestamps) from json output",
    )
    p.add_argument(
        "--strict", action="store_true", help="treat configuration warnings as errors"
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="re-run the scenario grid over its sweep range")
    p.add_argument("scenario", help="scenario file with a sweep specification")
    _add_format_flags(p)
    p.add_argument("--no-provenance", action="store_true", help="omit provenance from json output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="check a scenario file without running it")
    p.add_argument("scenario", help="scenario file to validate")
    p.add_argument("--strict", action="store_true", help="fail on configuration warnings")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("presets", help="list the sharing configuration presets")
    _add_format_flags(p, formats=("table", "json"))
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("recommend", help="sharing verdict for an area and technology")
    p.add_argument("--area", required=True, choices=[a.value for a in AreaKind])
    p.add_argument("--tech", required=True, choices=[t.value for t in Technology])
    _add_format_flags(p, formats=("table", "json"))
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("compare-lte", help="weigh pooled-core against RAN-only sharing for LTE")
    p.add_argument("--needs-inter-rat-mobility", action="store_true")
    p.add_argument("--needs-cs-fallback", action="store_true")
    p.add_argument("--voice-via-ims", action="store_true")
    p.add_argument("--needs-roaming", action="store_true")
    p.add_argument(
        "--cost-weight",
        type=float,
        default=0.5,
        metavar="W",
        help="weight of the cost criterion in [0, 1] (default 0.5)",
    )
    _add_format_flags(p, formats=("table", "json"))
    p.set_defaults(func=_cmd_compare_lte)

    p = sub.add_parser("checklist", help="feasibility checklist for a network state")
    p.add_argument("--state", required=True, choices=[s.value for s in NetworkState])
    _add_format_flags(p, formats=("table", "json"))
    p.set_defaults(func=_cmd_checklist)

    p = sub.add_parser(
        "calibrate", help="fit reference cost tables to constraints and savings targets"
    )
    p.add_argument("--targets", required=True, help="calibration targets document")
    p.add_argument("--out", default=".", metavar="DIR", help="directory for the fixture files")
    p.add_argument("--seed", type=int, default=None, help="override the document's seed")
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (NetshareError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
