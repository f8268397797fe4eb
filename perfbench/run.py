"""netshare benchmark: one seeded workload per run, or all four in turn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs a fixed number of requests twice, untraced and then
with spans around every public netshare function, and reports per-layer
metrics plus the tracing overhead.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report.  The run
also writes a result record (and, when traced, the spans) under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import Tracer, p50_us
from workloads import ROOT, SRC, WORKLOADS, child_env

OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150
# Share of --seconds the untraced half of a traced run is sized for.
TRACE_SHARE = 0.4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv):
    """Run one child to completion; at most one child exists at a time."""
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment():
    sha = "unknown: the checkout is not a git repository"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = run_child(["git", "rev-parse", "HEAD"])
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_time(args):
    """Wall time from spawning a fresh process to the end of its set-up."""
    started = time.time()
    proc = run_child(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"]
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    done = json.loads(proc.stdout.strip().splitlines()[-1])["setup_done"]
    return done - started


def check_engine_source(workload):
    ns = workload.ns
    if ns is not None and SRC not in Path(ns.__file__).resolve().parents:
        fail(f"netshare was imported from {ns.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Request loops
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latency = {}  # kind -> seconds per request
        self.all_latency = []
        self.units = 0
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.messages = {}

    def add(self, workload, request, elapsed, outcomes):
        self.latency.setdefault(workload.kind(request), []).append(elapsed)
        self.all_latency.append(elapsed)
        self.units += workload.units(request)
        self.busy += elapsed
        for outcome in outcomes:
            self.attempted += 1
            if outcome.failed:
                self.failed += 1
                self.mismatches += outcome.mismatch
                key = re.sub(r"seed \d+", "seed N", outcome.message)[:300]
                self.messages[key] = self.messages.get(key, 0) + 1


def one_request(workload, request):
    started = time.perf_counter()
    try:
        output, error = workload.execute(request), None
    except Exception as exc:  # counted as a failed operation
        output, error = None, exc
    return time.perf_counter() - started, output, error


def timed_loop(workload, seconds, between, times):
    """Closed loop for ``seconds``: the next request starts when one ends.

    ``between()`` runs ``times`` times, spread evenly over the loop and
    outside any request, so that its samples see the host as the requests do.
    """
    tally = Tally()
    requests = workload.requests()
    started = time.perf_counter()
    deadline = started + seconds
    marks = [started + seconds * (i + 0.5) / times for i in range(times)]
    while True:
        request = next(requests)
        elapsed, output, error = one_request(workload, request)
        tally.add(workload, request, elapsed, workload.check(request, output, error))
        while marks and time.perf_counter() >= marks[0]:
            marks.pop(0)
            between()
        if time.perf_counter() >= deadline:
            for _ in marks:
                between()
            return tally


def counted_loop(workload, count, tracer=None):
    """Exactly ``count`` requests; with a tracer, one root span per request."""
    tally = Tally()
    requests = workload.requests()
    for i in range(count):
        request = next(requests)
        if tracer is None:
            elapsed, output, error = one_request(workload, request)
        else:
            tracer.current_request = i
            with tracer.span(root_span_name(workload, request)):
                elapsed, output, error = one_request(workload, request)
        tally.add(workload, request, elapsed, workload.check(request, output, error))
    return tally


def root_span_name(workload, request):
    if workload.name == "cli_session":
        return f"cli.main.{workload.kind(request)}"
    return f"request.{workload.kind(request)}"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit, n=None):
    entry = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def end_to_end(tally, setups, rss):
    latencies = tally.all_latency
    return {
        "setup_s": metric(p50(setups), "s", len(setups)),
        "latency_p50_ms": metric(p50(latencies) * 1000.0, "ms", len(latencies)),
        "work_per_s": metric(tally.units / tally.busy, "1/s", tally.units),
        "peak_rss_mb": metric(rss, "MB", 1),
    }


def workload_report(workload, tally):
    """The workload's own named metrics, each with unit and sample count."""
    lat = tally.latency
    name = workload.name
    out = {}
    if name == "cli_session":
        out["cli_wall_p50_s"] = metric(p50(tally.all_latency), "s", len(tally.all_latency))
        for kind, values in sorted(lat.items()):
            out[f"cli_wall_p50_s.{kind}"] = metric(p50(values), "s", len(values))
    elif name == "grid_sweep":
        out["grid_cells_per_s"] = metric(tally.units / tally.busy, "cells/s", tally.units)
        out["grid_scenario_cells"] = metric(workload.cells, "cells", 1)
        for kind, values in sorted(lat.items()):
            out[f"grid_{kind}_p50_ms"] = metric(p50(values) * 1000.0, "ms", len(values))
    elif name == "api_calls":
        for kind in ("reuse", "fresh", "grid18"):
            values = lat.get(kind, [])
            if values:
                out[f"api_{kind}_p50_us"] = metric(p50(values) * 1e6, "us", len(values))
        out["api_p90_us"] = metric(p90(tally.all_latency) * 1e6, "us", len(tally.all_latency))
    elif name == "calibrate":
        sets = tally.all_latency
        out["calibrate_s"] = metric(p50(sets), "s", len(sets))
        out["calibrate_total_s"] = metric(sum(sets), "s", len(sets))
        residuals = workload.residuals
        if residuals:
            out["calibrate_max_residual_pp"] = metric(max(residuals), "pp", len(residuals))
    out["failed_ratio"] = metric(tally.failed / tally.attempted, "failed/attempted", tally.attempted)
    return out


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


PER_LAYER_CALLS = (
    "scenario.run_scenario",
    "scenario.sweep",
    "scenario.Scenario.validation_reports",
    "costmodel.cumulative_cost",
    "costmodel.apply_sharing",
    "costmodel.savings_report",
    "sharing.validate_configuration",
    "inventory.check_repartition",
    "calibration.calibrate_reference",
    "calibration.minimize",
    "calibration.linprog",
)
PER_LAYER_P50 = (
    "costmodel.savings_to_csv",
    "scenario.load_scenario_file",
    "scenario.reference_cost_table",
    "scenario.run_scenario",
    "costmodel.cumulative_cost",
    "costmodel.apply_sharing",
    "costmodel.savings_report",
    "sharing.preset",
    "sharing.SharingConfiguration.from_json_dict",
    "inventory.CostTable.from_json_dict",
    "advisor.recommend",
    "advisor.compare_lte",
    "advisor.checklist",
)
PER_LAYER_SELF = (
    "scenario.run_scenario",
    "scenario.sweep",
    "costmodel.cumulative_cost",
    "costmodel.apply_sharing",
    "costmodel.savings_report",
    "sharing.validate_configuration",
    "inventory.check_repartition",
    "calibration.calibrate_reference",
    "calibration.minimize",
    "calibration.linprog",
)
CLI_COMMANDS = ("run", "sweep", "validate", "presets", "recommend", "compare-lte", "checklist")
SLSQP_STATUSES = (0, 4, 8, 9)


def trace_count(workload, seconds):
    """Requests per traced half: fixed by workload and --seconds alone."""
    return max(1, math.ceil(workload.trace_rate * seconds * TRACE_SHARE))


def import_breakdown():
    """import.* metrics from fresh interpreters (medians of the timings)."""
    samples = {"netshare": [], "calibration": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import netshare"])
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr.strip()[-500:]}")
        cumulative = {}
        self_us = {"scipy": 0, "numpy": 0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            own = int(parts[0].split(":", 1)[1])
            module = parts[2].strip()
            cumulative.setdefault(module, int(parts[1]))
            top = module.split(".", 1)[0]
            if top in self_us:
                self_us[top] += own
        samples["netshare"].append(cumulative.get("netshare", 0) / 1000.0)
        samples["calibration"].append(cumulative.get("netshare.calibration", 0) / 1000.0)
        samples["scipy"].append(self_us["scipy"] / 1000.0)
        samples["numpy"].append(self_us["numpy"] / 1000.0)
    out = {f"import.{k}_ms": metric(p50(v), "ms", len(v)) for k, v in samples.items()}
    probe = run_child(
        [sys.executable, "-c",
         "import sys, netshare; print(len(sys.modules), int('scipy' in sys.modules))"]
    )
    modules, scipy_loaded = (int(x) for x in probe.stdout.split())
    out["import.modules"] = metric(modules, "count", 1)
    out["import.scipy_loaded"] = metric(scipy_loaded, "flag", 1)
    return out


def per_layer(tracer, untraced_s, traced_s):
    summary = tracer.summary()
    empty = {"calls": 0, "durations": [], "self_ns": 0}
    out = {}
    for command in CLI_COMMANDS:
        durations = summary.get(f"cli.main.{command}", empty)["durations"]
        out[f"cli.main.{command}.p50_us"] = metric(p50_us(durations), "us", len(durations))
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = metric(summary.get(name, empty)["calls"], "count")
    for name in PER_LAYER_P50:
        durations = summary.get(name, empty)["durations"]
        out[f"{name}.p50_us"] = metric(p50_us(durations), "us", len(durations))
    for name in PER_LAYER_SELF:
        out[f"{name}.self_ms"] = metric(summary.get(name, empty)["self_ns"] / 1e6, "ms")
    results = tracer.solver_results
    out["calibration.minimize.nit"] = metric(sum(r[0] for r in results), "count")
    out["calibration.minimize.nfev"] = metric(sum(r[1] for r in results), "count")
    out["calibration.minimize.success_ratio"] = metric(
        sum(r[3] for r in results) / len(results) if results else 0.0, "ratio", len(results)
    )
    statuses = [r[2] for r in results]
    for status in SLSQP_STATUSES:
        out[f"calibration.minimize.status_{status}"] = metric(statuses.count(status), "count")
    out["calibration.minimize.status_other"] = metric(
        sum(s not in SLSQP_STATUSES for s in statuses), "count"
    )
    for kind in ("residual", "violates_constraints", "other"):
        out[f"calibration.infeasible.{kind}"] = metric(tracer.infeasible.get(kind, 0), "count")
    out["trace.untraced_ms"] = metric(untraced_s * 1000.0, "ms")
    out["trace.traced_ms"] = metric(traced_s * 1000.0, "ms")
    out["trace.overhead_pct"] = metric((traced_s - untraced_s) / untraced_s * 100.0, "%")
    out["trace.spans"] = metric(len(tracer.start), "count")
    return out


def traced_run(args, workload):
    count = trace_count(workload, args.seconds)
    untraced = counted_loop(workload, count)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.current_request = -2  # set-up spans
        with tracer.span("setup"):
            workload.setup()
        traced = counted_loop(workload, count, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, untraced.busy, traced.busy)
    metrics.update(import_breakdown())
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans)
    return untraced, traced, metrics, spans


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:48s} {m['value']:>16.6f} {m['unit']:<16s} {n}")


def print_failures(tally):
    for message, count in sorted(tally.messages.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  failed x{count}: {message}")


def declared_metrics(kind):
    """Metric names BENCHMARK.json declares for the result line."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def result_line(tally, metrics, names, extra_tally=None):
    attempted = tally.attempted + (extra_tally.attempted if extra_tally else 0)
    failed = tally.failed + (extra_tally.failed if extra_tally else 0)
    mismatches = tally.mismatches + (extra_tally.mismatches if extra_tally else 0)
    return {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in names},
    }


def run_one(args):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    env = environment()
    try:
        if args.trace:
            workload.in_process = True
        workload.setup()
        check_engine_source(workload)
        workload.prepare()
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env}
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("  environment: " + json.dumps(env))
        if args.trace:
            untraced, traced, metrics, spans = traced_run(args, workload)
            print_metrics("per-layer metrics (traced run):", metrics)
            print_failures(untraced)
            print(f"  spans written to {spans.relative_to(ROOT)}")
            record["per_layer"] = metrics
            line = result_line(untraced, metrics, declared_metrics("per_layer"), traced)
        else:
            setups = []
            tally = timed_loop(
                workload, args.seconds, lambda: setups.append(setup_time(args)), SETUP_REPEATS
            )
            rss = peak_rss_mb(
                resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
            )
            metrics = end_to_end(tally, setups, rss)
            report = workload_report(workload, tally)
            print_metrics("end-to-end metrics:", metrics)
            print_metrics("workload metrics:", report)
            print_failures(tally)
            record["end_to_end"] = metrics
            record["workload_metrics"] = report
            record["failures"] = tally.messages
            line = result_line(tally, metrics, declared_metrics("end_to_end"))
        record["result"] = line
        OUT.mkdir(exist_ok=True)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
        print(json.dumps(line))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def setup_only(args):
    workload = WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        workload.setup()
        print(json.dumps({"setup_done": time.time()}))
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    elif args.setup_only:
        setup_only(args)
    else:
        run_one(args)


if __name__ == "__main__":
    if not (SRC / "netshare" / "__init__.py").is_file():
        fail(f"no netshare sources under {SRC}; run from the root of a netshare checkout")
    os.environ.pop("NETSHARE_FIXTURES", None)
    sys.path.insert(0, str(SRC))
    main()
