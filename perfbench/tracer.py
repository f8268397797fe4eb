"""In-memory span recorder installed around netshare's public functions.

The wrappers live here, not in the engine: :meth:`Tracer.install` replaces
every module attribute that binds a public netshare function (for example
both ``netshare.costmodel.cumulative_cost`` and
``netshare.scenario.cumulative_cost``) and restores the originals on
:meth:`Tracer.uninstall`.  Spans are kept in flat integer arrays while the
run lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array

# Methods wrapped besides the module-level public functions.
METHODS = (
    ("netshare.scenario", "Scenario", "validation_reports"),
    ("netshare.inventory", "CostTable", "from_json_dict"),
    ("netshare.sharing", "SharingConfiguration", "from_json_dict"),
)

# Third-party solvers as netshare.calibration binds them.
SOLVERS = ("minimize", "linprog")

# The benchmark itself times cli.main, one span per command.
SKIP = {("netshare.cli", "main")}

INFEASIBLE_KINDS = (
    ("residual", "residual bound"),
    ("violates_constraints", "violates constraints"),
)


def infeasible_kind(message):
    for kind, marker in INFEASIBLE_KINDS:
        if marker in message:
            return kind
    return "other"


def _short(module_name):
    return module_name[len("netshare."):] if module_name.startswith("netshare.") else module_name


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")
        self._stack = []
        self.current_request = -1
        self.solver_results = []  # (nit, nfev, status, success) per minimize call
        self.infeasible = {}
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, self._id(name))

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.start.append(0)
        self.end.append(0)
        self.child_ns.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += t1 - t0

    def _wrap(self, name, fn, on_result=None, on_error=None):
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx, t0, clock())
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(idx, t0, clock())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "netshare" or name.startswith("netshare."))
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod_name
                    and not attr.startswith("_")
                    and (mod_name, attr) not in SKIP
                ):
                    wrappers[obj] = self._wrap(f"{_short(mod_name)}.{attr}", obj, **self._hooks(attr))
        calibration = modules.get("netshare.calibration")
        if calibration is not None:
            for attr in SOLVERS:
                fn = getattr(calibration, attr)
                hooks = {"on_result": self._solver_result} if attr == "minimize" else {}
                self._set(calibration, attr, self._wrap(f"calibration.{attr}", fn, **hooks))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            name = f"{_short(mod_name)}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def _hooks(self, attr):
        if attr == "calibrate_reference":
            return {"on_error": self._calibration_error}
        return {}

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _solver_result(self, res):
        self.solver_results.append(
            (int(getattr(res, "nit", 0)), int(getattr(res, "nfev", 0)), int(res.status), bool(res.success))
        )

    def _calibration_error(self, exc):
        if type(exc).__name__ == "InfeasibleCalibration":
            kind = infeasible_kind(str(exc))
            self.infeasible[kind] = self.infeasible.get(kind, 0) + 1

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, durations (ns) and total self time (ns)."""
        out = {name: {"calls": 0, "durations": [], "self_ns": 0} for name in self.names}
        for i in range(len(self.start)):
            entry = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["durations"].append(duration)
            entry["self_ns"] += duration - self.child_ns[i]
        return out

    def write(self, path):
        """Spans as gzipped tab-separated lines: id, parent, request, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t{names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


class _Span:
    __slots__ = ("tracer", "nid", "idx", "t0")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, time.perf_counter_ns())
        return False


def p50_us(durations_ns):
    return statistics.median(durations_ns) / 1000.0 if durations_ns else 0.0
