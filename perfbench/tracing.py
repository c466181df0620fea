"""The traced run: spans recorded around the program's public layer calls.

The wrappers live here, in the benchmark; nothing under ``src/`` knows about
them.  :func:`install` replaces each wrapped function or method by a timed
shim in every loaded module that refers to it, so code that imported a
function by name is traced too.

A span is ``(name, start, end, parent, unit)``: ``parent`` is the index of
the innermost span open on the same thread when it started (``-1`` at the
root) and ``unit`` is the benchmark unit (simulate call, campaign group)
it belongs to or, where the benchmark sets none (the daemon child), the
name of the thread, which ``http.server`` makes unique per request.  Spans stay in memory and are written out once,
when the run ends.  A call re-entering a span of the same name on the same
thread (an override calling ``super()``) records no second span.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.results: dict[str, list[Any]] = defaultdict(list)
        self.unit: object = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, *, keep: Callable | None = None) -> Callable:
        """A shim timing ``func`` as span ``name``.

        ``keep`` maps each return value to a JSON-ready counter appended to
        ``self.results[name]`` (for counts the layer returns, not exposes).
        """
        tracer = self

        @functools.wraps(func)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]][0] == name:
                return func(*args, **kwargs)
            unit = tracer.unit if tracer.unit is not None else threading.current_thread().name
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, unit]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                tracer.results[name].append(keep(result))
            return result

        return shim

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "results": self.results}, handle,
                      separators=(",", ":"))


# -- span arithmetic ------------------------------------------------------------------


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def by_name(spans: list[list[Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: count, total and self seconds, and each duration."""
    selfs = self_times(spans)
    table: dict[str, dict[str, Any]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0, "durations": []}
    )
    for span, own in zip(spans, selfs):
        row = table[span[0]]
        row["count"] += 1
        row["total"] += span[2] - span[1]
        row["self"] += own
        row["durations"].append(span[2] - span[1])
    return table


def count_under(spans: list[list[Any]], name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total


# -- installation ---------------------------------------------------------------------


def _replace_everywhere(original: Callable, shim: Callable, prefixes: tuple[str, ...]) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(prefixes):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, shim)


def wrap_function(tracer: Tracer, module: Any, attr: str, name: str,
                  prefixes: tuple[str, ...] = ("repro",), **kw: Any) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, **kw), prefixes)


def wrap_method(tracer: Tracer, cls: type, attr: str, name: str, **kw: Any) -> None:
    """Wrap ``cls.attr`` where ``cls`` itself defines it (static/class aware)."""
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, **kw)))
    elif isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, **kw)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, **kw))


def wrap_hierarchy(tracer: Tracer, root: type, attrs: tuple[str, ...], name: str) -> None:
    """Wrap every definition of ``attrs`` in ``root`` and its subclasses."""
    seen, todo = set(), [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in attrs:
            if attr in cls.__dict__:
                wrap_method(tracer, cls, attr, name)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the per-layer metrics read."""
    # Importing the registry imports every scheduler class; the service and
    # experiments packages bring in the rest of the wrapped modules.
    import scipy.optimize._linprog_highs as linprog_highs

    import repro.api  # noqa: F401
    import repro.core.instance as instance_mod
    import repro.experiments.io as io_mod
    import repro.experiments.merge as merge_mod
    import repro.experiments.runner as runner_mod
    import repro.lp.aggregation as aggregation_mod
    import repro.lp.backends.highs as highs_mod
    import repro.lp.bank as bank_mod
    import repro.lp.maxstretch as maxstretch_mod
    import repro.lp.relaxation as relaxation_mod
    import repro.lp.resilience as resilience_mod
    import repro.lp.solver as solver_mod
    import repro.schedulers.registry  # noqa: F401
    import repro.service.daemon as daemon_mod
    import repro.service.http as http_mod
    import repro.service.trace as trace_mod
    import repro.simulation.engine as engine_mod
    import repro.simulation.result as result_mod
    import repro.workload.generator as generator_mod
    from repro.schedulers.base import PlanBasedScheduler, Scheduler
    from repro.schedulers.online_lp import OnlineLPScheduler

    wrap_function(tracer, generator_mod, "generate_instance", "workload.generate")
    wrap_function(tracer, generator_mod, "generate_workload", "workload.generate")
    wrap_method(tracer, engine_mod.SimulationEngine, "run", "simulation.run")
    wrap_hierarchy(tracer, Scheduler, ("assign",), "schedulers.assign")
    wrap_hierarchy(
        tracer, Scheduler, ("reset", "on_arrivals", "on_completion", "on_idle", "finalize"),
        "schedulers.callback",
    )
    wrap_method(tracer, OnlineLPScheduler, "replan", "lp.replan")
    wrap_function(tracer, maxstretch_mod, "minimize_max_weighted_flow", "lp.maxstretch")
    wrap_method(tracer, solver_mod.LinearProgramBuilder, "solve", "lp.solve")
    # solve_with_retries returns (result, attempts, method); acquire (bucket, hit).
    wrap_function(tracer, resilience_mod, "solve_with_retries", "lp.attempts",
                  keep=lambda out: out[1])
    wrap_function(tracer, linprog_highs, "_highs_wrapper", "lp.native",
                  prefixes=("scipy.optimize._linprog_highs",))
    api = highs_mod._load_api()
    if api is not None:
        native_run = tracer.wrap("lp.native", api.Highs.run)
        api.Highs = type("TracedHighs", (api.Highs,), {"run": native_run})
    wrap_function(tracer, relaxation_mod, "reoptimize_allocation", "lp.relaxation")
    wrap_function(tracer, aggregation_mod, "materialize_solution", "lp.aggregation")
    wrap_method(tracer, PlanBasedScheduler, "segments_from_schedule", "lp.aggregation")
    wrap_method(tracer, PlanBasedScheduler, "set_plan", "lp.aggregation")
    wrap_method(tracer, bank_mod.SolverStateBank, "acquire", "lp.bank",
                keep=lambda out: bool(out[1]))
    wrap_method(tracer, runner_mod.PackedRecords, "pack", "experiments.pack")
    wrap_method(tracer, runner_mod.PackedRecords, "unpack", "experiments.pack")
    wrap_method(tracer, io_mod.CampaignCheckpoint, "append_batch", "experiments.journal")
    wrap_function(tracer, merge_mod, "merge_journals", "experiments.report")
    wrap_function(tracer, merge_mod, "generate_campaign_report", "experiments.report")
    wrap_method(tracer, result_mod.SimulationResult, "report", "core.metrics")
    wrap_method(tracer, daemon_mod.SchedulerDaemon, "submit", "service.submit")
    wrap_method(tracer, http_mod._Handler, "do_POST", "service.http")
    wrap_method(tracer, http_mod._Handler, "do_GET", "service.http")
    wrap_method(tracer, instance_mod.LiveInstance, "admit", "core.instance.admit")
    wrap_method(tracer, trace_mod.TraceWriter, "append", "service.journal")
