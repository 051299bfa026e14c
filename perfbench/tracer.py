"""Span recorder for the traced benchmark run.

The recorder wraps the program's public entry points from outside: it
replaces class attributes and module functions with thin wrappers that
record one span per call.  Nothing in ``src/`` knows it is being traced.

A span is ``[name_id, start, end, busy, parent, seq, failed, leaf]``:

* ``start``/``end`` are ``time.perf_counter()`` readings (wall clock);
* ``busy`` is the CPU time (``time.thread_time()``) the call ran.  For a
  coroutine it is summed over the segments in which it was running, so
  time parked on a socket is not charged to the layer; and CPU time,
  unlike the wall clock, leaves out the time the process was runnable
  but not running;
* ``parent`` is the index of the span that was running when this one
  started (``-1`` at top level).  One stack is shared by the whole
  process, pushed and popped around every running segment, so under
  asyncio a span's parent is whatever was running at that moment, never
  a task that merely created it;
* ``seq`` is the submission sequence number when the call carries one;
* ``failed`` is true when the call raised;
* ``leaf`` is the time spent in :data:`LEAVES` calls made directly
  inside the span.

A span's self time is its busy time minus the busy time of its direct
children and its ``leaf`` time (:func:`self_times`); a layer's self
time sums its spans' self times and its leaf calls' time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter
_cpu = time.thread_time

#: name, module, attribute path.  The layer is the part of the name
#: before the first dot.  These are the entry points each layer exposes
#: to the layer above it; the gateway's own entry points are the three
#: coroutines its event loop runs (connection handler, engine tick loop,
#: stream pump).
TARGETS: List[Tuple[str, str, str]] = [
    ("gateway.wire", "repro.gateway.wire", "read_request"),
    ("gateway.wire", "repro.gateway.wire", "write_response"),
    ("gateway.wire", "repro.gateway.wire", "WebSocketConnection.send_json"),
    ("gateway.wire", "repro.gateway.wire", "WebSocketConnection.recv_json"),
    ("gateway.connection", "repro.gateway.server", "UDCGateway._connection"),
    ("gateway.tick_loop", "repro.gateway.server", "UDCGateway._tick_loop"),
    ("gateway.ws_pump", "repro.gateway.server", "UDCGateway._ws_pump"),
    ("service.submit", "repro.service.service", "UDCService.submit"),
    ("service.drain", "repro.service.service", "UDCService.drain"),
    ("service.dispatch_round", "repro.service.service",
     "UDCService.dispatch_round"),
    ("service.register_tenant", "repro.service.service",
     "UDCService.register_tenant"),
    ("service.metrics_snapshot", "repro.service.service",
     "UDCService.metrics_snapshot"),
    ("analysis.analyze", "repro.analysis", "analyze_definition"),
    ("cells.order", "repro.core.cells", "CellRouter.order"),
    ("cells.record_placement", "repro.core.cells",
     "CellRouter.record_placement"),
    ("cells.estimate_demand", "repro.core.cells", "estimate_demand"),
    ("runtime.submit", "repro.core.runtime", "UDCRuntime.submit"),
    ("runtime.preempt", "repro.core.runtime", "UDCRuntime.preempt"),
    # Result building: reached from both drain() and collect().
    ("runtime.collect", "repro.core.runtime", "UDCRuntime._collect"),
    ("runtime.drain", "repro.core.runtime", "UDCRuntime.drain"),
    ("runtime.metrics_snapshot", "repro.core.runtime",
     "UDCRuntime.metrics_snapshot"),
    ("scheduler.place_tasks", "repro.core.scheduler",
     "UdcScheduler.place_tasks"),
    ("scheduler.place_data", "repro.core.scheduler",
     "UdcScheduler.place_data"),
    ("simulator.run", "repro.simulator.engine", "Simulator.run"),
    ("tuner.review", "repro.core.tuner", "FineTuner.review_allocation"),
    ("tuner.migrate", "repro.core.tuner", "FineTuner.migrate"),
    ("tuner.defragment", "repro.core.tuner", "FineTuner.defragment"),
    ("telemetry.mean_utilization", "repro.core.telemetry",
     "Telemetry.mean_utilization"),
    ("observability.to_dict", "repro.core.observability",
     "MetricsRegistry.to_dict"),
    ("observability.render", "repro.core.observability",
     "MetricsRegistry.render_prometheus"),
    ("economics.round", "repro.economics.autopilot",
     "AdaptiveBudgetHook.on_round"),
    ("economics.round", "repro.economics.autopilot",
     "WarmPoolForecaster.roll"),
    ("economics.admit", "repro.economics.autopilot", "BudgetEnforcer.admit"),
    ("economics.charge", "repro.economics.autopilot",
     "BudgetEnforcer.charge"),
    ("warmpool.acquire", "repro.execenv.warmpool", "WarmPool.try_acquire"),
    ("warmpool.refill", "repro.execenv.warmpool", "WarmPool.refill"),
    ("warmpool.set_target", "repro.execenv.warmpool", "WarmPool.set_target"),
]

#: hot entry points that call no other target.  Each call is timed and
#: charged to the enclosing span, and its count and time are summed per
#: name, but it gets no span of its own: the contended workload makes
#: about a million of these calls, and a span each would double the
#: traced run's time and memory.
LEAVES: List[Tuple[str, str, str]] = [
    ("pools.allocate", "repro.hardware.pools", "ResourcePool.allocate"),
    ("pools.release", "repro.hardware.pools", "ResourcePool.release"),
    ("pools.resize", "repro.hardware.pools", "ResourcePool.resize"),
    ("appmodel.task_graph", "repro.appmodel.dag",
     "ModuleDAG.effective_task_graph"),
    ("telemetry.sample", "repro.core.telemetry", "Telemetry.sample"),
    ("telemetry.event", "repro.core.telemetry", "Telemetry.event"),
    ("telemetry.span", "repro.core.telemetry", "Telemetry.span_start"),
    ("telemetry.span", "repro.core.telemetry", "Telemetry.span_end"),
    # Metric writes: Telemetry.inc/observe/gauge_set only forward to the
    # registry, whose instrument lookups do the work.
    ("observability.instrument", "repro.core.observability",
     "MetricsRegistry.counter"),
    ("observability.instrument", "repro.core.observability",
     "MetricsRegistry.gauge"),
    ("observability.instrument", "repro.core.observability",
     "MetricsRegistry.histogram"),
]

#: entry points counted but not timed: one span per simulator event
#: would cost more than the event itself
COUNTED: List[Tuple[str, str, str]] = [
    ("simulator.steps", "repro.simulator.engine", "Simulator.step"),
]

#: the serving process's layers, in report order
LAYERS = ["gateway", "service", "analysis", "cells", "runtime", "scheduler",
          "pools", "appmodel", "simulator", "tuner", "telemetry",
          "observability", "economics", "warmpool"]


def _seq_of_result(args, result) -> Optional[int]:
    seq = getattr(result, "seq", None)
    return seq if isinstance(seq, int) else None


def _seq_of_arg(args, result) -> Optional[int]:
    seq = getattr(args[1], "seq", None) if len(args) > 1 else None
    return seq if isinstance(seq, int) else None


#: how to read the submission seq off a call, by span name
_SEQ_READERS: Dict[str, Callable[[tuple, Any], Optional[int]]] = {
    "service.submit": _seq_of_result,
    "runtime.submit": _seq_of_result,
    "runtime.collect": _seq_of_arg,
    "runtime.preempt": _seq_of_arg,
}


class Tracer:
    """In-memory span log plus call counters for one traced process."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: leaf name -> [calls, busy seconds, failed calls]
        self.leaves: Dict[str, list] = {}
        #: leaf time spent outside every span
        self.leaf_top = [0.0]
        self._leaf_depth = [0]
        self.counts: Dict[str, List[int]] = {}
        #: samples scanned by Telemetry.mean_utilization, summed over calls
        self.samples_scanned = 0
        #: every UDCService built while installed (read at the end)
        self.services: List[Any] = []
        self.installed: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    # ------------------------------------------------------------ wrappers

    def wrap_sync(self, fn: Callable, name: str,
                  seq_of: Optional[Callable] = None,
                  after: Optional[Callable] = None) -> Callable:
        spans, stack, ident = self.spans, self.stack, self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [ident, 0.0, 0.0, 0.0, stack[-1] if stack else -1,
                   None, False, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start, cpu0 = _perf(), _cpu()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[3] = _cpu() - cpu0
                rec[1], rec[2] = start, _perf()
                stack.pop()
            if seq_of is not None:
                rec[5] = seq_of(args, result)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        tracer, ident = self, self.name_id(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _BusyTimed(tracer, fn(*args, **kwargs), ident)

        return traced

    def wrap_leaf(self, fn: Callable, name: str) -> Callable:
        """Time a leaf call into its enclosing span.  A leaf called from
        inside another leaf is counted only: its time stays with the
        outer one."""
        spans, stack = self.spans, self.stack
        cell = self.leaves.setdefault(name, [0, 0.0, 0])
        depth, top = self._leaf_depth, self.leaf_top

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _cpu()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                cell[2] += 1
                raise
            finally:
                took = _cpu() - start
                depth[0] = 0
                cell[1] += took
                if stack:
                    spans[stack[-1]][7] += took
                else:
                    top[0] += took

        return traced

    def wrap_counted(self, fn: Callable, name: str) -> Callable:
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _note_samples(self, args, kwargs, result) -> None:
        telemetry = args[0]
        module = args[1] if len(args) > 1 else kwargs.get("module")
        by_module = getattr(telemetry, "_samples_by_module", None)
        if isinstance(by_module, dict):
            self.samples_scanned += len(by_module.get(module, ()))
        else:
            self.samples_scanned += len(telemetry.samples_for(module))

    def _keep_service(self, cls_init: Callable) -> Callable:
        services = self.services

        @functools.wraps(cls_init)
        def init(obj, *args, **kwargs):
            cls_init(obj, *args, **kwargs)
            services.append(obj)

        return init

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every target; targets that no longer exist are listed in
        :attr:`missing` instead of failing the run."""
        for kind, targets in (("span", TARGETS), ("leaf", LEAVES),
                              ("count", COUNTED)):
            for name, module_name, path in targets:
                owner, attr, original = self._resolve(module_name, path)
                if owner is None:
                    self.missing.append(f"{module_name}:{path}")
                    continue
                if kind == "leaf":
                    wrapped = self.wrap_leaf(original, name)
                elif kind == "count":
                    wrapped = self.wrap_counted(original, name)
                elif inspect.iscoroutinefunction(original):
                    wrapped = self.wrap_async(original, name)
                else:
                    after = (self._note_samples
                             if name == "telemetry.mean_utilization"
                             else None)
                    wrapped = self.wrap_sync(original, name,
                                             _SEQ_READERS.get(name), after)
                self._replace(owner, attr, original, wrapped)
        owner, attr, original = self._resolve("repro.service.service",
                                              "UDCService.__init__")
        if owner is not None:
            self._replace(owner, attr, original, self._keep_service(original))

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None, None, None
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        original = (owner.__dict__.get(parts[-1]) if inspect.isclass(owner)
                    else getattr(owner, parts[-1], None))
        if original is None or not callable(original):
            return None, None, None
        return owner, parts[-1], original

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self.installed.append((owner, attr, original))
        if inspect.isclass(owner):
            return
        # ``from module import f`` copies the function into the importer:
        # patch every copy so calls through it are traced too.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapped)
                self.installed.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # --------------------------------------------------------------- output

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, then one per leaf name."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tbusy\tparent\tseq\t"
                      "failed\tleaf\n")
            names = self.names
            for index, (ident, start, end, busy, parent, seq, failed,
                        leaf) in enumerate(self.spans):
                out.write(f"{index}\t{names[ident]}\t{start:.9f}\t"
                          f"{end:.9f}\t{busy:.9f}\t{parent}\t"
                          f"{'' if seq is None else seq}\t{int(failed)}\t"
                          f"{leaf:.9f}\n")
            out.write("# leaf\tcalls\tbusy\tfailed\n")
            for name, (calls, busy, failed) in sorted(self.leaves.items()):
                out.write(f"# {name}\t{calls}\t{busy:.9f}\t{failed}\n")


class _BusyTimed:
    """Await a coroutine, timing only the segments in which it runs."""

    __slots__ = ("tracer", "coro", "ident")

    def __init__(self, tracer: Tracer, coro, ident: int):
        self.tracer, self.coro, self.ident = tracer, coro, ident

    def __await__(self):
        spans, stack, coro = self.tracer.spans, self.tracer.stack, self.coro
        index = len(spans)
        rec = [self.ident, _perf(), 0.0, 0.0, stack[-1] if stack else -1,
               None, False, 0.0]
        spans.append(rec)
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                stack.append(index)
                began = _cpu()
                try:
                    if error is not None:
                        pending, error = error, None
                        yielded = coro.throw(pending)
                    else:
                        yielded = coro.send(value)
                except StopIteration as stop:
                    return stop.value
                except BaseException:
                    rec[6] = True
                    raise
                finally:
                    rec[3] += _cpu() - began
                    stack.pop()
                try:
                    value = yield yielded
                except BaseException as exc:  # forwarded into the coroutine
                    error, value = exc, None
        finally:
            rec[2] = _perf()


# ------------------------------------------------------------------ analysis

def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: busy time minus the busy time of its children
    and of the leaf calls made directly inside it."""
    child_busy = [0.0] * len(spans)
    for rec in spans:
        parent = rec[4]
        if parent >= 0:
            child_busy[parent] += rec[3]
    return [rec[3] - child_busy[index] - rec[7]
            for index, rec in enumerate(spans)]


def summarize(tracer: Tracer) -> Dict[str, Any]:
    """Per-name calls, busy time, self time and failures; per-layer self
    time; and the time covered by top-level spans and leaf calls."""
    names = tracer.names
    per_name: Dict[str, Dict[str, Any]] = {}
    per_layer = {layer: 0.0 for layer in LAYERS}
    covered = tracer.leaf_top[0]
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        name = names[rec[0]]
        entry = per_name.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["busy_s"] += rec[3]
        entry["self_s"] += own
        entry["failed"] += int(rec[6])
        if name == "service.drain":
            entry.setdefault("durations", []).append(rec[3])
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + own
        if rec[4] < 0:
            covered += rec[3]
    for name, (calls, busy, failed) in tracer.leaves.items():
        per_name[name] = {"calls": calls, "busy_s": busy, "self_s": busy,
                          "failed": failed}
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + busy
    return {
        "per_name": per_name,
        "self_s": per_layer,
        "covered_s": covered,
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "samples_scanned": tracer.samples_scanned,
        "spans": len(tracer.spans),
        "missing": list(tracer.missing),
    }
