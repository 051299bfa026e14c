"""Per-layer metrics: what the traced run reports, and how each is read.

Call counts and times come from the tracer's spans (``_s`` metrics are
the inclusive CPU time of the named calls; ``self_s`` metrics are a
layer's exclusive CPU time).  End-of-run sizes and ratios are read from the
service's public state once the run is over.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from stats import tail_percentile

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def declared(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares under
    ``kind`` (``end_to_end`` or ``per_layer``), in its order."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def missing_problems(summary: Dict[str, Any]) -> List[str]:
    """A traced entry point that no longer exists would make its
    per-layer metrics read 0, which looks like a gain: that run is
    incorrect until the tracer's target list follows the program."""
    return [f"traced entry point {target} not found; update "
            f"perfbench/tracer.py" for target in summary["missing"]]


def _family_total(registry, name: str) -> float:
    for family in registry.families():
        if family.name == name:
            return float(sum(getattr(inst, "value", 0.0)
                             for inst in family.instruments.values()))
    return 0.0


def end_state(service) -> Dict[str, Any]:
    """Sizes, ratios and counters read from a service after its run."""
    telemetry = service.telemetry
    registry = telemetry.metrics
    waits = [h.submission.queue_wait_s for h in service.handles
             if h.submission is not None and h.status == "done"]
    router = service.router
    lint_checks = _family_total(registry, "udc_lint_checks_total")
    return {
        "telemetry.samples_end": len(telemetry.samples),
        "telemetry.spans_end": len(telemetry.spans),
        "telemetry.events_end": len(telemetry.events),
        "observability.series_end": sum(
            len(family.instruments) for family in registry.families()),
        "tuner.actions": sum(len(rt.tuner.actions)
                             for rt in service.cell_runtimes),
        "runtime.queue_wait_p99_s": tail_percentile(waits)[1] or 0.0,
        "cells.spill_ratio": (router.spills / router.routed
                              if router is not None and router.routed
                              else 0.0),
        "warmpool.hit_ratio": service.runtime.warm_pool.stats.hit_rate,
        "service.cache_hit_ratio": service.cache_stats.hit_rate,
        "lint_checks": lint_checks,
        "analysis.rejections": _family_total(registry,
                                             "udc_lint_rejections_total"),
        "gateway.requests": _family_total(registry,
                                          "udc_gateway_requests_total"),
        "gateway.shed": _family_total(registry, "udc_gateway_shed_total"),
    }


def layer_metrics(summary: Dict[str, Any], state: Dict[str, Any],
                  base_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced serving process.

    ``base_s`` is the serving process's CPU time over the traced
    window; what the spans do not cover is reported as unattributed.
    """
    per_name = summary["per_name"]

    def calls(name: str) -> int:
        return per_name.get(name, {}).get("calls", 0)

    def busy(name: str) -> float:
        return per_name.get(name, {}).get("busy_s", 0.0)

    def failed(name: str) -> int:
        return per_name.get(name, {}).get("failed", 0)

    reviews = calls("telemetry.mean_utilization")
    placements = calls("scheduler.place_tasks") + calls(
        "scheduler.place_data")
    analyses = calls("analysis.analyze")
    lint_checks = state.get("lint_checks", 0.0)
    # Under the gateway every drain is one engine tick.
    ticks = (per_name.get("service.drain", {}).get("durations", [])
             if "gateway.tick_loop" in per_name else [])
    out: Dict[str, float] = {
        "tuner.review_calls": calls("tuner.review"),
        "tuner.review_s": busy("tuner.review"),
        "telemetry.mean_utilization_s": busy("telemetry.mean_utilization"),
        "telemetry.samples_per_review": (summary["samples_scanned"] / reviews
                                         if reviews else 0.0),
        "runtime.collect_calls": calls("runtime.collect"),
        "runtime.collect_s": busy("runtime.collect"),
        "runtime.submit_calls": calls("runtime.submit"),
        "runtime.submit_s": busy("runtime.submit"),
        "runtime.preempt_calls": calls("runtime.preempt"),
        "observability.to_dict_calls": calls("observability.to_dict"),
        "observability.to_dict_s": busy("observability.to_dict"),
        "scheduler.place_tasks_calls": calls("scheduler.place_tasks"),
        "scheduler.place_tasks_s": busy("scheduler.place_tasks"),
        "scheduler.place_data_calls": calls("scheduler.place_data"),
        "scheduler.place_data_s": busy("scheduler.place_data"),
        "scheduler.fail_ratio": ((failed("scheduler.place_tasks")
                                  + failed("scheduler.place_data"))
                                 / placements if placements else 0.0),
        "pools.allocate_calls": calls("pools.allocate"),
        "pools.allocate_s": busy("pools.allocate"),
        "pools.release_calls": calls("pools.release"),
        "appmodel.task_graph_calls": calls("appmodel.task_graph"),
        "appmodel.task_graph_s": busy("appmodel.task_graph"),
        "cells.order_calls": calls("cells.order"),
        "cells.order_s": busy("cells.order"),
        "economics.round_s": busy("economics.round"),
        "economics.admit_calls": calls("economics.admit"),
        "simulator.steps": summary["counts"].get("simulator.steps", 0),
        "service.submit_s": busy("service.submit"),
        "service.drain_s": busy("service.drain"),
        "service.dispatch_round_s": busy("service.dispatch_round"),
        "analysis.analyze_calls": analyses,
        "analysis.analyze_s": busy("analysis.analyze"),
        "analysis.memo_hit_ratio": (1.0 - analyses / lint_checks
                                    if lint_checks else 0.0),
        "gateway.wire_s": busy("gateway.wire"),
        "gateway.ticks": len(ticks),
        "gateway.tick_p99_ms": (tail_percentile(ticks)[1] or 0.0) * 1e3,
        "trace.spans": summary["spans"],
        "trace.missing_targets": len(summary["missing"]),
    }
    for key in ("tuner.actions", "telemetry.samples_end",
                "telemetry.spans_end", "telemetry.events_end",
                "observability.series_end", "runtime.queue_wait_p99_s",
                "cells.spill_ratio", "warmpool.hit_ratio",
                "service.cache_hit_ratio", "analysis.rejections",
                "gateway.requests", "gateway.shed"):
        out[key] = state.get(key, 0.0)
    for layer, own in summary["self_s"].items():
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = own / base_s if base_s > 0 else 0.0
    unattributed = base_s - summary["covered_s"]
    out["unattributed.self_s"] = unattributed
    out["unattributed.self_share"] = (unattributed / base_s
                                      if base_s > 0 else 0.0)
    return out


def fill(metrics: Dict[str, float], units: Dict[str, str],
         complete: bool) -> Dict[str, Dict]:
    """Every declared metric with its unit.  A computed metric that is
    not declared is an error, and so, when ``complete``, is a declared
    one not computed; otherwise ones this workload does not exercise
    read 0."""
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise ValueError(f"metrics not declared in BENCHMARK.json: "
                         f"{undeclared}")
    absent = sorted(set(units) - set(metrics))
    if complete and absent:
        raise ValueError(f"declared metrics not measured: {absent}")
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}
