"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ percentiles

def test_tail_percentile_is_p99_with_ten_beyond():
    q, value = stats.tail_percentile(list(range(1, 1001)))
    assert q == 0.99
    assert value == 990
    assert sum(1 for x in range(1, 1001) if x > value) == 10


def test_tail_percentile_falls_back_to_ten_beyond():
    samples = list(range(1, 501))
    q, value = stats.tail_percentile(samples)
    assert abs(q - 0.98) < 1e-12
    assert sum(1 for x in samples if x > value) == 10


def test_tail_percentile_keeps_p99_when_samples_allow():
    samples = list(range(1, 2001))
    q, value = stats.tail_percentile(samples)
    assert q == 0.99
    assert sum(1 for x in samples if x > value) == 20


def test_history_growth_compares_last_quarter_to_second():
    flat = [(0, 0.0), (100, 1.0), (200, 2.0), (400, 4.0)]
    assert abs(stats.history_growth(flat) - 1.0) < 1e-12
    # Cost per submission doubles halfway through.
    growing = [(0, 0.0), (50, 0.5), (100, 1.0), (200, 3.0)]
    assert abs(stats.history_growth(growing) - 2.0) < 1e-12


# -------------------------------------------------------------- self time

def _spin(seconds: float) -> None:
    """Burn CPU: spans time CPU, so sleeping would not count."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_subtracts_children_and_leaves():
    spans = [
        [0, 0.0, 10.0, 10.0, -1, None, False, 1.0],
        [1, 1.0, 4.0, 3.0, 0, None, False, 0.0],
        [1, 5.0, 9.0, 4.0, 0, None, False, 0.5],
        [2, 2.0, 3.0, 1.0, 1, None, False, 0.0],
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 3.5, 1.0]


def _fake_layers(tr):
    """Three nested functions in three layers plus a leaf."""
    def leaf():
        _spin(0.002)

    def inner():
        _spin(0.002)
        leaf_wrapped()

    def middle():
        _spin(0.002)
        inner_wrapped()
        inner_wrapped()

    leaf_wrapped = tr.wrap_leaf(leaf, "telemetry.sample")
    inner_wrapped = tr.wrap_sync(inner, "scheduler.place_tasks")
    return tr.wrap_sync(middle, "service.submit")


def test_wrappers_record_nesting_and_attribute_all_time():
    tr = tracing.Tracer()
    outer = _fake_layers(tr)
    outer()
    outer()
    names = [tr.names[rec[0]] for rec in tr.spans]
    assert names == ["service.submit", "scheduler.place_tasks",
                     "scheduler.place_tasks"] * 2
    assert [rec[4] for rec in tr.spans] == [-1, 0, 0, -1, 3, 3]
    summary = tracing.summarize(tr)
    layers = summary["self_s"]
    assert abs(sum(layers.values()) - summary["covered_s"]) < 1e-9
    assert summary["per_name"]["telemetry.sample"]["calls"] == 4
    for layer in ("service", "scheduler", "telemetry"):
        assert layers[layer] > 0.0015 * (2 if layer == "service" else 4)
    assert min(tracing.self_times(tr.spans)) >= 0.0


def test_failed_calls_are_marked():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("no fit")

    wrapped = tr.wrap_sync(boom, "scheduler.place_tasks")
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.spans[0][6] is True


def test_async_spans_count_only_running_time():
    tr = tracing.Tracer()

    async def child():
        await asyncio.sleep(0.05)
        _spin(0.002)

    async def parent():
        _spin(0.002)
        await traced_child()

    traced_child = tr.wrap_async(child, "gateway.wire")
    traced_parent = tr.wrap_async(parent, "gateway.connection")
    asyncio.run(traced_parent())
    by_name = {tr.names[rec[0]]: rec for rec in tr.spans}
    outer, inner = by_name["gateway.connection"], by_name["gateway.wire"]
    assert inner[4] == tr.spans.index(outer)
    assert outer[2] - outer[1] >= 0.05
    assert outer[3] < 0.03  # the sleep is not busy time
    assert inner[3] <= outer[3]
    own = tracing.self_times(tr.spans)
    assert own[tr.spans.index(outer)] >= 0.0015


def test_install_patches_imported_copies_and_uninstalls():
    import repro.gateway.server as server
    import repro.gateway.wire as wire

    original = wire.read_request
    tr = tracing.Tracer()
    tr.install()
    try:
        assert server.read_request is not original
        assert wire.read_request is server.read_request
        assert tr.missing == []
    finally:
        tr.uninstall()
    assert server.read_request is original and wire.read_request is original


# ------------------------------------------------------------ correctness

def _trace_report(**overrides):
    report = {"submitted": 10, "completed": 6, "cached": 2, "rejected": 1,
              "unplaceable": 1, "accounting_drift": [], "unfinished": 0,
              "latencies_ms": [1.0] * 8}
    report.update(overrides)
    return report


def test_trace_check_accepts_a_balanced_report():
    assert stats.check_trace_report(_trace_report()) == []


def test_trace_check_rejects_doctored_reports():
    assert stats.check_trace_report(_trace_report(completed=7))
    assert stats.check_trace_report(
        _trace_report(accounting_drift=["tenant-00: ledger 1.0 != 2.0"]))
    assert stats.check_trace_report(_trace_report(unfinished=1))
    assert stats.check_trace_report(_trace_report(latencies_ms=[1.0] * 7))


def _gateway_report(**overrides):
    report = {"attempted": 4, "accepted": [0, 1, 2],
              "rejected": {"shed": 1}, "results": {0: 1, 1: 1, 2: 1},
              "not_done": [], "event_seqs": {0: [0, 1, 2], 1: [0, 1],
                                             2: [0, 1, 2, 3]}}
    report.update(overrides)
    return report


def test_gateway_check_accepts_a_clean_stream():
    assert stats.check_gateway_report(_gateway_report()) == []


def test_gateway_check_rejects_doctored_streams():
    assert stats.check_gateway_report(
        _gateway_report(results={0: 1, 1: 2, 2: 1}))
    assert stats.check_gateway_report(_gateway_report(results={0: 1, 1: 1}))
    assert stats.check_gateway_report(_gateway_report(not_done=[1]))
    assert stats.check_gateway_report(
        _gateway_report(event_seqs={0: [0, 2, 3]}))
    assert stats.check_gateway_report(_gateway_report(attempted=5))
    assert stats.check_gateway_report(
        _gateway_report(results={0: 1, 1: 1, 2: 1, 7: 1}))


# ------------------------------------------------------------- generators

def test_gateway_schedule_is_a_function_of_the_seed():
    w = workloads.GATEWAY_OPEN
    first = workloads.gateway_requests(w, 7, 5.0)
    assert first == workloads.gateway_requests(w, 7, 5.0)
    assert first != workloads.gateway_requests(w, 8, 5.0)
    assert len(first) == 5 * w.rate_per_s
    assert len({r["inputs"]["request"] for r in first}) == len(first)
    assert all(r["at"] == i / w.rate_per_s for i, r in enumerate(first))


def test_tenant_traces_are_a_function_of_the_seed():
    w = workloads.TRACE_REPLAY
    _p, one = workloads.tenant_trace(w, 3)
    _p, two = workloads.tenant_trace(w, 3)
    _p, other = workloads.tenant_trace(w, 4)
    assert workloads.trace_digest(one) == workloads.trace_digest(two)
    assert workloads.trace_digest(one) != workloads.trace_digest(other)


def test_contended_trace_is_fixed_whatever_the_seed():
    w = workloads.TRACE_CONTENDED
    _p, one = workloads.tenant_trace(w, 3)
    _p, other = workloads.tenant_trace(w, 4)
    assert workloads.trace_digest(one) == workloads.trace_digest(other)


# ------------------------------------------------------ declared metrics

def test_every_per_layer_metric_computed_is_declared():
    summary = tracing.summarize(tracing.Tracer())
    computed = layers.layer_metrics(summary, {}, 1.0)
    units = dict(layers.declared("per_layer"))
    filled = layers.fill(computed, units, complete=False)
    assert list(filled) == list(units)
    for name in ("gateway.server_errors", "loadgen.sent",
                 "service.history_growth", "trace.overhead_frac"):
        assert name in units


def test_fill_rejects_undeclared_and_missing_metrics():
    units = {"setup_s": "s", "throughput_per_s": "1/s"}
    try:
        layers.fill({"setup_s": 1.0, "setup_ms": 2.0}, units, complete=False)
    except ValueError:
        pass
    else:
        raise AssertionError("an undeclared metric was accepted")
    try:
        layers.fill({"setup_s": 1.0}, units, complete=True)
    except ValueError:
        pass
    else:
        raise AssertionError("a declared metric went missing unnoticed")


def test_a_missing_trace_target_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("runtime.collect", "repro.core.runtime", "UDCRuntime._renamed")])
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["repro.core.runtime:UDCRuntime._renamed"]
    report = _trace_report(loop_rejected=1, digest="d", cpu_marks=[(0, 0.0),
                           (10, 1.0)], cpu_s=1.0)
    traced = dict(report, trace=tracing.summarize(tr), state={})
    run = bench._trace_layers("trace-replay", report, traced)
    assert any("UDCRuntime._renamed" in p for p in run["problems"])
