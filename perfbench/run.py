"""End-to-end, layer-attributed serving benchmark for the UDC control plane.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Workloads (parameters in ``workloads.py`` and ``BENCHMARK.json``):

* ``trace-replay``: the diurnal tenant trace replayed in process through
  ``UDCService``, as ``udc serve --tenants 64 --rate 2 --minutes 30``.
* ``trace-contended``: the same generator at three times the rate for
  five minutes on half the racks, two cells, autopilot, spot tenants,
  warm pools; it always replays the generator's seed-0 trace and ignores
  ``--seed``.
* ``gateway-open``: ``udc gateway`` with default flags in a child
  process, under an open-loop load of 30 requests/s from this process.

Every serving process is a child, so its set-up, CPU and peak memory
are its own.  The metrics reported, and their units, are the ones
``BENCHMARK.json`` declares.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once with the program's entry points wrapped
(``tracer.py``) and reports per-layer metrics, with tracing overhead as
traced minus untraced CPU.  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it name
every metric with its unit and sample count, the outcome digest, and any
correctness problem.  The exit code is 0 when the run completed, 2 when
the program's source is missing or the run could not complete.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: the service is set up this many times besides the measured runs,
#: which add one sample each: half before them and half after, so that
#: set-up reads the host over the whole run, as the other metrics do.
#: The median is reported.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ------------------------------------------------------- in-process replays

def serve_child(workload: str, seed: int, *, setup_only: bool = False,
                trace_out: str = "") -> Dict[str, Any]:
    """Run one serving child; returns its report."""
    argv = ["python3", os.path.join(HERE, "serve_child.py"), workload,
            str(seed)]
    if setup_only:
        argv.append("--setup-only")
    if trace_out:
        argv += ["--trace-out", trace_out]
    stderr_path = os.path.join(OUT, f"{workload}-{seed}-child.stderr")
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=_child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if code != 0 or not out.strip():
        with open(stderr_path, "rb") as err:
            tail = err.read()[-2000:].decode("utf-8", "replace")
        raise BenchError(f"{workload} child exited {code}: {tail}")
    return json.loads(out.splitlines()[-1])


def _trace_problems(report: Dict[str, Any]) -> List[str]:
    from stats import check_trace_report

    problems = check_trace_report(report)
    if report["loop_rejected"] != report["rejected"]:
        problems.append(f"{report['loop_rejected']} rejections raised but "
                        f"{report['rejected']} on the ledger")
    return problems


def run_trace(name: str, seed: int, seconds: float,
              trace: bool) -> Dict[str, Any]:
    from stats import median, tail_percentile

    if trace:
        plain = serve_child(name, seed)
        spans = os.path.join(OUT, f"{name}-{seed}-spans.tsv")
        traced = serve_child(name, seed, trace_out=spans)
        return _trace_layers(name, plain, traced)

    def probe() -> float:
        return serve_child(name, seed, setup_only=True)["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    reports = []
    began = time.perf_counter()
    while True:
        report = serve_child(name, seed)
        setups.append(report["setup_s"])
        reports.append(report)
        elapsed = time.perf_counter() - began
        if elapsed * (len(reports) + 1) / len(reports) > seconds:
            break
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    first = reports[0]
    problems = [p for r in reports for p in _trace_problems(r)]
    digests = {r["digest"] for r in reports}
    if len(digests) > 1:
        problems.append(f"replays of one seed disagree: {sorted(digests)}")
    finished = first["completed"] + first["cached"]
    latencies = [x for r in reports for x in r["latencies_ms"]]
    q, p99 = tail_percentile(latencies)
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": median([finished / r["wall_s"] for r in reports]),
        "latency_p50_ms": median(latencies),
        "latency_p99_ms": p99,
        "success_frac": finished / first["submitted"],
        "cpu_ms_per_sub": median([r["cpu_s"] / finished * 1e3
                                  for r in reports]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        "sim_cost_per_sub": first["sim_cost_per_sub"],
        "jain_completed": first["jain_completed"],
    }
    samples = {
        "setup_s": len(setups), "latency_p50_ms": len(latencies),
        "latency_p99_ms": len(latencies),
    }
    for key in ("throughput_per_s", "cpu_ms_per_sub", "peak_rss_mb"):
        samples[key] = len(reports)
    return {
        "metrics": metrics, "samples": samples,
        "notes": {"latency_p99_ms": f"p{q * 100:.2f}",
                  "sim_turnaround_p99_s": first["sim_turnaround_p99_s"],
                  "preemptions": first["preemptions"],
                  "replays": len(reports),
                  "inputs_digest": first["inputs_digest"]},
        "digest": first["digest"], "problems": problems,
        "attempted": first["submitted"] * len(reports),
        "failed": (first["submitted"] - finished) * len(reports),
    }


def _trace_layers(name: str, plain: Dict[str, Any],
                  traced: Dict[str, Any]) -> Dict[str, Any]:
    from layers import layer_metrics, missing_problems
    from stats import history_growth

    metrics = layer_metrics(traced["trace"], traced["state"],
                            traced["cpu_s"])
    metrics["service.history_growth"] = history_growth(plain["cpu_marks"])
    metrics["trace.serving_cpu_s"] = traced["cpu_s"]
    metrics["trace.overhead_cpu_s"] = traced["cpu_s"] - plain["cpu_s"]
    metrics["trace.overhead_frac"] = metrics["trace.overhead_cpu_s"] \
        / plain["cpu_s"]
    problems = (_trace_problems(plain) + _trace_problems(traced)
                + missing_problems(traced["trace"]))
    if traced["digest"] != plain["digest"]:
        problems.append("tracing changed the simulated outcome")
    finished = traced["completed"] + traced["cached"]
    return {"metrics": metrics, "samples": {}, "notes": {},
            "digest": traced["digest"], "problems": problems,
            "attempted": traced["submitted"],
            "failed": traced["submitted"] - finished}


# ------------------------------------------------------------- the gateway

async def _gateway_setup(label: str, tenants: List[str], trace_out: str = "",
                         summary_out: str = ""):
    """Start a gateway and register the tenants; set-up runs from the
    gateway child's start, before it imports the program, to the last
    registration (both ends read the same monotonic clock)."""
    from loadgen import GatewayProcess, finish
    from repro.gateway.client import GatewayClient

    proc = GatewayProcess(ROOT, OUT, label, trace_out or None,
                          summary_out or None)
    host, port, started = await proc.start()
    client = GatewayClient(host, port, pool_size=1)
    try:
        for tenant in tenants:
            await client.register_tenant(tenant)
    except BaseException:
        await finish(proc, client, None, None)
        raise
    return proc, client, time.monotonic() - started


async def _gateway_once(workload, seed: int, seconds: float, label: str,
                        trace_out: str = "", summary_out: str = ""):
    """One measured gateway run: set up, load, shut down."""
    from loadgen import finish, run_open_loop
    from workloads import gateway_requests, tenant_name

    tenants = [tenant_name(i) for i in range(workload.tenants)]
    requests = gateway_requests(workload, seed, seconds)
    proc, client, setup = await _gateway_setup(label, tenants, trace_out,
                                               summary_out)
    stream = receiver = None
    try:
        stream = await client.stream()
        load, receiver = await run_open_loop(proc, client, stream, requests)
    finally:
        code = await finish(proc, client, stream, receiver)
    if code != 0:
        raise BenchError(f"gateway exited {code}")
    return setup, requests, load, proc.tracebacks()


async def _gateway_async(workload, seed: int, seconds: float,
                         trace: bool) -> Dict[str, Any]:
    from loadgen import finish
    from workloads import tenant_name

    tenants = [tenant_name(i) for i in range(workload.tenants)]
    if trace:
        _s, _r, plain, _e = await _gateway_once(
            workload, seed, seconds, f"gateway-{seed}-plain")
        spans = os.path.join(OUT, f"gateway-open-{seed}-spans.tsv")
        summary = os.path.join(OUT, f"gateway-open-{seed}-summary.json")
        _s, requests, load, errors = await _gateway_once(
            workload, seed, seconds, f"gateway-{seed}-traced", spans, summary)
        with open(summary, "r", encoding="utf-8") as handle:
            summary_data = json.load(handle)
        return _gateway_layers(requests, plain, load, errors, summary_data)

    async def probe(index: int) -> None:
        proc, client, setup = await _gateway_setup(
            f"gateway-{seed}-probe{index}", tenants)
        setups.append(setup)
        await finish(proc, client, None, None)

    setups: List[float] = []
    for index in range(SETUP_PROBES // 2):
        await probe(index)
    setup, requests, load, errors = await _gateway_once(
        workload, seed, seconds, f"gateway-{seed}")
    setups.append(setup)
    for index in range(SETUP_PROBES // 2, SETUP_PROBES):
        await probe(index)
    return _gateway_e2e(requests, load, errors, setups)


def _outcomes(requests, load):
    """Per-request outcome rows and the tenant-visible results."""
    rows, ok = [], []
    for seq, index in sorted(load.accepted.items(), key=lambda kv: kv[1]):
        payload = load.result_payload.get(seq, {})
        status = payload.get("status", "missing")
        rows.append([index, requests[index]["tenant"], status,
                     payload.get("makespan_s"), payload.get("total_cost")])
        if status == "done":
            ok.append((seq, index, payload))
    return rows, ok


def _gateway_e2e(requests, load, errors: int,
                 setups: List[float]) -> Dict[str, Any]:
    import hashlib

    from stats import (
        check_gateway_report,
        jain,
        median,
        tail_percentile,
    )
    from workloads import requests_digest

    problems = check_gateway_report(load.report())
    rows, ok = _outcomes(requests, load)
    latencies = [(load.result_at[seq] - load.start - requests[i]["at"]) * 1e3
                 for seq, i, _p in ok]
    per_tenant: Dict[str, int] = {}
    for request in requests:
        per_tenant.setdefault(request["tenant"], 0)
    for _seq, index, _p in ok:
        per_tenant[requests[index]["tenant"]] += 1
    makespans = [p["makespan_s"] for _s, _i, p in ok]
    marks = load.cpu_marks
    cpu = marks[-1] - marks[0]
    q, p99 = tail_percentile(latencies)
    success = len(ok)
    if not success:
        raise BenchError("no gateway submission succeeded")
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": success / (load.last_result - load.start),
        "latency_p50_ms": median(latencies),
        "latency_p99_ms": p99,
        "success_frac": success / load.attempted,
        "cpu_ms_per_sub": cpu / success * 1e3,
        "peak_rss_mb": load.peak_rss_mb,
        "sim_cost_per_sub": sum(p["total_cost"] for _s, _i, p in ok)
        / success,
        "jain_completed": jain(per_tenant[t] for t in sorted(per_tenant)),
    }
    samples = {"setup_s": len(setups), "latency_p50_ms": len(latencies),
               "latency_p99_ms": len(latencies), "throughput_per_s": success,
               "cpu_ms_per_sub": success}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return {
        "metrics": metrics, "samples": samples,
        "notes": {"latency_p99_ms": f"p{q * 100:.2f}",
                  "sim_turnaround_p99_s": tail_percentile(makespans)[1],
                  "inputs_digest": requests_digest(requests),
                  "server_tracebacks": errors,
                  "rejected": load.rejected,
                  "late_p99_ms": tail_percentile(load.late_ms)[1]},
        "digest": digest, "problems": problems,
        "attempted": load.attempted, "failed": load.attempted - success,
    }


def _gateway_layers(requests, plain, load, errors: int,
                    summary: Dict[str, Any]) -> Dict[str, Any]:
    from layers import layer_metrics, missing_problems
    from stats import check_gateway_report, history_growth, tail_percentile

    metrics = layer_metrics(summary["trace"], summary["state"],
                            summary["cpu_s"])
    # The schedule sends the same number of requests in each quarter.
    quarters = [(len(requests) * k / 4, cpu)
                for k, cpu in enumerate(plain.cpu_marks)]
    plain_cpu = plain.cpu_marks[-1] - plain.cpu_marks[0]
    traced_cpu = load.cpu_marks[-1] - load.cpu_marks[0]
    metrics.update({
        "gateway.server_errors": errors,
        "loadgen.sent": load.sent,
        "loadgen.late_p99_ms": tail_percentile(load.late_ms)[1] or 0.0,
        "loadgen.submit_rtt_p99_ms": tail_percentile(load.rtt_ms)[1] or 0.0,
        "service.history_growth": history_growth(quarters),
        "trace.serving_cpu_s": summary["cpu_s"],
        "trace.overhead_cpu_s": traced_cpu - plain_cpu,
        "trace.overhead_frac": ((traced_cpu - plain_cpu) / plain_cpu
                                if plain_cpu else 0.0),
    })
    problems = (check_gateway_report(load.report())
                + missing_problems(summary["trace"]))
    _rows, ok = _outcomes(requests, load)
    return {"metrics": metrics, "samples": {}, "notes": {},
            "digest": "", "problems": problems,
            "attempted": load.attempted,
            "failed": load.attempted - len(ok)}


def run_gateway(name: str, seed: int, seconds: float,
                trace: bool) -> Dict[str, Any]:
    from workloads import WORKLOADS

    return asyncio.run(_gateway_async(WORKLOADS[name], seed, seconds, trace))


# ------------------------------------------------------------------ output

def _print_run(name: str, run: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {name}")
    for metric, value in run["metrics"].items():
        count = run["samples"].get(metric)
        note = run["notes"].get(metric)
        extra = (f"  n={count}" if count is not None else "") \
            + (f"  ({note})" if note else "")
        print(f"  {metric:<32} {value:>14.6g} {units.get(metric, ''):<6}"
              f"{extra}")
    for key, note in run["notes"].items():
        if key not in run["metrics"]:
            print(f"  {key}: {note}")
    if run["digest"]:
        print(f"  outcome digest: {run['digest']}")
    for problem in run["problems"]:
        print(f"  INCORRECT: {problem}")


def run_one(name: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    from workloads import WORKLOADS, GatewayWorkload

    if isinstance(WORKLOADS[name], GatewayWorkload):
        return run_gateway(name, seed, seconds, trace)
    return run_trace(name, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import declared, fill
    from repro.gateway.client import GatewayError
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    units = dict(declared("per_layer" if args.trace else "end_to_end"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = run_one(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, GatewayError, OSError, RuntimeError,
                ValueError) as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 2
        try:
            metrics = fill(run["metrics"], units, complete=not args.trace)
        except ValueError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        _print_run(name, run, units)
        prefix = f"{name}/" if len(names) > 1 else ""
        combined["correct"] = combined["correct"] and not run["problems"]
        combined["attempted"] += int(run["attempted"])
        combined["failed"] += int(run["failed"])
        for metric, entry in metrics.items():
            combined["metrics"][prefix + metric] = entry
    sys.stdout.flush()
    print(json.dumps(combined, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
