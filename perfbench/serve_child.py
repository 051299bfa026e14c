"""One serving process for a trace workload: build, replay, report.

    python3 perfbench/serve_child.py WORKLOAD SEED [--setup-only]
                                     [--trace-out SPANS.tsv]

Imports the program, builds the service and registers its tenants,
then generates the workload's trace from the seed and replays it the
way ``udc serve`` does (submit in arrival order, a drain every
``round_every`` submissions, a final drain), and prints one JSON report
line.  With ``--setup-only`` it stops once the service is ready.  With
``--trace-out`` the program's entry points are wrapped before the
replay and the spans are written to that file.

Set-up runs from before the program is imported to the last tenant
registered: what ``udc serve`` does before its first submission.  It
leaves out interpreter start.  A build alone takes about a millisecond,
and on the test host that millisecond came out 1.6x slower in some
processes than in others, whatever the hash seed or address layout;
the import, about 0.6 s, varied by 4%.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from repro.analysis import AnalysisError  # noqa: E402
from repro.execenv.warmpool import WarmPool  # noqa: E402
from repro.hardware.topology import (  # noqa: E402
    DatacenterSpec,
    build_datacenter,
)
from repro.service import (  # noqa: E402
    QuotaExceeded,
    TenantSpec,
    UDCService,
    WeightedFairShare,
)


def build_service(workload):
    return UDCService(
        build_datacenter(DatacenterSpec(pods=1, racks_per_pod=workload.racks)),
        policy=WeightedFairShare(), cells=workload.cells,
        autopilot=workload.autopilot,
        warm_pool=WarmPool(enabled=workload.warm), prewarm=workload.warm,
    )


def register(service, profiles, workload) -> None:
    spot = int(round(workload.spot_fraction * len(profiles)))
    for index, profile in enumerate(profiles):
        service.register_tenant(profile.name, TenantSpec(
            weight=profile.weight,
            goal="cheapest" if index < spot else None,
            slo_s=workload.slo_s,
        ))


def replay(service, trace, workload):
    """Submit every arrival, draining every ``round_every``; returns the
    per-submission latencies, rejection count, CPU marks, wall seconds
    and submissions left unfinished."""
    perf, cpu = time.perf_counter, time.process_time
    latencies, started = [], {}
    rejected = 0
    marks = [(0, 0.0)]

    def finalize(handles):
        now = perf()
        for handle in handles:
            began = started.pop(handle.seq)
            if handle.status != "unplaceable":
                latencies.append((now - began) * 1e3)

    cpu0, wall0 = cpu(), perf()
    every = workload.round_every
    for index, arrival in enumerate(trace.submissions, start=1):
        began = perf()
        try:
            handle = service.submit(arrival.tenant, arrival.dag,
                                    arrival.definition, inputs=arrival.inputs)
        except (QuotaExceeded, AnalysisError):  # budget is a quota subclass
            rejected += 1
        else:
            if handle.cached:
                latencies.append((perf() - began) * 1e3)
            else:
                started[handle.seq] = began
        if index % every == 0:
            finalize(service.drain())
            marks.append((index, cpu() - cpu0))
    finalize(service.drain())
    wall = perf() - wall0
    marks.append((len(trace.submissions), cpu() - cpu0))
    return latencies, rejected, marks, wall, len(started)


def outcome(service) -> dict:
    """Deterministic simulated outcome: tenant-visible results + digest."""
    from stats import tail_percentile

    rollups = service.rollup()
    digest = hashlib.sha256()
    turnaround = []
    for handle in service.handles:
        result, sub = handle.result, handle.submission
        row = [handle.seq, handle.tenant, handle.status, handle.cell]
        if result is not None and sub is not None \
                and handle.status != "unplaceable":
            turnaround.append(sub.queue_wait_s + result.makespan_s)
            row += [round(sub.queue_wait_s, 9), round(result.makespan_s, 9),
                    round(result.total_cost, 9)]
        digest.update(json.dumps(row).encode())
    digest.update(json.dumps([service.preemptions, service.rounds]).encode())
    completed = sum(u.completed for u in rollups)
    cached = sum(u.cache_hits for u in rollups)
    billed = sum(u.billed_cost for u in rollups)
    return {
        "completed": completed,
        "cached": cached,
        "rejected": sum(u.rejected for u in rollups),
        "unplaceable": sum(u.unplaceable for u in rollups),
        "sim_turnaround_p99_s": tail_percentile(turnaround)[1] or 0.0,
        "sim_cost_per_sub": billed / max(completed + cached, 1),
        "jain_completed": service.fairness_index(),
        "preemptions": service.preemptions,
        "rounds": service.rounds,
        "digest": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, tenant_profiles, tenant_trace, \
        trace_digest

    workload = WORKLOADS[args.workload]
    service = build_service(workload)
    register(service, tenant_profiles(workload, args.seed), workload)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    _profiles, trace = tenant_trace(workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, rejected, marks, wall, unfinished = replay(service, trace,
                                                          workload)
    cpu_s = marks[-1][1]
    if tracer is not None:
        tracer.uninstall()
    report = {
        "submitted": len(trace.submissions),
        "inputs_digest": trace_digest(trace),
        "loop_rejected": rejected,
        "unfinished": unfinished,
        "latencies_ms": latencies,
        "cpu_marks": marks,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "accounting_drift": service.check_budget_accounting(),
    }
    report.update(outcome(service))
    if tracer is not None:
        from layers import end_state
        from tracer import summarize

        tracer.write_spans(args.trace_out)
        report["trace"] = summarize(tracer)
        report["state"] = end_state(service)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    # The service holds hundreds of MB of history; skip the teardown.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
