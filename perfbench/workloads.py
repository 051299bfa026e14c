"""The benchmark's workloads: parameters and seeded input generators.

Each workload is a named usage pattern with stated parameters, in the
manner of the SPEC RG *Cloud Usage Patterns* formalism.  The generators
are pure functions of the seed: the program under test sees only what
they return.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class TraceWorkload:
    """An in-process replay of the diurnal tenant trace through
    ``UDCService``, as ``udc serve`` drives it."""

    name: str
    tenants: int
    rate_per_min: float
    minutes: float
    repeat_fraction: float
    round_every: int
    cells: int
    racks: int
    autopilot: bool
    spot_fraction: float
    warm: bool
    slo_s: Optional[float]
    #: None: the trace comes from ``--seed``.  A number fixes the trace
    #: to that generator seed, and ``--seed`` is ignored (see
    #: :func:`tenant_trace`).
    fixed_seed: Optional[int] = None


@dataclass(frozen=True)
class GatewayWorkload:
    """``udc gateway`` in a child process under an open-loop load."""

    name: str
    tenants: int
    rate_per_s: float
    tags: int
    archetype: str


TRACE_REPLAY = TraceWorkload(
    name="trace-replay", tenants=64, rate_per_min=2.0, minutes=30.0,
    repeat_fraction=0.25, round_every=8, cells=1, racks=4, autopilot=False,
    spot_fraction=0.0, warm=False, slo_s=None,
)

TRACE_CONTENDED = TraceWorkload(
    name="trace-contended", tenants=64, rate_per_min=6.0, minutes=5.0,
    repeat_fraction=0.25, round_every=128, cells=2, racks=2, autopilot=True,
    spot_fraction=0.5, warm=True, slo_s=300.0, fixed_seed=0,
)

GATEWAY_OPEN = GatewayWorkload(
    name="gateway-open", tenants=64, rate_per_s=30.0, tags=32,
    archetype="tiny",
)

WORKLOADS = {w.name: w for w in (TRACE_REPLAY, TRACE_CONTENDED, GATEWAY_OPEN)}


# ---------------------------------------------------------------- generators

def trace_seed(workload: TraceWorkload, seed: int) -> int:
    return seed if workload.fixed_seed is None else workload.fixed_seed


def tenant_profiles(workload: TraceWorkload, seed: int):
    from repro.workloads.tenants import default_tenant_profiles

    return default_tenant_profiles(count=workload.tenants,
                                   seed=trace_seed(workload, seed))


def tenant_trace(workload: TraceWorkload, seed: int):
    """The workload's trace: the generator ``udc serve`` uses, at the
    workload's parameters.

    A workload with a ``fixed_seed`` replays that one trace whatever
    ``seed`` is.  The contended pattern needs this: its cost per
    submission is chaotic in the arrival realization (five generator
    seeds gave 435 to 826 preemptions and 12 to 18 ms of CPU per
    submission), far wider than any bound a run-to-run comparison can
    use.  Its ten seeded runs are ten repeats of one input.
    """
    from repro.workloads.tenants import generate_tenant_trace

    profiles = tenant_profiles(workload, seed)
    trace = generate_tenant_trace(
        profiles,
        peak_rate_per_minute=workload.rate_per_min,
        horizon_s=workload.minutes * 60.0,
        repeat_fraction=workload.repeat_fraction,
        seed=trace_seed(workload, seed),
    )
    return profiles, trace


def trace_digest(trace) -> str:
    """Fingerprint of a trace's inputs (who submits what, in what order)."""
    h = hashlib.sha256()
    for sub in trace.submissions:
        h.update(json.dumps([round(sub.arrival_s, 9), sub.tenant, sub.dag.name,
                             sub.inputs], sort_keys=True).encode())
    return h.hexdigest()[:16]


def gateway_requests(workload: GatewayWorkload, seed: int,
                     seconds: float) -> List[Dict[str, Any]]:
    """The open-loop schedule: one request every ``1/rate`` seconds.

    Tenants take turns round-robin from a seeded starting point; each
    request names one of ``tags`` tiny apps and carries an input no
    other request carries, so no request can be a cache hit.
    """
    rng = random.Random(f"perfbench-gateway:{seed}")
    count = max(1, int(round(workload.rate_per_s * seconds)))
    offset = rng.randrange(workload.tenants)
    requests = []
    for index in range(count):
        requests.append({
            "at": index / workload.rate_per_s,
            "tenant": tenant_name((offset + index) % workload.tenants),
            "app": {"archetype": workload.archetype,
                    "tag": str(rng.randrange(workload.tags))},
            "inputs": {"request": f"{seed}-{index}",
                       "nonce": rng.getrandbits(64)},
        })
    return requests


def tenant_name(index: int) -> str:
    return f"tenant-{index:02d}"


def requests_digest(requests: List[Dict[str, Any]]) -> str:
    h = hashlib.sha256()
    for request in requests:
        h.update(json.dumps(request, sort_keys=True).encode())
    return h.hexdigest()[:16]
