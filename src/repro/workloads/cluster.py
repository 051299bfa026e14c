"""Cluster-churn workload: a stream of tenant application arrivals.

Models a provider's day: tenants of different archetypes (web services,
batch analytics, secure pipelines, GPU inference) arrive as a Poisson
process, each bringing its own DAG and aspect definition.  Used by E17 to
exercise the control plane under sustained multi-tenant churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.appmodel.annotations import AppBuilder
from repro.appmodel.dag import ModuleDAG
from repro.hardware.devices import DeviceType
from repro.simulator.rng import derive_seed

__all__ = ["ArrivingApp", "ClusterTrace", "generate_cluster_trace"]


@dataclass(frozen=True)
class ArrivingApp:
    """One tenant application arriving at a point in simulated time."""

    arrival_s: float
    tenant: str
    archetype: str
    dag: ModuleDAG
    definition: Dict


@dataclass
class ClusterTrace:
    """An ordered arrival schedule."""

    arrivals: List[ArrivingApp] = field(default_factory=list)
    horizon_s: float = 0.0

    def __len__(self) -> int:
        return len(self.arrivals)


def _noop(ctx):
    """Shared task body for all archetypes: the simulator models the
    work, not the code.  Module-level (not a closure) so archetype DAGs
    pickle by reference — snapshots of a service holding them depend on
    it."""
    return None


def _web_service(tag: str) -> Tuple[ModuleDAG, Dict]:
    app = AppBuilder(f"web-{tag}")
    app.task(name="api", work=4.0, max_parallelism=2)(_noop)
    app.task(name="render", work=2.0)(_noop)
    session = app.data("sessions", size_gb=2, hot=True)
    app.flows("api", "render", bytes_=1 << 16)
    app.writes("api", session, bytes_per_run=1 << 16)
    definition = {
        "api": {"resource": {"device": "cpu", "amount": 2, "mem_gb": 4}},
        "render": {"resource": "cheapest"},
        "sessions": {"resource": "dram",
                     "distributed": {"replication": 2,
                                     "preference": "reader"}},
    }
    return app.build(), definition


def _batch_analytics(tag: str) -> Tuple[ModuleDAG, Dict]:
    app = AppBuilder(f"batch-{tag}")
    app.task(name="extract", work=10.0)(_noop)
    app.task(name="aggregate", work=25.0)(_noop)
    warehouse = app.data("warehouse", size_gb=30)
    app.reads("extract", warehouse, bytes_per_run=64 << 20)
    app.flows("extract", "aggregate", bytes_=16 << 20)
    definition = {
        "extract": {"resource": {"device": "cpu", "amount": 4}},
        "aggregate": {"resource": {"device": "cpu", "amount": 8},
                      "distributed": {"checkpoint": True}},
        "warehouse": {"resource": "ssd"},
    }
    return app.build(), definition


def _secure_pipeline(tag: str) -> Tuple[ModuleDAG, Dict]:
    app = AppBuilder(f"secure-{tag}")
    app.task(name="ingest", work=3.0)(_noop)
    app.task(name="process", work=8.0)(_noop)
    vault = app.data("vault", size_gb=5)
    app.flows("ingest", "process", bytes_=1 << 20)
    app.writes("process", vault, bytes_per_run=1 << 20)
    definition = {
        "ingest": {"execenv": {"env": "sgx-enclave"}},
        "process": {"execenv": {"env": "sgx-enclave",
                                "single_tenant": True}},
        "vault": {"resource": "ssd",
                  "execenv": {"protection": ["encrypt", "integrity"]},
                  "distributed": {"replication": 2,
                                  "consistency": "sequential"}},
    }
    return app.build(), definition


def _gpu_inference(tag: str) -> Tuple[ModuleDAG, Dict]:
    app = AppBuilder(f"inference-{tag}")
    app.task(name="preproc", work=1.0,
             devices={DeviceType.CPU, DeviceType.GPU})(_noop)
    app.task(name="model", work=40.0, devices={DeviceType.GPU})(_noop)
    app.flows("preproc", "model", bytes_=4 << 20)
    definition = {
        "preproc": {"resource": "cheapest"},
        "model": {"resource": {"device": "gpu", "amount": 1}},
    }
    return app.build(), definition


ARCHETYPE_BUILDERS = {
    "web": (_web_service, 0.4),
    "batch": (_batch_analytics, 0.3),
    "secure": (_secure_pipeline, 0.2),
    "inference": (_gpu_inference, 0.1),
}


def generate_cluster_trace(
    rate_per_minute: float,
    horizon_s: float,
    seed: int = 0,
) -> ClusterTrace:
    """Poisson arrivals of mixed-archetype tenant applications."""
    if rate_per_minute <= 0 or horizon_s <= 0:
        raise ValueError("rate and horizon must be positive")
    rng = random.Random(derive_seed(seed, "cluster-trace"))
    names = list(ARCHETYPE_BUILDERS)
    weights = [ARCHETYPE_BUILDERS[n][1] for n in names]
    trace = ClusterTrace(horizon_s=horizon_s)
    t = 0.0
    index = 0
    while True:
        t += rng.expovariate(rate_per_minute / 60.0)
        if t >= horizon_s:
            break
        archetype = rng.choices(names, weights=weights, k=1)[0]
        builder = ARCHETYPE_BUILDERS[archetype][0]
        dag, definition = builder(str(index))
        trace.arrivals.append(
            ArrivingApp(
                arrival_s=t,
                tenant=f"{archetype}-tenant-{index}",
                archetype=archetype,
                dag=dag,
                definition=definition,
            )
        )
        index += 1
    return trace
