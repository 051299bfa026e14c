"""Multi-tenant traffic for the serving layer, with diurnal skew.

Where :mod:`~repro.workloads.cluster` models one-off tenant arrivals,
this generator models *returning* tenants: a fixed population, each
repeatedly submitting its own application with fresh inputs, at a rate
that follows the daily load curve (:func:`~repro.workloads.diurnal
.diurnal_rate`).  Tenants peak at different hours — mid-afternoon web
traffic, overnight batch windows — so instantaneous load is skewed
toward whichever tenants are near their peak, which is exactly the
contention pattern fair-share admission exists to arbitrate.

A fraction of each tenant's submissions re-uses an earlier input payload
(the same report re-requested, the same nightly aggregate), giving the
service's result cache something real to hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.appmodel.dag import ModuleDAG
from repro.simulator.rng import derive_seed
from repro.workloads.cluster import ARCHETYPE_BUILDERS
from repro.workloads.diurnal import DAY_S, diurnal_rate

__all__ = [
    "TenantProfile",
    "TenantSubmission",
    "TenantTrace",
    "default_tenant_profiles",
    "generate_tenant_trace",
]


@dataclass(frozen=True)
class TenantProfile:
    """One returning tenant's shape: what it runs, how much, and when."""

    name: str
    archetype: str = "web"
    #: fair-share weight the service should register this tenant with
    weight: float = 1.0
    #: hour of day (0-24) where this tenant's submission rate peaks
    peak_hour: float = 14.0
    #: multiplier on the trace-wide peak submission rate
    rate_scale: float = 1.0
    #: overnight rate as a fraction of this tenant's peak
    trough_fraction: float = 0.1

    def __post_init__(self):
        if self.archetype not in ARCHETYPE_BUILDERS:
            raise ValueError(
                f"unknown archetype {self.archetype!r} "
                f"(expected one of {sorted(ARCHETYPE_BUILDERS)})"
            )
        if self.weight <= 0 or self.rate_scale <= 0:
            raise ValueError("weight and rate_scale must be positive")


@dataclass(frozen=True)
class TenantSubmission:
    """One (tenant, app, definition, inputs) arrival at a sim time."""

    arrival_s: float
    tenant: str
    archetype: str
    dag: ModuleDAG
    definition: Dict
    inputs: Dict
    #: True when ``inputs`` repeats an earlier submission's payload
    repeat: bool = False


@dataclass
class TenantTrace:
    """A merged, time-ordered multi-tenant submission schedule."""

    profiles: List[TenantProfile] = field(default_factory=list)
    submissions: List[TenantSubmission] = field(default_factory=list)
    horizon_s: float = 0.0

    def __len__(self) -> int:
        return len(self.submissions)


def default_tenant_profiles(
    count: int = 8,
    seed: int = 0,
) -> List[TenantProfile]:
    """A deterministic mixed population: archetypes cycle, weights span
    1x-3x, and peak hours stagger around the clock so the tenants take
    turns being the heavy hitter."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(derive_seed(seed, "tenant-profiles"))
    archetypes = sorted(ARCHETYPE_BUILDERS)
    profiles = []
    for i in range(count):
        archetype = archetypes[i % len(archetypes)]
        profiles.append(
            TenantProfile(
                name=f"tenant-{i:02d}",
                archetype=archetype,
                weight=float(1 + i % 3),
                peak_hour=(24.0 * i / count + rng.uniform(-1.0, 1.0)) % 24.0,
                rate_scale=rng.uniform(0.7, 1.3),
            )
        )
    return profiles


def generate_tenant_trace(
    profiles: Optional[Sequence[TenantProfile]] = None,
    peak_rate_per_minute: float = 6.0,
    horizon_s: float = DAY_S / 4,
    repeat_fraction: float = 0.25,
    seed: int = 0,
) -> TenantTrace:
    """Thinned-Poisson submissions per tenant, merged by arrival time.

    Each tenant's instantaneous rate is ``peak_rate_per_minute *
    rate_scale`` shaped by its own diurnal curve (phase-shifted to its
    ``peak_hour``).  One application DAG is built per tenant and re-used
    across its submissions — the same app resubmitted with fresh inputs —
    so result-cache keys only collide when ``repeat_fraction`` says an
    input payload repeats.
    """
    if profiles is None:
        profiles = default_tenant_profiles(seed=seed)
    if peak_rate_per_minute <= 0 or horizon_s <= 0:
        raise ValueError("rate and horizon must be positive")
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ValueError("repeat_fraction must be in [0, 1]")

    trace = TenantTrace(profiles=list(profiles), horizon_s=horizon_s)
    apps: Dict[str, Tuple[ModuleDAG, Dict]] = {}
    for profile in trace.profiles:
        builder = ARCHETYPE_BUILDERS[profile.archetype][0]
        apps[profile.name] = builder(profile.name)

    for profile in trace.profiles:
        rng = random.Random(derive_seed(seed, f"tenant-trace:{profile.name}"))
        dag, definition = apps[profile.name]
        peak_hz = peak_rate_per_minute * profile.rate_scale / 60.0
        payloads: List[Dict] = []
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(peak_hz)
            if t >= horizon_s:
                break
            accept_p = diurnal_rate(
                t, peak_hz, profile.trough_fraction, profile.peak_hour
            ) / peak_hz
            if rng.random() >= accept_p:
                continue
            repeat = bool(payloads) and rng.random() < repeat_fraction
            if repeat:
                inputs = payloads[rng.randrange(len(payloads))]
            else:
                inputs = {
                    "request": f"{profile.name}-{index}",
                    "payload_bytes": 1 << rng.randint(10, 20),
                }
                payloads.append(inputs)
            trace.submissions.append(
                TenantSubmission(
                    arrival_s=t,
                    tenant=profile.name,
                    archetype=profile.archetype,
                    dag=dag,
                    definition=definition,
                    inputs=inputs,
                    repeat=repeat,
                )
            )
            index += 1

    trace.submissions.sort(key=lambda s: (s.arrival_s, s.tenant))
    return trace
