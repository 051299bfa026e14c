"""The three UDC aspect types (paper §3, Design Principle 1).

*"We include three types of aspects: 1) hardware resource demands, 2)
execution environments including security specifications, and 3)
distributed semantics."*

Aspects are attached to modules but orthogonal to application semantics:
an :class:`AspectBundle` carries up to three aspect values for one module,
any of which may be ``None`` — *"they can also choose to not define an
aspect (i.e., fall back to provider's default)"* (Principle 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.distsem.consistency import ConsistencyLevel, OpPreference
from repro.distsem.recovery import RecoveryStrategy
from repro.distsem.replication import ReplicationPolicy
from repro.distsem.resilience import HedgePolicy, RetryPolicy
from repro.execenv.environments import EnvKind
from repro.execenv.isolation import IsolationLevel
from repro.execenv.protection import ProtectionPolicy
from repro.hardware.devices import DeviceType

__all__ = [
    "AspectBundle",
    "DistributedAspect",
    "ExecEnvAspect",
    "ResourceAspect",
    "ResourceGoal",
]


class ResourceGoal(enum.Enum):
    """Goal-directed resource selection (§3.2: "if users only provide a
    performance/cost goal, then UDC will select resources based on load
    and available hardware")."""

    FASTEST = "fastest"
    CHEAPEST = "cheapest"


@dataclass(frozen=True)
class ResourceAspect:
    """Hardware resource demands for one module (§3.2).

    For **task** modules, exactly one of ``device`` / ``goal`` selects the
    compute type; ``amount`` is how many units (cores/GPUs/...) and
    ``mem_gb`` is working memory drawn from the DRAM pool.

    For **data** modules, ``media`` pins the storage/memory type; leaving
    it unset with ``goal=CHEAPEST`` (or nothing) lets the provider pick
    the cheapest medium that fits, biased to DRAM for hot data.
    """

    device: Optional[DeviceType] = None
    goal: Optional[ResourceGoal] = None
    amount: Optional[float] = None
    mem_gb: float = 0.0
    media: Optional[DeviceType] = None

    def __post_init__(self):
        if self.device is not None and self.goal is not None:
            raise ValueError("specify either an explicit device or a goal, not both")
        if self.amount is not None and self.amount <= 0:
            raise ValueError(f"amount must be positive, got {self.amount}")
        if self.mem_gb < 0:
            raise ValueError(f"mem_gb must be >= 0, got {self.mem_gb}")
        if self.media is not None and self.media.device_class.value not in (
            "memory", "storage"
        ):
            raise ValueError(
                f"media must be a memory/storage type, got {self.media.value}"
            )


@dataclass(frozen=True)
class ExecEnvAspect:
    """Execution environment + security for one module (§3.3).

    Either a tier (``isolation``) or a concrete mechanism (``env_kind``)
    may be named; naming the mechanism makes fulfillment precisely
    verifiable (the paper's argument for non-declarative security specs).
    ``protection`` applies to data *leaving* the environment.
    """

    isolation: Optional[IsolationLevel] = None
    env_kind: Optional[EnvKind] = None
    single_tenant: bool = False
    protection: ProtectionPolicy = ProtectionPolicy()

    def __post_init__(self):
        if self.isolation is not None and self.env_kind is not None:
            raise ValueError(
                "specify an isolation tier or a concrete env kind, not both"
            )

    @property
    def effective_isolation(self) -> Optional[IsolationLevel]:
        """The tier this aspect demands, derived from env_kind if concrete."""
        if self.isolation is not None:
            return self.isolation
        if self.env_kind is not None:
            from repro.execenv.environments import ENV_PROFILES

            base = ENV_PROFILES[self.env_kind].isolation
            if self.single_tenant and base == IsolationLevel.STRONG:
                return IsolationLevel.STRONGEST
            return base
        return None


@dataclass(frozen=True)
class DistributedAspect:
    """Distributed semantics for one module (§3.4).

    ``data_consistency`` lets a *task* module declare the consistency it
    expects of data modules it accesses — the source of the cross-module
    conflicts §3.4 requires UDC to detect.
    """

    replication: Optional[ReplicationPolicy] = None
    consistency: Optional[ConsistencyLevel] = None
    preference: OpPreference = OpPreference.NONE
    recovery: Optional[RecoveryStrategy] = None
    checkpoint: bool = False
    #: take a checkpoint every this fraction of module progress
    checkpoint_interval: float = 0.25
    failure_domain: Optional[str] = None
    data_consistency: Dict[str, ConsistencyLevel] = field(default_factory=dict)
    #: bounded re-execution with backoff (None = provider's crash-recovery
    #: attempt cap, no backoff)
    retry: Optional[RetryPolicy] = None
    #: abandon the module and report an SLO violation past this wall time
    deadline_s: Optional[float] = None
    #: speculative duplicate execution against stragglers
    hedge: Optional[HedgePolicy] = None
    #: declared spending ceiling for this module across retries/hedges;
    #: the analyzer's UDC011 checks the worst case against it
    cost_cap_dollars: Optional[float] = None
    #: the module's data allocations outlive the submission (a standing
    #: deployment); persistent modules are never spot-preemption victims,
    #: so the analyzer's UDC015 rejects pairing this with spot economics
    persistent: bool = False

    def __post_init__(self):
        if self.cost_cap_dollars is not None and self.cost_cap_dollars <= 0:
            raise ValueError(
                f"cost_cap_dollars must be positive, got {self.cost_cap_dollars}"
            )
        if not 0.0 < self.checkpoint_interval <= 1.0:
            raise ValueError(
                f"checkpoint_interval must be in (0, 1], got {self.checkpoint_interval}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.checkpoint and self.recovery is None:
            # Checkpointing without a recovery strategy implies restore.
            object.__setattr__(
                self, "recovery", RecoveryStrategy.CHECKPOINT_RESTORE
            )


@dataclass(frozen=True)
class AspectBundle:
    """All aspects declared for one module; None = provider default."""

    resource: Optional[ResourceAspect] = None
    execenv: Optional[ExecEnvAspect] = None
    distributed: Optional[DistributedAspect] = None

    def with_defaults(self, defaults: "AspectBundle") -> "AspectBundle":
        """Fill undeclared aspects from provider defaults (Principle 2)."""
        return AspectBundle(
            resource=self.resource or defaults.resource,
            execenv=self.execenv or defaults.execenv,
            distributed=self.distributed or defaults.distributed,
        )

    def override_consistency(self, level: ConsistencyLevel) -> "AspectBundle":
        """A copy with the distributed consistency replaced (conflict
        resolution's strictest-wins rewrite)."""
        dist = self.distributed or DistributedAspect()
        return AspectBundle(
            resource=self.resource,
            execenv=self.execenv,
            distributed=replace(dist, consistency=level),
        )
