"""Tenant identities, quotas, and the typed tenant/submission options.

The paper's provider multiplexes many user-defined clouds over one
substrate (§2); :class:`Tenant` is the serving layer's unit of isolation
for admission accounting: a fair-share weight (consumed by
:class:`~repro.core.admission.WeightedFairShare`) and an optional
:class:`TenantQuota` capping concurrent work.  Quota violations raise
:class:`QuotaExceeded` at submit time — load shedding at the front door,
before any control-plane work is spent.

:class:`TenantSpec` and :class:`SubmitOptions` are the typed fronts for
everything a tenant declares about itself (weight, quota, budget,
tier/goal, pricing plan, SLO) and about one submission (lint override,
priority, deadline, cache opt-out).  Both are frozen dataclasses:
derive a variant with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.economics.autopilot import FIRM_PLAN, SPOT_PLAN, PricingPlan

__all__ = [
    "BudgetExceeded",
    "QuotaExceeded",
    "SubmitOptions",
    "Tenant",
    "TenantQuota",
    "TenantSpec",
]


class QuotaExceeded(Exception):
    """A submission would push the tenant past its quota."""

    def __init__(self, tenant: str, message: str):
        super().__init__(f"tenant {tenant!r}: {message}")
        self.tenant = tenant


class BudgetExceeded(QuotaExceeded):
    """A submission would push the tenant past its spending ceiling.

    Subclasses :class:`QuotaExceeded` so every existing front-door
    handler (gateway 429s, replay journaling) treats budget exhaustion
    as the load shedding it is; catch this type to tell the two apart.
    """


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits, enforced at submit time.

    ``max_in_flight`` caps submissions that are pending, queued, or
    running at once (completed and cache-served submissions free their
    slot).  ``max_submissions`` caps lifetime submissions accepted.
    ``None`` means unlimited.
    """

    max_in_flight: Optional[int] = None
    max_submissions: Optional[int] = None

    def __post_init__(self):
        for label, value in (("max_in_flight", self.max_in_flight),
                             ("max_submissions", self.max_submissions)):
            if value is not None and value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")


@dataclass
class Tenant:
    """One registered tenant of a :class:`~repro.service.UDCService`."""

    name: str
    #: fair-share weight: long-run admission rate is proportional to this
    weight: float = 1.0
    quota: Optional[TenantQuota] = None
    #: lifetime submissions accepted (cache hits included)
    submitted: int = 0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be positive, "
                f"got {self.weight}"
            )

    def check_quota(self, in_flight: int) -> None:
        """Raise :class:`QuotaExceeded` if one more submission would
        exceed this tenant's limits (``in_flight`` counts live work
        *before* the new submission)."""
        if self.quota is None:
            return
        quota = self.quota
        if quota.max_submissions is not None \
                and self.submitted >= quota.max_submissions:
            raise QuotaExceeded(
                self.name,
                f"lifetime submission quota {quota.max_submissions} reached",
            )
        if quota.max_in_flight is not None \
                and in_flight >= quota.max_in_flight:
            raise QuotaExceeded(
                self.name,
                f"{in_flight} submissions in flight "
                f"(quota {quota.max_in_flight})",
            )


@dataclass(frozen=True)
class TenantSpec:
    """Everything a tenant declares about itself, in one typed value.

    The one declaration :meth:`~repro.service.UDCService
    .register_tenant` takes.  ``goal="cheapest"`` is the paper's C10
    declaration — the tenant states an objective and the provider
    optimizes — and resolves to the preemptible spot tier unless
    ``tier`` overrides it explicitly.
    """

    #: fair-share weight (stride scheduling denominator)
    weight: float = 1.0
    quota: Optional[TenantQuota] = None
    #: hard spending budget enforced at the submission front door
    budget_dollars: Optional[float] = None
    #: "firm" (default) or "spot" (discounted, preemption-eligible)
    tier: str = "firm"
    #: optional objective; "cheapest" implies the spot tier
    goal: Optional[str] = None
    #: per-submission SLO on queue wait + makespan, for attainment
    #: accounting (overridable per submission via SubmitOptions)
    slo_s: Optional[float] = None
    #: billing plan; None resolves from the effective tier
    pricing: Optional[PricingPlan] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.tier not in ("firm", "spot"):
            raise ValueError(
                f"tier must be 'firm' or 'spot', got {self.tier!r}"
            )
        if self.goal not in (None, "cheapest", "fastest"):
            raise ValueError(
                f"goal must be 'cheapest' or 'fastest', got {self.goal!r}"
            )
        if self.budget_dollars is not None and self.budget_dollars <= 0:
            raise ValueError(
                f"budget_dollars must be positive, got {self.budget_dollars}"
            )
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError(f"slo_s must be positive, got {self.slo_s}")

    @property
    def effective_tier(self) -> str:
        """The placement tier after goal resolution: declaring
        ``goal="cheapest"`` opts into spot unless ``tier`` was set."""
        if self.tier == "spot" or self.goal == "cheapest":
            return "spot"
        return "firm"

    @property
    def plan(self) -> PricingPlan:
        """The billing plan in effect (explicit, or tier default)."""
        if self.pricing is not None:
            return self.pricing
        return SPOT_PLAN if self.effective_tier == "spot" else FIRM_PLAN


@dataclass(frozen=True)
class SubmitOptions:
    """Per-submission options for :meth:`~repro.service.UDCService
    .submit`, in one typed value.

    All fields default to "inherit the service/tenant configuration":
    ``lint=None`` follows the service's lint flag, ``deadline_s=None``
    follows the tenant spec's ``slo_s``.
    """

    #: tri-state lint override (None = service default)
    lint: Optional[bool] = None
    #: higher priority dispatches earlier within a round (default 0)
    priority: int = 0
    #: per-submission SLO override on queue wait + makespan
    deadline_s: Optional[float] = None
    #: opt this submission out of result-cache lookup AND insertion
    use_cache: bool = True

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
