"""Reproduction of *User-Defined Cloud* (UDC), HotOS '21.

UDC lets cloud *users* define their own clouds: per-module hardware
resource demands, execution environments & security requirements, and
distributed semantics — declaratively, with the provider realizing them
over a fine-grained, disaggregated infrastructure.

Quick start::

    from repro import AppBuilder, UDCRuntime, build_datacenter

    app = AppBuilder("hello")

    @app.task(work=2.0)
    def crunch(ctx):
        return (ctx["input"] or 0) * 2

    runtime = UDCRuntime(build_datacenter())
    result = runtime.run(app.build(), {"crunch": {"resource": "fastest"}},
                         inputs={"crunch": 21})
    print(result.outputs["crunch"])   # 42
    print(result.format_table())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
per-figure/claim benchmark index.
"""

from repro.analysis import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Sensitivity,
    Severity,
    analyze_definition,
)
from repro.appmodel import AppBuilder, ModuleDAG, compile_dag, data, task
from repro.core import (
    AspectBuilder,
    AspectBundle,
    ConflictPolicy,
    DefinitionBuilder,
    DistributedAspect,
    DryRunProfiler,
    ExecEnvAspect,
    ResourceAspect,
    ResourceGoal,
    RunResult,
    UDCRuntime,
    UserDefinition,
    define,
    parse_definition,
    verify_run,
)
from repro.hardware import (
    Datacenter,
    DatacenterSpec,
    DeviceType,
    build_datacenter,
    default_catalog,
)
from repro.replay import (
    ReplayDivergence,
    ReplayRunner,
    RunConfig,
    SimulatedCrash,
    first_divergence,
    read_journal,
)
from repro.economics import PricingPlan
from repro.service import (
    BudgetExceeded,
    QuotaExceeded,
    ResultNotReady,
    SubmissionHandle,
    SubmitOptions,
    Tenant,
    TenantQuota,
    TenantSpec,
    UDCService,
    WeightedFairShare,
)
from repro.simulator import Simulator

__version__ = "2.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "AppBuilder",
    "AspectBuilder",
    "AspectBundle",
    "BudgetExceeded",
    "ConflictPolicy",
    "Datacenter",
    "DatacenterSpec",
    "DefinitionBuilder",
    "DeviceType",
    "Diagnostic",
    "DistributedAspect",
    "DryRunProfiler",
    "ExecEnvAspect",
    "ModuleDAG",
    "PricingPlan",
    "QuotaExceeded",
    "ReplayDivergence",
    "ReplayRunner",
    "ResourceAspect",
    "ResourceGoal",
    "ResultNotReady",
    "RunConfig",
    "RunResult",
    "Sensitivity",
    "Severity",
    "SimulatedCrash",
    "Simulator",
    "SubmissionHandle",
    "SubmitOptions",
    "Tenant",
    "TenantQuota",
    "TenantSpec",
    "UDCRuntime",
    "UDCService",
    "UserDefinition",
    "WeightedFairShare",
    "analyze_definition",
    "build_datacenter",
    "compile_dag",
    "data",
    "default_catalog",
    "define",
    "first_divergence",
    "parse_definition",
    "read_journal",
    "task",
    "verify_run",
    "__version__",
]
