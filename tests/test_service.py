"""Tests for the multi-tenant serving layer (PR 4).

Covers the tentpole contract — quotas at the front door, weighted
fair-share ordering under contention, result-cache hit/miss/eviction,
and batched-vs-serial placement identity on the fig2 medical pipeline —
plus the satellite API work: the fluent definition builder and the
runtime entry points' required positional ``app``.
"""

import pytest

from repro.appmodel.annotations import AppBuilder
from repro.cli import main as cli_main
from repro.core.admission import FifoAdmission, WeightedFairShare
from repro.core.builder import define
from repro.core.runtime import UDCRuntime
from repro.core.spec import SpecError, parse_definition
from repro.hardware.devices import DeviceType
from repro.hardware.topology import DatacenterSpec, build_datacenter
from repro.service import QuotaExceeded, TenantQuota, TenantSpec, UDCService
from repro.workloads.medical import build_medical_app

#: one rack, 16 GPUs total: a 16-GPU job owns the whole datacenter
TINY = DatacenterSpec(
    pods=1, racks_per_pod=1,
    devices_per_rack={DeviceType.CPU: 2, DeviceType.GPU: 2,
                      DeviceType.DRAM: 1, DeviceType.SSD: 1},
)


def gpu_job(name, gpus=16, work=20.0):
    app = AppBuilder(name)

    @app.task(name="train", work=work, devices={DeviceType.GPU})
    def train(ctx):
        return name

    return app.build(), {"train": {"resource": {"device": "gpu",
                                                "amount": gpus}}}


def cpu_job(name, work=2.0):
    app = AppBuilder(name)

    @app.task(name="crunch", work=work)
    def crunch(ctx):
        return name

    return app.build(), {"crunch": {"resource": "cheapest"}}


# ---------------------------------------------------------------- quotas


def test_in_flight_quota_rejects_at_the_front_door():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant(
        "t", TenantSpec(quota=TenantQuota(max_in_flight=2)))
    for index in range(2):
        app, spec = cpu_job(f"job{index}")
        service.submit("t", app, spec)
    app, spec = cpu_job("job2")
    with pytest.raises(QuotaExceeded):
        service.submit("t", app, spec)
    assert service.ledger.usage("t").rejected == 1
    # Completion frees the slots: the same submission is accepted after.
    service.drain()
    handle = service.submit("t", app, spec)
    service.drain()
    assert handle.status == "done"


def test_lifetime_quota_is_cumulative():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant(
        "t", TenantSpec(quota=TenantQuota(max_submissions=2)))
    for index in range(2):
        app, spec = cpu_job(f"job{index}")
        service.submit("t", app, spec)
        service.drain()
    app, spec = cpu_job("job2")
    with pytest.raises(QuotaExceeded):
        service.submit("t", app, spec)


def test_quota_rejection_spends_no_capacity():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant(
        "t", TenantSpec(quota=TenantQuota(max_in_flight=1)))
    app, spec = cpu_job("held")
    service.submit("t", app, spec)
    with pytest.raises(QuotaExceeded):
        service.submit("t", *cpu_job("rejected"))
    # The rejected submission never reached the runtime.
    assert len(service.runtime._submissions) == 0  # still buffered
    service.drain()
    assert service.ledger.usage("t").completed == 1


# ------------------------------------------------------- fair share


def test_fair_share_order_under_contention():
    """Weight-3 tenant gets 3 admissions for light tenant's 1, and the
    exact interleaving is deterministic (stride scheduling + seq)."""
    service = UDCService(
        build_datacenter(TINY),
        policy=WeightedFairShare(weights={"heavy": 3.0, "light": 1.0}),
    )
    service.register_tenant("heavy", TenantSpec(weight=3.0))
    service.register_tenant("light", TenantSpec(weight=1.0))
    handles = []
    for index in range(3):  # interleaved submission: h, l, h, l, h, l
        handles.append(service.submit("heavy", *gpu_job(f"h{index}")))
        handles.append(service.submit("light", *gpu_job(f"l{index}")))
    service.drain()
    assert all(h.status == "done" for h in handles)
    started = sorted(handles, key=lambda h: h.submission.submitted_at)
    order = [h.app for h in started]
    # h0 admits first (all vtimes tied, lowest seq).  light then trails
    # one admission for every three heavy ones.
    assert order == ["h0", "l0", "h1", "h2", "l1", "l2"]


def test_fifo_policy_preserves_submission_order():
    service = UDCService(build_datacenter(TINY), policy=FifoAdmission())
    service.register_tenant("heavy", TenantSpec(weight=3.0))
    service.register_tenant("light", TenantSpec(weight=1.0))
    handles = []
    for index in range(2):
        handles.append(service.submit("heavy", *gpu_job(f"h{index}")))
        handles.append(service.submit("light", *gpu_job(f"l{index}")))
    service.drain()
    started = sorted(handles, key=lambda h: h.submission.submitted_at)
    assert [h.app for h in started] == ["h0", "l0", "h1", "l1"]


def test_fairness_index_reporting():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant("a")
    service.register_tenant("b")
    service.submit("a", *cpu_job("a0"))
    service.submit("b", *cpu_job("b0"))
    service.drain()
    assert service.fairness_index() == pytest.approx(1.0)
    service.submit("a", *cpu_job("a1"))
    service.submit("a", *cpu_job("a2"))
    service.drain()
    assert service.fairness_index() < 1.0


# ----------------------------------------------------------- result cache


def test_result_cache_hit_miss_eviction():
    service = UDCService(build_datacenter(TINY), result_cache_capacity=1)
    app, spec = cpu_job("memo")
    first = service.submit("t", app, spec, inputs={"crunch": 1})
    service.drain()
    assert first.status == "done"
    assert service.cache_stats.misses == 1 and service.cache_stats.size == 1

    # Identical resubmission: served from cache, born done, cost credited.
    hit = service.submit("t", app, spec, inputs={"crunch": 1})
    assert hit.status == "cached" and hit.done
    assert hit.result is first.result
    assert service.cache_stats.hits == 1
    assert service.ledger.usage("t").cost_saved == pytest.approx(
        first.result.total_cost)

    # Different inputs miss; finishing evicts the older entry (cap 1).
    other = service.submit("t", app, spec, inputs={"crunch": 2})
    service.drain()
    assert other.status == "done"
    assert service.cache_stats.evictions == 1

    # The evicted entry misses again.
    again = service.submit("t", app, spec, inputs={"crunch": 1})
    assert again.status == "pending"
    assert service.cache_stats.hits == 1
    assert service.cache_stats.misses == 3
    service.drain()


def test_cached_submission_skips_quota():
    service = UDCService(build_datacenter(TINY))
    service.register_tenant(
        "t", TenantSpec(quota=TenantQuota(max_submissions=1)))
    app, spec = cpu_job("memo")
    service.submit("t", app, spec, inputs={"crunch": 1})
    service.drain()
    # Lifetime quota is exhausted, but a cache hit is served anyway: it
    # consumes no capacity.
    hit = service.submit("t", app, spec, inputs={"crunch": 1})
    assert hit.status == "cached"
    with pytest.raises(QuotaExceeded):
        service.submit("t", app, spec, inputs={"crunch": 2})


def test_cache_capacity_zero_disables_memoization():
    service = UDCService(build_datacenter(TINY), result_cache_capacity=0)
    app, spec = cpu_job("memo")
    service.submit("t", app, spec, inputs={"crunch": 1})
    service.drain()
    second = service.submit("t", app, spec, inputs={"crunch": 1})
    assert second.status == "pending"
    service.drain()
    assert service.cache_stats.size == 0


# ----------------------------------------- batched vs serial placement


def _placement_bytes(service):
    """Serialize every submission's placements at physical-device
    granularity.  Device ids are globally numbered across datacenter
    instances, so they are normalized to per-datacenter positions."""
    datacenter = service.runtime.datacenter
    position = {device.device_id: index
                for index, device in enumerate(datacenter.devices)}
    rows = []
    for handle in service.handles:
        result = handle.result
        placed = []
        for name in sorted(result.objects):
            obj = result.objects[name]
            placed.append((name, [(position[a.device.device_id], a.amount)
                                  for a in obj.allocations]))
        table = [(row.name, row.kind, row.device, row.amount, row.env,
                  row.replication) for row in result.rows]
        rows.append((placed, table))
    return repr(rows).encode()


def test_batched_placements_byte_identical_on_medical():
    """Batched mode (admission memo + batch telemetry) must not change a
    single placement decision vs serial submission in the same order."""
    app, definition = build_medical_app()
    streams = {}
    for batched in (False, True):
        service = UDCService(build_datacenter(DatacenterSpec()),
                             batched=batched, result_cache_capacity=0)
        for index in range(4):
            service.submit("hospital", app, definition,
                           inputs={"A1": index})
        service.drain()
        assert all(h.status == "done" for h in service.handles)
        streams[batched] = _placement_bytes(service)
    assert streams[False] == streams[True]


def test_plan_rows_identical_under_batch_round():
    # plan() releases its allocations, so the same runtime can preview
    # the same stream twice — once serial, once under a batch round —
    # and must report identical rows.
    app, definition = build_medical_app()
    runtime = UDCRuntime(build_datacenter(DatacenterSpec()))
    serial_rows = [runtime.plan(app, definition) for _ in range(3)]
    with runtime.scheduler.batch_round(3):
        batched_rows = [runtime.plan(app, definition) for _ in range(3)]
    assert repr(serial_rows) == repr(batched_rows)


def test_admission_memo_reused_across_identical_apps():
    app, definition = build_medical_app()
    service = UDCService(build_datacenter(DatacenterSpec()),
                         result_cache_capacity=0)
    for index in range(3):
        service.submit("hospital", app, definition, inputs={"A1": index})
    service.drain()
    memo = service.runtime.admission_memo
    assert memo is not None
    assert memo.stats.hits == 2  # first admission built the template


# ------------------------------------------ runtime entry points


def test_runtime_entry_points_reject_missing_app_and_unknown_keywords():
    runtime = UDCRuntime(build_datacenter(TINY))
    app, spec = cpu_job("positional")
    for entry in (runtime.run, runtime.submit, runtime.plan):
        with pytest.raises(TypeError, match="missing 1 required"):
            entry(definition=spec)
        with pytest.raises(TypeError, match="unexpected keyword"):
            entry(app, spec, dag=app)
    assert runtime.run(app, spec).outputs["crunch"] == "positional"


# ------------------------------------------------------ fluent builder


def test_builder_compiles_identically_to_raw_dict():
    raw = {
        "infer": {"resource": {"device": "gpu", "amount": 1},
                  "execenv": {"isolation": "strong"}},
        "store": {"resource": "ssd",
                  "distributed": {"replication": 2,
                                  "consistency": "sequential"}},
    }
    built = (define()
             .module("infer").resource(device="gpu", amount=1)
                             .execenv(isolation="strong")
             .module("store").resource("ssd")
                             .distributed(replication=2,
                                          consistency="sequential"))
    assert repr(sorted(built.build().bundles.items())) == \
        repr(sorted(parse_definition(raw).bundles.items()))


def test_builder_spec_errors_match_raw_dict():
    with pytest.raises(SpecError) as from_builder:
        define().module("x").resource(device="quantum").build()
    with pytest.raises(SpecError) as from_raw:
        parse_definition({"x": {"resource": {"device": "quantum"}}})
    assert str(from_builder.value) == str(from_raw.value)


def test_builder_accepted_by_runtime_and_service():
    runtime = UDCRuntime(build_datacenter(TINY))
    app, _ = cpu_job("fluent")
    builder = define().module("crunch").resource("cheapest")
    result = runtime.run(app, builder)
    assert result.outputs["crunch"] == "fluent"

    service = UDCService(build_datacenter(TINY))
    handle = service.submit("t", app, builder)
    service.drain()
    assert handle.status == "done"


# ----------------------------------------------------------------- CLI


def test_cli_serve_smoke(capsys):
    rc = cli_main(["serve", "--tenants", "3", "--minutes", "5",
                   "--rate", "0.3", "--round-every", "4", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"fairness_completed"' in out
    assert '"tenants"' in out


# ------------------------------------------------- handle result access


def test_outputs_raises_before_drain_not_silent_empty():
    """Regression: an unfinished handle's ``outputs`` used to answer
    ``{}`` — indistinguishable from "finished with no outputs", hiding
    lost results.  It must raise until the drain finalizes the result."""
    from repro.service import ResultNotReady

    service = UDCService(build_datacenter(TINY))
    dag, definition = cpu_job("r1")
    handle = service.submit("t", dag, definition)
    assert handle.status == "pending"  # batched: buffered, not dispatched
    with pytest.raises(ResultNotReady, match="no result yet"):
        handle.outputs
    assert handle.outputs_or_none() is None

    service.drain()
    assert handle.done
    assert handle.outputs["crunch"] == "r1"
    assert handle.outputs_or_none() == handle.outputs


def test_outputs_ready_immediately_for_cache_hits():
    service = UDCService(build_datacenter(TINY))
    dag, definition = cpu_job("r2")
    first = service.submit("t", dag, definition)
    service.drain()
    hit = service.submit("t", dag, definition)
    assert hit.cached
    assert hit.outputs == first.outputs
