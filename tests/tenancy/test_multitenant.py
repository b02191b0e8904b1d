"""Multi-tenant simulator + harness: lockstep behaviour, determinism,
and fault isolation across tenants.

The determinism suite asserts the subsystem's contract: multi-tenant
traces are bit-identical run-to-run, serial vs pooled (``jobs=2`` on
the warm pool), and a chaos profile injected into one tenant leaves every
other tenant's telemetry bitwise untouched when the cluster is
uncontended.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness.multitenant import (
    default_tenant_specs,
    format_multitenant_report,
    run_multitenant_episode,
    sweep_multitenant,
)
from repro.tenancy import (
    CreditArbiter,
    MultiTenantSimulator,
    TenantSpec,
    build_tenant,
)
from repro.workload.patterns import ConstantLoad, StepLoad

#: Two fast tenants with overlapping step peaks; tight enough budgets
#: make them contend without training any model.
SPECS = [
    TenantSpec("social", "social_network",
               StepLoad(((0, 150), (15, 400), (40, 150))),
               manager="autoscale-cons"),
    TenantSpec("hotel", "hotel_reservation",
               StepLoad(((0, 1200), (20, 3000), (45, 1200))),
               manager="autoscale-cons"),
]
DURATION = 55
BUDGET = 170.0


def build_sim(budget=BUDGET, seed=0, specs=SPECS) -> MultiTenantSimulator:
    tenants = [build_tenant(s, budget_cpu=budget, seed=seed + 7919 * (i + 1))
               for i, s in enumerate(specs)]
    arbiter = CreditArbiter(
        budget, {t.name: t.qos.latency_ms for t in tenants}, seed=seed + 555
    )
    return MultiTenantSimulator(tenants, arbiter)


def telemetry_fingerprint(result, tenant: str):
    t = next(t for t in result.tenants if t.tenant == tenant)
    return (t.telemetry.latency_matrix(), t.telemetry.alloc_matrix(),
            t.telemetry.rps_series())


class TestMultiTenantSimulator:
    def test_duplicate_tenant_names_rejected(self):
        tenants = [build_tenant(SPECS[0], BUDGET, seed=1),
                   build_tenant(dataclasses.replace(SPECS[1], name="social"),
                                BUDGET, seed=2)]
        arbiter = CreditArbiter(BUDGET, {"social": 500.0}, seed=0)
        with pytest.raises(ValueError, match="unique"):
            MultiTenantSimulator(tenants, arbiter)

    def test_budget_below_floors_rejected_at_init(self):
        tenants = [build_tenant(s, budget_cpu=50.0, seed=i) for i, s in
                   enumerate(SPECS)]
        arbiter = CreditArbiter(
            10.0, {t.name: t.qos.latency_ms for t in tenants}
        )
        with pytest.raises(ValueError, match="floors"):
            MultiTenantSimulator(tenants, arbiter)

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ValueError):
            MultiTenantSimulator([], CreditArbiter(100.0, {"a": 500.0}))

    def test_lockstep_advances_all_tenants(self):
        sim = build_sim()
        decisions = sim.run(12)
        assert len(decisions) == 12
        for t in sim.tenants:
            assert len(t.cluster.telemetry) == 12

    def test_grants_never_exceed_budget(self):
        sim = build_sim(budget=150.0)
        for d in sim.run(DURATION):
            assert d.total_granted <= 150.0 + 1e-6

    def test_rerun_is_bit_identical(self):
        sim = build_sim(seed=3)
        sim.run(30)
        first = [t.cluster.telemetry.latency_matrix() for t in sim.tenants]
        sim.run(30)
        second = [t.cluster.telemetry.latency_matrix() for t in sim.tenants]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestRunMultiTenantEpisode:
    def test_scores_every_tenant(self):
        result = run_multitenant_episode(
            SPECS, BUDGET, DURATION, seed=0, arbiter="credit", warmup=5
        )
        assert {t.tenant for t in result.tenants} == {"social", "hotel"}
        for t in result.tenants:
            assert 0.0 <= t.qos_fraction <= 1.0
            assert t.mean_total_cpu > 0
        assert result.mean_cluster_cpu <= BUDGET + 1e-6
        assert sum(result.mode_counts.values()) == DURATION - 5

    def test_contention_occurs_in_the_scenario(self):
        result = run_multitenant_episode(
            SPECS, BUDGET, DURATION, seed=0, arbiter="credit", warmup=5
        )
        assert result.contended_fraction > 0

    def test_static_arm_pins_each_slice(self):
        result = run_multitenant_episode(
            SPECS, BUDGET, DURATION, seed=0, arbiter="static", warmup=5
        )
        assert result.mode_counts == {"static": DURATION - 5}
        for t in result.tenants:
            assert t.manager_name == "static"
            assert t.mean_total_cpu <= BUDGET / len(SPECS) + 1e-6

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(ValueError, match="arbiter"):
            run_multitenant_episode(SPECS, BUDGET, DURATION, arbiter="drf")

    def test_three_heterogeneous_tenants_share_one_cluster(self):
        specs = default_tenant_specs(manager="autoscale-cons")
        result = run_multitenant_episode(
            specs, 240.0, 40, seed=0, arbiter="credit", warmup=5
        )
        assert {t.app for t in result.tenants} == {
            "social_network", "hotel_reservation", "media_service"
        }
        assert result.mean_cluster_cpu <= 240.0 + 1e-6


class TestDeterminism:
    def test_same_seed_same_episode(self):
        a = run_multitenant_episode(SPECS, BUDGET, DURATION, seed=5)
        b = run_multitenant_episode(SPECS, BUDGET, DURATION, seed=5)
        for name in ("social", "hotel"):
            for x, y in zip(telemetry_fingerprint(a, name),
                            telemetry_fingerprint(b, name)):
                assert np.array_equal(x, y)
        assert a.mode_counts == b.mode_counts

    def test_serial_vs_pooled_bitwise_identical(self):
        serial = sweep_multitenant(
            SPECS, BUDGET, DURATION, seeds=[0, 9], jobs=1
        )
        pooled = sweep_multitenant(
            SPECS, BUDGET, DURATION, seeds=[0, 9], jobs=2
        )
        assert len(pooled) == len(serial)
        for r_serial, r_pooled in zip(serial, pooled):
            assert r_serial.arbiter == r_pooled.arbiter
            assert r_serial.mode_counts == r_pooled.mode_counts
            for name in ("social", "hotel"):
                for x, y in zip(
                    telemetry_fingerprint(r_serial, name),
                    telemetry_fingerprint(r_pooled, name),
                ):
                    assert np.array_equal(x, y)

    def test_chaos_on_one_tenant_does_not_perturb_the_other(self):
        # Ample budget: the arbiter always grants in full, so tenant
        # coupling could only come from leaked RNG state — which the
        # determinism contract forbids.
        ample = 900.0
        quiet = [
            TenantSpec("victim", "social_network", ConstantLoad(200),
                       manager="autoscale-cons"),
            TenantSpec("bystander", "hotel_reservation", ConstantLoad(1500),
                       manager="autoscale-cons"),
        ]
        chaotic = [dataclasses.replace(quiet[0], fault_profile="chaos"),
                   quiet[1]]
        base = run_multitenant_episode(quiet, ample, 40, seed=2)
        faulted = run_multitenant_episode(chaotic, ample, 40, seed=2)
        # The faulted tenant's own telemetry must actually differ...
        assert not all(
            np.array_equal(x, y) for x, y in zip(
                telemetry_fingerprint(base, "victim"),
                telemetry_fingerprint(faulted, "victim"),
            )
        )
        # ...while the bystander's streams are bitwise untouched.
        for x, y in zip(telemetry_fingerprint(base, "bystander"),
                        telemetry_fingerprint(faulted, "bystander")):
            assert np.array_equal(x, y)


class TestReporting:
    def test_report_renders_both_tables(self):
        results = sweep_multitenant(SPECS, BUDGET, 25, seeds=[0], warmup=5)
        text = format_multitenant_report(results)
        assert "credit" in text and "static" in text
        assert "social" in text and "hotel" in text
        assert "P(QoS)" in text
