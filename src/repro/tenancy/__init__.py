"""Multi-tenant shared cluster: credit-based arbitration across apps.

Single-tenant Sinan answers "how few cores does *this* app need to meet
QoS?".  This subsystem asks the follow-on question a shared cluster
forces: when N independently-managed applications want more CPU than
the cluster has, who gets it?

* :mod:`repro.tenancy.credit` — per-tenant credit balances: accrue
  with declared SLO tightness, decay with QoS violations, spent when
  winning contended cores.
* :mod:`repro.tenancy.arbiter` — the :class:`CreditArbiter` resolving
  per-interval requests (credit-weighted DRF when even hold levels
  overflow; knapsack admission of atomic scale-ups otherwise), plus
  the :class:`StaticPartitionArbiter` baseline.
* :mod:`repro.tenancy.tenant` — a :class:`Tenant` bundling one app
  topology, workload pattern, QoS target, and its own scheduler.
* :mod:`repro.tenancy.simulator` — the :class:`MultiTenantSimulator`
  stepping all tenants in lockstep against the shared budget.

The harness entry points are
:func:`repro.harness.multitenant.run_multitenant_episode` and
``repro multitenant`` on the CLI.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "QUANTUM_CPU": "repro.tenancy.arbiter",
    "AllocationRequest": "repro.tenancy.arbiter",
    "ArbiterDecision": "repro.tenancy.arbiter",
    "CreditArbiter": "repro.tenancy.arbiter",
    "StaticPartitionArbiter": "repro.tenancy.arbiter",
    "TenantGrant": "repro.tenancy.arbiter",
    "CreditConfig": "repro.tenancy.credit",
    "CreditLedger": "repro.tenancy.credit",
    "MultiTenantSimulator": "repro.tenancy.simulator",
    "Tenant": "repro.tenancy.tenant",
    "TenantSpec": "repro.tenancy.tenant",
    "build_tenant": "repro.tenancy.tenant",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
