"""Start-up: a process loads only what it runs.

Each test runs a fresh interpreter, since this suite has long since
imported every module.  The invariants: no graph library at all, and
package exports that load on first use (``repro.apps`` stays eager).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``repro run``, ``repro multitenant`` and the benchmark's
#: workload processes import.
RUN_IMPORTS = (
    "repro.harness.pipeline",
    "repro.harness.experiment",
    "repro.harness.multitenant",
    "repro.core.sinan",
    "repro.core.features",
)

#: Modules none of those processes runs.
UNUSED = (
    "networkx",
    "repro.core.retrain",
    "repro.core.interpret",
    "repro.core.deployment",
    "repro.core.auxiliary",
    "repro.harness.pool",
    "repro.harness.resilience",
    "repro.ml.lstm",
    "repro.ml.mlp",
    "repro.ml.multitask",
)

LAZY_PACKAGES = (
    "repro.baselines", "repro.core", "repro.harness", "repro.ml",
    "repro.obs", "repro.sim", "repro.tenancy", "repro.workload",
)

#: Refuses every ``networkx`` import, as on a host without it.
REFUSE_NETWORKX = """
import sys

class RefuseNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseNetworkx())
try:
    import networkx
except ImportError:
    pass
else:
    raise AssertionError("the networkx hook did not refuse the import")
"""


def run_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter on ``src/``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_imports_leave_unused_modules_unloaded():
    out = run_python(f"""
        import importlib, json, sys
        for name in {RUN_IMPORTS!r}:
            importlib.import_module(name)
        print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))
    """)
    assert json.loads(out) == []


def test_package_import_loads_no_submodule():
    """A bare package import loads none of its submodules, and
    ``from package import submodule`` still imports one."""
    out = run_python(f"""
        import importlib, json, sys
        packages = {LAZY_PACKAGES!r}
        for name in packages:
            importlib.import_module(name)
        loaded = sorted(m for m in sys.modules if m.rpartition(".")[0] in packages)
        from repro.harness import pool
        from repro.sim import _ckernel
        print(json.dumps([loaded, pool.__name__, _ckernel.__name__]))
    """)
    assert json.loads(out) == [[], "repro.harness.pool", "repro.sim._ckernel"]


def test_apps_episode_and_decision_run_without_networkx():
    out = run_python(REFUSE_NETWORKX + """
import json

import numpy as np

from repro.apps import hotel_reservation, media_service, social_network
from repro.core.sinan import SinanManager
from repro.harness.bench import BenchConfig, make_synthetic_predictor
from repro.harness.multitenant import default_tenant_specs, run_multitenant_episode
from repro.harness.pipeline import app_spec, make_cluster

tiers = [f().n_tiers for f in (social_network, hotel_reservation, media_service)]
result = run_multitenant_episode(
    default_tenant_specs(manager="autoscale-cons"), 240.0, 20, seed=0,
    warmup=5, jobs=1)
spec = app_spec("social_network")
graph = spec.graph_factory()
manager = SinanManager(
    make_synthetic_predictor(BenchConfig(n_trees=20)), spec.qos, graph)
cluster = make_cluster(graph, 200, seed=0)
cluster.run(8)
alloc = manager.decide(cluster.telemetry)
print(json.dumps({
    "tiers": tiers,
    "tenant_intervals": [len(t.telemetry) for t in result.tenants],
    "alloc_tiers": len(alloc),
    "within_bounds": bool(np.all(graph.min_alloc() <= alloc)
                          and np.all(alloc <= graph.max_alloc())),
    "predictor_failures": manager.predictor_failures,
    "networkx_loaded": "networkx" in sys.modules,
}))
""")
    got = json.loads(out)
    assert got == {
        "tiers": [28, 17, 27],
        "tenant_intervals": [20, 20, 20],
        "alloc_tiers": 28,
        "within_bounds": True,
        "predictor_failures": 0,
        "networkx_loaded": False,
    }
