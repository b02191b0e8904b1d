"""Public API stability: the names downstream users import."""

import importlib

import pytest


PUBLIC_API = {
    "repro": ["__version__", "quick_sinan"],
    "repro.sim": [
        "TierSpec", "TierKind", "AppGraph", "RequestType", "IntervalStats",
        "TelemetryLog", "QueueingEngine", "ClusterSimulator",
        "LOCAL_PLATFORM", "GCE_PLATFORM", "CapacityFault",
    ],
    "repro.apps": [
        "social_network", "hotel_reservation", "media_service",
        "SOCIAL_QOS_MS", "HOTEL_QOS_MS", "MEDIA_QOS_MS", "RedisLogSync",
        "encrypted_posts_variant", "scaled_replicas_variant",
    ],
    "repro.workload": [
        "Workload", "RequestMix", "ConstantLoad", "StepLoad", "DiurnalLoad",
        "RampLoad", "TraceLoad", "SOCIAL_MIXES", "social_mix", "hotel_mix",
        "media_mix",
    ],
    "repro.tenancy": [
        "TenantSpec", "Tenant", "build_tenant", "CreditConfig",
        "CreditLedger", "AllocationRequest", "TenantGrant", "ArbiterDecision",
        "CreditArbiter", "StaticPartitionArbiter", "MultiTenantSimulator",
    ],
    "repro.ml": [
        "SinanDataset", "LatencyScaler", "MSELoss", "ScaledMSELoss",
        "LatencyCNN", "LatencyMLP", "LatencyLSTM", "MultiTaskNN",
        "BoostedTrees", "rmse",
    ],
    "repro.core": [
        "QoSTarget", "WindowEncoder", "build_dataset", "ActionSpace",
        "HybridPredictor", "OnlineScheduler", "SinanManager",
        "BanditExplorer", "DataCollector", "fine_tune_predictor",
        "LimeExplainer", "Manager", "StaticManager",
        "MemoryProvisioner", "BandwidthProvisioner",
        "CentralScheduler", "NodeAgent", "PredictionService",
    ],
    "repro.baselines": ["AutoScale", "PowerChief"],
    "repro.harness": [
        "run_episode", "sweep_loads", "EpisodeResult",
        "build_sinan_pipeline", "get_trained_predictor", "format_table",
        "run_episodes", "resolve_jobs", "EpisodeTask", "RunSummary",
        "run_multitenant_episode", "sweep_multitenant",
        "default_tenant_specs", "format_multitenant_report",
        "MultiTenantResult", "TenantResult",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_names_resolve(module_name):
    """Everything listed in __all__ actually exists."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_public_items_documented():
    """Every public class/function in the core packages has a docstring."""
    import inspect

    for module_name in PUBLIC_API:
        module = importlib.import_module(module_name)
        for name in PUBLIC_API[module_name]:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{module_name}.{name} undocumented"


#: Packages whose exports load on first use (``repro.apps`` is eager).
LAZY_PACKAGES = [
    "repro.baselines", "repro.core", "repro.harness", "repro.ml",
    "repro.obs", "repro.sim", "repro.tenancy", "repro.workload",
]


class TestLazyExports:
    """Exports that load on first use read exactly like eager ones."""

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_each_name_is_its_defining_modules_object(self, package):
        import inspect

        pkg = importlib.import_module(package)
        assert pkg.__all__ == list(pkg._EXPORTS)
        for name in pkg.__all__:
            module = importlib.import_module(pkg._EXPORTS[name])
            obj = getattr(pkg, name)
            assert obj is getattr(module, name), f"{package}.{name}"
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{package}.{name}"
            assert vars(pkg)[name] is obj, f"{package}.{name} not stored"

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_lists_every_export(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_every_export(self, package):
        pkg = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(pkg.__all__)
        for name, value in namespace.items():
            assert value is getattr(pkg, name)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"{package}.*no_such_export"):
            pkg.no_such_export
        assert not hasattr(pkg, "no_such_export")

    def test_app_factories_are_functions_not_modules(self):
        import inspect

        import repro.apps

        for name in ("social_network", "hotel_reservation", "media_service"):
            importlib.import_module(f"repro.apps.{name}")
            factory = getattr(repro.apps, name)
            assert inspect.isfunction(factory), f"repro.apps.{name} is {factory!r}"
            assert factory().n_tiers > 0
