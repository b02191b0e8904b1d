"""Experiment harness: episodes, the end-to-end training pipeline, and
report formatting used by the benchmark suite."""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "EpisodeResult": "repro.harness.experiment",
    "run_episode": "repro.harness.experiment",
    "sweep_loads": "repro.harness.experiment",
    "EpisodeOutcome": "repro.harness.parallel",
    "EpisodeTask": "repro.harness.parallel",
    "RunSummary": "repro.harness.parallel",
    "resolve_jobs": "repro.harness.parallel",
    "run_episodes": "repro.harness.parallel",
    "WorkerPool": "repro.harness.pool",
    "close_shared_pool": "repro.harness.pool",
    "shared_pool": "repro.harness.pool",
    "AppSpec": "repro.harness.pipeline",
    "Budget": "repro.harness.pipeline",
    "BUDGETS": "repro.harness.pipeline",
    "app_spec": "repro.harness.pipeline",
    "make_cluster": "repro.harness.pipeline",
    "make_manager": "repro.harness.pipeline",
    "collect_training_data": "repro.harness.pipeline",
    "get_trained_predictor": "repro.harness.pipeline",
    "build_sinan_pipeline": "repro.harness.pipeline",
    "resolve_budget": "repro.harness.pipeline",
    "format_table": "repro.harness.reporting",
    "format_series": "repro.harness.reporting",
    "MultiTenantResult": "repro.harness.multitenant",
    "TenantResult": "repro.harness.multitenant",
    "default_tenant_specs": "repro.harness.multitenant",
    "format_multitenant_report": "repro.harness.multitenant",
    "run_multitenant_episode": "repro.harness.multitenant",
    "sweep_multitenant": "repro.harness.multitenant",
    "ResilienceResult": "repro.harness.resilience",
    "format_resilience_report": "repro.harness.resilience",
    "run_resilience_episode": "repro.harness.resilience",
    "sweep_resilience": "repro.harness.resilience",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
