"""What runs inside the launcher's child processes.

``prepare`` trains the served predictor into the checkout's cache and
records its provenance; ``shard`` is one measured workload process.
Both print one JSON object as the last line of their standard output.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from sinanbench.host import host_record, host_speed
from sinanbench.tracer import ROOT_SPANS, SPANS, Tracer

#: Untraced/traced unit pairs of a trace run.  Fixed, so every count in
#: the per-layer table repeats exactly at one seed.
TRACE_PAIRS = 2

#: Provenance file of the served predictor, inside the cache directory.
SERVED_RECORD = "served.json"


def prepare(cache_dir: Path, digest: str) -> dict:
    """Train (or find) the served predictor and write its provenance."""
    from repro.harness import pipeline

    from sinanbench.workloads import (
        APP, SERVED_BUDGET, SERVED_SEED, pickle_mb, build_reference_dataset)

    start = time.perf_counter()
    # Serial (jobs=1): the pool's shared-memory broadcast would write
    # outside the checkout, and the model is the same for any jobs.
    predictor = pipeline.get_trained_predictor(
        APP, SERVED_BUDGET, seed=SERVED_SEED, jobs=1)
    reference_samples = build_reference_dataset(cache_dir)
    report = predictor.report
    record = {
        "digest": digest,
        "app": APP,
        "budget": SERVED_BUDGET,
        "seed": SERVED_SEED,
        "prepare_s": time.perf_counter() - start,
        "pickle_mb": pickle_mb(predictor),
        "rmse_val_ms": report.rmse_val,
        "bt_accuracy_val": report.bt_accuracy_val,
        "cnn_epochs": report.cnn_fit.epochs_run,
        "bt_trees": report.bt_trees,
        "samples": report.n_train + report.n_val,
        "reference_samples": reference_samples,
    }
    # Written last and atomically: its presence means the cache is complete.
    tmp = cache_dir / f"{SERVED_RECORD}.tmp"
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(cache_dir / SERVED_RECORD)
    return record


def _layer_metrics(tracer: Tracer, workload, served: dict,
                   untraced: list[float], traced: list[float]) -> dict[str, float]:
    """The per-layer metrics of a traced shard: every span's, and the
    counts of the layers this workload runs."""
    table = tracer.layer_table()
    metrics: dict[str, float] = {}
    for target in SPANS:
        calls, self_s = table.get(target.span, (0, 0.0))
        metrics[f"{target.span}.calls"] = float(calls)
        metrics[f"{target.span}.self_s"] = self_s
    calls = table.get("core.actions.candidates", (0, 0.0))[0]
    if calls:
        metrics["core.scheduler.candidates_per_decision"] = (
            tracer.items.get("core.actions.candidates", 0.0) / calls)
    decide = [s for s in tracer.spans
              if s.name == "core.scheduler.decide" and s.unit >= 0]
    if decide:
        metrics["core.scheduler.decide_ms_p99"] = float(np.percentile(
            [s.end - s.start for s in decide], 99)) * 1e3
        metrics["core.scheduler.decide_samples"] = float(len(decide))
    if workload.serves:
        metrics["core.predictor.pickle_mb"] = served["pickle_mb"]
        metrics["ml.cnn.epochs"] = float(served["cnn_epochs"])
        metrics["ml.boosted_trees.n_trees"] = float(served["bt_trees"])
    metrics.update(workload.counts())
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    metrics["trace.unattributed_s"] = sum(
        self_s for name, (_, self_s) in table.items() if name in ROOT_SPANS)
    return metrics


def shard(workload_name: str, seed: int, index: int, trace: bool, t0: float,
          cache_dir: Path, out_dir: Path) -> dict:
    """Set up one workload process, run its fixed work, check it."""
    from sinanbench.workloads import WORKLOADS

    served = json.loads((cache_dir / SERVED_RECORD).read_text())
    workload = WORKLOADS[workload_name](seed, index, cache_dir)
    workload.probe()
    tracer = Tracer(interval_span=workload.interval_span) if trace else None
    if tracer is not None:
        tracer.install()
        with tracer.root("bench.setup"):
            workload.setup()
        tracer.uninstall()
    else:
        workload.setup()
    setup_s = time.monotonic() - t0

    walls: list[float] = []
    traced: list[float] = []
    # The host's speed right before and right after the first unit.
    calibration = [host_speed()]
    decide_ms: list[float] = []
    for _ in range(TRACE_PAIRS if trace else 1):
        start = time.perf_counter()
        workload.run_unit()
        walls.append(time.perf_counter() - start)
        if not decide_ms:
            calibration.append(host_speed())
            decide_ms = [(end - begin) * 1e3 for begin, end in workload.decisions()]
        if tracer is not None:
            tracer.install()
            start = time.perf_counter()
            with tracer.root("bench.unit"):
                workload.run_unit()
            traced.append(time.perf_counter() - start)
            tracer.uninstall()
    peak_rss_mb = workload.peak_rss_mb()
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "calibration_s": calibration,
        "decide_ms": {"p50": float(np.percentile(decide_ms, 50)),
                      "p90": float(np.percentile(decide_ms, 90))},
        "peak_rss_mb": peak_rss_mb,
        **workload.finish(),
        "host": host_record(),
        "served": served,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, workload, served, walls, traced)
        result["missing_spans"] = tracer.missing
        result["traced_wall_s"] = tracer.wall_s()
        trace_file = out_dir / f"trace-{workload_name}-s{seed}.json"
        trace_file.write_text(json.dumps(tracer.chrome_trace()))
        result["trace_file"] = str(trace_file)
    workload.close()
    return result


__all__ = ["SERVED_RECORD", "TRACE_PAIRS", "prepare", "shard"]
