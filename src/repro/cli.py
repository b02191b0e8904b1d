"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``train``      — collect data and train the hybrid model for an app,
* ``run``        — deploy a manager against a load and report the episode
  (``--fault-profile`` injects crashes / stragglers / telemetry faults;
  ``--continuous`` turns on the Sinan continuous-learning loop),
* ``retrain``    — the end-to-end drift scenario: a capacity regression
  invalidates the deploy-time model, the drift detector fires, a
  challenger is fine-tuned in the background, shadowed, and promoted;
  reports post-promotion QoS against a frozen incumbent on the same
  seeded episode,
* ``sweep``      — the Figure 11 protocol: managers x loads comparison,
* ``resilience`` — fault profiles x managers sweep with recovery metrics,
* ``multitenant`` — N apps sharing one finite cluster: per-tenant Sinan
  schedulers under credit-based arbitration, compared against
  equal-capacity static partitioning (exit 1 if credit loses the
  aggregate-QoS-at-equal-CPU comparison),
* ``explain``    — LIME-style tier/resource attribution for a model,
* ``audit``      — inspect a decision audit log written by
  ``run --audit-out`` (table overview, or ``--interval`` for one
  decision's full explanation).

``run`` and ``resilience`` grow observability exports (see
:mod:`repro.obs`): ``--trace`` writes a Chrome/Perfetto-loadable trace
(or JSONL with a ``.jsonl`` suffix), ``--metrics-out`` a Prometheus
text (or ``.json``) metrics dump, ``--audit-out`` the per-decision
audit JSONL.  Without these flags observability stays off and episodes
are bitwise-identical to pre-instrumentation runs.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app",
        choices=("social_network", "hotel_reservation", "media_service"),
        default="social_network",
        help="application to manage",
    )
    parser.add_argument("--budget", default=None,
                        help="pipeline budget: small / medium / large")
    parser.add_argument("--seed", type=int, default=0)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan episodes out over N worker processes "
             "(0 = one per CPU; default: $REPRO_JOBS, else serial). "
             "Fanned-out calls share a warm worker pool that broadcasts "
             "the model once",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a trace of the episode: Chrome trace_event JSON "
             "(chrome://tracing / Perfetto), or JSONL when PATH ends "
             "in .jsonl",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write episode metrics: Prometheus text format, or JSON "
             "when PATH ends in .json",
    )
    parser.add_argument(
        "--audit-out", default=None, metavar="PATH",
        help="write the scheduler decision audit log as JSONL "
             "(inspect with 'repro audit PATH')",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="K",
        help="trace every K-th interval/request (default 1 = all)",
    )


def _make_cli_recorder(args):
    """Build an ActiveRecorder for whichever artifacts were requested,
    or ``None`` when observability should stay off entirely."""
    if not (args.trace or args.metrics_out or args.audit_out):
        return None
    from repro.obs import ActiveRecorder, AuditLog, MetricsRegistry, Tracer

    return ActiveRecorder(
        metrics=MetricsRegistry() if args.metrics_out else None,
        tracer=Tracer(sample_every=max(args.trace_sample, 1))
        if args.trace else None,
        audit_log=AuditLog() if args.audit_out else None,
        all_pillars=False,
    )


def _write_obs_artifacts(args, recorder) -> None:
    if recorder is None:
        return
    if args.trace:
        recorder.tracer.write(args.trace)
        print(f"wrote trace: {args.trace} ({len(recorder.tracer)} spans)")
    if args.metrics_out:
        recorder.metrics.write(args.metrics_out)
        print(f"wrote metrics: {args.metrics_out}")
    if args.audit_out:
        recorder.audit_log.write_jsonl(args.audit_out)
        print(f"wrote audit log: {args.audit_out} "
              f"({len(recorder.audit_log)} decisions)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sinan (ASPLOS'21) reproduction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="collect data and train the model")
    _add_common(train)
    _add_jobs(train)
    train.add_argument("--no-cache", action="store_true",
                       help="retrain even if a cached model exists "
                            "(the fresh model still refreshes the cache)")

    from repro.sim.faults import FAULT_PROFILES

    managers = ("sinan", "autoscale-opt", "autoscale-cons", "powerchief",
                "static")

    run = sub.add_parser("run", help="run one manager/load episode")
    _add_common(run)
    run.add_argument("--manager", default="sinan", choices=managers)
    run.add_argument("--users", type=float, default=250)
    run.add_argument("--duration", type=int, default=150)
    run.add_argument("--fault-profile", default=None,
                     choices=sorted(FAULT_PROFILES),
                     help="inject a named fault profile into the episode")
    run.add_argument("--continuous", action="store_true",
                     help="wrap the manager in the continuous-learning "
                          "loop: drift detection, background retraining, "
                          "shadow promotion (sinan only)")
    _add_obs(run)

    retrain = sub.add_parser(
        "retrain",
        help="end-to-end drift scenario: detect, retrain, shadow, promote",
    )
    _add_common(retrain)
    _add_jobs(retrain)
    retrain.add_argument("--users", type=float, default=250)
    retrain.add_argument("--duration", type=int, default=240)
    retrain.add_argument("--drift-start", type=float, default=60.0,
                         help="episode time (s) the capacity regression "
                              "begins")
    retrain.add_argument("--drift-ramp", type=float, default=30.0,
                         help="seconds over which capacity ramps down")
    retrain.add_argument("--drift-capacity", type=float, default=0.55,
                         help="final capacity fraction after the drift")
    retrain.add_argument("--registry", default=None, metavar="DIR",
                         help="persist model versions and the manifest "
                              "to DIR (default: in-memory only)")
    retrain.add_argument("--require-promotion", action="store_true",
                         help="exit non-zero unless a challenger was "
                              "promoted during the episode")
    _add_obs(retrain)

    sweep = sub.add_parser("sweep", help="Figure 11 comparison sweep")
    _add_common(sweep)
    _add_jobs(sweep)
    sweep.add_argument("--duration", type=int, default=150)
    sweep.add_argument(
        "--managers", default="sinan,autoscale-opt,autoscale-cons,powerchief"
    )

    resilience = sub.add_parser(
        "resilience", help="fault profiles x managers resilience sweep"
    )
    _add_common(resilience)
    _add_jobs(resilience)
    resilience.add_argument("--users", type=float, default=250)
    resilience.add_argument("--duration", type=int, default=120)
    resilience.add_argument(
        "--profiles", default="crash-storm,telemetry-dropout",
        help="comma-separated fault profile names "
             f"(available: {','.join(sorted(FAULT_PROFILES))})",
    )
    resilience.add_argument(
        "--managers", default="sinan,autoscale-cons,static",
        help="comma-separated manager names",
    )
    resilience.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write harness metrics (episode counts/failures/durations): "
             "Prometheus text, or JSON when PATH ends in .json",
    )

    multitenant = sub.add_parser(
        "multitenant",
        help="N tenants sharing one cluster: credit arbitration vs "
             "equal static partitions",
    )
    multitenant.add_argument("--budget", default=None,
                             help="pipeline budget: small / medium / large")
    multitenant.add_argument("--seed", type=int, default=0)
    multitenant.add_argument("--seeds", type=int, default=1, metavar="N",
                             help="paired (credit, static) episode seeds")
    multitenant.add_argument("--cluster-cpu", type=float, default=240.0,
                             help="shared cluster CPU budget (cores)")
    multitenant.add_argument("--duration", type=int, default=160)
    multitenant.add_argument("--manager", default="sinan",
                             choices=("sinan", "autoscale-opt",
                                      "autoscale-cons", "powerchief"),
                             help="per-tenant scheduler in the credit arm "
                                  "(the static arm always uses static "
                                  "provisioning)")
    _add_jobs(multitenant)
    _add_obs(multitenant)

    explain = sub.add_parser("explain", help="attribute tail latency to tiers")
    _add_common(explain)
    explain.add_argument("--tier", default=None,
                         help="also rank this tier's resource channels")

    audit = sub.add_parser(
        "audit", help="inspect a decision audit log (from run --audit-out)"
    )
    audit.add_argument("file", help="audit JSONL file to read")
    audit.add_argument("--interval", type=int, default=None, metavar="N",
                       help="explain the decision at interval N in full "
                            "(default: one-line-per-decision table)")
    audit.add_argument("--qos", type=float, default=None, metavar="MS",
                       help="QoS target in ms, to annotate violations")
    audit.add_argument("--last", type=int, default=None, metavar="K",
                       help="limit the table to the last K decisions")
    return parser


def _make_manager(name: str, predictor, spec, graph):
    from repro.harness.pipeline import make_manager

    return make_manager(name, graph, spec.qos, predictor)


def cmd_train(args) -> int:
    from repro.harness.pipeline import get_trained_predictor

    # --no-cache skips only the cache *read*: the model is retrained
    # from scratch and the fresh result still refreshes the disk cache.
    predictor = get_trained_predictor(
        args.app, args.budget, seed=args.seed,
        read_cache=not args.no_cache, jobs=args.jobs,
    )
    report = predictor.report
    print(f"trained {args.app}: {report.n_train} train samples")
    print(f"  CNN val RMSE: {report.rmse_val:.1f} ms")
    print(f"  BT val accuracy: {report.bt_accuracy_val:.3f} "
          f"(FP {report.bt_false_pos_val:.3f}, FN {report.bt_false_neg_val:.3f}, "
          f"{report.bt_trees} trees)")
    return 0


def cmd_run(args) -> int:
    from repro.harness.experiment import run_episode
    from repro.harness.pipeline import app_spec, get_trained_predictor, make_cluster
    from repro.harness.resilience import run_resilience_episode

    spec = app_spec(args.app)
    graph = spec.graph_factory()
    predictor = None
    if args.manager == "sinan":
        predictor = get_trained_predictor(args.app, args.budget, seed=args.seed)
    if args.continuous:
        if args.manager != "sinan":
            print("--continuous requires --manager sinan", file=sys.stderr)
            return 2
        from repro.core.retrain import ContinuousSinanManager
        from repro.harness.continuous import BoundaryCollector

        manager = ContinuousSinanManager(
            predictor, spec.qos,
            collect=BoundaryCollector(
                graph, spec.qos,
                loads=(args.users * 0.6, args.users, args.users * 1.5),
            ),
            graph=graph,
        )
    else:
        manager = _make_manager(args.manager, predictor, spec, graph)
    cluster = make_cluster(graph, args.users, seed=args.seed,
                           fault_profile=args.fault_profile)
    warmup = min(30, args.duration // 4)
    recorder = _make_cli_recorder(args)
    if args.fault_profile:
        result = run_resilience_episode(
            manager, cluster, args.duration, spec.qos, warmup=warmup,
            recorder=recorder,
        )
    else:
        result = run_episode(manager, cluster, args.duration, spec.qos,
                             warmup=warmup, recorder=recorder)
    print(f"{manager.name} @ {args.users:g} users for {args.duration}s:")
    print(f"  mean CPU: {result.mean_total_cpu:.1f} cores "
          f"(max {result.max_total_cpu:.1f})")
    print(f"  P(meet QoS): {result.qos_fraction:.3f} "
          f"(QoS = {spec.qos.latency_ms:.0f} ms p99)")
    if args.fault_profile:
        print(f"  faults: {result.n_faults} injected "
              f"({args.fault_profile}), mean recovery "
              f"{result.mean_recovery:.1f} intervals, telemetry "
              f"{result.dropped_intervals} dropped / "
              f"{result.corrupted_intervals} corrupted")
        if result.mispredictions is not None:
            print(f"  safety: {result.mispredictions} mispredictions, "
                  f"{result.fallbacks} max-alloc fallbacks "
                  f"({result.predictor_failures} predictor failures), "
                  f"trusted={result.trusted}")
    if args.continuous:
        print(f"  continuous: {len(manager.detector.signals)} drift "
              f"signals, {manager.retrains} retrains, "
              f"{manager.promotions} promotions, "
              f"final state {manager.state} "
              f"(model v{manager.incumbent_version} live)")
    _write_obs_artifacts(args, recorder)
    return 0


def cmd_retrain(args) -> int:
    from repro.core.retrain import ModelRegistry
    from repro.harness.continuous import (
        BoundaryCollector,
        format_drift_scenario,
        run_drift_scenario,
    )
    from repro.harness.pipeline import (
        app_spec,
        get_trained_predictor,
        resolve_budget,
    )
    from repro.sim.behaviors import CapacityDrift

    spec = app_spec(args.app)
    graph = spec.graph_factory()
    predictor = get_trained_predictor(
        args.app, args.budget, seed=args.seed, jobs=args.jobs
    )
    drift = CapacityDrift(
        start=args.drift_start, ramp=args.drift_ramp,
        final_capacity=args.drift_capacity,
    )
    loads = (args.users * 0.6, args.users, args.users * 1.5)
    seconds_per_load = 60
    if resolve_budget(args.budget).name == "small":
        # CI smoke: two loads and shorter sweeps keep the background
        # collection to a few seconds without changing the protocol.
        loads = (args.users, args.users * 1.5)
        seconds_per_load = 40
    collect = BoundaryCollector(
        graph, spec.qos, capacity=args.drift_capacity,
        loads=loads, seconds_per_load=seconds_per_load, jobs=args.jobs,
    )
    registry = ModelRegistry(args.registry) if args.registry else None
    recorder = _make_cli_recorder(args)
    result = run_drift_scenario(
        predictor, graph, spec.qos,
        users=args.users, duration=args.duration, seed=args.seed,
        drift=drift, collect=collect, registry=registry,
        warmup=min(30, args.duration // 4), recorder=recorder,
    )
    print(format_drift_scenario(result))
    if args.registry:
        print(f"model registry: {args.registry} "
              f"(active version {registry.active})")
    _write_obs_artifacts(args, recorder)
    if args.require_promotion and result.continuous.promotions < 1:
        print("no challenger was promoted", file=sys.stderr)
        return 1
    return 0


def cmd_resilience(args) -> int:
    from repro.harness.pipeline import get_trained_predictor
    from repro.harness.resilience import (
        format_resilience_report,
        sweep_resilience,
    )

    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    names = [n.strip() for n in args.managers.split(",") if n.strip()]
    predictor = None
    if "sinan" in names:
        predictor = get_trained_predictor(
            args.app, args.budget, seed=args.seed, jobs=args.jobs
        )
    recorder = None
    if args.metrics_out:
        from repro.obs import ActiveRecorder, MetricsRegistry

        recorder = ActiveRecorder(
            metrics=MetricsRegistry(), all_pillars=False
        )
    results = sweep_resilience(
        args.app, profiles, names,
        users=args.users, duration=args.duration, seed=args.seed,
        warmup=min(30, args.duration // 4), predictor=predictor,
        jobs=args.jobs, recorder=recorder,
    )
    print(format_resilience_report(results))
    if recorder is not None:
        recorder.metrics.write(args.metrics_out)
        print(f"wrote metrics: {args.metrics_out}")
    return 0


def _sweep_cell_episode(app, manager_name, users, seed, duration, predictor):
    """One (manager, load) cell of the Figure 11 sweep — picklable worker."""
    from repro.harness.experiment import run_episode
    from repro.harness.pipeline import app_spec, make_cluster

    spec = app_spec(app)
    graph = spec.graph_factory()
    manager = _make_manager(manager_name, predictor, spec, graph)
    cluster = make_cluster(graph, users, seed=seed)
    return run_episode(manager, cluster, duration, spec.qos,
                       warmup=min(30, duration // 4))


def cmd_sweep(args) -> int:
    from repro.harness.parallel import EpisodeTask, run_episodes
    from repro.harness.pipeline import app_spec, get_trained_predictor
    from repro.harness.reporting import format_table

    spec = app_spec(args.app)
    names = [n.strip() for n in args.managers.split(",") if n.strip()]
    predictor = None
    if "sinan" in names:
        predictor = get_trained_predictor(
            args.app, args.budget, seed=args.seed, jobs=args.jobs
        )

    # The cluster seed depends only on the load, so every manager faces
    # the same workload draw at each user count (a paired comparison).
    tasks = []
    for users in spec.fig11_loads:
        for name in names:
            tasks.append(EpisodeTask(
                index=len(tasks),
                label=f"{name}@{users:g}",
                fn=_sweep_cell_episode,
                kwargs=dict(
                    app=args.app,
                    manager_name=name,
                    users=float(users),
                    seed=args.seed * 997 + int(users),
                    duration=args.duration,
                    predictor=predictor if name == "sinan" else None,
                ),
            ))
    start = time.perf_counter()
    summary = run_episodes(tasks, jobs=args.jobs)
    elapsed = time.perf_counter() - start

    rows = []
    it = iter(summary.outcomes)
    for users in spec.fig11_loads:
        row = [f"{users:g}"]
        for _name in names:
            outcome = next(it)
            if outcome.ok:
                result = outcome.result
                row.append(f"{result.mean_total_cpu:.0f}/{result.qos_fraction:.2f}")
            else:
                row.append("ERR")
        rows.append(row)
    print(format_table(
        ["Users"] + names, rows,
        title=f"{args.app}: mean CPU / P(meet QoS) per manager",
    ))
    print(f"{len(tasks)} episodes in {elapsed:.1f}s "
          f"(jobs={summary.jobs}, {len(summary.failures)} failed)")
    return 1 if len(summary.failures) == len(tasks) else 0


def cmd_multitenant(args) -> int:
    from repro.harness.multitenant import (
        ARMS,
        default_tenant_specs,
        format_multitenant_report,
        run_multitenant_episode,
        sweep_multitenant,
    )
    from repro.harness.pipeline import get_trained_predictor

    specs = default_tenant_specs(manager=args.manager)
    predictors = {}
    if args.manager == "sinan":
        predictors = {
            spec.app: get_trained_predictor(
                spec.app, args.budget, jobs=args.jobs
            )
            for spec in specs
        }
    seeds = [args.seed + 1009 * k for k in range(max(args.seeds, 1))]
    recorder = _make_cli_recorder(args)
    if recorder is not None:
        # Obs artifacts need in-process episodes (the recorder cannot
        # cross worker boundaries); only the credit arm is instrumented
        # so the metrics/audit export is not a two-arm mixture.
        results = []
        for s in seeds:
            for arm in ARMS:
                results.append(run_multitenant_episode(
                    specs, args.cluster_cpu, args.duration, seed=s,
                    arbiter=arm, predictors=predictors,
                    pipeline_budget=args.budget,
                    recorder=recorder if arm == "credit" else None,
                ))
    else:
        results = sweep_multitenant(
            specs, args.cluster_cpu, args.duration, seeds=seeds,
            predictors=predictors, pipeline_budget=args.budget,
            jobs=args.jobs,
        )
    print(format_multitenant_report(results))

    credit = [r for r in results if r.arbiter == "credit"]
    static = [r for r in results if r.arbiter == "static"]
    credit_qos = float(np.mean([r.aggregate_qos_fraction for r in credit]))
    static_qos = float(np.mean([r.aggregate_qos_fraction for r in static]))
    credit_cpu = float(np.mean([r.mean_cluster_cpu for r in credit]))
    static_cpu = float(np.mean([r.mean_cluster_cpu for r in static]))
    contended = float(np.mean([r.contended_fraction for r in credit]))
    ok = credit_qos + 1e-9 >= static_qos and credit_cpu <= static_cpu + 1e-6
    print(f"credit vs static: P(QoS) {credit_qos:.3f} vs {static_qos:.3f}, "
          f"mean cluster CPU {credit_cpu:.1f} vs {static_cpu:.1f} cores "
          f"(budget {args.cluster_cpu:g}, contended "
          f"{contended:.0%} of intervals) -> "
          f"{'OK' if ok else 'REGRESSION'}")
    _write_obs_artifacts(args, recorder)
    return 0 if ok else 1


def cmd_explain(args) -> int:
    from repro.core.interpret import LimeExplainer
    from repro.harness.pipeline import (
        collect_training_data, app_spec, get_trained_predictor,
    )
    from repro.harness.reporting import format_table

    spec = app_spec(args.app)
    predictor = get_trained_predictor(args.app, args.budget, seed=args.seed)
    dataset = collect_training_data(
        spec.graph_factory(), "small", seed=args.seed + 7
    )
    explainer = LimeExplainer(predictor, seed=args.seed)
    tiers = explainer.explain_tiers(dataset, top_k=5)
    print(format_table(
        ["Rank", "Tier", "Weight"],
        [[i + 1, a.name, f"{a.weight:+.1f}"] for i, a in enumerate(tiers)],
        title="Top-5 latency-critical tiers",
    ))
    if args.tier:
        resources = explainer.explain_resources(dataset, tier=args.tier, top_k=3)
        print(format_table(
            ["Rank", "Resource", "Weight"],
            [[i + 1, a.name, f"{a.weight:+.1f}"]
             for i, a in enumerate(resources)],
            title=f"Critical resources of {args.tier}",
        ))
    return 0


def cmd_audit(args) -> int:
    from repro.obs import AuditLog, explain, format_audit_table

    log = AuditLog.read_jsonl(args.file)
    records = log.records()
    if not records:
        print(f"{args.file}: empty audit log")
        return 1
    if args.interval is not None:
        record = log.find(args.interval)
        if record is None:
            intervals = f"{records[0].interval}..{records[-1].interval}"
            print(f"{args.file}: no decision recorded for interval "
                  f"{args.interval} (log covers {intervals})")
            return 1
        print(explain(record, qos_ms=args.qos))
        return 0
    if args.last is not None and args.last > 0:
        records = records[-args.last:]
    print(format_audit_table(records))
    from repro.obs import AuditRecord

    decisions = [r for r in records if isinstance(r, AuditRecord)]
    fallbacks = sum(1 for r in decisions if r.fallback_reason is not None)
    markers = len(records) - len(decisions)
    extra = f", {markers} model/shadow markers" if markers else ""
    print(f"{len(decisions)} decisions ({fallbacks} on safety/fallback "
          f"paths{extra}); 'repro audit {args.file} --interval N' "
          f"explains one")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    # Surface the harness's per-episode progress/timing lines on stderr.
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(message)s"
    )
    handlers = {
        "train": cmd_train,
        "run": cmd_run,
        "retrain": cmd_retrain,
        "sweep": cmd_sweep,
        "resilience": cmd_resilience,
        "multitenant": cmd_multitenant,
        "explain": cmd_explain,
        "audit": cmd_audit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
