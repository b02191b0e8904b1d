"""Benchmark launcher for the Sinan reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload control --seed 1 --seconds 25 --trace 0

Runs one workload (``train``, ``control`` or ``multitenant``) at one
seed and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric.  Lines before it are a readable
table; the full record (host, source digest, served predictor, checks)
is written under ``.bench_build/perfbench/``.

The first run in a checkout trains the served predictor from the
checkout's own ``src/`` (a minute or two); later runs reuse it until a
file under ``src/`` changes.  Threading is left as the process finds it.
Host times are scaled to a reference host speed measured next to them.
See ``perfbench/NOTES.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sinanbench.host import CALIBRATION_REF_S, source_digest  # noqa: E402
from sinanbench.metrics import combine_shards  # noqa: E402
from sinanbench.tracer import validate_metric_name  # noqa: E402

#: Seconds of a run budgeted per shard: about one shard's duration on
#: the reference host (2 vCPU Xeon: set-up, unit and checks), so a run
#: lasts about ``--seconds``; ``multitenant`` (3.9 s a shard) gets two
#: more shards, as its outcomes come from the fewest decisions per shard.
SHARD_S = {"train": 4.5, "control": 4.4, "multitenant": 3.2}
MIN_SHARDS = 3

#: Wall-clock allowances: training the served predictor (first run in a
#: checkout only), and everything else a run does.
PREPARE_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the roles of the launcher's child processes.
    parser.add_argument("--role", choices=("prepare", "shard"), help=argparse.SUPPRESS)
    parser.add_argument("--shard", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--cache", help=argparse.SUPPRESS)
    parser.add_argument("--digest", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(cache: Path, tmp: Path) -> dict[str, str]:
    """The children's environment: repro from this checkout's ``src``,
    caches and temp files inside the checkout, no ``REPRO_*`` overrides
    from the caller, and every thread setting left alone."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_CACHE_DIR"] = str(cache)
    env["TMPDIR"] = str(tmp)
    return env


def _run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Run one child in its own process group; return its JSON result.

    On timeout the whole group (the child and any pool workers it
    started) is killed and reaped before the error propagates.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {args[:4]} timed out after {timeout:.0f}s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[:4]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _child_main(ns: argparse.Namespace) -> int:
    """Entry of a child process (see ``--role``)."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"repro imported from {repro.__file__}, not this checkout")
    from sinanbench import child

    cache = Path(ns.cache)
    if ns.role == "prepare":
        result = child.prepare(cache, ns.digest)
    else:
        result = child.shard(ns.workload, ns.seed, ns.shard, bool(ns.trace), ns.t0,
                             cache, cache.parent)
    print(json.dumps(result))
    return 0


def _print_table(title: str, metrics: dict[str, float], unit_of: dict[str, str]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit_of[name]}")


def main(argv: list[str] | None = None) -> int:
    ns = _parse(argv)
    if ns.role:
        return _child_main(ns)
    # Terminated from outside: unwind, so _run_child kills and reaps the
    # running child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if ns.workload not in {w["name"] for w in bench["workloads"]}:
        return _fail(f"unknown workload {ns.workload!r}")
    # BENCHMARK.json is the one list of metric names and units.
    try:
        unit_of = {validate_metric_name(m["name"]): m["unit"]
                   for m in bench["per_layer" if ns.trace else "end_to_end"]}
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"bad metric in BENCHMARK.json: {exc}")

    digest = source_digest(ROOT / "src")
    build = ROOT / ".bench_build" / "perfbench"
    # The served predictor and reference set depend on the package source
    # and on the benchmark's own settings.
    cache = build / f"cache-{digest[:16]}-{source_digest(HERE / 'sinanbench')[:8]}"
    tmp = build / "tmp"
    for path in (cache, tmp):
        path.mkdir(parents=True, exist_ok=True)
    env = _child_env(cache, tmp)
    common = ["--workload", ns.workload, "--seed", str(ns.seed),
              "--seconds", str(ns.seconds), "--cache", str(cache)]

    from sinanbench.child import SERVED_RECORD

    try:
        if not (cache / SERVED_RECORD).is_file():
            start = time.monotonic()
            _run_child(["--role", "prepare", "--digest", digest, *common], env,
                       PREPARE_TIMEOUT_S)
            print(f"prepared the served predictor in {time.monotonic() - start:.1f}s",
                  file=sys.stderr)
        n_shards = 1 if ns.trace else max(MIN_SHARDS, round(ns.seconds / SHARD_S[ns.workload]))
        deadline = time.monotonic() + RUN_TIMEOUT_S
        shards = []
        for index in range(n_shards):
            shards.append(_run_child(
                ["--role", "shard", "--shard", str(index), "--trace", str(ns.trace),
                 "--t0", repr(time.monotonic()), *common],
                env, max(deadline - time.monotonic(), 1.0)))
    except RuntimeError as exc:
        return _fail(str(exc))

    failures = [f for shard in shards for f in shard["failures"]]
    attempted = sum(shard["attempted"] for shard in shards)
    failed = sum(shard["failed"] for shard in shards)
    if ns.trace:
        measured = shards[0]["layers"]
        wall = shards[0]["traced_wall_s"]
        summed = sum(v for k, v in measured.items() if k.endswith(".self_s"))
        summed += measured["trace.unattributed_s"]
        print(f"traced wall {wall:.4f}s = layer self times + unattributed "
              f"{summed:.4f}s; missing spans: {shards[0]['missing_spans'] or 'none'}")
    else:
        measured = combine_shards(shards)
    undeclared = sorted(set(measured) - set(unit_of))
    if undeclared:
        return _fail(f"measured metrics missing from BENCHMARK.json: {undeclared}")
    unmeasured = [name for name in unit_of if name not in measured]
    if unmeasured and not ns.trace:
        return _fail(f"end-to-end metrics not measured: {unmeasured}")
    # A per-layer count of a layer this workload does not run reads 0.
    metrics = {name: float(measured.get(name, 0.0)) for name in unit_of}

    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "digest": digest, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "served": shards[0]["served"], "host": shards[0]["host"],
        "shards": [{k: v for k, v in s.items() if k != "layers"} for s in shards],
    }
    results = build / "results"
    results.mkdir(exist_ok=True)
    (results / f"{ns.workload}-s{ns.seed}-t{ns.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    host = record["host"]
    print(f"{ns.workload} seed={ns.seed} shards={len(shards)} digest={digest[:16]} "
          f"served={record['served']['budget']} ({record['served']['pickle_mb']:.1f} MB)")
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} python={host['python']} "
          f"numpy={host['numpy']} blas={host['blas']['name']} "
          f"threads={host['blas']['threads']} sim={host['sim_backend']}")
    if not ns.trace:
        def raw(get):
            return statistics.median(get(shard) for shard in shards)

        speed = raw(lambda shard: statistics.mean(shard["calibration_s"]))
        print(f"host speed: calibration chunk {speed * 1e3:.4f} ms (reference "
              f"{CALIBRATION_REF_S * 1e3:.4f} ms); as measured, setup_s "
              f"{raw(lambda shard: shard['setup_s']):.4f} s, wall_s "
              f"{raw(lambda shard: shard['walls'][0]):.4f} s, decide_ms_p50 "
              f"{raw(lambda shard: shard['decide_ms']['p50']):.4f} ms")
    for failure in failures[:10]:
        print(f"CHECK FAILED: {failure}")
    _print_table("metrics:", metrics, unit_of)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
