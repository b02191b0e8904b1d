"""Output checks.  Each returns a list of failure messages (empty = ok).

They take plain arrays and numbers, not live simulator objects, so the
tests can hand them deliberately corrupted results.
"""

from __future__ import annotations

import math

import numpy as np

#: Slack for float comparisons against budgets and bounds (cores).
_EPS = 1e-6


def _finite(named: dict[str, float]) -> list[str]:
    return [f"{name} is not finite ({value!r})"
            for name, value in named.items()
            if not isinstance(value, (int, float)) or not math.isfinite(value)]


def check_control(
    allocs: np.ndarray,
    min_alloc: np.ndarray,
    max_alloc: np.ndarray,
    telemetry_rows: int,
    intervals: int,
    outcome: dict[str, float],
) -> list[str]:
    """Every chosen allocation lies within the per-tier bounds, there is
    one telemetry row per interval, and the outcome metrics are finite."""
    failures = []
    allocs = np.asarray(allocs, dtype=float)
    if allocs.ndim != 2 or allocs.shape[1] != len(min_alloc):
        failures.append(f"allocation matrix has shape {allocs.shape}")
    else:
        low = np.flatnonzero((allocs < min_alloc - _EPS).any(axis=1))
        high = np.flatnonzero((allocs > max_alloc + _EPS).any(axis=1))
        bad = ~np.isfinite(allocs).all(axis=1)
        for label, rows in (("below min_alloc", low), ("above max_alloc", high),
                            ("non-finite", np.flatnonzero(bad))):
            if len(rows):
                failures.append(f"{len(rows)} decisions {label} (first at {rows[0]})")
    if telemetry_rows != intervals:
        failures.append(f"{telemetry_rows} telemetry rows for {intervals} intervals")
    return failures + _finite(outcome)


def check_grants(
    budget: float,
    decisions: list[tuple[dict[str, float], dict[str, float]]],
    applied_cpu: np.ndarray,
) -> list[str]:
    """The shared cluster is never overcommitted.

    ``decisions`` holds each interval's ``(grants, floors)`` from the
    arbiter and ``applied_cpu`` each interval's summed CPU the tenants
    actually ran with.  In every interval the grants sum to at most the
    configured ``budget``, each grant is at least its tenant's floor, and
    the applied CPU is at most the budget too.
    """
    failures = []
    if not decisions:
        return ["no arbitration decisions recorded"]
    for i, (grants, floors) in enumerate(decisions):
        total = sum(grants.values())
        if not total <= budget + _EPS:
            failures.append(f"interval {i}: grants {total:.6f} exceed budget {budget:g}")
        for tenant, grant in grants.items():
            if not grant >= floors[tenant] - _EPS:
                failures.append(
                    f"interval {i}: {tenant} granted {grant:.6f} "
                    f"below its floor {floors[tenant]:.6f}")
    over = np.flatnonzero(~(np.asarray(applied_cpu, dtype=float) <= budget + _EPS))
    if len(over):
        failures.append(f"{len(over)} intervals ran more than the budget {budget:g} "
                        f"(first at {over[0]}: {applied_cpu[over[0]]:.6f})")
    return failures[:5]


def check_same(name: str, first, second) -> list[str]:
    """Two results of the same seeded work are equal bit for bit.

    Arrays compare with ``np.array_equal`` (NaN never equals NaN, so a
    NaN anywhere is a failure too); dicts compare key by key.
    """
    if isinstance(first, dict) and isinstance(second, dict):
        if first.keys() != second.keys():
            return [f"{name}: keys differ"]
        failures = []
        for key in first:
            failures += check_same(f"{name}.{key}", first[key], second[key])
        return failures
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        a, b = np.asarray(first), np.asarray(second)
        if a.shape != b.shape or not np.array_equal(a, b):
            return [f"{name}: arrays differ"]
        return []
    if first != second:
        return [f"{name}: {first!r} != {second!r}"]
    return []


def check_train(
    samples: int, expected_samples: int, outcome: dict[str, float]
) -> list[str]:
    """The dataset has the sample count the budget implies, and the model
    quality figures are finite."""
    failures = []
    if samples != expected_samples:
        failures.append(f"dataset has {samples} samples, budget implies {expected_samples}")
    return failures + _finite(outcome)


__all__ = ["check_control", "check_grants", "check_same", "check_train"]
