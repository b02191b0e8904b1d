"""Oracle for the control loop: the ``Action``-list candidate path.

:func:`candidates_reference` builds the paper's Table 1 candidate set as
a list of :class:`~repro.core.actions.Action` objects, one Python loop
per kind, and :func:`select_reference` picks among them with Python
``min``.  The production path — :meth:`ActionSpace.candidates` emitting a
:class:`~repro.core.actions.CandidateSet` matrix and the mask-based
:meth:`OnlineScheduler._select` — must match them row for row and index
for index (``tests/core/test_fast_control.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.actions import (
    SCALE_UP_ALL_RATIOS,
    Action,
    ActionKind,
    ActionSpace,
)
from repro.core.scheduler import OnlineScheduler


def _down_steps(space: ActionSpace, current: np.ndarray, tier: int) -> list[float]:
    steps = {s for s in space.absolute_steps}
    steps |= {current[tier] * r for r in space.relative_steps}
    return sorted(steps)


def candidates_reference(
    space: ActionSpace,
    current: np.ndarray,
    cpu_util: np.ndarray,
    victims: np.ndarray | None = None,
    allow_scale_down: bool = True,
) -> list[Action]:
    """Candidate actions from the current allocation and utilization.

    Parameters
    ----------
    current:
        Current per-tier allocation.
    cpu_util:
        Last interval's per-tier utilization; used to order the
        batch scale-down and to enforce the paper's utilization cap
        (downsizing must not push a tier's projected utilization
        above the cap — the rule that avoids long queues and dropped
        requests during data collection and deployment).
    victims:
        Boolean mask of tiers scaled down within the last t cycles,
        for the Scale Up Victim action.
    allow_scale_down:
        The paper disables resource reclamation while tail latency
        exceeds the expected value; pass ``False`` to do the same.
    """
    current = np.asarray(current, dtype=float)
    cpu_util = np.asarray(cpu_util, dtype=float)
    n = space.n_tiers
    actions: list[Action] = [
        Action(ActionKind.HOLD, current.copy(), "hold")
    ]
    busy = cpu_util * current  # cores actually used last interval

    def util_ok(alloc: np.ndarray) -> bool:
        # The cap constrains only the tiers this action shrinks; a
        # tier that is already hot (and untouched) must not veto
        # reclaiming a different, idle tier.
        shrunk = alloc < current - 1e-12
        if not shrunk.any():
            return True
        projected = busy[shrunk] / np.maximum(alloc[shrunk], 1e-9)
        return bool(np.all(projected <= space.util_cap))

    if allow_scale_down:
        for tier in range(n):
            if current[tier] <= space.min_alloc[tier]:
                continue
            for step in _down_steps(space, current, tier):
                alloc = current.copy()
                alloc[tier] = max(alloc[tier] - step, space.min_alloc[tier])
                if np.allclose(alloc, current):
                    continue
                if not util_ok(alloc):
                    continue
                actions.append(
                    Action(
                        ActionKind.SCALE_DOWN,
                        alloc,
                        f"down tier {tier} by {step:.2f}",
                    )
                )
        order = np.argsort(cpu_util)
        for k in space.batch_sizes:
            k = min(k, n)
            chosen = order[:k]
            for step_desc, stepped in (
                ("0.2", current[chosen] - 0.2),
                ("10%", current[chosen] * 0.9),
            ):
                alloc = current.copy()
                alloc[chosen] = np.maximum(stepped, space.min_alloc[chosen])
                if np.allclose(alloc, current) or not util_ok(alloc):
                    continue
                actions.append(
                    Action(
                        ActionKind.SCALE_DOWN_BATCH,
                        alloc,
                        f"down {k} least-utilized tiers by {step_desc}",
                    )
                )

    for tier in range(n):
        if current[tier] >= space.max_alloc[tier]:
            continue
        for step in _down_steps(space, current, tier):
            alloc = current.copy()
            alloc[tier] = min(alloc[tier] + step, space.max_alloc[tier])
            if np.allclose(alloc, current):
                continue
            actions.append(
                Action(
                    ActionKind.SCALE_UP,
                    alloc,
                    f"up tier {tier} by {step:.2f}",
                )
            )

    for ratio in SCALE_UP_ALL_RATIOS:
        alloc = space._clip(current * (1.0 + ratio))
        if not np.allclose(alloc, current):
            actions.append(
                Action(
                    ActionKind.SCALE_UP_ALL,
                    alloc,
                    f"up all tiers by {int(ratio * 100)}%",
                )
            )

    if victims is not None and victims.any():
        alloc = current.copy()
        alloc[victims] = np.minimum(
            alloc[victims] + 0.6, space.max_alloc[victims]
        )
        if not np.allclose(alloc, current):
            actions.append(
                Action(
                    ActionKind.SCALE_UP_VICTIM,
                    alloc,
                    f"up {int(victims.sum())} recent victim tiers",
                )
            )
    return _dedupe(actions)


def _dedupe(actions: list[Action]) -> list[Action]:
    """Drop candidates whose resulting allocation duplicates another
    (distinct steps clipping to the same ``min_alloc`` /
    ``max_alloc`` boundary), so no allocation is scored twice.

    The *last* occurrence of each allocation wins: the most specific
    kind (e.g. Scale Up Victim, generated after the generic per-tier
    upscales it may coincide with) keeps its label.
    """
    seen: set[tuple] = set()
    unique: list[Action] = []
    for action in reversed(actions):
        key = tuple(np.round(action.alloc, 9))
        if key in seen:
            continue
        seen.add(key)
        unique.append(action)
    unique.reverse()
    return unique


def select_reference(
    scheduler: OnlineScheduler, actions: list[Action], pred_lat: np.ndarray, prob: np.ndarray
) -> int | None:
    """Index of the chosen action, or ``None`` for the max-allocation
    safety fallback."""
    margin = scheduler.qos.latency_ms - scheduler.predictor.rmse_val
    hold_idx = next(
        i for i, a in enumerate(actions) if a.kind is ActionKind.HOLD
    )
    w = scheduler.config.prob_smoothing
    scheduler._hold_p_ewma = (1.0 - w) * scheduler._hold_p_ewma + w * prob[hold_idx]
    hold_ok = scheduler._hold_p_ewma < scheduler.p_up and pred_lat[hold_idx] <= margin

    acceptable: list[int] = []
    for i, action in enumerate(actions):
        if pred_lat[i] > margin:
            continue
        if action.kind in (ActionKind.SCALE_DOWN, ActionKind.SCALE_DOWN_BATCH):
            if prob[i] < scheduler.p_down:
                acceptable.append(i)
        elif action.kind is ActionKind.HOLD:
            if hold_ok:
                acceptable.append(i)
        else:  # scale ups
            if prob[i] < scheduler.p_up:
                acceptable.append(i)

    if not acceptable:
        return None
    if hold_ok:
        # Stable region: only leave hold for a cheaper (scale-down)
        # action; never pay for an upscale the model deems unneeded.
        downs = [
            i
            for i in acceptable
            if actions[i].total_cpu < actions[hold_idx].total_cpu - 1e-9
        ]
        return min(downs, key=lambda i: actions[i].total_cpu, default=hold_idx)
    ups = [i for i in acceptable if actions[i].kind not in
           (ActionKind.SCALE_DOWN, ActionKind.SCALE_DOWN_BATCH, ActionKind.HOLD)]
    if not ups:
        return None
    return min(ups, key=lambda i: actions[i].total_cpu)


class ActionList(list):
    """An ``Action`` list read through the :class:`CandidateSet` fields
    the scheduler uses."""

    @property
    def allocs(self) -> np.ndarray:
        return np.stack([a.alloc for a in self])

    def kind_of(self, index: int) -> ActionKind:
        return self[index].kind


class ReferenceActionSpace(ActionSpace):
    """An action space whose candidates come from the Action-list path."""

    def candidates(self, current, cpu_util, victims=None, allow_scale_down=True):
        return ActionList(
            candidates_reference(self, current, cpu_util, victims, allow_scale_down)
        )


class ReferenceScheduler(OnlineScheduler):
    """A scheduler that selects with the list-based reference rule."""

    def _select(self, actions, pred_lat, prob):
        return select_reference(self, actions, pred_lat, prob)


def use_reference_control(scheduler: OnlineScheduler) -> OnlineScheduler:
    """Switch ``scheduler`` and its action space in place to the
    Action-list candidate generation and selection."""
    scheduler.__class__ = ReferenceScheduler
    scheduler.action_space.__class__ = ReferenceActionSpace
    return scheduler
