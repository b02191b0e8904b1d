"""Oracle for the control loop: the ``Action``-list candidate path.

:func:`candidates_reference` is the paper's Table 1 candidate set as a
list of :class:`~repro.core.actions.Action` objects, one Python loop
per kind: :meth:`ActionSpace._generate_actions`, the generator that
runs without a compiled kernel.  :func:`select_reference` picks among
them with Python ``min``.  The production path — the compiled kernel's
:class:`~repro.core.actions.CandidateSet` matrix and the mask-based
:meth:`OnlineScheduler._select` — must match them row for row and index
for index (``tests/core/test_fast_control.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.actions import Action, ActionKind, ActionSpace
from repro.core.scheduler import OnlineScheduler


def candidates_reference(
    space: ActionSpace,
    current: np.ndarray,
    cpu_util: np.ndarray,
    victims: np.ndarray | None = None,
    allow_scale_down: bool = True,
) -> list[Action]:
    """``space``'s candidate actions from the current allocation and
    utilization, as :meth:`ActionSpace.candidates` takes them, in
    generation order."""
    return space._generate_actions(current, cpu_util, victims, allow_scale_down)


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
            self._generate_actions(current, cpu_util, victims, allow_scale_down)
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
