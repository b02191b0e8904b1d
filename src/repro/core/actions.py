"""The pruned resource-allocation action space (paper Table 1).

Evaluating every possible allocation online is intractable; Sinan only
scores a heuristic candidate set per interval:

=================  ====================================================
Scale Down         reduce the CPU limit of 1 tier
Scale Down Batch   reduce the CPU limit of the k least-utilized tiers
Hold               keep the current allocation
Scale Up           increase the CPU limit of 1 tier
Scale Up All       increase the CPU limit of all tiers
Scale Up Victim    increase recently-downscaled tiers
=================  ====================================================

Per-tier steps follow the AWS step-scaling tutorial the paper cites:
absolute steps of 0.2 up to 1.0 CPU, and relative steps of 10% or 30%
of the tier's allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.sim import _ckernel


class ActionKind(enum.Enum):
    SCALE_DOWN = "scale_down"
    SCALE_DOWN_BATCH = "scale_down_batch"
    HOLD = "hold"
    SCALE_UP = "scale_up"
    SCALE_UP_ALL = "scale_up_all"
    SCALE_UP_VICTIM = "scale_up_victim"


#: Stable integer codes for :class:`ActionKind`, used by the control
#: loop (:meth:`ActionSpace.candidates`) so candidate kinds travel as one
#: int array instead of per-object enum references.
KINDS_BY_CODE: tuple[ActionKind, ...] = tuple(ActionKind)
KIND_CODES: dict[ActionKind, int] = {k: i for i, k in enumerate(KINDS_BY_CODE)}
#: The kinds' codes in generation order, for the compiled generator.
_GENERATION_CODES = np.array(
    [
        KIND_CODES[kind]
        for kind in (
            ActionKind.HOLD,
            ActionKind.SCALE_DOWN,
            ActionKind.SCALE_DOWN_BATCH,
            ActionKind.SCALE_UP,
            ActionKind.SCALE_UP_ALL,
            ActionKind.SCALE_UP_VICTIM,
        )
    ],
    dtype=np.int64,
)


@dataclass(frozen=True)
class Action:
    """One allocation and its provenance: the scheduler's safety
    fallback (:meth:`ActionSpace.max_allocation_action`), and each row
    of the candidate generator that runs without the compiled kernel."""

    kind: ActionKind
    alloc: np.ndarray
    description: str

    @property
    def total_cpu(self) -> float:
        return float(self.alloc.sum())


@dataclass(frozen=True)
class CandidateSet:
    """One decision's candidate actions as parallel arrays.

    Row ``i`` of :attr:`allocs` is candidate ``i``'s allocation; its
    kind and total CPU sit at index ``i`` of :attr:`kinds` and
    :attr:`total_cpu`.  Rows keep generation order (see
    :meth:`ActionSpace.candidates`).
    """

    allocs: np.ndarray
    """``(B, n_tiers)`` candidate allocation matrix."""
    kinds: np.ndarray
    """``(B,)`` int codes into :data:`KINDS_BY_CODE`."""
    total_cpu: np.ndarray
    """``(B,)`` row sums of :attr:`allocs`."""

    def __len__(self) -> int:
        return self.allocs.shape[0]

    def kind_of(self, index: int) -> ActionKind:
        return KINDS_BY_CODE[int(self.kinds[index])]


#: Absolute per-tier CPU steps (cores), per the paper: 0.2 up to 1.0.
ABSOLUTE_STEPS: tuple[float, ...] = (0.2, 0.6, 1.0)
#: Relative per-tier steps, per the AWS step-scaling tutorial.
RELATIVE_STEPS: tuple[float, ...] = (0.1, 0.3)
#: Whole-application upscale ratios evaluated for Scale Up All.  The
#: larger ratios let the scheduler respond to a predicted violation with
#: a right-sized boost instead of falling through to the max-allocation
#: safety action.
SCALE_UP_ALL_RATIOS: tuple[float, ...] = (0.1, 0.3, 0.6, 1.0)


class ActionSpace:
    """Generates the Table 1 candidate set for one decision."""

    def __init__(
        self,
        min_alloc: np.ndarray,
        max_alloc: np.ndarray,
        absolute_steps: tuple[float, ...] = ABSOLUTE_STEPS,
        relative_steps: tuple[float, ...] = RELATIVE_STEPS,
        batch_sizes: tuple[int, ...] = (2, 4, 8, 1_000_000),
        util_cap: float = 0.6,
    ) -> None:
        self.min_alloc = np.ascontiguousarray(min_alloc, dtype=float)
        self.max_alloc = np.ascontiguousarray(max_alloc, dtype=float)
        lo, hi = self.min_alloc, self.max_alloc
        if lo.ndim != 1 or not lo.size or hi.shape != lo.shape:
            raise ValueError(
                "min_alloc and max_alloc must be 1-D, one entry per tier"
            )
        self.absolute_steps = absolute_steps
        self.relative_steps = relative_steps
        self.batch_sizes = batch_sizes
        self.util_cap = util_cap

    @property
    def n_tiers(self) -> int:
        return len(self.min_alloc)

    def _clip(self, alloc: np.ndarray) -> np.ndarray:
        return np.clip(alloc, self.min_alloc, self.max_alloc)

    def candidates(
        self,
        current: np.ndarray,
        cpu_util: np.ndarray,
        victims: np.ndarray | None = None,
        allow_scale_down: bool = True,
    ) -> CandidateSet:
        """Candidate actions from the current allocation and utilization.

        Rows come in generation order: hold, the per-tier scale-downs
        (tier by tier, each tier's step menu ascending), the batch
        scale-downs, the per-tier scale-ups, the scale-up-all ratios,
        and the victim boost.  A candidate that would not change the
        allocation is skipped, and rows that are equal after rounding to
        9 decimals keep only their last occurrence.

        The compiled kernel's ``sinan_candidates``
        (:mod:`repro.sim._ckernel`) builds the rows when it loads.
        Without it, :meth:`_generate_actions` builds them as a list of
        :class:`Action`, one Python loop per kind, and they are stacked
        into the matrix.  That list is the kernel's pin: both give the
        same rows, kinds and sums, bit for bit.
        :attr:`CandidateSet.allocs` is a C-contiguous float64 matrix and
        its ``total_cpu`` numpy's own row sums: the kernel adds each row
        in numpy's pairwise order.

        Parameters
        ----------
        current:
            Current per-tier allocation: ``n_tiers`` finite values.
        cpu_util:
            Last interval's per-tier utilization, ``n_tiers`` finite
            values; used to order the batch scale-down and to enforce
            the paper's utilization cap (downsizing must not push a
            tier's projected utilization above the cap — the rule that
            avoids long queues and dropped requests during data
            collection and deployment).  The cap constrains only the
            tiers an action shrinks.
        victims:
            Boolean mask of tiers scaled down within the last t cycles,
            for the Scale Up Victim action, or ``None``.
        allow_scale_down:
            The paper disables resource reclamation while tail latency
            exceeds the expected value; pass ``False`` to do the same.

        Raises
        ------
        ValueError
            If ``current`` or ``cpu_util`` is not 1-D with ``n_tiers``
            finite values, or ``victims`` is neither ``None`` nor a
            boolean mask of ``n_tiers`` entries.  The scheduler passes
            sanitized telemetry, so only a caller's bug raises.
        """
        n = self.n_tiers
        current = np.asarray(current, dtype=float)
        cpu_util = np.asarray(cpu_util, dtype=float)
        if current.shape != (n,) or cpu_util.shape != (n,):
            raise ValueError(
                f"current and cpu_util need {n} entries, one per tier; "
                f"got shapes {current.shape} and {cpu_util.shape}"
            )
        if not (np.isfinite(current).all() and np.isfinite(cpu_util).all()):
            raise ValueError("current and cpu_util must be finite")
        if victims is not None:
            victims = np.asarray(victims)
            if victims.dtype != bool or victims.shape != (n,):
                raise ValueError(
                    f"victims must be None or a boolean mask of {n} entries"
                )
        kernel = _ckernel.load_kernel()
        if kernel is None:
            actions = self._generate_actions(
                current, cpu_util, victims, allow_scale_down
            )
            allocs = np.stack([a.alloc for a in actions])
            kinds = np.array([KIND_CODES[a.kind] for a in actions], dtype=np.int64)
            total_cpu = allocs.sum(axis=1)
        else:
            allocs, kinds, total_cpu = self._generate_compiled(
                kernel, current, cpu_util, victims, allow_scale_down
            )
        return CandidateSet(allocs=allocs, kinds=kinds, total_cpu=total_cpu)

    def _generate_compiled(
        self,
        kernel: tuple,
        current: np.ndarray,
        cpu_util: np.ndarray,
        victims: np.ndarray | None,
        allow_scale_down: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`candidates`' rows, kind codes and row sums from the
        kernel, into buffers sized from this space's step menu, batch
        sizes and ratios.  The batch scale-downs take numpy's ``argsort``
        order, so tied utilizations pick the tiers
        :meth:`_generate_actions` picks."""
        ffi, lib = kernel
        n = self.n_tiers
        n_abs, n_rel = len(self.absolute_steps), len(self.relative_steps)
        n_ratios = len(SCALE_UP_ALL_RATIOS)
        constants = np.array(
            (*self.absolute_steps, *self.relative_steps, *SCALE_UP_ALL_RATIOS),
            dtype=float,
        )
        # How many tiers ``order[:k]`` holds, for each batch size k.
        batch_n = np.array(
            [len(range(n)[:k]) for k in self.batch_sizes], dtype=np.intp
        )
        rows = 2 + 2 * n * (n_abs + n_rel) + 2 * batch_n.size + n_ratios
        table_size = 1 << (2 * rows - 1).bit_length()
        allocs = np.empty((rows, n))
        kinds = np.empty(rows, dtype=np.int64)
        total_cpu = np.empty(rows)
        menu = np.empty(n * (n_abs + n_rel))
        work = np.empty(n + table_size + rows, dtype=np.uint64)

        def buf(ctype: str, a: np.ndarray):
            return ffi.from_buffer(f"{ctype}[]", a)

        if allow_scale_down:
            order = buf("intptr_t", np.argsort(cpu_util))
        else:
            order = ffi.NULL
        if victims is None:
            mask = ffi.NULL
        else:
            mask = buf("uint8_t", np.ascontiguousarray(victims).view(np.uint8))
        b = lib.sinan_candidates(
            n,
            buf("double", np.ascontiguousarray(current)),
            buf("double", np.ascontiguousarray(cpu_util)),
            buf("double", self.min_alloc), buf("double", self.max_alloc),
            n_abs, n_rel, n_ratios, buf("double", constants),
            self.util_cap, 1 if allow_scale_down else 0, order,
            batch_n.size, buf("intptr_t", batch_n), mask,
            buf("int64_t", _GENERATION_CODES), buf("double", menu),
            buf("uint64_t", work), table_size,
            buf("double", allocs), buf("int64_t", kinds),
            buf("double", total_cpu),
        )
        # Copies of the b rows: a caller keeping them keeps b rows, not
        # the capacity.
        return allocs[:b].copy(), kinds[:b], total_cpu[:b].copy()

    def _steps(self, current: np.ndarray, tier: int) -> list[float]:
        """The tier's step menu, ascending: the absolute steps and its
        relative ones, exact repeats once."""
        steps = set(self.absolute_steps)
        steps |= {current[tier] * r for r in self.relative_steps}
        return sorted(steps)

    def _generate_actions(
        self,
        current: np.ndarray,
        cpu_util: np.ndarray,
        victims: np.ndarray | None = None,
        allow_scale_down: bool = True,
    ) -> list[Action]:
        """:meth:`candidates`' rows as a list of :class:`Action`, in
        generation order, one Python loop per kind, deduplicated by
        :func:`_dedupe`.  The arguments are :meth:`candidates`', unchecked.
        """
        current = np.asarray(current, dtype=float)
        cpu_util = np.asarray(cpu_util, dtype=float)
        n = self.n_tiers
        actions = [Action(ActionKind.HOLD, current.copy(), "hold")]
        busy = cpu_util * current  # cores actually used last interval

        def util_ok(alloc: np.ndarray) -> bool:
            # The cap constrains only the tiers this action shrinks; a
            # tier that is already hot (and untouched) must not veto
            # reclaiming a different, idle tier.
            shrunk = alloc < current - 1e-12
            if not shrunk.any():
                return True
            projected = busy[shrunk] / np.maximum(alloc[shrunk], 1e-9)
            return bool(np.all(projected <= self.util_cap))

        if allow_scale_down:
            for tier in range(n):
                if current[tier] <= self.min_alloc[tier]:
                    continue
                for step in self._steps(current, tier):
                    alloc = current.copy()
                    alloc[tier] = max(alloc[tier] - step, self.min_alloc[tier])
                    if np.allclose(alloc, current) or not util_ok(alloc):
                        continue
                    actions.append(Action(
                        ActionKind.SCALE_DOWN, alloc, f"down tier {tier} by {step:.2f}"
                    ))
            order = np.argsort(cpu_util)
            for k in self.batch_sizes:
                k = min(k, n)
                chosen = order[:k]
                for step_desc, stepped in (
                    ("0.2", current[chosen] - 0.2),
                    ("10%", current[chosen] * 0.9),
                ):
                    alloc = current.copy()
                    alloc[chosen] = np.maximum(stepped, self.min_alloc[chosen])
                    if np.allclose(alloc, current) or not util_ok(alloc):
                        continue
                    actions.append(Action(
                        ActionKind.SCALE_DOWN_BATCH, alloc,
                        f"down {k} least-utilized tiers by {step_desc}",
                    ))

        for tier in range(n):
            if current[tier] >= self.max_alloc[tier]:
                continue
            for step in self._steps(current, tier):
                alloc = current.copy()
                alloc[tier] = min(alloc[tier] + step, self.max_alloc[tier])
                if not np.allclose(alloc, current):
                    actions.append(Action(
                        ActionKind.SCALE_UP, alloc, f"up tier {tier} by {step:.2f}"
                    ))

        for ratio in SCALE_UP_ALL_RATIOS:
            alloc = self._clip(current * (1.0 + ratio))
            if not np.allclose(alloc, current):
                actions.append(Action(
                    ActionKind.SCALE_UP_ALL, alloc,
                    f"up all tiers by {int(ratio * 100)}%",
                ))

        if victims is not None and victims.any():
            alloc = current.copy()
            alloc[victims] = np.minimum(alloc[victims] + 0.6, self.max_alloc[victims])
            if not np.allclose(alloc, current):
                actions.append(Action(
                    ActionKind.SCALE_UP_VICTIM, alloc,
                    f"up {int(victims.sum())} recent victim tiers",
                ))
        return _dedupe(actions)

    def max_allocation_action(self) -> Action:
        """The safety fallback: every tier at its ceiling."""
        return Action(
            ActionKind.SCALE_UP_ALL, self.max_alloc.copy(), "all tiers to max"
        )


def _dedupe(actions: list[Action]) -> list[Action]:
    """Drop candidates whose resulting allocation duplicates another
    after rounding to 9 decimals (distinct steps clipping to the same
    ``min_alloc`` / ``max_alloc`` boundary, near-equal menu steps, batch
    rows whose other chosen tiers sit at their floor), so no allocation
    is scored twice.  The *last* occurrence of each allocation wins: the
    most specific kind (e.g. Scale Up Victim, generated after the
    generic per-tier upscales it may coincide with) keeps its label."""
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


__all__ = [
    "Action",
    "ActionKind",
    "ActionSpace",
    "CandidateSet",
    "KIND_CODES",
    "KINDS_BY_CODE",
    "ABSOLUTE_STEPS",
    "RELATIVE_STEPS",
]
