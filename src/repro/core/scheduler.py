"""Sinan's online scheduler (paper Section 4.3).

Once per decision interval the scheduler scores the Table 1 candidate
actions with the hybrid model and applies the paper's selection rules:

1. exclude actions whose predicted tail latency exceeds
   ``QoS - RMSE_val`` (the validation error is the safety margin);
2. filter by predicted violation probability with two thresholds
   ``p_d < p_u``: holding is acceptable while its violation probability
   is below ``p_u``; a scale-down is acceptable only below ``p_d``; if
   even holding is risky, only scale-ups below ``p_u`` are acceptable,
   and if none exists all tiers are scaled to their maximum;
3. among acceptable actions, take the one using the least total CPU.

A safety mechanism guards against model drift: when a QoS violation
arrives that the model did not predict, the scheduler immediately
upscales every tier, counts the misprediction, and — past a trust
threshold — becomes more conservative about reclaiming resources (in
the paper's deployments the trust never had to drop).

The scheduler also degrades gracefully instead of crashing the control
loop: non-finite telemetry (see :mod:`repro.sim.faults`) is sanitized
before encoding, a predictor exception or non-finite score falls back
to the max-allocation safety action, and an unknown (NaN) measured
latency blocks reclamation until a trustworthy reading returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.actions import (
    KIND_CODES,
    ActionKind,
    ActionSpace,
    CandidateSet,
)
from repro.core.manager import Manager
from repro.core.predictor import HybridPredictor
from repro.core.qos import QoSTarget
from repro.obs.audit import (
    REASON_BOOST,
    REASON_NO_ACCEPTABLE,
    REASON_PREDICTOR_FAILURE,
    AuditRecord,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.telemetry import TelemetryLog

#: Decision wall-time buckets (milliseconds); sized around measured
#: decision latencies (``decide_ms_p50`` in ``BENCHMARK.json``).
_DECISION_MS_BUCKETS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)


class _DecisionNote:
    """Scratch the decision path fills in for the audit record.

    Only allocated when a recorder is enabled; ``_decide`` receives
    ``None`` otherwise and skips every annotation.
    """

    __slots__ = (
        "n_candidates",
        "chosen_kind",
        "predicted_ms",
        "violation_prob",
        "fallback_reason",
    )

    def __init__(self) -> None:
        self.n_candidates = 0
        self.chosen_kind = "hold"
        self.predicted_ms = float("nan")
        self.violation_prob = float("nan")
        self.fallback_reason: str | None = None


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler thresholds and safety knobs."""

    p_down: float | None = 0.02
    """Scale-down acceptance threshold (the paper's user-defined p_d);
    ``None`` uses the threshold calibrated on validation data."""

    p_up: float | None = 0.08
    """Hold/scale-up acceptance threshold (the paper's user-defined p_u,
    sized so QoS misses stay rare); ``None`` uses the calibrated one."""

    victim_window: int = 5
    """Recently-downscaled tiers stay "victims" for this many cycles."""

    trust_threshold: int = 10
    """Unpredicted violations before the scheduler turns conservative."""

    recovery_boost: float = 1.3
    """Multiplicative upscale applied on an unpredicted violation."""

    reclaim_latency_frac: float = 0.8
    """Resource reclamation is allowed only while measured tail latency
    is below this fraction of QoS (the paper disables reclamation when
    latency exceeds its expected value)."""

    prob_smoothing: float = 0.5
    """EWMA weight on the hold action's violation probability: damps
    single-interval noise in the Boosted-Trees output so one optimistic
    blip cannot trigger a reclamation streak."""

    down_cooldown: int = 3
    """Intervals to wait after any upscale/violation before reclaiming
    resources again (favors stable allocations, paper Section 4.3)."""


#: Kind codes the mask-based selection treats as resource reclamation.
_DOWN_CODES = (
    KIND_CODES[ActionKind.SCALE_DOWN],
    KIND_CODES[ActionKind.SCALE_DOWN_BATCH],
)
_HOLD_CODE = KIND_CODES[ActionKind.HOLD]


class OnlineScheduler(Manager):
    """QoS-aware allocation search over the pruned action space."""

    name = "sinan"

    def __init__(
        self,
        predictor: HybridPredictor,
        action_space: ActionSpace,
        qos: QoSTarget,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.predictor = predictor
        self.action_space = action_space
        self.qos = qos
        self.config = config or SchedulerConfig()
        self.refresh_thresholds()
        self.recorder: Recorder = NULL_RECORDER
        """Observability handle (no-op by default; see
        :func:`repro.obs.recorder.attach_recorder`)."""
        self.reset()

    def refresh_thresholds(self) -> None:
        """Re-derive ``p_down`` / ``p_up`` from the current predictor.

        ``__init__`` snapshots the predictor's calibrated thresholds
        once; a promoted (retrained) model carries *new* calibration, so
        the promotion path must call this after swapping
        :attr:`predictor` or the recalibrated thresholds would be
        silently ignored by a live scheduler.  Explicit config values
        still win, matching the constructor's semantics.
        """
        calibrated_down, calibrated_up = self.predictor.thresholds
        self.p_down = (
            self.config.p_down if self.config.p_down is not None else calibrated_down
        )
        self.p_up = self.config.p_up if self.config.p_up is not None else calibrated_up

    def adopt_predictor(
        self, predictor: HybridPredictor, reset_safety: bool = True
    ) -> None:
        """Swap in a (re)trained predictor mid-deployment (promotion).

        Refreshes the calibrated thresholds and, by default, resets the
        safety counters: accumulated mispredictions belong to the old
        model, and carrying them over would leave a freshly promoted
        model permanently untrusted.  Episode-level counters
        (``decisions``, ``prediction_trace``) are preserved.

        A promoted predictor also pickles to different bytes than the
        incumbent, so fan-out layers that broadcast models by content
        fingerprint (:mod:`repro.harness.pool`) republish it and worker
        caches invalidate automatically — no explicit flush needed.
        """
        self.predictor = predictor
        self.refresh_thresholds()
        if reset_safety:
            self.mispredictions = 0
            self._last_predicted_safe = True
            self._hold_p_ewma = 0.0
            self._cooldown = 0

    def reset(self) -> None:
        self.mispredictions = 0
        self.decisions = 0
        self.fallbacks = 0
        """Decisions resolved by the max-allocation safety action (no
        acceptable candidate, or a predictor failure)."""
        self.predictor_failures = 0
        """Scoring attempts that raised or returned non-finite output
        (a :attr:`fallbacks` subset)."""
        self._last_predicted_safe = True
        self._hold_p_ewma = 0.0
        self._cooldown = 0
        self._victim_age = np.full(self.action_space.n_tiers, np.inf)
        self.prediction_trace: list[dict[str, float]] = []
        """Per-decision record of predicted vs measured latency and the
        hold action's violation probability (drives paper Figure 12)."""
        # The encoder's incremental history cache keys on the telemetry
        # log object; drop it so a reused scheduler starting a fresh
        # episode cannot shift features from the previous one.
        encoder = getattr(self.predictor, "encoder", None)
        if encoder is not None:
            invalidate = getattr(encoder, "invalidate_cache", None)
            if invalidate is not None:
                invalidate()

    # ------------------------------------------------------------------

    @property
    def trusted(self) -> bool:
        """False once mispredictions exceed the trust threshold."""
        return self.mispredictions <= self.config.trust_threshold

    def decide(self, log: TelemetryLog) -> np.ndarray | None:
        """One control decision: score the candidate set, pick an action.

        Candidate scoring goes through
        :meth:`HybridPredictor.predict_candidates`.

        When a recorder is attached and enabled, the decision is also
        reported as a metric/span/audit record; the decision itself is
        unchanged (``_decide`` runs identically either way).
        """
        recorder = self.__dict__.get("recorder", NULL_RECORDER)
        if not recorder.enabled or len(log) == 0:
            return self._decide(log)
        interval = self.decisions  # 0-based index of the decision below
        note = _DecisionNote()
        started = time.perf_counter()
        alloc = self._decide(log, note)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self._report(recorder, log, note, alloc, interval, elapsed_ms)
        return alloc

    def _decide(
        self, log: TelemetryLog, note: _DecisionNote | None = None
    ) -> np.ndarray | None:
        if len(log) == 0:
            return None
        latest = log.latest
        current = np.asarray(latest.cpu_alloc, dtype=float)
        if not np.all(np.isfinite(current)):
            # A corrupted allocation reading cannot anchor the candidate
            # set; assume the ceiling (the safe direction) where unknown.
            current = np.where(
                np.isfinite(current), current, self.action_space.max_alloc
            )
        measured = self.qos.latency_of(latest)
        measured_known = bool(np.isfinite(measured))
        violated_now = measured_known and measured > self.qos.latency_ms
        self.decisions += 1
        self._victim_age += 1

        # Safety: an unpredicted violation triggers an immediate upscale.
        if violated_now and self._last_predicted_safe:
            self.mispredictions += 1
            self._last_predicted_safe = False
            self._cooldown = self.config.down_cooldown
            boosted = np.minimum(
                current * self.config.recovery_boost + 0.2,
                self.action_space.max_alloc,
            )
            self._record(measured, np.nan, 1.0)
            if note is not None:
                note.chosen_kind = "recovery-boost"
                note.fallback_reason = REASON_BOOST
                note.violation_prob = 1.0
            return boosted

        self._cooldown = max(self._cooldown - 1, 0)
        allow_down = (
            measured_known
            and measured < self.config.reclaim_latency_frac * self.qos.latency_ms
            and self._cooldown == 0
            and self.trusted
        )
        victims = self._victim_age <= self.config.victim_window
        # A NaN utilization reading counts as busy: reclaiming a tier we
        # cannot see is never safe.
        cpu_util = np.nan_to_num(
            np.asarray(latest.cpu_util, dtype=float),
            nan=1.0, posinf=1.0, neginf=0.0,
        )
        cset = self.action_space.candidates(
            current,
            cpu_util,
            victims=victims,
            allow_scale_down=allow_down,
        )
        candidates = cset.allocs
        if note is not None:
            note.n_candidates = len(candidates)
        try:
            latency, prob = self.predictor.predict_candidates(log, candidates)
            if not (np.all(np.isfinite(latency)) and np.all(np.isfinite(prob))):
                raise ArithmeticError("non-finite predictor output")
        except Exception:
            # Graceful degradation (never crash the control loop): an
            # unscorable decision takes the paper's max-allocation safety
            # action and blocks reclamation for a cooldown.
            self.predictor_failures += 1
            self.fallbacks += 1
            self._last_predicted_safe = False
            self._cooldown = self.config.down_cooldown
            chosen = self.action_space.max_allocation_action()
            self._record(measured, np.nan, 1.0, fallback=True)
            if note is not None:
                note.chosen_kind = "max-allocation"
                note.fallback_reason = REASON_PREDICTOR_FAILURE
                note.violation_prob = 1.0
            return chosen.alloc

        pred_qos_lat = latency[:, self.qos.percentile_index]

        chosen_idx = self._select(cset, pred_qos_lat, prob)
        if chosen_idx is not None:
            chosen_kind = cset.kind_of(chosen_idx)
            # A copy: a kept decision must not pin the candidate matrix.
            chosen_alloc = candidates[chosen_idx].copy()
            self._last_predicted_safe = prob[chosen_idx] < self.p_up
            self._record(measured, float(pred_qos_lat[chosen_idx]), float(prob[chosen_idx]))
            if note is not None:
                note.chosen_kind = chosen_kind.value
                note.predicted_ms = float(pred_qos_lat[chosen_idx])
                note.violation_prob = float(prob[chosen_idx])
        else:  # fallback to max allocation
            fallback = self.action_space.max_allocation_action()
            chosen_kind = fallback.kind
            chosen_alloc = fallback.alloc
            self.fallbacks += 1
            self._last_predicted_safe = False
            self._record(measured, np.nan, 1.0, fallback=True)
            if note is not None:
                note.chosen_kind = "max-allocation"
                note.fallback_reason = REASON_NO_ACCEPTABLE
                note.violation_prob = 1.0

        if chosen_kind in (
            ActionKind.SCALE_UP,
            ActionKind.SCALE_UP_ALL,
            ActionKind.SCALE_UP_VICTIM,
        ):
            self._cooldown = self.config.down_cooldown
        went_down = chosen_alloc < current - 1e-9
        self._victim_age[went_down] = 0
        return chosen_alloc

    def _select(
        self, cset: CandidateSet, pred_lat: np.ndarray, prob: np.ndarray
    ) -> int | None:
        """Index of the chosen candidate, or ``None`` for the
        max-allocation safety fallback.

        A candidate is acceptable when its predicted latency clears the
        QoS target by the model's validation RMSE and its violation
        probability is below ``p_down`` (scale-downs) or ``p_up`` (hold,
        judged on a smoothed probability, and scale-ups).  When hold is
        acceptable the cheapest strictly cheaper acceptable candidate
        wins, else hold; otherwise the cheapest acceptable scale-up.
        ``np.argmin`` returns the first minimum, so ties resolve to the
        earliest candidate in generation order — the same first match
        as the list-based rule in ``tests/oracles/control.py``.
        """
        margin = self.qos.latency_ms - self.predictor.rmse_val
        kinds = cset.kinds
        total_cpu = cset.total_cpu
        is_hold = kinds == _HOLD_CODE
        hold_idx = int(np.argmax(is_hold))
        w = self.config.prob_smoothing
        self._hold_p_ewma = (1.0 - w) * self._hold_p_ewma + w * prob[hold_idx]
        hold_ok = self._hold_p_ewma < self.p_up and pred_lat[hold_idx] <= margin

        is_down = (kinds == _DOWN_CODES[0]) | (kinds == _DOWN_CODES[1])
        is_up = ~(is_down | is_hold)
        acceptable = (pred_lat <= margin) & (
            (is_down & (prob < self.p_down))
            | (is_up & (prob < self.p_up))
            | (is_hold if hold_ok else False)
        )
        if not acceptable.any():
            return None
        if hold_ok:
            # Stable region: only leave hold for a strictly cheaper
            # acceptable action (same 1e-9 improvement threshold).
            cheaper = acceptable & (total_cpu < total_cpu[hold_idx] - 1e-9)
            if not cheaper.any():
                return hold_idx
            idx = np.flatnonzero(cheaper)
            return int(idx[np.argmin(total_cpu[idx])])
        ups = acceptable & is_up
        if not ups.any():
            return None
        idx = np.flatnonzero(ups)
        return int(idx[np.argmin(total_cpu[idx])])

    def _record(
        self, measured: float, predicted: float, p_viol: float,
        fallback: bool = False,
    ) -> None:
        self.prediction_trace.append(
            {
                "measured_ms": measured,
                "predicted_ms": predicted,
                "p_violation": p_viol,
                "fallback": 1.0 if fallback else 0.0,
            }
        )

    def _report(
        self,
        recorder: Recorder,
        log: TelemetryLog,
        note: _DecisionNote,
        alloc: np.ndarray | None,
        interval: int,
        elapsed_ms: float,
    ) -> None:
        """Emit the metric/span/audit view of one completed decision."""
        latest = log.latest
        measured = self.qos.latency_of(latest)
        chosen = latest.cpu_alloc if alloc is None else alloc
        chosen = np.asarray(chosen, dtype=float)

        recorder.counter("scheduler_decisions_total")
        if note.fallback_reason == REASON_BOOST:
            recorder.counter("scheduler_mispredictions_total")
        elif note.fallback_reason is not None:
            recorder.counter("scheduler_fallbacks_total")
            if note.fallback_reason == REASON_PREDICTOR_FAILURE:
                recorder.counter("scheduler_predictor_failures_total")
        recorder.gauge("scheduler_trusted", 1.0 if self.trusted else 0.0)
        recorder.gauge("scheduler_hold_p_ewma", self._hold_p_ewma)
        recorder.gauge("scheduler_total_cpu_cores", float(np.nansum(chosen)))
        recorder.observe(
            "scheduler_decision_wall_ms", elapsed_ms,
            buckets=_DECISION_MS_BUCKETS,
        )

        recorder.span(
            "decide",
            float(latest.time),
            elapsed_ms / 1e3,
            track="scheduler",
            cat="decision",
            args={
                "interval": interval,
                "kind": note.chosen_kind,
                "candidates": note.n_candidates,
                "fallback": note.fallback_reason,
            },
        )

        recorder.audit(AuditRecord(
            interval=interval,
            time=float(latest.time),
            measured_p99_ms=float(measured),
            rps=float(latest.rps),
            total_cpu=float(np.nansum(np.asarray(latest.cpu_alloc, dtype=float))),
            n_candidates=note.n_candidates,
            chosen_kind=note.chosen_kind,
            chosen_total_cpu=float(np.nansum(chosen)),
            predicted_p99_ms=note.predicted_ms,
            violation_prob=note.violation_prob,
            hold_p_ewma=float(self._hold_p_ewma),
            fallback_reason=note.fallback_reason,
            trusted=self.trusted,
            mispredictions=self.mispredictions,
            cooldown=self._cooldown,
            chosen_alloc=tuple(float(c) for c in chosen),
        ))


__all__ = ["OnlineScheduler", "SchedulerConfig"]
