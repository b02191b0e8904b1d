"""Online-scheduler logic tests against a controllable stub predictor."""

import numpy as np
import pytest

from repro.core.actions import ActionKind, ActionSpace
from repro.core.qos import QoSTarget
from repro.core.scheduler import OnlineScheduler, SchedulerConfig
from repro.sim.telemetry import TelemetryLog
from tests.sim.test_telemetry import make_stats

N = 4
QOS = QoSTarget(200.0)


class StubPredictor:
    """Predictor with scriptable outputs.

    ``latency_fn(alloc) -> ms`` and ``prob_fn(alloc) -> p`` control the
    scores each candidate receives.
    """

    def __init__(self, latency_fn=None, prob_fn=None, rmse=20.0):
        self.latency_fn = latency_fn or (lambda alloc: 100.0)
        self.prob_fn = prob_fn or (lambda alloc: 0.0)
        self.report = object()
        self._rmse = rmse

    @property
    def rmse_val(self):
        return self._rmse

    @property
    def thresholds(self):
        return 0.02, 0.08

    def predict_candidates(self, log, candidates):
        lat = np.array([[self.latency_fn(c)] * 5 for c in candidates])
        prob = np.array([self.prob_fn(c) for c in candidates])
        return lat, prob


def make_scheduler(predictor, **config):
    space = ActionSpace(np.full(N, 0.2), np.full(N, 8.0), util_cap=0.6)
    return OnlineScheduler(predictor, space, QOS, SchedulerConfig(**config))


def make_log(p99=100.0, alloc=2.0, n_intervals=6, util=0.3):
    log = TelemetryLog()
    for i in range(n_intervals):
        stats = make_stats(time=float(i), p99=p99, alloc=alloc, n=N)
        stats.cpu_util[:] = util
        log.append(stats)
    return log


class TestSelection:
    def test_empty_log_holds(self):
        sched = make_scheduler(StubPredictor())
        assert sched.decide(TelemetryLog()) is None

    def test_safe_state_scales_down(self):
        """All candidates safe -> pick the cheapest (a scale-down)."""
        sched = make_scheduler(StubPredictor())
        alloc = sched.decide(make_log())
        assert alloc.sum() < 4 * 2.0

    def test_pick_owns_its_data(self, backend):
        """A kept decision pins no candidate matrix: the model's pick
        is a copy, not a row view."""
        sched = make_scheduler(StubPredictor())
        alloc = sched.decide(make_log())
        assert sched.fallbacks == 0 and alloc.sum() < 4 * 2.0
        assert alloc.base is None

    def test_risky_downs_keep_hold(self):
        """Scale-downs above p_down are rejected; hold is kept."""
        current_total = 4 * 2.0

        def prob_fn(alloc):
            return 0.0 if alloc.sum() >= current_total else 0.5

        sched = make_scheduler(StubPredictor(prob_fn=prob_fn))
        alloc = sched.decide(make_log())
        assert alloc.sum() == pytest.approx(current_total)

    def test_risky_hold_triggers_scale_up(self):
        """Hold above p_up -> cheapest acceptable scale-up wins."""

        def prob_fn(alloc):
            return 0.02 if alloc.sum() > 8.5 else 0.5

        sched = make_scheduler(StubPredictor(prob_fn=prob_fn))
        alloc = sched.decide(make_log())
        assert alloc.sum() > 8.0

    def test_all_risky_falls_back_to_max(self):
        sched = make_scheduler(StubPredictor(prob_fn=lambda a: 0.99))
        alloc = sched.decide(make_log())
        np.testing.assert_allclose(alloc, 8.0)

    def test_latency_margin_filters_candidates(self):
        """Predicted latency above QoS - RMSE_val excludes an action."""

        def latency_fn(alloc):
            # downs look slow, everything else fast
            return 300.0 if alloc.sum() < 8.0 else 50.0

        sched = make_scheduler(StubPredictor(latency_fn=latency_fn, rmse=30.0))
        alloc = sched.decide(make_log())
        assert alloc.sum() == pytest.approx(8.0)  # hold, no downs allowed


class TestSafetyMechanism:
    def test_unpredicted_violation_boosts_all(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log(p99=100.0))  # predicted safe
        boosted = sched.decide(make_log(p99=400.0))  # violation arrives
        assert sched.mispredictions == 1
        assert np.all(boosted >= 2.0 * 1.3)

    def test_violation_blocks_reclamation(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log(p99=100.0))
        sched.decide(make_log(p99=400.0))  # misprediction + boost
        # Next interval still violating: not another misprediction,
        # but no scale-down either.
        alloc = sched.decide(make_log(p99=400.0, alloc=3.0))
        assert sched.mispredictions == 1
        assert alloc.sum() >= 4 * 3.0 - 1e-9

    def test_cooldown_after_recovery(self):
        sched = make_scheduler(StubPredictor(), down_cooldown=3)
        sched.decide(make_log(p99=100.0))
        sched.decide(make_log(p99=400.0))  # boost, cooldown set
        alloc = sched.decide(make_log(p99=100.0, alloc=3.0))
        assert alloc.sum() >= 4 * 3.0 - 1e-9  # still cooling down

    def test_trust_lost_after_threshold(self):
        sched = make_scheduler(StubPredictor(), trust_threshold=2)
        for _ in range(4):
            sched.decide(make_log(p99=100.0))
            sched.decide(make_log(p99=400.0))
        assert not sched.trusted

    def test_reclaim_latency_guard(self):
        """No reclamation while measured latency exceeds the guard
        fraction of QoS, even if the model approves."""
        sched = make_scheduler(StubPredictor(), reclaim_latency_frac=0.8)
        sched._last_predicted_safe = False  # avoid misprediction path
        alloc = sched.decide(make_log(p99=170.0))  # 170 > 0.8 * 200
        assert alloc.sum() >= 4 * 2.0 - 1e-9


class FailingPredictor(StubPredictor):
    """Predictor whose scoring raises after ``good_calls`` successes."""

    def __init__(self, good_calls=0, **kwargs):
        super().__init__(**kwargs)
        self.good_calls = good_calls
        self.calls = 0

    def predict_candidates(self, log, candidates):
        self.calls += 1
        if self.calls > self.good_calls:
            raise RuntimeError("model server down")
        return super().predict_candidates(log, candidates)


def make_nan_log(p99=100.0, alloc=2.0, n_intervals=6, nan_util=False,
                 nan_latency=False, nan_alloc=False):
    log = make_log(p99=p99, alloc=alloc, n_intervals=n_intervals)
    latest = log.latest
    if nan_util:
        latest.cpu_util[:] = np.nan
    if nan_latency:
        latest.latency_ms[:] = np.nan
    if nan_alloc:
        latest.cpu_alloc[0] = np.nan
    return log


class TestGracefulDegradation:
    def test_predictor_exception_falls_back_to_max(self):
        sched = make_scheduler(FailingPredictor())
        alloc = sched.decide(make_log())
        np.testing.assert_allclose(alloc, 8.0)
        assert sched.fallbacks == 1
        assert sched.predictor_failures == 1
        assert sched.prediction_trace[-1]["fallback"] == 1.0

    def test_nonfinite_predictor_output_falls_back(self):
        sched = make_scheduler(StubPredictor(latency_fn=lambda a: np.nan))
        alloc = sched.decide(make_log())
        np.testing.assert_allclose(alloc, 8.0)
        assert sched.predictor_failures == 1

    def test_fallback_blocks_reclamation_for_cooldown(self):
        sched = make_scheduler(FailingPredictor(good_calls=0),
                               down_cooldown=3)
        sched.decide(make_log())  # fails -> max alloc, cooldown set
        sched.predictor.good_calls = 10**9  # healthy again
        alloc = sched.decide(make_log(alloc=8.0))
        assert alloc.sum() >= 4 * 8.0 - 1e-9  # still cooling down

    def test_no_acceptable_action_counts_fallback(self):
        sched = make_scheduler(StubPredictor(prob_fn=lambda a: 0.99))
        sched.decide(make_log())
        assert sched.fallbacks == 1
        assert sched.predictor_failures == 0  # the model answered

    def test_nan_measured_latency_blocks_reclamation(self):
        """An unknown p99 must not be read as 'QoS is fine'."""
        sched = make_scheduler(StubPredictor())
        alloc = sched.decide(make_nan_log(nan_latency=True))
        assert alloc.sum() >= 4 * 2.0 - 1e-9
        assert sched.mispredictions == 0  # NaN is not a violation either

    def test_nan_cpu_util_counts_as_busy(self):
        """A tier whose utilization reads NaN must not be reclaimed."""
        sched = make_scheduler(StubPredictor())
        log = make_log()
        log.latest.cpu_util[0] = np.nan
        alloc = sched.decide(log)
        assert alloc[0] >= 2.0 - 1e-9  # unseen tier untouched

    def test_nan_current_alloc_assumes_ceiling(self):
        sched = make_scheduler(StubPredictor(prob_fn=lambda a: 0.99))
        alloc = sched.decide(make_nan_log(nan_alloc=True))
        assert np.all(np.isfinite(alloc))

    def test_corrupt_interval_never_raises(self):
        """Fully NaN telemetry must degrade, not crash the control loop."""
        sched = make_scheduler(StubPredictor())
        log = make_log()
        for name in ("cpu_util", "rss_mb", "cache_mb", "rx_pps",
                     "tx_pps", "latency_ms"):
            getattr(log.latest, name)[:] = np.nan
        alloc = sched.decide(log)
        assert np.all(np.isfinite(alloc))


class TestSafetyPathEndToEnd:
    def test_violation_storm_exercises_full_safety_path(self):
        """Recovery boost fires, mispredictions accumulate, trust flips,
        and the untrusted scheduler stops reclaiming — in one episode."""
        sched = make_scheduler(StubPredictor(), trust_threshold=3,
                               recovery_boost=1.3)
        boosts = 0
        alloc = 2.0
        for _ in range(8):  # alternating calm / unpredicted violation
            sched.decide(make_log(p99=100.0, alloc=alloc))
            before = sched.mispredictions
            boosted = sched.decide(make_log(p99=400.0, alloc=alloc))
            if sched.mispredictions > before:
                boosts += 1
                # The boost multiplies the current allocation (capped).
                expected = min(alloc * 1.3 + 0.2, 8.0)
                np.testing.assert_allclose(boosted, expected)
        assert sched.mispredictions == boosts == 8
        assert not sched.trusted  # past trust_threshold=3

        # Untrusted: even a calm, model-approved interval cannot reclaim.
        alloc_after = sched.decide(make_log(p99=50.0, alloc=4.0))
        assert alloc_after.sum() >= 4 * 4.0 - 1e-9

        # reset() restores trust and the reclamation path.
        sched.reset()
        assert sched.trusted
        for _ in range(3):  # drain any EWMA/cooldown conservatism
            reclaimed = sched.decide(make_log(p99=50.0, alloc=4.0))
        assert reclaimed.sum() < 4 * 4.0


class TestBookkeeping:
    def test_prediction_trace_records(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log(p99=120.0))
        assert len(sched.prediction_trace) == 1
        entry = sched.prediction_trace[0]
        assert entry["measured_ms"] == pytest.approx(120.0)
        assert 0.0 <= entry["p_violation"] <= 1.0

    def test_victims_tracked(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log())  # scale-down happens
        assert np.any(sched._victim_age == 0)

    def test_reset_clears_state(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log(p99=100.0))
        sched.decide(make_log(p99=400.0))
        sched.reset()
        assert sched.mispredictions == 0
        assert sched.prediction_trace == []
        assert sched.decisions == 0

    def test_reset_equals_fresh_scheduler(self):
        """After a messy episode (misprediction, predictor failure,
        fallback), reset() must restore *every* piece of per-episode
        state: a reset scheduler replays a decision sequence exactly
        like a fresh one."""
        def boom(_alloc):
            raise RuntimeError("predictor down")

        stub = StubPredictor()
        used = make_scheduler(stub)
        used.decide(make_log(p99=100.0))
        used.decide(make_log(p99=400.0))  # unpredicted violation
        stub.latency_fn = boom
        used.decide(make_log(p99=100.0))  # predictor failure fallback
        stub.latency_fn = lambda alloc: 100.0
        used.decide(make_log(p99=190.0, util=0.9))
        used.reset()

        fresh = make_scheduler(StubPredictor())
        assert used.mispredictions == fresh.mispredictions == 0
        assert used.decisions == fresh.decisions == 0
        assert used.fallbacks == fresh.fallbacks == 0
        assert used.predictor_failures == fresh.predictor_failures == 0
        assert used._last_predicted_safe is fresh._last_predicted_safe is True
        assert used._hold_p_ewma == fresh._hold_p_ewma == 0.0
        assert used._cooldown == fresh._cooldown == 0
        np.testing.assert_array_equal(used._victim_age, fresh._victim_age)

        # Identical replays, decision by decision and state by state.
        for p99, util in [(100.0, 0.3), (150.0, 0.7), (400.0, 0.5),
                          (100.0, 0.3), (100.0, 0.2)]:
            log = make_log(p99=p99, util=util)
            a = used.decide(log)
            b = fresh.decide(log)
            np.testing.assert_array_equal(a, b)
        assert used.prediction_trace == fresh.prediction_trace
        assert used.mispredictions == fresh.mispredictions
        assert used._hold_p_ewma == fresh._hold_p_ewma

    def test_reset_invalidates_encoder_cache(self):
        """reset() must drop the predictor's incremental history cache:
        it is per-episode state living outside the scheduler."""

        class _Encoder:
            def __init__(self):
                self.invalidated = 0

            def invalidate_cache(self):
                self.invalidated += 1

        stub = StubPredictor()
        stub.encoder = _Encoder()
        sched = make_scheduler(stub)  # __init__ calls reset() once
        assert stub.encoder.invalidated == 1
        sched.decide(make_log())
        sched.reset()
        assert stub.encoder.invalidated == 2

    def test_reset_without_encoder_attribute(self):
        """Predictors without an encoder (stubs, baselines) stay fine."""
        sched = make_scheduler(StubPredictor())
        sched.reset()
        assert sched.decisions == 0

    def test_calibrated_thresholds_used_when_config_none(self):
        sched = make_scheduler(StubPredictor(), p_down=None, p_up=None)
        assert sched.p_down == pytest.approx(0.02)
        assert sched.p_up == pytest.approx(0.08)

    def test_config_overrides_thresholds(self):
        sched = make_scheduler(StubPredictor(), p_down=0.5, p_up=0.9)
        assert sched.p_down == 0.5
        assert sched.p_up == 0.9


class CalibratedStub(StubPredictor):
    """Stub whose calibrated thresholds are settable (promotion tests)."""

    def __init__(self, p_down, p_up, **kwargs):
        super().__init__(**kwargs)
        self._thresholds = (p_down, p_up)

    @property
    def thresholds(self):
        return self._thresholds


class TestPromotion:
    def test_refresh_thresholds_rereads_calibration(self):
        sched = make_scheduler(CalibratedStub(0.02, 0.08), p_down=None, p_up=None)
        assert sched.p_up == pytest.approx(0.08)
        sched.predictor = CalibratedStub(0.05, 0.3)
        sched.refresh_thresholds()
        assert sched.p_down == pytest.approx(0.05)
        assert sched.p_up == pytest.approx(0.3)

    def test_refresh_keeps_explicit_config(self):
        sched = make_scheduler(CalibratedStub(0.02, 0.08), p_down=0.01, p_up=0.2)
        sched.predictor = CalibratedStub(0.5, 0.9)
        sched.refresh_thresholds()
        assert sched.p_down == 0.01
        assert sched.p_up == 0.2

    def test_promoted_calibration_reaches_select(self):
        """A promoted model's recalibrated ``p_down`` must change what
        ``_select`` accepts — the __init__-time snapshot regression."""
        prob_fn = lambda alloc: 0.04  # noqa: E731 - every action mildly risky
        sched = make_scheduler(
            CalibratedStub(0.02, 0.08, prob_fn=prob_fn),
            p_down=None, p_up=None,
        )
        log = make_log(p99=100.0, alloc=2.0, util=0.3)
        held = sched.decide(log)
        # p_down=0.02 rejects every scale-down at prob 0.04 -> hold.
        assert held.sum() == pytest.approx(2.0 * N)

        promoted = CalibratedStub(0.06, 0.3, prob_fn=prob_fn)
        sched.adopt_predictor(promoted)
        assert sched.predictor is promoted
        assert sched.p_down == pytest.approx(0.06)
        down = sched.decide(log)
        # The recalibrated p_down=0.06 accepts scale-downs at prob 0.04.
        assert down.sum() < 2.0 * N - 1e-6

    def test_adopt_predictor_resets_safety_state(self):
        sched = make_scheduler(StubPredictor())
        log = make_log(p99=500.0)  # violating, unpredicted -> boost
        sched.decide(log)
        assert sched.mispredictions == 1
        sched.adopt_predictor(StubPredictor())
        assert sched.mispredictions == 0
        assert sched._cooldown == 0
        assert sched.trusted

    def test_adopt_predictor_can_keep_safety_state(self):
        sched = make_scheduler(StubPredictor())
        sched.decide(make_log(p99=500.0))
        sched.adopt_predictor(StubPredictor(), reset_safety=False)
        assert sched.mispredictions == 1
