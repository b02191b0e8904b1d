"""AutoScale and PowerChief baseline tests."""

import numpy as np
import pytest

from repro.baselines.autoscale import (
    AUTOSCALE_CONS_RULES,
    AUTOSCALE_OPT_RULES,
    AutoScale,
    StepRule,
)
from repro.baselines.powerchief import PowerChief
from repro.sim.telemetry import TelemetryLog
from tests.sim.test_telemetry import make_stats

N = 4
MIN = np.full(N, 0.2)
MAX = np.full(N, 8.0)


def log_with_util(util_values, alloc=2.0, rx=None, tx=None):
    log = TelemetryLog()
    stats = make_stats(alloc=alloc, n=N)
    stats.cpu_util[:] = util_values
    if rx is not None:
        stats.rx_pps[:] = rx
    if tx is not None:
        stats.tx_pps[:] = tx
    log.append(stats)
    return log


class TestStepRule:
    def test_band_membership(self):
        rule = StepRule(0.3, 0.4, 0.9)
        util = np.array([0.25, 0.3, 0.39, 0.4])
        np.testing.assert_array_equal(
            rule.applies(util), [False, True, True, False]
        )


class TestAutoScale:
    def test_opt_rules_match_paper(self):
        """AutoScaleOpt: +10% in [60,70), +30% in [70,100]; -10% in
        [30,40), -30% in [0,30) (paper Section 5.3)."""
        mgr = AutoScale(MIN, MAX, AUTOSCALE_OPT_RULES, cooldown=1)
        log = log_with_util([0.65, 0.75, 0.35, 0.1])
        alloc = mgr.decide(log)
        np.testing.assert_allclose(
            alloc, [2.0 * 1.1, 2.0 * 1.3, 2.0 * 0.9, 2.0 * 0.7]
        )

    def test_cons_rules_match_paper(self):
        """AutoScaleCons: +10% in [30,50), +30% in [50,100]; -10% below 10%."""
        mgr = AutoScale(MIN, MAX, AUTOSCALE_CONS_RULES, cooldown=1)
        log = log_with_util([0.35, 0.6, 0.05, 0.2])
        alloc = mgr.decide(log)
        np.testing.assert_allclose(
            alloc, [2.0 * 1.1, 2.0 * 1.3, 2.0 * 0.9, 2.0]
        )

    def test_stable_band_untouched(self):
        mgr = AutoScale.opt(MIN, MAX, cooldown=1)
        log = log_with_util([0.5, 0.45, 0.55, 0.5])
        np.testing.assert_allclose(mgr.decide(log), 2.0)

    def test_clipped_to_bounds(self):
        mgr = AutoScale.opt(MIN, MAX, cooldown=1)
        log = log_with_util([0.9] * N, alloc=7.5)
        assert np.all(mgr.decide(log) <= MAX)
        log = log_with_util([0.01] * N, alloc=0.21)
        assert np.all(mgr.decide(log) >= MIN)

    def test_cooldown_blocks_consecutive_changes(self):
        mgr = AutoScale.opt(MIN, MAX, cooldown=5)
        first = mgr.decide(log_with_util([0.9] * N))
        assert first[0] > 2.0  # reacted
        second = mgr.decide(log_with_util([0.9] * N, alloc=first[0]))
        np.testing.assert_allclose(second, first)  # cooling down

    def test_empty_log_holds(self):
        mgr = AutoScale.opt(MIN, MAX)
        assert mgr.decide(TelemetryLog()) is None

    def test_reset_clears_cooldown(self):
        mgr = AutoScale.opt(MIN, MAX, cooldown=10)
        mgr.decide(log_with_util([0.9] * N))
        mgr.reset()
        alloc = mgr.decide(log_with_util([0.9] * N))
        assert alloc[0] > 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoScale(MIN, MAX, cooldown=0)

    def test_names(self):
        assert AutoScale.opt(MIN, MAX).name == "AutoScaleOpt"
        assert AutoScale.conservative(MIN, MAX).name == "AutoScaleCons"


class _PerCallIscloseAutoScale(AutoScale):
    """``decide`` as it was written before the per-rule move flags: an
    ``np.isclose(factor, 1.0)`` over the tier vector on every call."""

    def decide(self, log):
        if len(log) == 0:
            return None
        latest = log.latest
        util = latest.cpu_util
        alloc = latest.cpu_alloc.copy()
        self._since_change += 1
        factor = np.ones_like(alloc)
        matched = np.zeros(len(alloc), dtype=bool)
        for rule in self.rules:
            hits = rule.applies(util) & ~matched
            factor[hits] = rule.factor
            matched |= hits
        ready = self._since_change >= self.cooldown
        apply = matched & ready & ~np.isclose(factor, 1.0)
        alloc[apply] = alloc[apply] * factor[apply]
        self._since_change[apply] = 0
        return np.clip(alloc, self.min_alloc, self.max_alloc)


class TestAutoScaleMatchesPerCallIsclose:
    """The per-rule move flags decide exactly what the per-call
    ``np.isclose`` over the factor vector decided."""

    RULE_SETS = {
        "opt": AUTOSCALE_OPT_RULES,
        "cons": AUTOSCALE_CONS_RULES,
        # 1.000001 is within isclose's rtol of 1.0: matched, never moved,
        # and it shadows the band below it.
        "near-one": (
            StepRule(0.40, 0.60, 1.000001),
            StepRule(0.30, 0.70, 1.2),
            StepRule(0.00, 0.30, 0.8),
        ),
    }

    @pytest.mark.parametrize("cooldown", [1, 15])
    @pytest.mark.parametrize("rules", sorted(RULE_SETS))
    def test_random_utilizations(self, rules, cooldown):
        n = 12
        lo, hi = np.full(n, 0.2), np.full(n, 8.0)
        args = (lo, hi, self.RULE_SETS[rules], rules, cooldown)
        fast, ref = AutoScale(*args), _PerCallIscloseAutoScale(*args)
        rng = np.random.default_rng(cooldown)
        alloc = np.full(n, 2.0)
        moved = 0
        for _ in range(300):
            util = rng.uniform(-0.05, 1.05, n)
            util[rng.random(n) < 0.1] = np.nan
            log = TelemetryLog()
            stats = make_stats(alloc=1.0, n=n)
            stats.cpu_alloc[:] = alloc
            stats.cpu_util[:] = util
            log.append(stats)
            got, want = fast.decide(log), ref.decide(log)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                fast._since_change, ref._since_change
            )
            moved += int(np.count_nonzero(got != alloc))
            alloc = want
        assert moved > 0


class TestPowerChief:
    def test_boosts_longest_queue_tier(self):
        mgr = PowerChief(MIN, MAX, top_k=1)
        # tier 2 accumulates a backlog (rx >> tx)
        rx = np.array([10.0, 10.0, 500.0, 10.0])
        tx = np.array([10.0, 10.0, 100.0, 10.0])
        log = log_with_util([0.5] * N, rx=rx, tx=tx)
        alloc = mgr.decide(log)
        assert alloc[2] > alloc[0]

    def test_provisions_proportionally_to_demand(self):
        mgr = PowerChief(MIN, MAX, target_util=0.5)
        log = log_with_util([0.8, 0.2, 0.2, 0.2], alloc=2.0)
        alloc = mgr.decide(log)
        # busy = util * alloc; base = busy / 0.5
        assert alloc[0] == pytest.approx(0.8 * 2.0 / 0.5, rel=0.01)

    def test_backlog_decays(self):
        mgr = PowerChief(MIN, MAX)
        rx = np.array([500.0, 10.0, 10.0, 10.0])
        tx = np.array([100.0, 10.0, 10.0, 10.0])
        mgr.decide(log_with_util([0.5] * N, rx=rx, tx=tx))
        high = mgr._backlog[0]
        # Backlog clears once traffic balances.
        for _ in range(10):
            mgr.decide(log_with_util([0.5] * N, rx=tx, tx=tx))
        assert mgr._backlog[0] < high * 0.2

    def test_boost_decays_after_blame_stops(self):
        mgr = PowerChief(MIN, MAX)
        rx = np.array([500.0, 10.0, 10.0, 10.0])
        tx = np.array([100.0, 10.0, 10.0, 10.0])
        mgr.decide(log_with_util([0.5] * N, rx=rx, tx=tx))
        boosted = mgr._boost[0]
        assert boosted > 1.0
        balanced = np.full(N, 10.0)
        for _ in range(30):
            mgr.decide(log_with_util([0.5] * N, rx=balanced, tx=balanced))
        assert mgr._boost[0] < boosted

    def test_bounds_respected(self):
        mgr = PowerChief(MIN, MAX)
        log = log_with_util([1.0] * N, alloc=8.0)
        alloc = mgr.decide(log)
        assert np.all(alloc <= MAX + 1e-9)
        assert np.all(alloc >= MIN - 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerChief(MIN, MAX, target_util=1.5)

    def test_empty_log_holds(self):
        assert PowerChief(MIN, MAX).decide(TelemetryLog()) is None

    def test_reset(self):
        mgr = PowerChief(MIN, MAX)
        mgr.decide(log_with_util([0.5] * N))
        mgr.reset()
        assert mgr._backlog is None and mgr._boost is None


class TestStaticManager:
    def test_static(self):
        from repro.core.manager import StaticManager

        mgr = StaticManager(np.full(N, 3.0))
        alloc = mgr.decide(TelemetryLog())
        np.testing.assert_allclose(alloc, 3.0)
        alloc[0] = 99  # returned copy must not alias internal state
        np.testing.assert_allclose(mgr.decide(TelemetryLog()), 3.0)
