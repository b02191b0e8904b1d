"""Vectorized control loop vs the Action-list oracle: bitwise equality.

The matrix candidate path (:meth:`ActionSpace.candidates`) and the
mask-based selection (:meth:`OnlineScheduler._select`) are only
shippable because they change nothing but wall-clock time.  These tests
pin that down against ``tests/oracles/control.py``: the candidate matrix
row-for-row against the Action list — on clean telemetry, under fault
profiles, and on telemetry recorded from a bandit-explorer episode — and
the selected index against the list-based rule under synthetic
predictions.  Whole closed loops with the control loop on its oracle run
in ``tests/core/test_fast_path.py``.
"""

import numpy as np
import pytest

from repro.apps.social_network import social_network
from repro.core.actions import ActionSpace, KINDS_BY_CODE
from repro.core.data_collection import BanditExplorer, CollectionConfig
from repro.core.scheduler import OnlineScheduler
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.core.test_fast_path import (  # noqa: F401 (fixture re-export)
    QOS,
    collected,
    make_faulty_cluster,
    trained,
)
from tests.oracles.control import candidates_reference, select_reference


def tiny_space() -> ActionSpace:
    graph = make_tiny_graph()
    return ActionSpace(graph.min_alloc(), graph.max_alloc())


def assert_candidates_equal(space, current, cpu_util, victims, allow_down):
    actions = candidates_reference(
        space, current, cpu_util, victims=victims, allow_scale_down=allow_down
    )
    cset = space.candidates(
        current, cpu_util, victims=victims, allow_scale_down=allow_down
    )
    assert len(cset) == len(actions)
    assert np.array_equal(cset.allocs, np.stack([a.alloc for a in actions]))
    assert [KINDS_BY_CODE[c] for c in cset.kinds] == [a.kind for a in actions]
    assert np.array_equal(
        cset.total_cpu, np.array([a.total_cpu for a in actions])
    )
    for i, action in enumerate(actions):
        assert cset.kind_of(i) is action.kind


class TestCandidateMatrixEquivalence:
    """``candidates`` emits exactly the Action-list candidates:
    same rows, same order, same kinds, same total CPU."""

    @pytest.mark.parametrize("allow_down", [True, False])
    def test_synthetic_states(self, rng, allow_down):
        space = tiny_space()
        n = space.n_tiers
        victim_patterns = [
            None,
            np.zeros(n, dtype=bool),
            np.ones(n, dtype=bool),
            np.arange(n) % 2 == 0,
        ]
        for trial in range(10):
            current = np.round(rng.uniform(0.3, 7.5, n), 2)
            cpu_util = rng.uniform(0.0, 1.2, n)
            victims = victim_patterns[trial % len(victim_patterns)]
            assert_candidates_equal(
                space, current, cpu_util, victims, allow_down
            )

    def test_at_allocation_bounds(self):
        """Clipped-away candidates dedupe identically on both paths."""
        space = tiny_space()
        util = np.full(space.n_tiers, 0.4)
        for current in (space.min_alloc.copy(), space.max_alloc.copy()):
            assert_candidates_equal(space, current, util, None, True)

    def _sweep_episode(self, cluster, steps, policy=None):
        """Candidate equality at every interval of a live episode."""
        space = tiny_space()
        qos = QOS
        for _ in range(steps):
            if policy is not None:
                alloc = policy.decide(cluster)
                stats = cluster.step(alloc)
                policy.observe(qos.latency_of(stats) <= qos.latency_ms)
            else:
                cluster.step(cluster.current_alloc)
            latest = cluster.observed.latest
            current = np.asarray(latest.cpu_alloc, dtype=float)
            if not np.all(np.isfinite(current)):
                current = np.where(
                    np.isfinite(current), current, space.max_alloc
                )
            cpu_util = np.nan_to_num(
                np.asarray(latest.cpu_util, dtype=float),
                nan=1.0, posinf=1.0, neginf=0.0,
            )
            for allow_down in (True, False):
                assert_candidates_equal(
                    space, current, cpu_util, None, allow_down
                )

    def test_normal_episode(self):
        self._sweep_episode(make_tiny_cluster(users=180, seed=31), 15)

    @pytest.mark.parametrize("profile", ["chaos", "telemetry-dropout"])
    def test_fault_episodes(self, profile):
        self._sweep_episode(make_faulty_cluster(180, 33, profile), 15)

    def test_bandit_explorer_episode(self):
        """The explorer's aggressive allocation swings exercise corners
        (bound-clipped rows, heavy dedupe) a managed episode avoids."""
        config = CollectionConfig(qos=QOS)
        self._sweep_episode(
            make_tiny_cluster(users=220, seed=35),
            20,
            policy=BanditExplorer(config, seed=7),
        )


class TestServedSizeCandidates:
    """The same oracle check on the served 28-tier ``social_network``
    space.  On the 4-tier graph the batch scale-downs of 4, 8 and
    1,000,000 tiers all pick every tier; here each batch size picks its
    own tiers, and most tiers' floors and ceilings differ."""

    @pytest.mark.parametrize("allow_down", [True, False])
    def test_seeded_states(self, allow_down):
        graph = social_network()
        space = ActionSpace(graph.min_alloc(), graph.max_alloc())
        lo, hi = space.min_alloc, space.max_alloc
        n = space.n_tiers
        rng = np.random.default_rng(2020)
        cap = space.util_cap
        for trial in range(36):
            kind = trial % 6
            # 0.1, 0.3 or 0.5 cores off a bound: menu steps clip there.
            off = rng.choice([0.1, 0.3, 0.5], size=n)
            if kind == 0:
                current = lo.copy()
            elif kind == 1:
                current = hi.copy()
            elif kind == 2:
                current = lo + off
            elif kind == 3:
                current = hi - off
            else:
                current = np.round(rng.uniform(lo, hi), 1)
                if kind == 5:  # some tiers at a bound, the rest between
                    current = np.select(
                        [rng.random(n) < 0.3, rng.random(n) < 0.4], [lo, hi], current
                    )
            # Utilizations around the cap, some at the cap exactly for a
            # 0.2-core or a 10% scale-down, so the projected-utilization
            # test is decided on both sides of it.
            near_cap = np.stack([
                rng.uniform(cap - 0.05, cap + 0.05, n),
                np.full(n, cap),
                cap * np.maximum(current - 0.2, lo) / current,
                np.full(n, cap * 0.9),
            ])
            cpu_util = near_cap[rng.integers(0, 4, n), np.arange(n)]
            victims = (None, rng.random(n) < 0.3, np.ones(n, dtype=bool))[
                trial // 6 % 3
            ]
            assert_candidates_equal(space, current, cpu_util, victims, allow_down)


class TestSelectEquivalence:
    """``_select`` picks the same index as the list-based rule —
    including the EWMA hold-probability state both carry across
    decisions and every first-match tie-break."""

    def _schedulers(self, trained):  # noqa: F811
        space = tiny_space()
        fast = OnlineScheduler(trained, space, QOS)
        ref = OnlineScheduler(trained, space, QOS)
        return space, fast, ref

    def test_lockstep_selection(self, trained, rng):  # noqa: F811
        space, fast, ref = self._schedulers(trained)
        n = space.n_tiers
        for trial in range(30):
            current = np.round(rng.uniform(0.3, 6.0, n), 2)
            cpu_util = rng.uniform(0.0, 1.0, n)
            allow_down = bool(trial % 2)
            actions = candidates_reference(
                space, current, cpu_util, allow_scale_down=allow_down
            )
            cset = space.candidates(
                current, cpu_util, allow_scale_down=allow_down
            )
            b = len(actions)
            # Mix clearly-safe, borderline, and violating predictions so
            # every acceptability branch (and the no-acceptable fallback)
            # is hit across the sweep.
            pred_lat = rng.uniform(20.0, 400.0, b)
            prob = rng.uniform(0.0, 0.4, b)
            idx_ref = select_reference(ref, actions, pred_lat, prob)
            idx_fast = fast._select(cset, pred_lat, prob)
            assert idx_fast == idx_ref
            assert fast._hold_p_ewma == ref._hold_p_ewma

    def test_exact_ties_break_first_match(self, trained):  # noqa: F811
        """Identical scores across candidates: both paths must keep the
        generation-order first match."""
        space, fast, ref = self._schedulers(trained)
        n = space.n_tiers
        current = np.full(n, 2.0)
        actions = candidates_reference(space, current, np.full(n, 0.3))
        cset = space.candidates(current, np.full(n, 0.3))
        b = len(actions)
        pred_lat = np.full(b, 50.0)
        prob = np.full(b, 0.001)
        assert fast._select(cset, pred_lat, prob) == select_reference(
            ref, actions, pred_lat, prob
        )
