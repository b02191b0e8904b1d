"""Vectorized control loop vs the Action-list oracle: bitwise equality.

The matrix candidate path (:meth:`ActionSpace.candidates`) and the
mask-based selection (:meth:`OnlineScheduler._select`) are only
shippable because they change nothing but wall-clock time.  These tests
pin that down against ``tests/oracles/control.py``: the candidate matrix
row-for-row against the Action list — on clean telemetry, under fault
profiles, and on telemetry recorded from a bandit-explorer episode — and
the selected index against the list-based rule under synthetic
predictions.  The candidate checks run on both backends: each class
first on the one that serves (the compiled kernel when it loads), then,
as its ``...OnNumpy`` subclass or through the ``backend`` fixture, on
the numpy code that runs without it.  Whole closed loops with the
control loop on its oracle run in ``tests/core/test_fast_path.py``.
"""

import numpy as np
import pytest

from repro.apps.hotel_reservation import hotel_reservation
from repro.apps.social_network import social_network
from repro.core.actions import ActionKind, ActionSpace, KINDS_BY_CODE
from repro.core.data_collection import BanditExplorer, CollectionConfig
from repro.core.scheduler import OnlineScheduler
from tests.conftest import make_tiny_cluster, make_tiny_graph
from tests.core.test_fast_path import (  # noqa: F401 (fixture re-export)
    QOS,
    collected,
    make_faulty_cluster,
    trained,
)
from tests.ml.test_layers import assert_same_bytes
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
    assert cset.allocs.dtype == np.float64 and cset.kinds.dtype == np.int64
    assert cset.allocs.flags.c_contiguous
    assert cset.allocs.shape == (len(actions), space.n_tiers)
    # The matrix owns exactly its rows: a kept row pins no spare capacity.
    assert cset.allocs.base is None
    assert np.array_equal(cset.allocs, np.stack([a.alloc for a in actions]))
    assert [KINDS_BY_CODE[c] for c in cset.kinds] == [a.kind for a in actions]
    assert np.array_equal(
        cset.total_cpu, np.array([a.total_cpu for a in actions])
    )
    # numpy's own row sums, byte for byte (the kernel repeats its order).
    assert_same_bytes(cset.total_cpu, cset.allocs.sum(axis=1))
    for i, action in enumerate(actions):
        assert cset.kind_of(i) is action.kind
    return cset


#: Runs a test class, through the ``backend`` fixture, on the numpy code
#: alone (its base class runs on the backend that serves).
ON_NUMPY = pytest.mark.parametrize("backend", ["numpy"], indirect=True)


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


@ON_NUMPY
@pytest.mark.usefixtures("backend")
class TestCandidateMatrixEquivalenceOnNumpy(TestCandidateMatrixEquivalence):
    """The same checks on the numpy code."""


def served_space(app) -> ActionSpace:
    graph = app()
    return ActionSpace(graph.min_alloc(), graph.max_alloc())


APPS = pytest.mark.parametrize(
    "app", [social_network, hotel_reservation], ids=lambda app: app.__name__
)


class TestServedSizeCandidates:
    """The same oracle check on the served 28-tier ``social_network``
    and 17-tier ``hotel_reservation`` spaces.  On the 4-tier graph the
    batch scale-downs of 4, 8 and 1,000,000 tiers all pick every tier;
    here each batch size picks its own tiers, and most tiers' floors and
    ceilings differ."""

    @pytest.mark.parametrize("allow_down", [True, False])
    def test_seeded_states(self, allow_down):
        self.check_seeded_states(served_space(social_network), allow_down)

    @pytest.mark.parametrize("allow_down", [True, False])
    def test_seeded_hotel_states(self, allow_down):
        self.check_seeded_states(served_space(hotel_reservation), allow_down)

    @staticmethod
    def check_seeded_states(space, allow_down):
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


@ON_NUMPY
@pytest.mark.usefixtures("backend")
class TestServedSizeCandidatesOnNumpy(TestServedSizeCandidates):
    """The same checks on the numpy code."""


def rows_of(cset, kind: ActionKind) -> list[np.ndarray]:
    return [cset.allocs[i] for i in range(len(cset)) if cset.kind_of(i) is kind]


def indices_equal_to(cset, alloc: np.ndarray) -> list[int]:
    return [i for i in range(len(cset)) if np.array_equal(cset.allocs[i], alloc)]


def exact_cap_util(cap: float, current: float, shrunk_to: float) -> float:
    """A utilization at which a tier of ``current`` cores shrunk to
    ``shrunk_to`` projects to exactly ``cap``, by the generator's own
    expression ``(util * current) / shrunk_to``."""
    util = cap * shrunk_to / current
    for _ in range(8):
        projected = util * current / shrunk_to
        if projected == cap:
            return util
        util = np.nextafter(util, -np.inf if projected > cap else np.inf)
    raise AssertionError("no utilization projects exactly to the cap")


@pytest.mark.usefixtures("backend")
class TestCandidateCorners:
    """Named states at the edges of the generator's rules, each checked
    against the Action-list oracle and for the row the rule decides."""

    def test_near_equal_menu_steps_merge(self):
        """At 6.0 cores the 10% step (0.6000000000000001) and the
        0.6-core step are distinct menu entries that give the same
        scale-down and scale-up; one ulp above 6.0 the scale-downs are
        5.400000000000001 and 5.4, equal only after rounding.  Either
        way one row survives, the later (larger) step's."""
        space = tiny_space()
        for c in (6.0, np.nextafter(6.0, 7.0)):
            current = np.array([c, 2.0, 2.0, 2.0])
            assert c * 0.1 != 0.6
            cset = assert_candidates_equal(
                space, current, np.full(4, 0.1), None, True
            )
            for kind, stepped in (
                (ActionKind.SCALE_DOWN, (c - 0.6, c - c * 0.1)),
                (ActionKind.SCALE_UP, (c + 0.6, c + c * 0.1)),
            ):
                assert np.round(stepped[0], 9) == np.round(stepped[1], 9)
                tier0 = [
                    row[0] for row in rows_of(cset, kind)
                    if row[0] != c
                    and np.round(row[0], 9) == np.round(stepped[1], 9)
                ]
                assert tier0 == [stepped[1]]

    def test_batch_row_equal_to_single_tier_scale_down(self):
        """The batch of two picks a tier at its floor and one above it,
        so its 0.2-core row equals that second tier's own 0.2-core
        scale-down; the batch row comes later and keeps its kind."""
        space = tiny_space()
        current = np.array([space.min_alloc[0], 3.0, 3.0, 3.0])
        util = np.array([0.01, 0.02, 0.3, 0.3])
        cset = assert_candidates_equal(space, current, util, None, True)
        row = current.copy()
        row[1] = 3.0 - 0.2
        hits = indices_equal_to(cset, row)
        assert len(hits) == 1
        assert cset.kind_of(hits[0]) is ActionKind.SCALE_DOWN_BATCH

    def test_scale_up_all_ratios_clip_to_ceiling(self):
        """0.1 cores under every ceiling, all four scale-up-all ratios
        and every per-tier step clip to the bound: one row of each."""
        space = tiny_space()
        current = space.max_alloc - 0.1
        for allow_down in (True, False):
            cset = assert_candidates_equal(
                space, current, np.full(4, 0.3), None, allow_down
            )
            up_all = rows_of(cset, ActionKind.SCALE_UP_ALL)
            assert len(up_all) == 1
            assert np.array_equal(up_all[0], space.max_alloc)
            assert len(rows_of(cset, ActionKind.SCALE_UP)) == space.n_tiers

    def test_victim_boost_wins_over_equal_scale_up(self):
        """A lone victim's +0.6 boost is that tier's +0.6 scale-up; the
        victim row is generated last and keeps the row."""
        space = tiny_space()
        current = np.full(4, 2.0)
        victims = np.array([False, True, False, False])
        cset = assert_candidates_equal(
            space, current, np.full(4, 0.3), victims, True
        )
        boosted = current.copy()
        boosted[1] = 2.0 + 0.6
        hits = indices_equal_to(cset, boosted)
        assert len(hits) == 1
        assert cset.kind_of(hits[0]) is ActionKind.SCALE_UP_VICTIM

    @APPS
    def test_tied_utilizations(self, app):
        """Ties in the utilization order: the batch scale-downs take
        numpy's ``argsort`` order, which is not a stable sort's above 16
        tiers."""
        space = served_space(app)
        n = space.n_tiers
        rng = np.random.default_rng(77)
        for trial in range(8):
            current = np.round(
                rng.uniform(space.min_alloc + 0.5, space.max_alloc), 1
            )
            if trial == 0:
                util = np.full(n, 0.3)
            else:
                util = rng.choice([0.1, 0.2, 0.3], size=n)
            assert_candidates_equal(space, current, util, None, True)

    @APPS
    @pytest.mark.parametrize("bound", ["floor", "ceiling"])
    def test_every_tier_at_a_bound(self, app, bound):
        space = served_space(app)
        n = space.n_tiers
        at_floor = bound == "floor"
        current = (space.min_alloc if at_floor else space.max_alloc).copy()
        for allow_down in (True, False):
            cset = assert_candidates_equal(
                space, current, np.full(n, 0.3), np.ones(n, dtype=bool),
                allow_down,
            )
            kinds = {cset.kind_of(i) for i in range(len(cset))}
            if at_floor:
                assert not kinds & {
                    ActionKind.SCALE_DOWN, ActionKind.SCALE_DOWN_BATCH
                }
            elif not allow_down:
                assert kinds == {ActionKind.HOLD}
            else:
                assert not kinds & {
                    ActionKind.SCALE_UP,
                    ActionKind.SCALE_UP_ALL,
                    ActionKind.SCALE_UP_VICTIM,
                }

    @pytest.mark.parametrize(
        "absolute_steps, relative_steps, batch_sizes, util_cap",
        [
            # A long menu with repeats, and batch sizes of no tier, of
            # one, of all but the busiest (-1) and beyond the tier count.
            (
                tuple(np.round(np.arange(0.05, 2.01, 0.15), 2)),
                (0.05, 0.1, 0.1, 0.5),
                (0, 1, 3, -1, 28, 10**9),
                0.5,
            ),
            ((0.2,), (), (5,), 0.9),
            ((), (0.1, 0.3), (), 0.6),
        ],
        ids=["long-menu", "one-step", "relative-only"],
    )
    def test_other_menus_batches_and_caps(
        self, absolute_steps, relative_steps, batch_sizes, util_cap
    ):
        """The kernel sizes its buffers from the space's own menu, batch
        sizes and ratios: other constructor arguments than the served
        ones give the oracle's rows too."""
        graph = social_network()
        space = ActionSpace(
            graph.min_alloc(), graph.max_alloc(), absolute_steps,
            relative_steps, batch_sizes, util_cap,
        )
        n = space.n_tiers
        rng = np.random.default_rng(5)
        for trial in range(6):
            current = np.round(
                rng.uniform(space.min_alloc, space.max_alloc), 1
            )
            util = rng.uniform(0.0, 0.8, n)
            victims = rng.random(n) < 0.2 if trial % 2 else None
            for allow_down in (True, False):
                assert_candidates_equal(
                    space, current, util, victims, allow_down
                )

    def test_projected_utilization_exactly_at_the_cap(self):
        """A scale-down that projects a tier to exactly ``util_cap`` is
        allowed, for one tier and for a batch."""
        space = tiny_space()
        cap = space.util_cap
        # Tier 0 by one core: 2.0 -> 1.0.
        current = np.array([2.0, 3.0, 3.0, 3.0])
        util = np.array([exact_cap_util(cap, 2.0, 1.0), 0.9, 0.9, 0.9])
        cset = assert_candidates_equal(space, current, util, None, True)
        row = current.copy()
        row[0] = 1.0
        assert [cset.kind_of(i) for i in indices_equal_to(cset, row)] == [
            ActionKind.SCALE_DOWN
        ]
        # The batch of two, by 10%: tiers 0 and 1, 2.0 -> 1.8 each.
        current = np.array([2.0, 2.0, 3.0, 3.0])
        at_cap = exact_cap_util(cap, 2.0, 2.0 * 0.9)
        util = np.array([at_cap, at_cap, 0.9, 0.9])
        cset = assert_candidates_equal(space, current, util, None, True)
        row = current.copy()
        row[:2] = 2.0 * 0.9
        assert [cset.kind_of(i) for i in indices_equal_to(cset, row)] == [
            ActionKind.SCALE_DOWN_BATCH
        ]


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
