"""Action-space tests (paper Table 1)."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.actions import Action, ActionKind, ActionSpace


@pytest.fixture
def space():
    return ActionSpace(
        min_alloc=np.full(4, 0.2),
        max_alloc=np.full(4, 8.0),
        util_cap=0.6,
    )


def kinds_of(cset):
    return {cset.kind_of(i) for i in range(len(cset))}


def allocs_of(cset, *kinds):
    """Candidate allocations of the given kinds, in generation order."""
    return [
        cset.allocs[i] for i in range(len(cset)) if cset.kind_of(i) in kinds
    ]


class TestCandidateGeneration:
    def test_contains_table1_kinds(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.1, 0.2, 0.3, 0.4])
        victims = np.array([True, False, False, False])
        actions = space.candidates(current, util, victims=victims)
        got = kinds_of(actions)
        assert ActionKind.HOLD in got
        assert ActionKind.SCALE_DOWN in got
        assert ActionKind.SCALE_DOWN_BATCH in got
        assert ActionKind.SCALE_UP in got
        assert ActionKind.SCALE_UP_ALL in got
        assert ActionKind.SCALE_UP_VICTIM in got

    def test_exactly_one_hold(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        holds = allocs_of(actions, ActionKind.HOLD)
        assert len(holds) == 1
        np.testing.assert_allclose(holds[0], 2.0)

    def test_all_candidates_within_bounds(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        for alloc in actions.allocs:
            assert np.all(alloc >= space.min_alloc - 1e-12)
            assert np.all(alloc <= space.max_alloc + 1e-12)

    def test_allow_scale_down_false_removes_downs(self, space):
        actions = space.candidates(
            np.full(4, 2.0), np.full(4, 0.1), allow_scale_down=False
        )
        got = kinds_of(actions)
        assert ActionKind.SCALE_DOWN not in got
        assert ActionKind.SCALE_DOWN_BATCH not in got
        assert ActionKind.SCALE_UP in got

    def test_util_cap_blocks_hot_tier_downscale(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.59, 0.1, 0.1, 0.1])  # tier 0 busy = 1.18 cores
        actions = space.candidates(current, util)
        for alloc in allocs_of(actions, ActionKind.SCALE_DOWN):
            if alloc[0] < 2.0:
                projected = 0.59 * 2.0 / alloc[0]
                assert projected <= space.util_cap + 1e-9

    def test_hot_tier_does_not_veto_other_downscales(self, space):
        """Regression: a tier already above the cap must not block
        reclaiming other idle tiers."""
        current = np.full(4, 2.0)
        util = np.array([0.9, 0.01, 0.01, 0.01])
        actions = space.candidates(current, util)
        downs = allocs_of(
            actions, ActionKind.SCALE_DOWN, ActionKind.SCALE_DOWN_BATCH
        )
        assert downs, "idle tiers should still be reclaimable"
        for alloc in downs:
            assert alloc[0] == pytest.approx(2.0)  # hot tier untouched

    def test_at_floor_no_scale_down(self, space):
        current = np.full(4, 0.2)
        actions = space.candidates(current, np.full(4, 0.05))
        got = kinds_of(actions)
        assert ActionKind.SCALE_DOWN not in got
        assert ActionKind.SCALE_DOWN_BATCH not in got

    def test_at_ceiling_no_single_scale_up(self, space):
        current = np.full(4, 8.0)
        actions = space.candidates(current, np.full(4, 0.3))
        assert ActionKind.SCALE_UP not in kinds_of(actions)
        assert ActionKind.SCALE_UP_ALL not in kinds_of(actions)

    def test_victims_scale_up(self, space):
        current = np.full(4, 2.0)
        victims = np.array([False, True, True, False])
        actions = space.candidates(current, np.full(4, 0.3), victims=victims)
        victim_ups = allocs_of(actions, ActionKind.SCALE_UP_VICTIM)
        assert len(victim_ups) == 1
        changed = victim_ups[0] != current
        np.testing.assert_array_equal(changed, victims)

    def test_no_victim_action_without_victims(self, space):
        actions = space.candidates(np.full(4, 2.0), np.full(4, 0.3))
        assert ActionKind.SCALE_UP_VICTIM not in kinds_of(actions)

    def test_batch_targets_least_utilized(self, space):
        current = np.full(4, 2.0)
        util = np.array([0.5, 0.05, 0.4, 0.02])
        actions = space.candidates(current, util)
        # The batch of two: the only batch rows that shrink two tiers.
        batch2 = [
            alloc for alloc in allocs_of(actions, ActionKind.SCALE_DOWN_BATCH)
            if (alloc < current).sum() == 2
        ]
        assert batch2
        reduced = np.flatnonzero(batch2[0] < current)
        assert set(reduced) == {1, 3}

    def test_candidates_are_unique(self, space):
        """Regression: distinct steps clipping to the same boundary used
        to produce duplicate allocations that were scored twice."""
        for current_val in (0.3, 2.0, 7.9):  # near floor, middle, near ceiling
            current = np.full(4, current_val)
            victims = np.array([True, False, False, True])
            actions = space.candidates(
                current, np.full(4, 0.1), victims=victims
            )
            keys = [tuple(np.round(alloc, 9)) for alloc in actions.allocs]
            assert len(keys) == len(set(keys))

    def test_dedupe_keeps_most_specific_kind(self, space):
        """When a victim boost coincides with a generic single-tier
        upscale, the victim action's label survives."""
        current = np.full(4, 2.0)
        victims = np.array([True, False, False, False])
        actions = space.candidates(
            current, np.full(4, 0.3), victims=victims
        )
        got = kinds_of(actions)
        assert ActionKind.SCALE_UP_VICTIM in got
        assert ActionKind.SCALE_UP in got

    def test_max_allocation_action(self, space):
        action = space.max_allocation_action()
        np.testing.assert_allclose(action.alloc, space.max_alloc)
        assert action.kind is ActionKind.SCALE_UP_ALL

    def test_total_cpu(self):
        action = Action(ActionKind.HOLD, np.array([1.0, 2.0]), "hold")
        assert action.total_cpu == pytest.approx(3.0)


@pytest.mark.usefixtures("backend")
class TestStateValidation:
    """``candidates`` refuses a malformed state before it builds any
    row, on the compiled kernel and without it alike."""

    @pytest.mark.parametrize(
        "current, cpu_util",
        [
            (np.full(4, 2.0), np.full(1, 0.3)),  # would broadcast
            (np.full(3, 2.0), np.full(4, 0.3)),
            (np.full(4, 2.0), np.full(5, 0.3)),
            (np.full((1, 4), 2.0), np.full(4, 0.3)),
            (np.full(4, 2.0), np.full((4, 1), 0.3)),
            (np.float64(2.0), np.full(4, 0.3)),
        ],
    )
    def test_wrong_shapes(self, space, current, cpu_util):
        with pytest.raises(ValueError, match="entries"):
            space.candidates(current, cpu_util)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["current", "cpu_util"])
    def test_non_finite_values(self, space, bad, which):
        state = {"current": np.full(4, 2.0), "cpu_util": np.full(4, 0.3)}
        state[which][2] = bad
        with pytest.raises(ValueError, match="finite"):
            space.candidates(**state)

    @pytest.mark.parametrize(
        "victims",
        [
            np.array([0, 1, 0, 0]),  # indices, not a mask
            np.array([0.0, 1.0, 0.0, 0.0]),
            np.array([False, True, False]),
            np.array([[False, True, False, False]]),
        ],
    )
    def test_victims_must_be_a_tier_mask(self, space, victims):
        with pytest.raises(ValueError, match="victims"):
            space.candidates(np.full(4, 2.0), np.full(4, 0.3), victims=victims)

    def test_well_formed_state_passes(self, space):
        cset = space.candidates(
            [2.0, 2.0, 2.0, 2.0],
            np.full(4, 0.3),
            victims=[False, True, False, False],
        )
        boosted = allocs_of(cset, ActionKind.SCALE_UP_VICTIM)
        assert len(boosted) == 1
        np.testing.assert_array_equal(boosted[0], [2.0, 2.0 + 0.6, 2.0, 2.0])

    def test_bounds_must_match(self):
        with pytest.raises(ValueError, match="one entry per tier"):
            ActionSpace(np.full(4, 0.2), np.full(3, 8.0))
        with pytest.raises(ValueError, match="one entry per tier"):
            ActionSpace(np.full((2, 2), 0.2), np.full((2, 2), 8.0))
        with pytest.raises(ValueError, match="one entry per tier"):
            ActionSpace(np.empty(0), np.empty(0))

    def test_space_copies_after_use(self, space):
        """Nothing of a call stays on the space: a pickled or deep-copied
        space generates the same candidates."""
        state = (np.full(4, 2.0), np.array([0.1, 0.2, 0.3, 0.4]))
        first = space.candidates(*state)
        for twin in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space)):
            again = twin.candidates(*state)
            assert again.allocs.tobytes() == first.allocs.tobytes()
            assert again.kinds.tobytes() == first.kinds.tobytes()

