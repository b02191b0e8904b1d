"""Each output check passes a good result and fails a corrupted one."""

import math

import numpy as np
import pytest

from sinanbench import checks
from sinanbench.host import source_digest

LOW = np.array([0.5, 1.0, 0.2])
HIGH = np.array([4.0, 8.0, 2.0])
GOOD_OUTCOME = {"qos_attainment": 0.99, "mean_cpu_cores": 12.0,
                "rmse_val_ms": 40.0, "bt_accuracy_val": 0.95}


def good_allocs():
    return np.array([[1.0, 2.0, 0.5], [0.5, 8.0, 2.0], [4.0, 1.0, 0.2]])


def test_control_accepts_a_good_result():
    assert checks.check_control(good_allocs(), LOW, HIGH, 3, 3, GOOD_OUTCOME) == []


@pytest.mark.parametrize("corrupt", [
    lambda a, o: (a.__setitem__((1, 0), 0.4), 3),
    lambda a, o: (a.__setitem__((2, 1), 8.5), 3),
    lambda a, o: (a.__setitem__((0, 2), math.nan), 3),
    lambda a, o: (None, 2),
    lambda a, o: (o.__setitem__("mean_cpu_cores", math.inf), 3),
    lambda a, o: (o.__setitem__("rmse_val_ms", math.nan), 3),
])
def test_control_rejects_a_corrupted_result(corrupt):
    allocs, outcome = good_allocs(), dict(GOOD_OUTCOME)
    _, rows = corrupt(allocs, outcome)
    assert checks.check_control(allocs, LOW, HIGH, rows, 3, outcome)


BUDGET = 20.0


def good_grants():
    floors = {"a": 5.0, "b": 7.0}
    decisions = [({"a": 5.0, "b": 15.0}, floors), ({"a": 9.0, "b": 7.0}, floors)]
    return decisions, np.array([19.5, 16.0])


def test_grants_accept_a_good_result():
    assert checks.check_grants(BUDGET, *good_grants()) == []


def test_grants_reject_overcommit():
    decisions, applied = good_grants()
    decisions[0][0]["a"] = 5.5
    assert "exceed budget" in checks.check_grants(BUDGET, decisions, applied)[0]


def test_grants_are_checked_against_the_configured_budget():
    # An arbiter that reports (and fills) a budget of 21 still overcommits
    # the 20 cores the cluster has.
    decisions, applied = good_grants()
    decisions[0][0]["b"] = 16.0
    assert "exceed budget 20" in checks.check_grants(BUDGET, decisions, applied)[0]


def test_grants_reject_a_floor_breach():
    decisions, applied = good_grants()
    decisions[1][0]["b"] = 6.0
    assert "below its floor" in checks.check_grants(BUDGET, decisions, applied)[0]


@pytest.mark.parametrize("bad", [20.5, math.nan])
def test_grants_reject_applied_cpu_over_the_budget(bad):
    # The grants are fine, but the tenants ran with more than they got.
    decisions, applied = good_grants()
    applied[1] = bad
    assert "ran more than the budget" in checks.check_grants(BUDGET, decisions, applied)[0]


def test_grants_reject_an_empty_record():
    assert checks.check_grants(BUDGET, [], np.array([]))


def test_same_is_bitwise():
    cell = {"qos": 0.9, "allocs": np.arange(6.0).reshape(2, 3), "fallbacks": 2}
    assert checks.check_same("cell", cell, {**cell, "allocs": cell["allocs"].copy()}) == []
    nudged = cell["allocs"].copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], 10.0)
    assert checks.check_same("cell", cell, {**cell, "allocs": nudged})
    assert checks.check_same("cell", cell, {**cell, "qos": 0.9000000000000001})
    assert checks.check_same("cell", cell, {"qos": 0.9})
    with_nan = np.array([1.0, math.nan])
    assert checks.check_same("x", with_nan, with_nan.copy())


def test_train_checks_sample_count_and_finite_quality():
    assert checks.check_train(780, 780, GOOD_OUTCOME) == []
    assert checks.check_train(779, 780, GOOD_OUTCOME)
    assert checks.check_train(780, 780, {**GOOD_OUTCOME, "bt_accuracy_val": math.nan})


def test_source_digest_follows_source_files(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    module = src / "mod.py"
    module.write_text("x = 1\n")
    before = source_digest(tmp_path / "src")
    (src / "__pycache__").mkdir()
    (src / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0" * 8)
    assert source_digest(tmp_path / "src") == before
    module.write_text("x = 2\n")
    changed = source_digest(tmp_path / "src")
    assert changed != before
    (src / "new.py").write_text("")
    assert source_digest(tmp_path / "src") != changed
